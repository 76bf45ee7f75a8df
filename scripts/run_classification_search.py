#!/usr/bin/env python3
"""Run the desk-scale classification cross-checks and write JSON reports.

Four searches: the raw degree-1 sweep over the full {-1,0,1} grids in
weak and strict mode, and odd-ansatz sweeps at degrees 3 and 5 over the
coefficient grid {0,1}.  Every survivor is independently re-verified
with the full tensor computation; the exit status is 1 if any
characterization failure shows up, else 0.  If the reader closes
standard output early (as `| head` does), the script stops there
without a traceback and exits 141 (128 + SIGPIPE, the status a shell
reports for a process that SIGPIPE ends).
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from ccybe import search

RUNS = {
    "weak_raw_deg1": search.SearchConfig(
        max_degree=1, coeff_grid=(-1, 0, 1), constants_grid=(-1, 0, 1),
        mode="weak", raw=True),
    "strict_raw_deg1": search.SearchConfig(
        max_degree=1, coeff_grid=(-1, 0, 1), constants_grid=(-1, 0, 1),
        mode="strict", raw=True),
    "weak_odd_deg3": search.SearchConfig(
        max_degree=3, coeff_grid=(0, 1), constants_grid=(-1, 0, 1),
        mode="weak"),
    "weak_odd_deg5": search.SearchConfig(
        max_degree=5, coeff_grid=(0, 1), constants_grid=(-1, 0, 1),
        mode="weak"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, base in RUNS.items():
        cfg = dataclasses.replace(base, workers=args.jobs)
        t0 = time.time()
        report = search.run_search(cfg)
        path = out_dir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        cases = {}
        for record in report.survivors:
            cases[record["case"]] = cases.get(record["case"], 0) + 1
        print(f"{name}: {report.candidates_scanned} scanned, "
              f"{len(report.survivors)} survivors {cases}, "
              f"{len(report.characterization_failures)} failures "
              f"({time.time() - t0:.1f}s) -> {path}")
        failures += len(report.characterization_failures)
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now goes nowhere, so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
