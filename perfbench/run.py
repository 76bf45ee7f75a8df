#!/usr/bin/env python3
"""ccybe benchmark: verify, catalog and sweep workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 0 --seconds 25 --trace 0

One process, one client, closed loop: each op starts when the previous
one has returned and its output has been checked.  The run repeats the
workload's ops in a seeded order for --seconds seconds (at least once
each).  `--workload all` runs the three workloads one after another.

With --trace 0 it reports the end-to-end metrics.  An op key names one
input; wall_s is the sum over keys of each key's median latency (the
time of one pass over the inputs), op_p50_ms is the median of those
per-key medians, op_p90_ms the 90th percentile of an op's latency in
such a pass (see pass_quantile), and ops_per_s is keys / wall_s.
setup_s is the median of fifteen set-ups, each a fresh import of ccybe
plus building the inputs, timed after the ops.  Every time is scaled to
a reference host speed measured between ops (see Speed).

With --trace 1 it alternates untraced and traced passes over all ops
and reports per-layer metrics per traced pass, from spans the tracer
records around calls into each module (see tracing.py and README.md).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files, the stamped
result and the span dump go to .perfbench_out/ under the root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left
from itertools import accumulate
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer
from workloads import SETUPS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("exactpoly", "ybe", "families", "search", "rmatfile", "cli")
SETUP_REPEATS = 15
WARMUP_SECONDS = 2.0
PROBE_ITERATIONS = 3000
PROBE_REF_S = 0.010
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 0.5

# Stage timings of thm5_ii with a formal monic f of degree 5, in ms, as
# measured when the project's performance baseline was set.
STAGE_FILE = "thm5_ii/formal/f5"
STAGE_BASELINE_MS = {"bracket": 15, "reduce": 16, "actions": 156, "elim": 381,
                     "invariance": 33}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# (metric, unit, span name, field): field is 0 calls, 1 seconds, 2 self
# seconds, 3 the span's count (terms, term products, candidates).
SPAN_METRICS = (
    ("exactpoly.mul.calls", "count", "exactpoly.mul", 0),
    ("exactpoly.mul.self_s", "s", "exactpoly.mul", 2),
    ("exactpoly.mul.term_products", "count", "exactpoly.mul", 3),
    ("exactpoly.add.calls", "count", "exactpoly.add", 0),
    ("exactpoly.add.self_s", "s", "exactpoly.add", 2),
    ("exactpoly.subst_many.calls", "count", "exactpoly.subst_many", 0),
    ("exactpoly.subst_many.self_s", "s", "exactpoly.subst_many", 2),
    ("conformal.act_on_tensor.calls", "count", "conformal.act_on_tensor", 0),
    ("conformal.act_on_tensor.s", "s", "conformal.act_on_tensor", 1),
    ("conformal.reduce_mod_total.elim_s", "s", "conformal.reduce_mod_total.elim", 1),
    ("conformal.reduce_mod_total.d1_s", "s", "conformal.reduce_mod_total.d1", 1),
    ("conformal.tau.s", "s", "conformal.tau", 1),
    ("ybe.ccybe_bracket.calls", "count", "ybe.ccybe_bracket", 0),
    ("ybe.ccybe_bracket.s", "s", "ybe.ccybe_bracket", 1),
    ("ybe.ccybe_bracket.terms", "count", "ybe.ccybe_bracket", 3),
    ("ybe.is_invariant.s", "s", "ybe.is_invariant", 1),
    ("ybe.is_weak_solution.s", "s", "ybe.is_weak_solution", 1),
    ("ybe.is_strict_solution.s", "s", "ybe.is_strict_solution", 1),
    ("ybe.derive_projection.s", "s", "ybe.derive_projection", 1),
    ("ybe.derive_weak_projection.s", "s", "ybe.derive_weak_projection", 1),
    ("ybe.eval_equation.calls", "count", "ybe.eval_equation", 0),
    ("ybe.eval_equation.s", "s", "ybe.eval_equation", 1),
    ("rmatfile.load.calls", "count", "rmatfile.load", 0),
    ("rmatfile.load.s", "s", "rmatfile.load", 1),
    ("cli.main.self_s", "s", "cli.main", 2),
    ("families.characterize.calls", "count", "families.characterize", 0),
    ("families.characterize.s", "s", "families.characterize", 1),
    ("families.scalar_relation_residues.s", "s", "families.scalar_relation_residues", 1),
    ("search.candidates_decoded", "count", "search.run_search", 3),
    ("search.prescreen_survivors", "count", "search.candidate_profile", 0),
    ("search.exact_survivors", "count", "search.post_verify", 0),
    ("search.scan.self_s", "s", "search.run_search", 2),
    ("search.post_verify.s", "s", "search.post_verify", 1),
)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def fresh_import() -> SimpleNamespace:
    """Import ccybe from SRC anew, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "ccybe" or m.startswith("ccybe.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module(f"ccybe.{n}") for n in MODULES})
    if Path(mods.cli.__file__).resolve().parent != SRC / "ccybe":
        raise ImportError(f"ccybe was imported from {mods.cli.__file__}, not {SRC}")
    return mods


def set_up(name: str, seed: int):
    """A fresh import of ccybe plus the workload's inputs; returns
    (modules, workload)."""
    mods = fresh_import()
    return mods, SETUPS[name](mods, seed, OUT / name)


def warm_up(seconds: float = WARMUP_SECONDS) -> None:
    """Keep the CPU busy before timing: on shared virtual CPUs the first
    second or two after an idle spell run markedly slower."""
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        sum(i * i for i in range(1000))


def timed(op, tracer=None):
    """Run one op; returns (start, seconds, problem or None).  The check
    runs after the clock stops."""
    sid = tracer.begin_op(op.key) if tracer else None
    t0 = perf_counter()
    try:
        out, problem = op.run(), None
    except Exception as err:   # a crashing op is a failed op; the run goes on
        out, problem = None, f"{type(err).__name__}: {err}"
    seconds = perf_counter() - t0
    if tracer:
        tracer.end_op(sid)
    if problem is None:
        try:
            problem = op.check(out)
        except Exception as err:
            problem = f"unreadable output: {type(err).__name__}: {err}"
    return t0, seconds, problem


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, key: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{key}: {problem}")


def probe() -> float:
    """Seconds for a fixed piece of pure-Python rational arithmetic."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, PROBE_ITERATIONS):
            acc += Fraction(1, i % 97 + 1)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """Samples the host's speed while the ops run.

    On shared virtual CPUs the same work runs up to twice as slowly, in
    spells from a second to minutes long.  While a Speed is entered, an
    interval timer runs `probe` every PROBE_EVERY_S, in the middle of an
    op too.  After exit, `scaled` takes an op's time less the probes that
    ran inside it, times PROBE_REF_S / (mean probe time within
    PROBE_WINDOW_S of the op), so it reads as seconds on a host that runs
    the probe in PROBE_REF_S.
    """

    def __init__(self):
        self.samples: list[tuple] = []   # (start, seconds) per probe

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.starts = [start for start, _ in self.samples]
        self.probes = [seconds for _, seconds in self.samples]
        self._sums = list(accumulate(self.probes, initial=0.0))

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, probe()))

    def paused(self, start: float, end: float) -> float:
        """Seconds spent in probes that started in [start, end)."""
        return (self._sums[bisect_left(self.starts, end)]
                - self._sums[bisect_left(self.starts, start)])

    def scaled(self, start: float, seconds: float) -> float:
        end = start + seconds
        lo = bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect_left(self.starts, end + PROBE_WINDOW_S)
        near = self.probes[lo:hi] or self.probes[max(lo - 1, 0):lo + 1]
        return (seconds - self.paused(start, end)) * PROBE_REF_S / statistics.mean(near)


def measure(workload, seconds: float, rng, tally: Tally, speed: Speed) -> list:
    """Closed loop over seeded passes until `seconds` have elapsed and
    every op key has a sample; returns (key, start, seconds) per op."""
    runs = []
    keys = {op.key for op in workload.ops}
    t_begin = perf_counter()
    while True:
        order = list(workload.ops)
        rng.shuffle(order)
        for op in order:
            start, dt, problem = timed(op)
            tally.add(op.key, problem)
            runs.append((op.key, start, dt))
            keys.discard(op.key)
            if perf_counter() - t_begin >= seconds and not keys:
                return runs


def measure_traced(workload, mods, seconds: float, rng, tally: Tally,
                   tracer: Tracer) -> list:
    """Alternate whole untraced and traced passes until `seconds` have
    elapsed and there is one of each; returns (traced, [(start, seconds)
    per op]) per pass."""
    passes = []
    t_begin = perf_counter()
    while len(passes) < 2 or perf_counter() - t_begin < seconds:
        traced = len(passes) % 2 == 1
        order = list(workload.ops)
        rng.shuffle(order)
        ops = []
        if traced:
            tracer.install(mods)
        try:
            for op in order:
                start, dt, problem = timed(op, tracer if traced else None)
                tally.add(op.key, problem)
                ops.append((start, dt))
        finally:
            tracer.restore()
        passes.append((traced, ops))
    return passes


def pass_quantile(samples: dict, q: float) -> float:
    """Quantile q of the latency of one op in a pass over the inputs: all
    samples pooled, each key weighing the same however often it ran,
    interpolated between the weight midpoints of neighbouring samples."""
    points = sorted((x, 1 / len(xs)) for xs in samples.values() for x in xs)
    total, acc, mids = len(samples), 0.0, []
    for x, w in points:
        mids.append(((acc + w / 2) / total, x))
        acc += w
    if q <= mids[0][0]:
        return mids[0][1]
    for (c0, x0), (c1, x1) in zip(mids, mids[1:]):
        if q <= c1:
            return x0 + (x1 - x0) * (q - c0) / (c1 - c0)
    return mids[-1][1]


def e2e_metrics(samples: dict, setup_s: float, peak_rss_mb: float) -> dict:
    per_key = [statistics.median(xs) for xs in samples.values()]
    wall = sum(per_key)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_p50_ms": statistics.median(per_key) * 1e3,
        "op_p90_ms": pass_quantile(samples, 0.9) * 1e3,
        "ops_per_s": len(per_key) / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def layer_metrics(tracer: Tracer, walls: dict, factor: float) -> dict:
    """Per-layer metrics per traced pass, with units, from a settled
    tracer; times are scaled by `factor` to the reference speed."""
    passes = len(walls[True])
    none = [0, 0.0, 0.0, 0]
    totals = tracer.totals()
    out = {metric: (totals.get(span, none)[field] / passes, unit)
           for metric, unit, span, field in SPAN_METRICS}
    under_scan = tracer.totals(under="search.run_search")
    exact_filter = sum(under_scan.get(n, none)[1]
                       for n in ("search.candidate_profile", "ybe.eval_equation"))
    out["search.exact_filter.s"] = (exact_filter / passes, "s")
    prescreened = totals.get("search.candidate_profile", none)[0]
    out["search.prescreen_precision"] = (
        totals.get("search.post_verify", none)[0] / prescreened if prescreened else 0.0,
        "ratio")

    def per_op(mode, span, field=1):
        ops = {i for i, k in enumerate(tracer.op_keys) if k == f"{STAGE_FILE} {mode}"}
        return tracer.totals(ops=ops).get(span, none)[field] / len(ops) if ops else 0.0

    stages = {
        "bracket": per_op("weak", "ybe.ccybe_bracket"),
        "reduce": per_op("strict", "conformal.reduce_mod_total.d1"),
        "actions": per_op("weak", "conformal.act_on_tensor"),
        "elim": per_op("weak", "conformal.reduce_mod_total.elim"),
        "invariance": per_op("invariance", "ybe.is_invariant"),
    }
    for stage, seconds in stages.items():
        out[f"stage.thm5_ii_f5.{stage}_ms"] = (seconds * 1e3, "ms")
    out["stage.thm5_ii_f5.bracket_terms"] = (per_op("weak", "ybe.ccybe_bracket", 3), "count")
    out = {k: (v * factor if u in ("s", "ms") else v, u) for k, (v, u) in out.items()}
    untraced = statistics.median(walls[False])
    traced = statistics.median(walls[True])
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.wall_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def source_digest() -> str:
    h = sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    mods, workload = set_up(name, seed)
    warm_up()
    rng = random.Random(seed)
    tally = Tally()
    t0 = perf_counter()
    tracer = Tracer() if trace else None
    with Speed() as speed:
        if trace:
            passes = measure_traced(workload, mods, seconds, rng, tally, tracer)
            elapsed = perf_counter() - t0
        else:
            runs = measure(workload, seconds, rng, tally, speed)
            elapsed = perf_counter() - t0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Timed after the ops, with the CPU warm; these set-ups redo
            # the first one exactly, and the ops keep their modules.
            setups = []
            for _ in range(SETUP_REPEATS):
                start = perf_counter()
                set_up(name, seed)
                setups.append((start, perf_counter() - start))
    if trace:
        walls = {False: [], True: []}
        busy_traced = 0.0
        for traced, ops in passes:
            walls[traced].append(sum(speed.scaled(st, dt) for st, dt in ops))
            if traced:
                busy_traced += sum(dt - speed.paused(st, st + dt) for st, dt in ops)
        tracer.settle(speed.paused)
        metrics = layer_metrics(tracer, walls, sum(walls[True]) / busy_traced)
        detail = {"pass_walls": {str(k).lower(): v for k, v in walls.items()}}
    else:
        samples = {op.key: [] for op in workload.ops}
        for key, st, dt in runs:
            samples[key].append(speed.scaled(st, dt))
        setup_s = statistics.median(speed.scaled(st, dt) for st, dt in setups)
        metrics = e2e_metrics(samples, setup_s, peak_rss_mb)
        detail = {"ops": [(k, dt, speed.scaled(st, dt)) for k, st, dt in runs],
                  "setups": [dt for _, dt in setups], "probes": speed.probes}
    tally.problems += [f"end of run: {p}" for p in workload.finish()]
    failed = min(len(tally.problems), tally.attempted)

    print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(workload.ops)} op keys, "
          f"{tally.attempted} ops in {elapsed:.1f} s")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:.6g} {unit}")
    print(f"  {'error_ratio':40s} {failed / tally.attempted:.6g} "
          f"({failed} failed of {tally.attempted})")
    if not trace:
        per_s = metrics["ops_per_s"][0]
        if name == "sweep":
            alias = "candidates_per_s"
            per_s *= workload.inputs["consistent_candidates"]
        else:
            alias = {"verify": "verifies_per_s", "catalog": "identities_per_s"}[name]
        print(f"  {alias:40s} {per_s:.6g} 1/s")
    if trace and name == "verify":
        ms = {st: metrics[f"stage.thm5_ii_f5.{st}_ms"][0] for st in STAGE_BASELINE_MS}
        total, base_total = sum(ms.values()), sum(STAGE_BASELINE_MS.values())
        print(f"  stages of {STAGE_FILE}, traced, ms (share) vs baseline: " + ", ".join(
            f"{st} {ms[st]:.1f} ({ms[st] / total:.0%}) vs {base} ({base / base_total:.0%})"
            for st, base in STAGE_BASELINE_MS.items())
            + f"; bracket terms {metrics['stage.thm5_ii_f5.bracket_terms'][0]:.0f} vs 156")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)

    stamp = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
             "git_sha": git_sha(), "src_sha256": source_digest(),
             "python": platform.python_version(), "cpus": os.cpu_count(),
             "op_keys": len(workload.ops), "ops": tally.attempted,
             "inputs": workload.inputs}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    base.with_suffix(".json").write_text(json.dumps(
        dict(result, stamp=stamp, problems=tally.problems, detail=detail),
        indent=2, sort_keys=True) + "\n")
    if trace:
        tracer.write(base.with_suffix(".spans.csv"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SETUPS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (SRC / "ccybe" / "__init__.py").is_file():
        return fail(f"no ccybe sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    names = sorted(SETUPS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
