"""Command-line front end.

Commands: verify, expand, catalog, family, search, vir.  Exit status is
0 when the requested check passes, 1 when it fails, and 2 for usage,
parse, or constraint errors.  All numeric output is exact rational
text; there is no floating point anywhere in the tool.  Only the
commands that use them import `search` (with multiprocessing) and
`families`.  Run as a process, the tool exits 141 without a traceback
when its reader closes standard output early (see main).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import stat
import sys
from fractions import Fraction

from . import rmatfile, ybe
from .exactpoly import ExponentOverflow, ParseError, SymbolRegistry

PASS, FAIL, USAGE = 0, 1, 2


def _defect_rows(defects) -> list:
    """One row per coefficient of each tensor in `defects`, a map from
    the acting generator (None for the strict residue) to a tensor."""
    return [
        {"generator": generator, "tuple": list(tup), "poly": tensor.entries[tup].to_string()}
        for generator, tensor in sorted(defects.items())
        for tup in sorted(tensor.entries)
    ]


def _emit_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        report["content_hash"] = ybe.canonical_hash(report)
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    status = "PASS" if report["ok"] else "FAIL"
    print(f"{report['check']}: {status}")
    for row in report["defects"]:
        where = f"{row['generator']} @ " if row["generator"] else ""
        print(f"  {where}{'(' + ', '.join(row['tuple']) + ')'}: {row['poly']}")
    for key in ("specialized_residue", "specialized_residue_normalized"):
        if key in report:
            print(f"  {key.replace('_', ' ')}: {report[key]}")


def _run_check(r, mode: str) -> dict:
    if mode == "invariance":
        ok, defects = ybe.is_invariant(r)
    elif mode == "weak":
        ok, defects = ybe.is_weak_solution(r)
    else:
        ok, residue = ybe.is_strict_solution(r)
        defects = {None: residue}
    report = {
        "check": mode,
        "algebra": "cur_sl2" if r.alg.kind == "cur" else "vir",
        "ok": ok,
        "defects": _defect_rows(defects),
    }
    if r.alg.kind == "vir" and mode == "weak" and not ok:
        reg = r.alg.reg
        slice_poly = defects["v"].entries.get(("v", "v", "v"), reg.zero())
        slice_poly = slice_poly.subst_many({
            reg.sym("d3"): reg.zero(),
            reg.sym("d1"): reg.var("d2") * -2,
        })
        report["specialized_residue"] = slice_poly.to_string()
        report["specialized_residue_normalized"] = (
            slice_poly * Fraction(1, 2)).to_string()
    return report


def _reads_rmatrix(run):
    """The handler that loads the r-matrix file `args.input` and returns
    run(args, r); a file that cannot be read or parsed prints one
    `error:` line and exits USAGE."""
    def handler(args) -> int:
        try:
            r = rmatfile.load(args.input)
        except (OSError, rmatfile.RMatFileError) as err:
            print(f"error: {err}", file=sys.stderr)
            return USAGE
        return run(args, r)
    return handler


@_reads_rmatrix
def cmd_verify(args, r) -> int:
    report = _run_check(r, args.mode)
    _emit_report(report, args.format)
    return PASS if report["ok"] else FAIL


@_reads_rmatrix
def cmd_expand(args, r) -> int:
    bracket = ybe.ccybe_bracket(r)
    print("reduced modulo the total derivation:")
    for tup in sorted(bracket.entries):
        print(f"  ({', '.join(tup)}): {bracket.entries[tup].to_string()}")
    if not bracket.entries:
        print("  0")
    return PASS


# Bound on `catalog --degree`: the re-derivation's cost grows about as the
# fourth power of the degree.  All 13 identities take about 1.0 s and
# 57 MB at degree 16, 5.0 s and 175 MB at 24, and 16 s and 451 MB at 32
# (one CPU of a 2-CPU host, Python 3.11).
MAX_CATALOG_DEGREE = 16


def cmd_catalog(args) -> int:
    if not 0 <= args.degree <= MAX_CATALOG_DEGREE:
        print(f"error: --degree must be between 0 and {MAX_CATALOG_DEGREE}, "
              f"got {args.degree}", file=sys.stderr)
        return USAGE
    diffs = ybe.catalog_diffs(degree=args.degree)
    bad = {name: diff for name, diff in diffs.items() if not diff.is_zero()}
    if not bad:
        print(f"catalog: all {len(diffs)} identities re-derived exactly")
        return PASS
    print("catalog: MISMATCH")
    for name, diff in sorted(bad.items()):
        print(f"  {name}: {diff.to_string()}")
    return FAIL


# Bound on the decimal exponent of a number read as text: Fraction("1e999999999")
# builds 10**999999999 before anything could refuse it.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def _rational(value) -> Fraction:
    """An exact rational from a string, an int or a Fraction; ValueError
    otherwise.  JSON decimals reach it as their text, so 0.1 is 1/10."""
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise ValueError(f"expected a number or a string, got {value!r}")
    if isinstance(value, str):
        found = _EXPONENT.search(value)
        if found and abs(int(found.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {value!r} is beyond "
                             f"+-{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(value)
    except ZeroDivisionError as err:
        raise ValueError(f"not a finite rational: {value!r}") from err


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"expected name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        out[name.strip()] = _rational(value.strip())
    return out


def cmd_family(args) -> int:
    from . import families
    reg = SymbolRegistry()
    try:
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as fh:
                try:
                    data = json.load(fh, parse_float=_rational)
                except RecursionError as err:
                    raise ValueError(f"spec file nests too deeply: {err}") from err
            if not isinstance(data, dict):
                raise ValueError("a spec file must hold a JSON object")
            # a misspelt key ("F" for "f") would leave its default in place
            rmatfile.refuse_unknown_keys(data, ("case", "params", "f"), "a spec file",
                                         ("case",))
            case = data["case"]
            if not isinstance(case, str):
                raise ValueError(f"spec case must be a string, got {case!r}")
            params = data.get("params", {})
            if not isinstance(params, dict):
                raise ValueError("spec params must be a JSON object")
            params = {k: _rational(v) for k, v in params.items()}
            f_text = data.get("f", "1")
            if f_text is not None and not isinstance(f_text, str):
                raise ValueError(f"spec f must be a string, got {f_text!r}")
        else:
            if not args.case:
                print("error: provide a case name or --spec", file=sys.stderr)
                return USAGE
            case = args.case
            params = _parse_params(args.param)
            f_text = args.f
        # Entries carry x * f(x^2), so an f of degree n gives slot
        # degree 2n + 1, which must stay within MAX_SLOT_DEGREE.
        f_limit = (rmatfile.MAX_SLOT_DEGREE - 1) // 2
        f = reg.parse(f_text, max_degree=f_limit) if f_text else None
        if f is not None and f.symbols() - {reg.sym("t")}:
            raise ValueError(f"f must be a polynomial in t alone, got {f_text!r}")
        spec = families.FamilySpec(case, reg, params, f=f)
        r = ybe.lift_profile(families.build_profile(spec))
        rmatfile.dump(r, args.out)
    except (OSError, ValueError, KeyError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    print(f"wrote {args.out}")
    return PASS


# The flag of each SearchConfig field, so a refused configuration is
# reported in the terms the user typed.
_SEARCH_FLAGS = {"max_degree": "--max-degree", "coeff_grid": "--coeffs",
                 "constants_grid": "--constants", "workers": "--jobs"}


def _same_file(st: os.stat_result, stream) -> bool:
    """Whether `st` is the file that `stream` writes to; a stream with no
    file descriptor (a StringIO) is no file."""
    try:
        other = os.fstat(stream.fileno())
    except (OSError, ValueError):
        return False
    return (st.st_dev, st.st_ino) == (other.st_dev, other.st_ino)


def cmd_search(args) -> int:
    from . import search
    try:
        coeffs = tuple(_rational(v) for v in args.coeffs.split(",") if v.strip())
        constants = tuple(_rational(v) for v in args.constants.split(",") if v.strip())
        cfg = search.SearchConfig(
            max_degree=args.max_degree,
            coeff_grid=coeffs,
            constants_grid=constants,
            mode=args.mode,
            raw=args.raw,
            workers=args.jobs,
        )
    except search.SearchConfigError as err:
        flag = _SEARCH_FLAGS.get(err.field)
        print(f"error: {flag + ': ' if flag else ''}{err}", file=sys.stderr)
        return USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    # The report file is opened before the scan, so a path that cannot
    # be written is refused up front rather than after the whole search;
    # it is opened to append, so a report already there is kept until
    # the new one replaces it.  Only a regular file is truncated: a pipe
    # or a device (/dev/stdout, /dev/full) cannot be.  When the report
    # goes to standard output, the summary goes to standard error, so
    # that the stream holds the JSON alone.
    summary = sys.stdout
    with contextlib.ExitStack() as stack:
        if args.out:
            try:
                fh = stack.enter_context(open(args.out, "a", encoding="utf-8"))
                out_stat = os.fstat(fh.fileno())
            except (OSError, ValueError) as err:
                print(f"error: {err}", file=sys.stderr)
                return USAGE
            if _same_file(out_stat, sys.stdout):
                summary = sys.stderr
        report = search.run_search(cfg)
        if args.out:
            try:
                if stat.S_ISREG(out_stat.st_mode):
                    fh.truncate(0)
                json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.close()
            except OSError as err:
                # a failed write can leave data in the buffer: close the
                # file here, so that leaving the stack cannot raise again
                with contextlib.suppress(OSError):
                    fh.close()
                print(f"error: {err}", file=sys.stderr)
                return USAGE
    print(f"scanned {report.candidates_scanned} candidates "
          f"({report.consistent_candidates} invariance-consistent), "
          f"{len(report.survivors)} survivors, "
          f"{len(report.characterization_failures)} characterization failures "
          f"[{report.timing_seconds}s]", file=summary)
    print(f"content hash: {report.content_hash}", file=summary)
    if report.characterization_failures:
        for failure in report.characterization_failures:
            print(f"  FAILURE {failure['problems']}: {failure['record']}", file=summary)
        return FAIL
    return PASS


def cmd_vir(args) -> int:
    from . import families
    reg = SymbolRegistry()
    try:
        coeff = reg.parse(args.expr, max_degree=rmatfile.MAX_SLOT_DEGREE)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    extra = {s.name for s in coeff.symbols()} - {"x", "y"}
    if extra:
        print(f"error: expression must use only x and y, got {sorted(extra)}",
              file=sys.stderr)
        return USAGE
    r = families.vir_rmatrix(coeff)
    report = _run_check(r, args.mode)
    _emit_report(report, args.format)
    return PASS if report["ok"] else FAIL


def _verify_arguments(p) -> None:
    p.add_argument("input")
    p.add_argument("--mode", choices=("invariance", "weak", "strict"),
                   default="strict")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _expand_arguments(p) -> None:
    p.add_argument("input")


def _catalog_arguments(p) -> None:
    p.add_argument("--degree", type=int, default=3)


def _family_arguments(p) -> None:
    from . import families
    p.add_argument("case", nargs="?", choices=tuple(families.SL2_CASES))
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--f", default="1", help="monic polynomial in t")
    p.add_argument("--spec", help="family spec JSON file")
    p.add_argument("--out", required=True)


def _search_arguments(p) -> None:
    p.add_argument("--mode", choices=("weak", "strict"), default="weak")
    p.add_argument("--max-degree", type=int, default=1)
    p.add_argument("--coeffs", default="-1,0,1",
                   help="coefficient grid, written --coeffs=-1,0,1")
    p.add_argument("--constants", default="-1,0,1",
                   help="boundary-constant grid, written --constants=-1,0,1")
    p.add_argument("--raw", action="store_true",
                   help="drop the odd-polynomial ansatz")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the JSON report here")


def _vir_arguments(p) -> None:
    p.add_argument("expr", help="polynomial in x, y")
    p.add_argument("--mode", choices=("invariance", "weak", "strict"),
                   default="weak")
    p.add_argument("--format", choices=("text", "json"), default="text")


# The commands, in the order the help lists them: name -> (help line,
# the function that adds its arguments, its handler).
COMMANDS = {
    "verify": ("check an r-matrix file", _verify_arguments, cmd_verify),
    "expand": ("print an r-matrix's double bracket modulo the total derivation",
               _expand_arguments, cmd_expand),
    "catalog": ("re-derive the projection equation catalog", _catalog_arguments,
                cmd_catalog),
    "family": ("write a solution family member to a file", _family_arguments,
               cmd_family),
    "search": ("bounded exhaustive classification cross-check", _search_arguments,
               cmd_search),
    "vir": ("check a Virasoro coefficient polynomial", _vir_arguments, cmd_vir),
}


def build_parser(names=tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The parser with a subparser for each command in `names`."""
    parser = argparse.ArgumentParser(
        prog="ccybe",
        description="Exact checks for conformal Yang-Baxter structures "
                    "on the sl2 current algebra and the Virasoro algebra.",
    )
    # A parser for some of the commands still names all of them in the
    # usage line that an unrecognized argument prints.
    metavar = None if len(names) == len(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run the command line `argv` and return its exit status.

    With no argv, main is the process's entry, as the `ccybe` console
    script and `python -m ccybe.cli` call it: it reads sys.argv and
    runs through run_entry, so a reader that closes standard output
    early (as `| head` does) stops it with 141 and no traceback.
    Given argv, main runs inside its caller's process and leaves the
    caller's standard output as it is: a BrokenPipeError propagates.
    """
    if argv is not None:
        return _run(argv)
    return run_entry(lambda: _run(sys.argv[1:]))


def run_entry(run) -> int:
    """The exit status of `run()`, called as the process's entry (by
    main and by the scripts).  If the reader closes standard output
    early, it is 141 (128 + SIGPIPE, the status a shell reports for a
    process that SIGPIPE ends), with no traceback, and standard output
    goes to os.devnull so that the flush at exit is quiet too."""
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


def _run(argv) -> int:
    # The top-level parser has no option but -h, so when the first
    # argument names a command, that command's subparser reads all the
    # rest, and the others would only be built to go unused.
    names = argv[:1] if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    args = build_parser(names).parse_args(argv)
    try:
        return args.func(args)
    except ExponentOverflow as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
