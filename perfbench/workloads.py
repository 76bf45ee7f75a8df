"""The three benchmark workloads: inputs from a seed, operations, checks.

Each `setup_*` function takes the freshly imported ccybe modules, the
seed and a scratch directory, and returns a Workload: a list of Ops
(one closed-loop request each, with a check of its output) plus an end
of run check over everything observed.  An op's `key` names its input;
ops with the same key do the same work.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable, Optional

MODES = ("invariance", "weak", "strict")


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    # Returns None when the output is correct, else a one-line problem.
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    ops: list
    # Called once after the run: problems visible only across several ops.
    finish: Callable[[], list] = lambda: []
    # Inputs worth recording with the result.
    inputs: dict = field(default_factory=dict)


# verify --------------------------------------------------------------------------

# Formal parameters per family case, as in scripts/certify_families.py.
FORMAL_PARAMS = {
    "thm5_i": lambda reg: {"alpha": reg.var("alpha"), "beta": reg.var("beta")},
    "thm5_ii": lambda reg: {n: reg.var(n) for n in ("lhh", "beta", "zeta")},
    "thm5_iii": lambda reg: {n: reg.var(n) for n in ("alpha", "beta", "gamma", "zeta")},
    "cor6_i": lambda reg: {"alpha": reg.var("alpha")},
    "cor6_ii": lambda reg: {"lhh": reg.var("lhh")},
    "cor6_iii": lambda reg: {"alpha": reg.var("u") * reg.var("u"),
                             "beta": reg.var("u") * reg.var("v") * 2,
                             "gamma": reg.var("v") * reg.var("v")},
}
CASES_WITH_F = ("thm5_i", "thm5_ii", "cor6_i", "cor6_ii")
F_DEGREES = range(6)


def _nonzero(rng, lo=-3, hi=3) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _numeric_params(case: str, rng) -> dict:
    """Seeded small nonzero integer parameters on the case's constraint
    locus (integers keep an op's cost about the same for every seed)."""
    if case == "cor6_iii":
        p, s = _nonzero(rng), _nonzero(rng)
        return {"alpha": p * p, "beta": 2 * p * s, "gamma": s * s}
    names = {"thm5_i": ("alpha", "beta"), "thm5_ii": ("lhh", "beta", "zeta"),
             "thm5_iii": ("alpha", "beta", "gamma", "zeta"), "cor6_i": ("alpha",),
             "cor6_ii": ("lhh",)}[case]
    return {n: _nonzero(rng) for n in names}


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return str(path)


def _member_file(mods, path: Path, case: str, params, f_text: Optional[str],
                 f_degree: Optional[int] = None) -> str:
    reg = mods.exactpoly.SymbolRegistry()
    if f_degree is not None:
        t = reg.var("t")
        f = t ** f_degree
        for j in range(f_degree):
            f = f + reg.var(f"f{j}") * t ** j
    else:
        f = reg.parse(f_text)
    params = params(reg) if callable(params) else params
    spec = mods.families.FamilySpec(case, reg, params, f=f)
    r = mods.ybe.lift_profile(mods.families.build_profile(spec))
    used = sorted({s.name for p in r.entries.values() for s in p.symbols()}
                  - {"d1", "d2"})
    return _write(path, mods.rmatfile.to_dict(r, used))


def _sl2_file(path: Path, entries: dict) -> str:
    return _write(path, {"algebra": "cur_sl2", "entries": [
        {"left": q, "right": l, "coeff": c} for (q, l), c in entries.items()]})


def _vir_file(path: Path, coeff: str) -> str:
    return _write(path, {"algebra": "vir", "entries": [
        {"left": "v", "right": "v", "coeff": coeff}]})


def _vir_coeff(rng, zero_diagonal: bool) -> str:
    """c1*d1^2 + c2*d1*d2 + c3*d2 + c4 with nonzero seeded c's, times
    (d1 + d2) for a zero diagonal; the diagonal of the bare form has the
    constant c4 != 0, so it never vanishes."""
    c = [_nonzero(rng) for _ in range(4)]
    g = f"{c[0]}*d1^2 + {c[1]}*d1*d2 + {c[2]}*d2 + {c[3]}"
    return f"(d1 + d2)*({g})" if zero_diagonal else g


def _content_hash(report: dict) -> str:
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


def setup_verify(mods, seed: int, workdir: Path) -> Workload:
    """r-matrix files checked through the CLI in all three modes.

    Expected verdicts (None where the classification gives none):
    family members pass invariance and weak; cor6_* members pass strict
    and thm5_ii (1, 2, 1) with f = 1 fails it (criterion 4); the other
    thm5_* strict verdicts are not classified.  Controls built from
    e x e alone fail invariance and, since [e, e] = 0 makes the double
    bracket vanish, pass weak and strict.  Virasoro coefficients pass
    invariance and weak together iff the diagonal coeff(x, -x) vanishes
    (criterion 5).
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    files = []   # (name, path, {mode: expected ok or None})
    member = {"invariance": True, "weak": True}

    for case, params in FORMAL_PARAMS.items():
        for deg in (F_DEGREES if case in CASES_WITH_F else (0,)):
            name = f"{case}/formal/f{deg}"
            path = _member_file(mods, workdir / f"{case}-formal-f{deg}.json",
                                case, params, None, deg)
            files.append((name, path,
                          dict(member, strict=True if case.startswith("cor6") else None)))

    for case in FORMAL_PARAMS:
        # Degree 2 keeps these ops out of the heavy weak-mode tail, where
        # their seed-dependent cost would move op_p90_ms from seed to seed.
        f_text = f"t^2 + {_nonzero(rng)}*t + {_nonzero(rng)}"
        path = _member_file(mods, workdir / f"{case}-numeric.json", case,
                            _numeric_params(case, rng), f_text)
        files.append((f"{case}/numeric", path,
                      dict(member, strict=True if case.startswith("cor6") else None)))
    path_121 = _member_file(mods, workdir / "thm5_ii-121.json", "thm5_ii",
                            {"lhh": 1, "beta": 2, "zeta": 1}, "1")
    files.append(("thm5_ii/1,2,1", path_121, dict(member, strict=False)))

    c = _nonzero(rng)
    e_only = {"invariance": False, "weak": True, "strict": True}
    files.append(("control/const_ee", _sl2_file(
        workdir / "control-const-ee.json", {("e", "e"): str(c)}), e_only))
    files.append(("control/even_ee", _sl2_file(
        workdir / "control-even-ee.json", {("e", "e"): f"{c}*d1^2"}), e_only))
    data = json.loads(Path(path_121).read_text())
    for entry in data["entries"]:
        if (entry["left"], entry["right"]) == ("h", "h"):
            entry["coeff"] = f"{entry['coeff']} + {c}*d1^2"
    files.append(("control/even_hh", _write(workdir / "control-even-hh.json", data),
                  {"invariance": False, "weak": None, "strict": None}))

    vir_pair = {}   # name -> whether invariance and weak must both pass
    for k in range(3):
        for zero in (True, False):
            name = f"vir/{'zero' if zero else 'nonzero'}_diag{k}"
            path = _vir_file(workdir / f"vir-{k}-{int(zero)}.json", _vir_coeff(rng, zero))
            verdict = True if zero else None
            files.append((name, path, {"invariance": verdict, "weak": verdict,
                                       "strict": None}))
            vir_pair[name] = zero
    files.append(("vir/const", _vir_file(workdir / "vir-const.json", "1"),
                  {"invariance": None, "weak": False, "strict": None}))
    vir_pair["vir/const"] = False

    seen: dict[str, dict] = {}   # file name -> {mode: ok}

    def make_op(name, path, mode, expected):
        argv = ["verify", path, "--mode", mode, "--format", "json"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = mods.cli.main(argv)
            return code, out.getvalue()

        def check(result):
            code, text = result
            if code not in (0, 1):
                return f"exit status {code}"
            report = json.loads(text)
            digest = report.pop("content_hash", None)
            if digest != _content_hash(report):
                return "content hash does not match the report"
            ok = report["ok"]
            if report["check"] != mode or ok != (code == 0) or ok == bool(report["defects"]):
                return f"inconsistent report (exit {code}, ok {ok})"
            if expected is not None and ok != expected:
                return f"verdict {ok}, expected {expected}"
            if name == "vir/const" and mode == "weak" \
                    and report.get("specialized_residue") != "-24*d2^2":
                return f"specialized residue {report.get('specialized_residue')}"
            seen.setdefault(name, {})[mode] = ok
            return None

        return Op(f"{name} {mode}", run, check)

    def finish():
        problems = []
        for name, both in vir_pair.items():
            got = seen.get(name, {})
            if "invariance" in got and "weak" in got \
                    and (got["invariance"] and got["weak"]) != both:
                problems.append(f"{name}: invariance and weak "
                                f"{got['invariance']}/{got['weak']} break criterion 5")
        return problems

    ops = [make_op(name, path, mode, expected[mode])
           for name, path, expected in files for mode in MODES]
    return Workload(ops, finish, {"files": len(files)})


# catalog -------------------------------------------------------------------------

CATALOG_DEGREES = (3, 4)


def setup_catalog(mods, seed: int, workdir: Path) -> Workload:
    """Re-derive each non-shifted catalog identity at degrees 3 and 4.

    The inputs are fixed by the catalog; the seed only orders the ops.
    """
    ybe = mods.ybe
    names = [n for n, eq in ybe.CATALOG.items() if not eq.shifted]

    def make_op(degree, name):
        def run():
            return ybe.catalog_diffs(degree=degree, names=[name])

        def check(diffs):
            if list(diffs) != [name]:
                return f"re-derived {sorted(diffs)}"
            if not diffs[name].is_zero():
                return f"nonzero diff {diffs[name].to_string()[:80]}"
            return None

        return Op(f"d{degree} {name}", run, check)

    return Workload([make_op(d, n) for d in CATALOG_DEGREES for n in names],
                    inputs={"identities": len(names), "degrees": list(CATALOG_DEGREES)})


# sweep ---------------------------------------------------------------------------

# Grids {-a, 0, a} (coefficients) x {-b, 0, b} (constants).  Scaling the
# entries by b and x by a / b maps them onto the a = b = 1 grids, so every
# choice has the criterion-6 survivor counts; the case census below is
# only that of a = b = 1, where the records carry the paper's normal form.
SWEEP_SCALES = ((1, 1), (1, 2), (2, 1), (2, 2))
SWEEP_SURVIVORS = {"weak": 171, "strict": 39}
DEFAULT_CENSUS = {
    "weak": {"other": 69, "thm5_i": 3, "thm5_ii": 18, "thm5_iii": 81},
    "strict": {"other": 29, "thm5_i": 3, "thm5_ii": 2, "thm5_iii": 5},
}
# Content hashes of the reports, which no speed-up may change.
SWEEP_HASHES = {
    (1, 1, "weak"): "62e76329bb13037fc6a541a8b741127fe937778eb034fc94fbaf1f49cb41a32f",
    (1, 1, "strict"): "fd4065f89eb5835dc63087821429206a3575954082365853e0cdc680426cc392",
    (1, 2, "weak"): "bcad2e6b6933577a3cfdd502660f294e369ea6ed4fceeda948c4f181f9054880",
    (1, 2, "strict"): "6e328485c66f8e0861d16b1a89a9777c8670234227e425e0e90c2d4004d592be",
    (2, 1, "weak"): "4bec84b5c04f42d68ba466ef970dbfb545e546047cbe4a7313600a9977dff799",
    (2, 1, "strict"): "cb9fff878005a0864270b8c053461b98e2e99570effc5dd5fb90ca51c65a49c6",
    (2, 2, "weak"): "e256c95a18d044cc68ef576c55c28a86a0d05b73ab62f9509fb232363dcb2f37",
    (2, 2, "strict"): "cbd64db845a5700ce6b6f85adfc524b7865b44fc26be3d2778a986aa366a8248",
}


def setup_sweep(mods, seed: int, workdir: Path) -> Workload:
    """Serial raw degree-1 classification sweeps, weak and strict."""
    search = mods.search
    a, b = SWEEP_SCALES[seed % len(SWEEP_SCALES)]

    def make_op(mode):
        cfg = search.SearchConfig(max_degree=1, coeff_grid=(-a, 0, a),
                                  constants_grid=(-b, 0, b), mode=mode, raw=True,
                                  workers=1)

        def check(report):
            if report.characterization_failures:
                return f"{len(report.characterization_failures)} characterization failures"
            if len(report.survivors) != SWEEP_SURVIVORS[mode]:
                return f"{len(report.survivors)} survivors, expected {SWEEP_SURVIVORS[mode]}"
            if (a, b) == (1, 1):
                census = {}
                for record in report.survivors:
                    census[record["case"]] = census.get(record["case"], 0) + 1
                if census != DEFAULT_CENSUS[mode]:
                    return f"census {census}"
            if report.content_hash != SWEEP_HASHES[(a, b, mode)]:
                return f"content hash {report.content_hash[:16]} changed"
            return None

        return Op(f"{mode} a={a} b={b}", lambda: search.run_search(cfg), check)

    ops = [make_op("weak"), make_op("strict")]
    consistent = search.count_consistent(search.SearchConfig(
        max_degree=1, coeff_grid=(-a, 0, a), constants_grid=(-b, 0, b), raw=True))
    return Workload(ops, inputs={"coeff_grid": [-a, 0, a], "constants_grid": [-b, 0, b],
                                 "consistent_candidates": consistent})


SETUPS = {"verify": setup_verify, "catalog": setup_catalog, "sweep": setup_sweep}
