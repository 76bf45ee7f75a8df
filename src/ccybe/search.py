"""Bounded exhaustive search over parameter-free diagonal profiles.

Candidates are profiles whose entry constant terms come from the
boundary table of a constants assignment (alpha, beta, gamma, zeta in
the constants grid) and whose higher coefficients come from the
coefficient grid: in the default ansatz mode only odd degrees up to
max_degree are populated, in raw mode every degree is.

run_search filters by the invariance relations first (per-degree linear
conditions on the coefficients, so the inconsistent bulk is counted
arithmetically rather than materialized), prescreens the surviving
candidates by evaluating the catalog equations at integer sample
points, verifies the prescreen survivors exactly, and finally
re-verifies every survivor with the full tensor computation
(is_weak_solution on the canonical lift, plus is_strict_solution and
skew-symmetry in strict mode) and the structural characterization.
Any survivor failing characterization is recorded; the report is fully
deterministic and independent of the worker count.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from multiprocessing import get_context
from typing import Optional, Sequence

from .exactpoly import SymbolRegistry
from .families import characterize, scalar_relation_residues
from .ybe import (
    CATALOG,
    CONSTANT_NAMES,
    PAIRS,
    WEAK_EQUATIONS,
    DiagProfile,
    boundary_values,
    eval_equation,
    is_strict_solution,
    is_weak_solution,
    lift_profile,
    shift_constant,
)

_PAIR_INDEX = {pair: i for i, pair in enumerate(PAIRS)}
_MIRROR = {i: _PAIR_INDEX[(l, q)] for (q, l), i in _PAIR_INDEX.items()}


class SearchConfigError(ValueError):
    """Invalid search configuration."""


@dataclass(frozen=True)
class SearchConfig:
    max_degree: int = 1
    coeff_grid: tuple = (Fraction(-1), Fraction(0), Fraction(1))
    constants_grid: tuple = (Fraction(-1), Fraction(0), Fraction(1))
    mode: str = "weak"
    raw: bool = False
    workers: int = 1

    def __post_init__(self):
        if not self.coeff_grid or not self.constants_grid:
            raise SearchConfigError("grids must be nonempty")
        if self.mode not in ("weak", "strict"):
            raise SearchConfigError(f"unknown mode {self.mode!r}")
        if not self.raw and (self.max_degree < 1 or self.max_degree % 2 == 0):
            raise SearchConfigError("ansatz mode requires an odd max_degree >= 1")
        if self.max_degree < 1:
            raise SearchConfigError("max_degree must be >= 1")
        if self.workers < 1:
            raise SearchConfigError("workers must be >= 1")
        object.__setattr__(self, "coeff_grid",
                           tuple(Fraction(v) for v in self.coeff_grid))
        object.__setattr__(self, "constants_grid",
                           tuple(Fraction(v) for v in self.constants_grid))

    @property
    def degrees(self) -> tuple[int, ...]:
        if self.raw:
            return tuple(range(1, self.max_degree + 1))
        return tuple(j for j in range(1, self.max_degree + 1) if j % 2)

    def as_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "coeff_grid": [str(v) for v in self.coeff_grid],
            "constants_grid": [str(v) for v in self.constants_grid],
            "mode": self.mode,
            "raw": self.raw,
        }


def canonical_hash(payload: dict) -> str:
    """sha256 of the payload's canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


@dataclass
class SearchReport:
    config: dict
    candidates_scanned: int
    consistent_candidates: int
    survivors: list
    characterization_failures: list
    timing_seconds: float
    content_hash: str = ""

    def __post_init__(self):
        if not self.content_hash:
            self.content_hash = canonical_hash({
                "config": self.config,
                "candidates_scanned": self.candidates_scanned,
                "survivors": self.survivors,
            })

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "candidates_scanned": self.candidates_scanned,
            "consistent_candidates": self.consistent_candidates,
            "survivors": self.survivors,
            "characterization_failures": self.characterization_failures,
            "timing_seconds": self.timing_seconds,
            "content_hash": self.content_hash,
        }


# Candidate data: (constants 4-tuple, coeffs 9-tuple of per-degree tuples)
# with coeffs[i][k] the degree self.degrees[k] coefficient of entry PAIRS[i].


def candidate_profile(cfg: SearchConfig, constants: Sequence[Fraction],
                      coeffs: Sequence[Sequence[Fraction]],
                      reg: Optional[SymbolRegistry] = None) -> DiagProfile:
    reg = reg or SymbolRegistry()
    x = reg.var("x")
    consts = boundary_values(constants)
    entries = {}
    for i, pair in enumerate(PAIRS):
        poly = reg.const(consts[i])
        for k, j in enumerate(cfg.degrees):
            c = coeffs[i][k]
            if c:
                poly = poly + x ** j * c
        entries[pair] = poly
    named = dict(zip(CONSTANT_NAMES, (Fraction(v) for v in constants)))
    return DiagProfile(reg, entries, constants=named)


def count_candidates(cfg: SearchConfig) -> int:
    g = len(cfg.coeff_grid)
    c = len(cfg.constants_grid)
    return g ** (9 * len(cfg.degrees)) * c ** 4


# Invariance-consistent enumeration ------------------------------------------------
#
# Per degree j, the invariance relations say: for the mirror pairs
# (ef, fe), (eh, he), (fh, hf): equal coefficients when j is odd,
# opposite when j is even; for the diagonal entries ee, ff, hh: free
# when j is odd, zero when j is even.  Constant terms always satisfy
# the relations because they come from the boundary table.

_DIAG = tuple(_PAIR_INDEX[p] for p in ((("e", "e")), ("f", "f"), ("h", "h")))
_REP_PAIRS = tuple(
    _PAIR_INDEX[p] for p in ((("e", "f")), ("e", "h"), ("f", "h"))
)


def _fast(values) -> tuple:
    """Integer-valued Fractions as plain ints (much faster arithmetic)."""
    return tuple(int(v) if v.denominator == 1 else v for v in values)


def _free_slots(cfg: SearchConfig) -> list[tuple]:
    """(kind, entry index, degree position, value choices) per free slot."""
    grid = _fast(cfg.coeff_grid)
    neg_ok = tuple(v for v in grid if -v in grid)
    slots = []
    for k, j in enumerate(cfg.degrees):
        if j % 2:
            for i in _DIAG:
                slots.append(("diag", i, k, grid))
            for i in _REP_PAIRS:
                slots.append(("pair+", i, k, grid))
        else:
            for i in _REP_PAIRS:
                slots.append(("pair-", i, k, neg_ok))
    return slots


def count_consistent(cfg: SearchConfig) -> int:
    total = len(cfg.constants_grid) ** 4
    for _, _, _, choices in _free_slots(cfg):
        total *= len(choices)
    return total


def _decode(cfg: SearchConfig, index: int, slots=None, const_grid=None):
    """Mixed-radix decoding of a consistent-candidate index.

    The free slots occupy the high digits and the constants the low
    ones, so contiguous index ranges share constants blocks.
    """
    if slots is None:
        slots = _free_slots(cfg)
    if const_grid is None:
        const_grid = _fast(cfg.constants_grid)
    constants = []
    for _ in range(4):
        index, r = divmod(index, len(const_grid))
        constants.append(const_grid[r])
    n_deg = len(cfg.degrees)
    coeffs = [[0] * n_deg for _ in range(9)]
    for kind, i, k, choices in slots:
        index, r = divmod(index, len(choices))
        v = choices[r]
        coeffs[i][k] = v
        if kind == "pair+":
            coeffs[_MIRROR[i]][k] = v
        elif kind == "pair-":
            coeffs[_MIRROR[i]][k] = -v
    return tuple(constants), tuple(tuple(row) for row in coeffs)


# Fast evaluation -------------------------------------------------------------------

_FILTER_ARGS = sorted({
    arg
    for eq in CATALOG.values()
    for term in eq.terms
    for arg in (term[2], term[4])
})
_ARG_INDEX = {arg: n for n, arg in enumerate(_FILTER_ARGS)}


def _filter_terms(names: Sequence[str]):
    """Catalog terms with entries and argument forms as flat indices."""
    out = []
    for name in names:
        eq = CATALOG[name]
        terms = tuple(
            (coeff,
             _PAIR_INDEX[(left[0], left[1])] * len(_FILTER_ARGS) + _ARG_INDEX[arg1],
             _PAIR_INDEX[(right[0], right[1])] * len(_FILTER_ARGS) + _ARG_INDEX[arg2])
            for coeff, left, arg1, right, arg2 in eq.terms
        )
        out.append((name, terms, eq.shifted))
    return out


_PRESCREEN_POINTS = ((2, 3, 5), (-3, 5, 2), (5, -2, -7))


def _arg_values(point):
    """Value of each argument form at a sample point."""
    px, py, pz = point
    return [ax * px + ay * py + az * pz for ax, ay, az in _FILTER_ARGS]


def _candidate_dies(cfg, constants, coeffs, terms, shift, points_args):
    """Short-circuit prescreen: True once any equation value is nonzero.

    Entry evaluations are cached lazily per (entry, argument form) so a
    failing candidate usually costs only the first equation's handful of
    Horner evaluations.
    """
    consts = boundary_values(constants)
    degrees = cfg.degrees
    n_args = len(_FILTER_ARGS)
    for args in points_args:
        cache: dict[int, object] = {}
        for _name, eq_terms, shifted in terms:
            acc = shift if shifted else 0
            for coeff, k1, k2 in eq_terms:
                v1 = cache.get(k1)
                if v1 is None:
                    i, n = divmod(k1, n_args)
                    s = args[n]
                    v1 = consts[i]
                    row = coeffs[i]
                    for k, j in enumerate(degrees):
                        c = row[k]
                        if c:
                            v1 += c * s ** j
                    cache[k1] = v1
                v2 = cache.get(k2)
                if v2 is None:
                    i, n = divmod(k2, n_args)
                    s = args[n]
                    v2 = consts[i]
                    row = coeffs[i]
                    for k, j in enumerate(degrees):
                        c = row[k]
                        if c:
                            v2 += c * s ** j
                    cache[k2] = v2
                acc += coeff * v1 * v2
            if acc:
                return True
    return False


def _is_skew(cfg, constants, coeffs) -> bool:
    """A'_{ql}(x) + A'_{lq}(-x) == 0 for all pairs."""
    consts = boundary_values(constants)
    for (q, l), i in _PAIR_INDEX.items():
        m = _PAIR_INDEX[(l, q)]
        if consts[i] + consts[m]:
            return False
        for k, j in enumerate(cfg.degrees):
            if coeffs[i][k] + (-1) ** j * coeffs[m][k]:
                return False
    return True


def filter_equation_names(cfg: SearchConfig) -> tuple[str, ...]:
    names = WEAK_EQUATIONS
    if cfg.mode == "strict":
        names = names + ("efh",)
    return names


def _scan_range(cfg: SearchConfig, start: int, stop: int):
    """Pure worker: scan a slice of the consistent candidates.

    Prescreens at sample points, verifies the filter equations exactly,
    then post-verifies survivors (structural characterization, scalar
    relations, and the full tensor recomputation).  Returns
    (index, record, problems) triples.
    """
    names = filter_equation_names(cfg)
    terms = _filter_terms(names)
    slots = _free_slots(cfg)
    const_grid = _fast(cfg.constants_grid)
    points_args = [_arg_values(p) for p in _PRESCREEN_POINTS]
    out = []
    for index in range(start, stop):
        constants, coeffs = _decode(cfg, index, slots, const_grid)
        if cfg.mode == "strict" and not _is_skew(cfg, constants, coeffs):
            continue
        shift = shift_constant(constants)
        if _candidate_dies(cfg, constants, coeffs, terms, shift, points_args):
            continue
        # Exact verification of all filter equations.
        profile = candidate_profile(cfg, constants, coeffs)
        if not all(eval_equation(CATALOG[name], profile).is_zero()
                   for name in names):
            continue
        out.append((index,) + _post_verify(cfg, profile))
    return out


def _post_verify(cfg: SearchConfig, profile: DiagProfile):
    """Survivor record plus any characterization problems."""
    entry_strings = {
        "".join(pair): profile.entry(*pair).to_string()
        for pair in PAIRS
        if not profile.entry(*pair).is_zero()
    }
    record = {
        "constants": {n: str(profile.constants[n]) for n in CONSTANT_NAMES},
        "entries": entry_strings,
    }
    problems = []
    rep = characterize(profile)
    for flag in ("odd", "sym", "shared_f_ok", "rank_le_1", "constants_ok"):
        if not getattr(rep, flag):
            problems.append(f"characterize:{flag}")
    for name, residue in scalar_relation_residues(profile, rep.matrix).items():
        if not residue.is_zero():
            problems.append(f"relation:{name}")
    lift = lift_profile(profile)
    weak_ok, _ = is_weak_solution(lift)
    if not weak_ok:
        problems.append("reverify:weak_defect")
    if cfg.mode == "strict":
        strict_ok, _ = is_strict_solution(lift)
        if not strict_ok:
            problems.append("reverify:strict")
    record.update(_classify(profile, rep))
    record["matrix"] = [[str(v) for v in row] for row in rep.matrix.numeric()]
    return record, problems


def _chunks(n: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, min(n, 4096 if workers > 1 else n))
    return [(s, min(s + size, n)) for s in range(0, n, size)]


def _classify(profile: DiagProfile, report) -> dict:
    """Family-spec-like record for a survivor in normal form."""
    m = report.matrix.numeric()
    consts = {n: profile.constants[n] for n in CONSTANT_NAMES}
    nonzero = [(i, j) for i in range(3) for j in range(3) if m[i][j]]
    record: dict = {"case": "other"}
    if not nonzero:
        record["case"] = "thm5_iii"
        record["params"] = {n: str(consts[n]) for n in CONSTANT_NAMES}
    elif nonzero == [(0, 0)] and m[0][0] == 1 and consts["gamma"] == 0 \
            and 2 * consts["zeta"] == consts["beta"]:
        record["case"] = "thm5_i"
        record["params"] = {"alpha": str(consts["alpha"]), "beta": str(consts["beta"])}
    elif nonzero == [(2, 2)] and consts["alpha"] == 0 and consts["gamma"] == 0:
        record["case"] = "thm5_ii"
        record["params"] = {"lhh": str(m[2][2]), "beta": str(consts["beta"]),
                            "zeta": str(consts["zeta"])}
    if report.shared_f is not None and record["case"] != "other":
        record["f"] = report.shared_f.to_string()
    return record


def run_search(cfg: SearchConfig) -> SearchReport:
    t0 = time.time()
    scanned = count_candidates(cfg)
    consistent = count_consistent(cfg)
    chunks = _chunks(consistent, cfg.workers)
    if cfg.workers > 1 and len(chunks) > 1:
        ctx = get_context("fork")
        with ctx.Pool(cfg.workers) as pool:
            results = pool.starmap(
                _scan_range, [(cfg, s, e) for s, e in chunks], chunksize=1
            )
    else:
        results = [_scan_range(cfg, s, e) for s, e in chunks]
    passed = [item for chunk in results for item in chunk]
    passed.sort(key=lambda item: item[0])

    survivors = []
    failures = []
    for _index, record, problems in passed:
        if problems:
            failures.append({"record": record, "problems": problems})
        else:
            survivors.append(record)

    survivors.sort(key=lambda r: json.dumps(r, sort_keys=True))
    return SearchReport(
        config=cfg.as_dict(),
        candidates_scanned=scanned,
        consistent_candidates=consistent,
        survivors=survivors,
        characterization_failures=failures,
        timing_seconds=round(time.time() - t0, 3),
    )


def diff_reports(a: SearchReport, b: SearchReport) -> dict:
    """Survivor-level diff of two reports over the same configuration."""
    if a.config != b.config:
        raise ValueError("reports come from different configurations")
    key = lambda r: json.dumps(r, sort_keys=True)
    sa = {key(r): r for r in a.survivors}
    sb = {key(r): r for r in b.survivors}
    return {
        "added": [sb[k] for k in sorted(sb.keys() - sa.keys())],
        "removed": [sa[k] for k in sorted(sa.keys() - sb.keys())],
    }
