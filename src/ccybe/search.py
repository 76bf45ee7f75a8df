"""Bounded exhaustive search over parameter-free diagonal profiles.

Candidates are profiles whose entry constant terms come from the
boundary table of a constants assignment (alpha, beta, gamma, zeta in
the constants grid) and whose higher coefficients come from the
coefficient grid: in the default ansatz mode only odd degrees up to
max_degree are populated, in raw mode every degree is.

The invariance relations (per-degree linear conditions on the
coefficients) are built into the enumeration, so the inconsistent bulk
is counted arithmetically rather than visited.  A consistent candidate
is a constants tuple plus one choice for each of six entry groups, ee,
ff, hh, ef/fe, eh/he and fh/hf, a group's choice being the values of
its free slots over all degrees.

run_search walks these choices depth first: the constants tuple is the
outer loop (and the unit of work handed to a worker process), then one
group per level, in a greedy order that completes each filter equation
as early as possible.  In strict mode the skew-symmetry test prunes
whole constants tuples up front; the coefficients of a consistent
candidate are always skew, because the invariance relations make mirror
coefficients equal in odd degrees and opposite in even ones.  As soon
as every entry of a filter equation is fixed, the equation is evaluated
at three integer sample points, and the whole branch below is pruned if
any value is nonzero.  The pruning is exact: the equation is a
polynomial identity in (x, y, z), and a polynomial with a nonzero value
at some point is not the zero polynomial, so no candidate satisfying it
is ever dropped.  Each leaf that survives every sample point is
verified exactly (eval_equation on all filter equations), then
re-verified with the full tensor computation (is_weak_solution on the
canonical lift, plus is_strict_solution in strict mode) and the
structural characterization.  Any survivor failing characterization is
recorded; leaves carry their index in a fixed mixed-radix numbering of
the consistent candidates, so the report is fully deterministic and
independent of the worker count and of the order of the walk.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from multiprocessing import get_all_start_methods, get_context
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


# Upper bound on SearchConfig.workers: each worker is one process.
MAX_WORKERS = 64


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
        if not 1 <= self.workers <= MAX_WORKERS:
            raise SearchConfigError(f"workers must be between 1 and {MAX_WORKERS}")
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


# Sample-point evaluation -----------------------------------------------------------

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


def filter_equation_names(cfg: SearchConfig) -> tuple[str, ...]:
    names = WEAK_EQUATIONS
    if cfg.mode == "strict":
        names = names + ("efh",)
    return names


# Depth-first scan ------------------------------------------------------------------
#
# The entry groups below own disjoint sets of free slots (a mirror pair
# shares its slots), so a consistent candidate is one constants tuple
# plus one choice per group.  The scan fixes the constants, then one
# group per level, and evaluates each filter equation at the sample
# points at the first level where all of its entries are fixed.

_GROUPS = tuple(
    tuple(_PAIR_INDEX[pair] for pair in group)
    for group in ((("e", "e"),), (("f", "f"),), (("h", "h"),),
                  (("e", "f"), ("f", "e")), (("e", "h"), ("h", "e")),
                  (("f", "h"), ("h", "f")))
)
_GROUP_OF = {i: g for g, group in enumerate(_GROUPS) for i in group}


def _group_order(needs: list[set]) -> list[int]:
    """Greedy level order: each level fixes the group that completes the
    most pending equations, ties going to the group that the most
    pending equations mention, then to the lower group number."""
    order: list[int] = []
    fixed: set = set()
    while len(order) < len(_GROUPS):
        pending = [need for need in needs if not need <= fixed]
        g = max((g for g in range(len(_GROUPS)) if g not in fixed),
                key=lambda g: (sum(need <= fixed | {g} for need in pending),
                               sum(g in need for need in pending), -g))
        order.append(g)
        fixed.add(g)
    return order


class _Plan:
    """The tables of the depth-first scan that do not depend on the
    constants: the level order, each level's group choices with their
    index offsets and the polynomial parts of their entries at every
    (sample point, argument form), and the equations checked per level.

    Entry values live in one flat list, one contiguous span per level, so
    fixing a group is one slice assignment.
    """

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.names = filter_equation_names(cfg)
        self.const_grid = _fast(cfg.constants_grid)
        n_args = len(_FILTER_ARGS)
        equations = [(terms, shifted) for _name, terms, shifted in _filter_terms(self.names)]
        needs = [{_GROUP_OF[k // n_args] for _c, k1, k2 in terms for k in (k1, k2)}
                 for terms, _shifted in equations]
        order = _group_order(needs)
        used = sorted({k for terms, _shifted in equations for _c, k1, k2 in terms
                       for k in (k1, k2)})
        points_args = [_arg_values(p) for p in _PRESCREEN_POINTS]

        # Index weight of each free slot in the consistent-candidate index:
        # the four constants digits are the lowest, then the slots in order.
        slots = _free_slots(cfg)
        weights = []
        radix = len(self.const_grid) ** 4
        for slot in slots:
            weights.append(radix)
            radix *= len(slot[3])

        position = {}      # (point, flat key) -> position in the value list
        self.spans = []    # per level: (lo, hi) of its values
        self.entries = []  # per level: the entry index of each value
        self.levels = []   # per level: [(offset, rows, polynomial parts)]
        for g in order:
            keys = [(p, k) for p in range(len(points_args)) for k in used
                    if _GROUP_OF[k // n_args] == g]
            lo = len(position)
            for key in keys:
                position[key] = len(position)
            self.spans.append((lo, len(position)))
            self.entries.append([k // n_args for _p, k in keys])
            self.levels.append(self._choices(g, slots, weights, keys, points_args))

        # Per level, the equations completed there, one check per sample point.
        self.checks = []
        fixed: set = set()
        for g in order:
            before = set(fixed)
            fixed.add(g)
            self.checks.append([
                (shifted, tuple((c, position[p, k1], position[p, k2])
                                for c, k1, k2 in terms))
                for p in range(len(points_args))
                for (terms, shifted), need in zip(equations, needs)
                if need <= fixed and not need <= before
            ])

    def _choices(self, g, slots, weights, keys, points_args) -> list:
        """(index offset, coefficient rows, polynomial parts) per choice of
        group g."""
        cfg = self.cfg
        degrees = cfg.degrees
        own = [(weights[s], slot) for s, slot in enumerate(slots) if slot[1] in _GROUPS[g]]
        n_args = len(_FILTER_ARGS)
        out = []
        for digits in itertools.product(*(range(len(slot[3])) for _w, slot in own)):
            rows = {i: [0] * len(degrees) for i in _GROUPS[g]}
            offset = 0
            for r, (weight, (kind, i, k, choices)) in zip(digits, own):
                offset += r * weight
                v = choices[r]
                rows[i][k] = v
                if kind == "pair+":
                    rows[_MIRROR[i]][k] = v
                elif kind == "pair-":
                    rows[_MIRROR[i]][k] = -v
            parts = []
            for p, key in keys:
                i, n = divmod(key, n_args)
                s = points_args[p][n]
                parts.append(sum(c * s ** j for c, j in zip(rows[i], degrees) if c))
            out.append((offset, tuple((i, tuple(row)) for i, row in rows.items()),
                        parts))
        return out


class _Unit:
    """One work unit of the scan: the candidates with one constants tuple.

    Holds each level's choices with their entry values (boundary value
    plus polynomial part), the flat value list, and the rows picked on
    the current branch.
    """

    def __init__(self, plan: _Plan, constants: tuple, bnd: list):
        self.plan = plan
        self.constants = constants
        self.shift = shift_constant(constants)
        self.levels = []
        for entries, choices in zip(plan.entries, plan.levels):
            base = [bnd[i] for i in entries]
            self.levels.append([(offset, rows, [b + v for b, v in zip(base, parts)])
                                for offset, rows, parts in choices])
        self.vals = [0] * plan.spans[-1][1]
        self.picks = [()] * len(plan.levels)
        self.out = []


def _descend(unit: _Unit, depth: int, index: int) -> None:
    """Try every choice of the group at this level; recurse under those
    whose completed equations vanish at every sample point."""
    plan = unit.plan
    lo, hi = plan.spans[depth]
    checks = plan.checks[depth]
    vals = unit.vals
    shift = unit.shift
    last = depth + 1 == len(plan.levels)
    for offset, rows, values in unit.levels[depth]:
        vals[lo:hi] = values
        for shifted, terms in checks:
            acc = shift if shifted else 0
            for c, a, b in terms:
                acc += c * vals[a] * vals[b]
            if acc:
                break
        else:
            unit.picks[depth] = rows
            if last:
                _leaf(unit, index + offset)
            else:
                _descend(unit, depth + 1, index + offset)


def _leaf(unit: _Unit, index: int) -> None:
    """Exact filter and post-verification of a prescreen survivor."""
    plan = unit.plan
    coeffs: list = [()] * len(PAIRS)
    for rows in unit.picks:
        for i, row in rows:
            coeffs[i] = row
    profile = candidate_profile(plan.cfg, unit.constants, coeffs)
    if all(eval_equation(CATALOG[name], profile).is_zero() for name in plan.names):
        unit.out.append((index,) + _post_verify(plan.cfg, profile))


def _scan_constants(plan: _Plan, c: int) -> list:
    """Pure worker: scan the candidates with the c-th constants tuple.

    Returns (index, record, problems) triples, the index being the
    candidate's consistent-candidate index (slots in _free_slots order
    above the four constants digits).
    """
    grid = plan.const_grid
    constants = tuple(grid[c // len(grid) ** m % len(grid)] for m in range(4))
    bnd = boundary_values(constants)
    # Skew-symmetry, A'_{ql}(x) + A'_{lq}(-x) == 0: the invariance
    # relations already give it degree by degree, so only the boundary
    # values are left to test.
    if plan.cfg.mode == "strict" and any(bnd[i] + bnd[m] for i, m in _MIRROR.items()):
        return []
    unit = _Unit(plan, constants, bnd)
    _descend(unit, 0, c)
    return unit.out


def _scan(cfg: SearchConfig) -> list:
    """Every candidate passing the exact filter, as (index, record,
    problems) triples in index order."""
    plan = _Plan(cfg)
    units = len(plan.const_grid) ** 4
    if cfg.workers > 1 and units > 1 and "fork" in get_all_start_methods():
        with get_context("fork").Pool(min(cfg.workers, units)) as pool:
            results = pool.starmap(_scan_constants,
                                   [(plan, c) for c in range(units)], chunksize=1)
    else:
        results = [_scan_constants(plan, c) for c in range(units)]
    passed = [item for chunk in results for item in chunk]
    passed.sort(key=lambda item: item[0])
    return passed


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
    passed = _scan(cfg)

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
