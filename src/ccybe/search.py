"""Bounded exhaustive search over parameter-free diagonal profiles.

Candidates are profiles whose entry constant terms come from the
boundary table of a constants assignment (alpha, beta, gamma, zeta in
the constants grid) and whose higher coefficients come from the
coefficient grid: in the default ansatz mode only odd degrees up to
max_degree are populated, in raw mode every degree is.

The invariance relations (per-degree linear conditions on the
coefficients) are built into the enumeration, so the inconsistent bulk
is counted arithmetically rather than visited.  A configuration whose
invariance-consistent candidates outnumber MAX_CONSISTENT, or whose
max_degree is above MAX_DEGREE, is refused when it is built, before any
scan or worker pool starts.  A consistent candidate is a constants
tuple plus one choice for each of six entry groups, ee, ff, hh, ef/fe,
eh/he and fh/hf, a group's choice being the values of its free slots
over all degrees.

run_search walks these choices depth first: the constants tuple is the
outer loop (and the unit of work handed to a worker process), then one
group per level, in a fixed order that completes each filter equation
as early as possible.  Inside a constants tuple one recursive generator,
_walk, fixes a level's group choice by choice and yields the picks of
every branch that passes the sample points; _leaf applies the exact
filter to each and post-verifies the kept ones.

Both modes filter with ybe.WEAK_EQUATIONS; strict mode scans only the
constants tuples with zeta = 0 and kappa = shift_constant(constants) = 0,
which is exactly the filter by skew-symmetry, the weak equations and
efh:
- A consistent candidate's coefficients are skew (the invariance
  relations make mirror coefficients equal in odd degrees and opposite
  in even ones), and on the boundary values ef + fe = 4 zeta,
  hh + hh = 2 zeta and every other mirror pair cancels: a candidate is
  skew iff zeta = 0.
- efh's checks are efh_shift's, at the same points, minus kappa: when
  kappa != 0 a candidate that passes efh_shift fails efh, and when
  kappa = 0 efh repeats efh_shift's check.
So a strict search finds the skew-symmetric strict solutions only: an
invariant one that is not skew, such as the constant profile with
(alpha, beta, gamma, zeta) = (0, 0, 0, 1), passes `verify --mode
strict` but is never a strict survivor.  Over the raw degree-2 grid
with coefficients {0, 1} and constants {-1, 0, 1}, 32 of the 5,184
consistent candidates are strict solutions, and the strict search keeps
the 16 skew ones.

Point evaluations decide the filter.  Each filter equation is a
polynomial identity in (d2, d3, d1) of total degree at most
2 * max_degree.  Its points are three integer sample points followed by
the principal lattice of degree 2 * max_degree in the variables the
equation uses, which is unisolvent for that degree (see _lattice).  One
table of (entry, argument value) slots holds the entry values at all
these points; each level fills its slice of it, in int or Fraction
arithmetic, as it fixes a group.  The sample points prune: as soon as
every entry of an equation is fixed, it is evaluated there, and the
branch below is cut if any value is nonzero (a polynomial with a
nonzero value is not zero, so no solution is ever dropped).  The
lattice is the exact filter (_leaf): a leaf is kept iff every equation
also vanishes on its lattice points, read from the same table, which
holds the leaf's values when _walk yields it.  Only a kept leaf
becomes a profile, which is re-verified with the full tensor
computation and the structural characterization.  The re-verification
builds the double bracket of the canonical lift once, modulo the total
derivation, and reads both verdicts from it: weak from the generator
actions on it, strict (in strict mode) from whether it vanishes.  A
process builds every survivor profile on one symbol registry, and the
tables the checks read (the generator-action table, the double
bracket's coefficient maps and the lift map, with the powers of their
targets) sit in conformal's store, so they are built once per process,
not once per survivor.  Any survivor failing characterization is
recorded.  A survivor is named by
families.name_case, which reads the family table there, so this module
states no family case itself.  The walk inside a
constants tuple is fixed, the tuples come in itertools.product order,
and Pool.starmap returns the results of the tuples in that order, so
the scan yields the same list for any worker count; the report also
sorts survivors and failures by their canonical JSON.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import get_all_start_methods, get_context
from typing import Optional, Sequence

from . import ybe
from .exactpoly import SymbolRegistry, _scalar
from .families import characterize, name_case, scalar_relation_residues
from .ybe import (
    CATALOG,
    CONSTANT_NAMES,
    PAIRS,
    WEAK_EQUATIONS,
    DiagProfile,
    boundary_values,
    lift_profile,
    shift_constant,
)

_PAIR_INDEX = {pair: i for i, pair in enumerate(PAIRS)}
_MIRROR = {i: _PAIR_INDEX[(l, q)] for (q, l), i in _PAIR_INDEX.items()}


# Upper bound on SearchConfig.workers: each worker is one process.
MAX_WORKERS = 64
# Bound on the invariance-consistent candidates of a search.  The
# odd-ansatz degree-5 grid over {-1,0,1} (3.1e10) takes about 15 s
# serially (one CPU of a 2-CPU host, Python 3.11); degree 7 over the same
# grid (2.3e13) is refused.
MAX_CONSISTENT = 10 ** 11
# Bound on max_degree, whose cost the consistent count does not see: the
# exact filter's lattice has C(2 max_degree + 3, 3) points per equation.
# With one candidate (grids {0}), building the scan tables takes about
# 0.07 s and 23 MB at degree 7, 1.2 s and 57 MB at 21 and 3.6-4.0 s and
# 130 MB at 31 (raw or odd ansatz), and 10.6 s and 245 MB at 41 (raw), on
# one CPU of a 2-CPU host with Python 3.11.
MAX_DEGREE = 31


class SearchConfigError(ValueError):
    """Invalid search configuration; `field` names the SearchConfig field
    at fault, where there is one."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SearchConfig:
    max_degree: int = 1
    coeff_grid: tuple = (-1, 0, 1)
    constants_grid: tuple = (-1, 0, 1)
    mode: str = "weak"
    raw: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("weak", "strict"):
            raise SearchConfigError(f"unknown mode {self.mode!r}", "mode")
        if not self.raw and (self.max_degree < 1 or self.max_degree % 2 == 0):
            raise SearchConfigError("ansatz mode requires an odd max_degree >= 1",
                                    "max_degree")
        if not 1 <= self.max_degree <= MAX_DEGREE:
            raise SearchConfigError(f"max_degree must be between 1 and {MAX_DEGREE}",
                                    "max_degree")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise SearchConfigError(f"workers must be between 1 and {MAX_WORKERS}",
                                    "workers")
        for name in ("coeff_grid", "constants_grid"):
            # int-first exact values; str() prints an integral Fraction
            # as an int, so as_dict and the hashes do not see this
            grid = tuple(_scalar(v) for v in getattr(self, name))
            if not grid:
                raise SearchConfigError(f"{name} must be nonempty", name)
            if len(set(grid)) != len(grid):
                # a repeated value would count each candidate it builds
                # once per copy
                raise SearchConfigError(f"{name} repeats a value: "
                                        f"{', '.join(str(v) for v in grid)}", name)
            object.__setattr__(self, name, grid)
        consistent = count_consistent(self)
        if consistent > MAX_CONSISTENT:
            raise SearchConfigError(
                f"{consistent} invariance-consistent candidates exceed the bound "
                f"{MAX_CONSISTENT}")

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


@dataclass
class SearchReport:
    config: dict
    candidates_scanned: int
    consistent_candidates: int
    survivors: list
    characterization_failures: list
    timing_seconds: float
    content_hash: str = field(init=False)

    def __post_init__(self):
        self.content_hash = ybe.canonical_hash({
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
                      coeffs: Sequence[Sequence[Fraction]]) -> DiagProfile:
    """The candidate's profile, on _registry(): it interns only core
    symbols."""
    reg = _registry()
    x = reg.sym("x")
    degrees = (0,) + cfg.degrees
    consts = boundary_values(constants)
    entries = {pair: reg.univariate(x, dict(zip(degrees, (consts[i], *coeffs[i]))))
               for i, pair in enumerate(PAIRS)}
    return DiagProfile(reg, entries)


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
# the relations because they come from the boundary table.  So the six
# entry groups below own disjoint sets of free slots (a mirror pair
# shares its slots), and a consistent candidate is one constants tuple
# plus one choice per group.

_GROUPS = tuple(
    tuple(_PAIR_INDEX[pair] for pair in group)
    for group in ((("e", "e"),), (("f", "f"),), (("h", "h"),),
                  (("e", "f"), ("f", "e")), (("e", "h"), ("h", "e")),
                  (("f", "h"), ("h", "f")))
)


def _free_slots(cfg: SearchConfig) -> list[tuple]:
    """(kind, entry index, degree position, value choices) per free slot:
    per degree, the diagonal entries (the singleton groups, free in odd
    degrees only), then the first entry of each mirror pair."""
    grid = cfg.coeff_grid
    neg_ok = tuple(v for v in grid if -v in grid)
    slots = []
    for k, j in enumerate(cfg.degrees):
        for group in _GROUPS:
            if len(group) == 2:
                slots.append(("pair+", group[0], k, grid) if j % 2
                             else ("pair-", group[0], k, neg_ok))
            elif j % 2:
                slots.append(("diag", group[0], k, grid))
    return slots


def count_consistent(cfg: SearchConfig) -> int:
    total = len(cfg.constants_grid) ** 4
    for _, _, _, choices in _free_slots(cfg):
        total *= len(choices)
    return total


# Checks at points ------------------------------------------------------------------
#
# A filter equation is sum c * A_left(arg1) * A_right(arg2), with each
# argument a linear form in (d2, d3, d1).  At a point it reads one value
# per (entry, argument value), so its value there is a "check": a tuple
# of terms (c, slot, slot) into a flat table of entry values.


_PRESCREEN_POINTS = ((2, 3, 5), (-3, 5, 2), (5, -2, -7))


def _at(form: tuple, point: tuple) -> int:
    return form[0] * point[0] + form[1] * point[1] + form[2] * point[2]


def _entry(name: str) -> int:
    return _PAIR_INDEX[name[0], name[1]]


def _lattice(n: int, variables: Sequence[int]) -> list[tuple]:
    """The principal lattice T_n over the given positions of (d2, d3, d1),
    the coordinates of a filter equation's points: the nonnegative
    integer points with coordinate sum <= n, zero at the other positions.

    T_n is unisolvent for polynomials of total degree <= n (Chung & Yao,
    "On lattices admitting unique Lagrange interpolations", SIAM J.
    Numer. Anal. 1977): such a polynomial that vanishes on T_n is zero.
    By induction on the number of variables k and on n, writing (u, v, w)
    for the variables.  For k = 0 or n = 0 the polynomial is a constant,
    and T_n holds a point.  Otherwise P(0, v, w) has degree <= n in k - 1
    variables and vanishes on the points of T_n with u = 0, which are T_n
    in those variables; so P(0, v, w) == 0 and P = u * Q with
    deg Q <= n - 1.  At a point (i, j, l) of T_n with i >= 1,
    0 = P = i * Q(i, j, l), so Q(u + 1, v, w), of degree <= n - 1,
    vanishes on T_{n-1}, hence is zero, and so is P.  The bound is tight:
    u (u - 1) ... (u - n) has degree n + 1 and vanishes on T_n.
    """
    points = []
    for exps in itertools.product(range(n + 1), repeat=len(variables)):
        if sum(exps) <= n:
            point = [0, 0, 0]
            for v, e in zip(variables, exps):
                point[v] = e
            points.append(tuple(point))
    return points


def _exact_points(eq, max_degree: int) -> list[tuple]:
    """Points on which eq vanishes iff it is the zero polynomial.

    With entries of degree <= max_degree every term is a polynomial of
    total degree <= 2 * max_degree in the variables the argument forms
    use, so the principal lattice of that degree in those variables
    decides it exactly.
    """
    used = tuple(v for v in range(3)
                 if any(term[k][v] for term in eq.terms for k in (2, 4)))
    return _lattice(2 * max_degree, used)


class _Checks:
    """Checks of some equations, each at its own points.

    `slots` lists the (entry index, argument value) pairs the checks
    read, sorted by the level that fixes the entry, so each level's
    values are one contiguous span (`spans`) and fixing a group is one
    slice assignment.  `per_equation` holds one check per point and
    equation; the terms reading the same pair of values are merged.
    """

    def __init__(self, equations: Sequence, points: Sequence, level_of: Sequence[int],
                 levels: int):
        needed = {(_entry(entry), _at(form, point))
                  for eq, pts in zip(equations, points) for point in pts
                  for term in eq.terms for entry, form in (term[1:3], term[3:5])}
        self.slots = sorted(needed, key=lambda slot: (level_of[slot[0]], slot))
        position = {slot: n for n, slot in enumerate(self.slots)}
        counts = [0] * levels
        for i, _s in self.slots:
            counts[level_of[i]] += 1
        ends = list(itertools.accumulate(counts))
        self.spans = list(zip([0] + ends[:-1], ends))
        self.per_equation = []
        for eq, pts in zip(equations, points):
            checks = []
            for point in pts:
                merged: dict = {}
                for c, left, arg1, right, arg2 in eq.terms:
                    a = position[_entry(left), _at(arg1, point)]
                    b = position[_entry(right), _at(arg2, point)]
                    key = (a, b) if a <= b else (b, a)
                    merged[key] = merged.get(key, 0) + c
                checks.append(tuple((c, a, b) for (a, b), c in merged.items() if c))
            self.per_equation.append(checks)

    def level_slots(self, level: int) -> list:
        lo, hi = self.spans[level]
        return self.slots[lo:hi]


def _vanishes(checks, vals) -> bool:
    """Whether every check reads zero on the value table."""
    for terms in checks:
        acc = 0
        for c, a, b in terms:
            acc += c * vals[a] * vals[b]
        if acc:
            return False
    return True


# Depth-first scan ------------------------------------------------------------------
#
# The scan fixes the constants, then one group per level, and evaluates
# each filter equation at the sample points at the first level where
# all of its entries are fixed.  A leaf is kept only if every filter
# equation also vanishes on its lattice points.

# Level order eh/he, fh/hf, ee, ef/fe, ff, hh, for both modes and every
# degree: each level fixes the group that completes the most pending
# filter equations, so every equation prunes as high in the tree as it
# can.
_LEVEL_ORDER = (4, 5, 0, 3, 1, 2)


class _Plan:
    """The tables of the depth-first scan that do not depend on the
    constants: one check table over the sample and lattice points, the
    sample-point checks completed at each level, the lattice checks of a
    leaf, and each level's group choices with the polynomial parts of
    their entries at the level's slots.
    """

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        equations = [CATALOG[name] for name in WEAK_EQUATIONS]
        level_of = [0] * len(PAIRS)
        for level, g in enumerate(_LEVEL_ORDER):
            for i in _GROUPS[g]:
                level_of[i] = level
        samples = len(_PRESCREEN_POINTS)
        self.table = _Checks(
            equations,
            [_PRESCREEN_POINTS + tuple(_exact_points(eq, cfg.max_degree)) for eq in equations],
            level_of, len(_LEVEL_ORDER))
        self.leaf_checks = list(dict.fromkeys(
            check for checks in self.table.per_equation for check in checks[samples:]))

        # Per level, the equations completed there, checked point by point.
        done_at = [max(level_of[_entry(term[k])] for term in eq.terms for k in (1, 3))
                   for eq in equations]
        self.checks = []
        self.levels = []   # per level: [(coefficient rows, polynomial parts)]
        slots = _free_slots(cfg)
        for level, g in enumerate(_LEVEL_ORDER):
            done = [checks[:samples] for checks, at in zip(self.table.per_equation, done_at)
                    if at == level]
            self.checks.append([check for at_point in zip(*done) for check in at_point])
            self.levels.append(self._choices(g, level, slots))

    def _choices(self, g, level, slots) -> list:
        """(coefficient rows, polynomial parts at the level's slots) per
        choice of group g."""
        degrees = self.cfg.degrees
        own = [slot for slot in slots if slot[1] in _GROUPS[g]]
        keys = self.table.level_slots(level)
        out = []
        for values in itertools.product(*(slot[3] for slot in own)):
            rows = {i: [0] * len(degrees) for i in _GROUPS[g]}
            for v, (kind, i, k, _grid) in zip(values, own):
                rows[i][k] = v
                if kind == "pair+":
                    rows[_MIRROR[i]][k] = v
                elif kind == "pair-":
                    rows[_MIRROR[i]][k] = -v
            parts = [sum(c * s ** j for c, j in zip(rows[i], degrees) if c) for i, s in keys]
            out.append((tuple((i, tuple(row)) for i, row in rows.items()), parts))
        return out


def _walk(plan: _Plan, levels: list, vals: list, picks: tuple):
    """Yield the picked coefficient rows of every branch below `picks`
    whose completed equations vanish at every sample point.

    Level len(picks) writes each choice's values into its span of the
    value table `vals`, so at each yield the table holds the leaf's
    values at every level; `levels` holds, per level, the (coefficient
    rows, values) choices of one constants tuple."""
    depth = len(picks)
    lo, hi = plan.table.spans[depth]
    checks = plan.checks[depth]
    last = depth + 1 == len(levels)
    for rows, values in levels[depth]:
        vals[lo:hi] = values
        if _vanishes(checks, vals):
            if last:
                yield picks + (rows,)
            else:
                yield from _walk(plan, levels, vals, picks + (rows,))


def _leaf(plan: _Plan, constants: tuple, picks: tuple, vals: list):
    """(record, problems) of a prescreen survivor that passes the exact
    filter, read from the value table `vals`, else None."""
    if not _vanishes(plan.leaf_checks, vals):
        return None
    coeffs: list = [()] * len(PAIRS)
    for rows in picks:
        for i, row in rows:
            coeffs[i] = row
    return _post_verify(plan.cfg, candidate_profile(plan.cfg, constants, coeffs))


@functools.cache
def _registry() -> SymbolRegistry:
    """One registry for every survivor profile of this process: they all
    use the same core symbols, so there is nothing to build per survivor."""
    return SymbolRegistry()


def _scan_constants(plan: _Plan, constants: tuple) -> list:
    """Pure worker: the (record, problems) pairs of the candidates with
    this constants tuple, in walk order.  A level's value at a slot is
    the entry's boundary value plus its polynomial part there."""
    bnd = boundary_values(constants)
    levels = []
    for level, choices in enumerate(plan.levels):
        base = [bnd[i] for i, _s in plan.table.level_slots(level)]
        levels.append([(rows, [b + v for b, v in zip(base, parts)])
                       for rows, parts in choices])
    vals = [0] * len(plan.table.slots)
    found = (_leaf(plan, constants, picks, vals) for picks in _walk(plan, levels, vals, ()))
    return [item for item in found if item is not None]


def _scan(cfg: SearchConfig) -> list:
    """Every candidate passing the exact filter, as (record, problems)
    pairs in walk order."""
    plan = _Plan(cfg)
    units = list(itertools.product(cfg.constants_grid, repeat=4))
    if cfg.mode == "strict":
        # zeta = 0 and kappa = 0: see the module docstring
        units = [c for c in units if not (c[3] or shift_constant(c))]
    if cfg.workers > 1 and len(units) > 1 and "fork" in get_all_start_methods():
        with get_context("fork").Pool(min(cfg.workers, len(units))) as pool:
            results = pool.starmap(_scan_constants, [(plan, c) for c in units], chunksize=1)
    else:
        results = [_scan_constants(plan, c) for c in units]
    return [item for chunk in results for item in chunk]


def _post_verify(cfg: SearchConfig, profile: DiagProfile):
    """Survivor record plus any characterization problems, for a
    profile built on _registry()."""
    entries = profile.entries  # the nonzero entries only
    entry_strings = {"".join(pair): entries[pair].to_string() for pair in PAIRS if pair in entries}
    rep = characterize(profile)
    record = {
        "constants": {n: str(v) for n, v in zip(CONSTANT_NAMES, rep.constants)},
        "entries": entry_strings,
    }
    problems = []
    for flag in ("sym", "shared_f_ok", "rank_le_1", "constants_ok"):
        if not getattr(rep, flag):
            problems.append(f"characterize:{flag}")
    for name, residue in scalar_relation_residues(rep.constants, rep.matrix).items():
        if residue:
            problems.append(f"relation:{name}")
    # One double bracket, built modulo the total derivation, gives both
    # verdicts: the weak one from the generator actions on it, the
    # strict one from whether it vanishes.  The tensor steps are looked
    # up on the ybe module, where a tracer that wraps them sees these
    # calls.
    bracket = ybe.ccybe_bracket(lift_profile(profile))
    if not ybe.weak_verdict(bracket)[0]:
        problems.append("reverify:weak_defect")
    if cfg.mode == "strict" and not bracket.is_zero():
        problems.append("reverify:strict")
    # a family-spec-like record: families.name_case names the survivor
    named = name_case(rep.constants, rep.matrix)
    if named is None:
        record["case"] = "other"
    else:
        case, params = named
        record["case"] = case
        record["params"] = {n: str(v) for n, v in params.items()}
        if rep.shared_f is not None:
            record["f"] = rep.shared_f.to_string()
    record["matrix"] = [[str(v) for v in row] for row in rep.matrix]
    return record, problems


def _json_key(item: dict) -> str:
    return json.dumps(item, sort_keys=True)


def run_search(cfg: SearchConfig) -> SearchReport:
    t0 = time.time()
    scanned = count_candidates(cfg)
    consistent = count_consistent(cfg)

    survivors = []
    failures = []
    for record, problems in _scan(cfg):
        if problems:
            failures.append({"record": record, "problems": problems})
        else:
            survivors.append(record)

    survivors.sort(key=_json_key)
    failures.sort(key=_json_key)
    return SearchReport(
        config=cfg.as_dict(),
        candidates_scanned=scanned,
        consistent_candidates=consistent,
        survivors=survivors,
        characterization_failures=failures,
        timing_seconds=round(time.time() - t0, 3),
    )
