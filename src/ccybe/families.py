"""Constructors and certification checks for the classified solution families.

Case identifiers follow the family-spec file format: lemma1 (constants
only, the general invariant constant tensor), thm5_i / thm5_ii /
thm5_iii (weak solutions up to automorphism), cor6_i / cor6_ii /
cor6_iii (their skew-symmetric strict refinements with zeta = 0).  The
Virasoro side check builds its tensor with vir_rmatrix; it is not a
family case.

Every sl2 profile entry has the shape
A'_{ql}(x) = A'_{ql}(0) + a_{ql} x f(x^2) with one shared monic f; the
boundary values A'_{ql}(0) follow the fixed table `ybe.boundary_values`
over (alpha, beta, gamma, zeta), which are themselves A'(0) at he, fe,
hf and hh (`ybe.CONSTANT_PAIRS`), so a profile carries its constants in
its entries.  The table SL2_CASES states each sl2
case once: its constants, each a parameter, 0 or beta/2, and its one
nonzero a_{ql}, a_ee = 1 (case i), a_hh = lhh (case ii), or none
(case iii).  FamilySpec checks a member against its row and builds it
from it; name_case reads the same rows to name a search survivor.  Only
the cor6_iii quadric 4 alpha gamma = beta^2 is checked outside the
table.

characterize checks that shape on a parameter-free profile.  It reads
each entry once, as a row {degree in x: exact scalar}, and decides
every relation from the rows by dict and scalar arithmetic; its report
carries the four constants, so a caller reads them from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .conformal import ConfAlgebra, ConfTensor
from .exactpoly import MPoly, SymbolRegistry, _FIELD, _FIELD_MASK, _scalar
from .liealg import Scalar, rank_le_1
from .ybe import CONSTANT_NAMES, CONSTANT_PAIRS, PAIRS, DiagProfile, boundary_values


class Case(NamedTuple):
    """One sl2 case of the classification, up to automorphism.

    `constants` gives (alpha, beta, gamma, zeta), each a parameter name,
    "0" or "beta/2".  `entry` is the one nonzero coefficient-matrix entry
    a_{ql}, as ((q, l), value) with the value "1" or a parameter name, or
    None for a constants-only case.  A case with an entry takes a monic
    f and needs that entry nonzero.
    """

    constants: tuple[str, str, str, str]
    entry: Optional[tuple[tuple[str, str], str]] = None

    @property
    def params(self) -> tuple[str, ...]:
        """The free parameters: the entry's, then the constants' in order."""
        values = self.constants if self.entry is None else (self.entry[1], *self.constants)
        return tuple(v for v in values if v not in _FIXED)


_FIXED = ("0", "1", "beta/2")

# lemma1 is the general invariant constant tensor; thm5_* are the weak
# solutions (Theorem 5), cor6_* their skew-symmetric strict refinements
# (Corollary 6).  cor6_iii also needs 4 alpha gamma = beta^2, checked by
# FamilySpec.
SL2_CASES = {
    "lemma1": Case(("alpha", "beta", "gamma", "zeta")),
    "thm5_i": Case(("alpha", "beta", "0", "beta/2"), (("e", "e"), "1")),
    "thm5_ii": Case(("0", "beta", "0", "zeta"), (("h", "h"), "lhh")),
    "thm5_iii": Case(("alpha", "beta", "gamma", "zeta")),
    "cor6_i": Case(("alpha", "0", "0", "0"), (("e", "e"), "1")),
    "cor6_ii": Case(("0", "0", "0", "0"), (("h", "h"), "lhh")),
    "cor6_iii": Case(("alpha", "beta", "gamma", "0")),
}


def _evaluate(text: str, param):
    """A table value: 0, 1, beta/2 or the parameter `text`, with
    `param(name)` giving a parameter's value."""
    if text == "0":
        return 0
    if text == "1":
        return 1
    if text == "beta/2":
        return param("beta") * Fraction(1, 2)
    return param(text)


def name_case(constants: Sequence[Scalar], m,
              cases: Sequence[str] = ("thm5_iii", "thm5_i", "thm5_ii")):
    """The first of `cases` that a parameter-free survivor is a member
    of, as (case, {parameter: value}), or None; by default the weak
    cases, constants-only first.

    `constants` is (alpha, beta, gamma, zeta) and `m` the rows of the
    numeric coefficient matrix.  A case matches when its entry is the
    only nonzero entry of m (no entry is nonzero, for a constants-only
    case) and every fixed value of its row holds; its parameters are
    read off the survivor.
    """
    amat = dict(zip(PAIRS, (v for row in m for v in row)))
    nonzero = [pair for pair, v in amat.items() if v]
    for case in cases:
        row = SL2_CASES[case]
        if nonzero != ([] if row.entry is None else [row.entry[0]]):
            continue
        slots = list(zip(row.constants, constants))
        if row.entry is not None:
            slots.append((row.entry[1], amat[row.entry[0]]))
        params = {text: v for text, v in slots if text not in _FIXED}
        if all(v == _evaluate(text, params.get) for text, v in slots if text in _FIXED):
            return case, {name: params[name] for name in row.params}
    return None


class ConstraintViolation(ValueError):
    """A family parameter constraint does not hold."""


@dataclass
class FamilySpec:
    """One member of a solution family.

    `params` values may be rational or parameter symbols (MPoly); `f` is
    a monic polynomial in the symbol t (standing for x^2) and defaults
    to 1.  The case's parameters, pinned constants, monic f and nonzero
    entry are checked against its SL2_CASES row.
    """

    case: str
    reg: SymbolRegistry
    params: dict[str, Scalar] = field(default_factory=dict)
    f: Optional[MPoly] = None

    def __post_init__(self):
        if self.case not in SL2_CASES:
            raise ConstraintViolation(f"unknown case {self.case!r}")
        row = self.row
        # the pinned names are deleted below, from a copy, so the
        # caller's dict is left as it was
        self.params = dict(self.params)
        for name in row.params:
            if name not in self.params:
                raise ConstraintViolation(f"case {self.case} requires parameter {name!r}")
        # A pinned constant may be passed only when its pinned relation holds.
        pinned = {n: v for n, v in zip(CONSTANT_NAMES, row.constants) if v in _FIXED}
        for name in list(self.params):
            if name in row.params:
                continue
            if name not in pinned:
                raise ConstraintViolation(
                    f"case {self.case} does not take parameter {name!r}"
                )
            self._require_zero(self.param(name) - self._value(pinned[name]),
                               f"{name} = {pinned[name]}")
            del self.params[name]
        if self.f is None:
            self.f = self.reg.const(1)
        if row.entry:
            self._check_monic()
            if self._value(row.entry[1]).is_zero():
                raise ConstraintViolation(
                    f"{row.entry[1]} != 0 required for case {self.case}")
        if self.case == "cor6_iii":
            # Strictness of a constants-only skew profile forces the
            # boundary constants onto the quadric 4 alpha gamma = beta^2
            # (the orbit of the rank-one constant solution).
            residue = self.param("alpha") * self.param("gamma") * 4 \
                - self.param("beta") * self.param("beta")
            self._require_zero(residue, "4*alpha*gamma = beta^2")

    @property
    def row(self) -> Case:
        return SL2_CASES[self.case]

    def _require_zero(self, value: MPoly, text: str) -> None:
        if not value.is_zero():
            raise ConstraintViolation(f"{text} required for case {self.case}")

    def param(self, name: str) -> MPoly:
        v = self.params.get(name, 0)
        return v if isinstance(v, MPoly) else self.reg.const(v)

    def _value(self, text: str) -> MPoly:
        v = _evaluate(text, self.param)
        return v if isinstance(v, MPoly) else self.reg.const(v)

    def _check_monic(self) -> None:
        t = self.reg.sym("t")
        top = self.f.degree_in(t)
        if top < 0:
            raise ConstraintViolation("f must be a nonzero monic polynomial in t")
        lead = self.f.as_univariate_in(t).get(top)
        if lead != 1:
            raise ConstraintViolation("f must be monic in t")

    def constants(self) -> dict[str, MPoly]:
        """The (alpha, beta, gamma, zeta) table for this case."""
        return {n: self._value(v) for n, v in zip(CONSTANT_NAMES, self.row.constants)}


def build_profile(spec: FamilySpec) -> DiagProfile:
    """Diagonal profile of a family member: the boundary values of its
    constants, plus a x f(x^2) on its case's one nonzero entry a."""
    reg = spec.reg
    constants = spec.constants()
    values = boundary_values([constants[n] for n in CONSTANT_NAMES])
    entries = {pair: reg.zero() + v for pair, v in zip(PAIRS, values)}
    if spec.row.entry:
        pair, text = spec.row.entry
        x = reg.var("x")
        odd_base = x * spec.f.subst_many({reg.sym("t"): x * x})
        entries[pair] = spec._value(text) * odd_base + entries[pair]
    return DiagProfile(reg, entries)


def vir_rmatrix(coeff: MPoly) -> ConfTensor:
    """Single-entry tensor over a fresh Virasoro algebra on the
    coefficient's registry.

    `coeff` is given in the symbols (x, y), read as (d1, d2).
    """
    reg = coeff.reg
    poly = coeff.subst_many({
        reg.sym("x"): reg.var("d1"),
        reg.sym("y"): reg.var("d2"),
    })
    return ConfTensor(ConfAlgebra.vir(reg), 2, {("v", "v"): poly})


# Characterization ---------------------------------------------------------------


@dataclass
class Characterization:
    """Structure report for a parameter-free diagonal profile.

    `shared_f_ok`: every A'_ql - A'_ql(0) is a_ql x f(x^2) with one f,
    hence odd.  `matrix` holds the rows (e, f, h) of (a_ql), exact
    scalars, int-first (all zero when the profile is not symmetric), and
    `rank_le_1` is the rank test of that matrix.  `constants` is
    (alpha, beta, gamma, zeta), the values A'(0) at `ybe.CONSTANT_PAIRS`
    as exact scalars, int-first; `constants_ok`: the nine A'(0) follow
    `ybe.boundary_values` of them."""

    sym: bool
    shared_f: Optional[MPoly]
    shared_f_ok: bool
    matrix: tuple[tuple[Scalar, ...], ...]
    rank_le_1: bool
    constants: tuple[Scalar, ...]
    constants_ok: bool


def characterize(p: DiagProfile) -> Characterization:
    """Check the structural form every invariant weak solution must have.

    Each entry is read once, as its row {degree in x: exact scalar,
    int-first (`exactpoly._scalar`)}, straight from its packed terms: a
    term that reads any symbol but x is refused.  Every check below is
    dict and scalar arithmetic on the rows, so an integral survivor is
    characterized in int arithmetic.  A centered row has the shape
    a x f(x^2) when all its degrees are odd: a is its top coefficient
    and f(t) has the coefficient c / a at t^((deg - 1) / 2).
    """
    shift = _FIELD * p.reg.sym("x").index
    rows = {pair: {} for pair in PAIRS}
    for pair, poly in p.entries.items():
        row = rows[pair]
        for key, c in poly._terms.items():
            deg = (key >> shift) & _FIELD_MASK
            if key != deg << shift:
                raise ValueError("characterize requires a parameter-free profile")
            row[deg] = _scalar(c)
    boundary = {pair: row.pop(0, 0) for pair, row in rows.items()}

    sym = all(rows[(q, l)] == rows[(l, q)] for q, l in PAIRS)

    scalars = dict.fromkeys(PAIRS, 0)
    fs = []
    shared_ok = True
    for pair, row in rows.items():
        if any(deg % 2 == 0 for deg in row):
            shared_ok = False
        elif row:
            a = scalars[pair] = row[max(row)]
            fs.append({(deg - 1) // 2: Fraction(c, a) for deg, c in row.items()})
    shared_ok = shared_ok and all(f == fs[0] for f in fs)
    shared = p.reg.univariate("t", fs[0]) if fs and shared_ok else None

    names = ("e", "f", "h")
    matrix = tuple(tuple(scalars[(q, l)] if sym else 0 for l in names) for q in names)

    constants = tuple(boundary[pair] for pair in CONSTANT_PAIRS)
    constants_ok = all(
        want == boundary[pair] for pair, want in zip(PAIRS, boundary_values(constants))
    )

    return Characterization(
        sym=sym, shared_f=shared, shared_f_ok=shared_ok, matrix=matrix,
        rank_le_1=rank_le_1(matrix), constants=constants, constants_ok=constants_ok,
    )


def scalar_relation_residues(constants: Sequence[Scalar], m) -> dict[str, Scalar]:
    """Residues of the six relations tying the coefficient matrix to the
    boundary constants; all vanish on a genuine invariant weak solution.

    `constants` is (alpha, beta, gamma, zeta) of a parameter-free profile
    p as exact scalars, and `m` holds the rows of its numeric matrix, as
    `characterize(p).matrix` gives them; each residue is an exact
    scalar, int-first.  `characterize` decides every other
    relation: the 2x2 minors of m are `rank_le_1`, and each entry
    relation a_lq (A'_ql - A'_ql(0)) - a_ql (A'_lq - A'_lq(0)) vanishes
    term by term once every centered entry is a x f(x^2) with one f
    (`shared_f_ok`) and A'(0) follows the boundary table (`constants_ok`).
    """
    (a_ee, _, _), (a_fe, a_ff, _), (a_he, a_hf, a_hh) = m
    alpha, beta, gamma, zeta = constants
    two_zb = zeta * 2 - beta
    residues = {
        "c_e1": two_zb * a_ee - alpha * 2 * a_he,
        "c_e2": alpha * 2 * a_hh - two_zb * a_he,
        "c_f1": two_zb * a_ff + gamma * 2 * a_hf,
        "c_f2": -(gamma * 2) * a_hh - two_zb * a_hf,
        "c_h1": gamma * a_ee + alpha * a_fe,
        "c_h2": alpha * a_ff + gamma * a_fe,
    }
    return {name: _scalar(v) for name, v in residues.items()}
