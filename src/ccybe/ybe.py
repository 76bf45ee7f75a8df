"""Conformal Yang-Baxter checks and the projection-equation catalog.

An r-matrix over a conformal algebra R with basis {q} is an element
r = sum A_{ql}(d1, d2) q x l of R x R: an arity-2 conformal.ConfTensor,
whose entries map (q, l) to A_{ql}.  Following Liberati, the CCYBE and
its weak version live in the quotient of R x R x R by the image of the
total derivation d1 + d2 + d3, read with d1 := -(d2 + d3), and
ccybe_bracket builds the double bracket of r with itself there: its
class, in d2 and d3.  The class is built from three contraction sums;
writing A for the left factor's coefficient and B for the right
factor's, the coefficient substitutions are

    + A(-d2, d2)          B(-d3, d3)   on [q,q'] x l x l'
    - A(-(d2+d3), d2+d3)  B(-d3, d3)   on  q x [q',l] x l'
    - A(-(d2+d3), d2+d3)  B(d2, -d2)   on  q x q' x [l',l]

with the basis-level bracket evaluated at (d, lam) = (slot variable,
contraction variable): (-(d2+d3), d2), (d2, d3), (d3, d2)
respectively.  These are the full bracket's substitutions, A at
(-d2, d2) and (d1, d2+d3), B at (d1+d2, d3), (-d3, d3) and (d2, -d2),
and slot 1's inserted bracket at d = d1, each read at d1 = -(d2 + d3);
a substitution is a ring map, so this is the class of the full
bracket, and no product carries d1.  Each of the four reads its
entry at (u, -u), so r counts only through its diagonal
A'_{ql}(d1) = A_{ql}(d1, -d1): the class restricts r to it once
(diagonal), and the maps send d1 alone to u = -d2, -(d2+d3), -d3 and
d2, catalog argument forms (_BRACKET_FORMS).  Three of the four, and
the diagonal's, is_invariant's and lift_profile's maps, send their
symbol to one term, so they map term to term with no polynomial
product; a polynomial free of a map's symbol is returned as it is (see
exactpoly.Substitution).

ccybe_bracket contracts first.  Each of the four maps is compiled once
per process (an exactpoly.Substitution over the core registry, kept in
conformal's store, see conformal.ConfAlgebra.memo, with the powers of
its targets it has built; eval_equation reads the same map of each
form), and each
entry's form under each map is built at most once; the minus signs of
slots 2 and 3 go on the inserted bracket.  Then, for each slot, the
inserted bracket is summed against the B forms: slot 1 gives, per left
index q, a table keyed (k, l') of sum over entries (q', l') of
[q, q']_k B; slots 2 and 3 give, per right index l, one shared table
keyed (k, l') resp. (q', k), since both multiply A(-(d2+d3), d2+d3).
For a current algebra the inserted bracket is a structure constant, so
this step is scalar multiples and sums; for Virasoro it is the
polynomial d + 2 lam.  Last, each A form is multiplied once by each
coefficient of its table.

Which products there are depends on the algebra, the wanted triples
and the entry keys alone, not on the coefficients, so it is compiled
once into a contraction plan kept in the store: per entry key, the
(map, table key, inserted bracket) rows its B forms feed, and the
tables its A forms read with the output triple each table key lands
on.  A plan is filled entry key by entry key, so a one-shot process
(a CLI call) builds only the rows it reads, and one that checks many
r-matrices builds each row once.  The tables and the
outputs are plain term tables, filled through exactpoly._mac with no
polynomial built per product or per table (a scalar factor is the one
term ((0, v),), see exactpoly._term_list), and each output coefficient
is made a polynomial once, by exactpoly._finished.

Given a set of output triples, ccybe_bracket builds only those
coefficients: a final product or a table key that feeds no wanted
triple is skipped, and so is every substituted form that only such keys
read.  The catalog re-derivation (derive_projection,
derive_weak_projection) reads one coefficient, or the few that a
generator action moves onto one triple, and asks for just those; the
verdicts and `expand` take every coefficient.

Three checks are provided: strict (the class of the double bracket
vanishes), weak (every generator action on that class, taken at
mu = -(d1+d2+d3), vanishes), and invariance (every generator action
on r + tau(r), tau the factor swap, taken at lam = -(d1+d2), vanishes;
is_invariant reads it off the diagonal).  Each action is
computed at that value directly; no action variable is introduced and
eliminated.  Each slot shift of such an action sends d1 + d2 + d3
to 0, so it reads only the class of the tensor it acts on.  Both
conditions ask every element to act, and the generators decide them:
an element g(D)a acts as g(-lam) times a's action (sesquilinearity),
so only generators ever act.  generator_actions acts with all of them,
by name, in one act_on_tensor call, so the weak and the invariance
checks shift each coefficient once, not once per generator.
weak_verdict reads the weak verdict off a given class, and the strict
verdict is whether that class is zero, so a caller that needs both
builds the bracket once.

The tables these checks read depend on the algebra's structure alone
and live in conformal's store for the whole process
(conformal.ConfAlgebra.memo), over the core registry, so that every
registry reads them: one map d1 -> form per form (the bracket's four,
eval_equation's nine and is_invariant's d1 -> -d1), the contraction
plan per set of wanted triples, the diagonal's map d2 -> -d1, the
generator actions' table of each arity, and lift_profile's map
x -> d1; each map keeps the powers of its targets it has built, which
the degrees seen so far bound.  So a process builds each table once,
however many registries and algebras its r-matrices come on: the
search, the tests, and any caller that loads (rmatfile.load), lifts or
re-derives (catalog_diffs) many r-matrices; a one-shot CLI process
builds each table it reads once.
catalog_diffs' identities, derived and stored, read each catalog
form's map, and the powers of its target, built once for both.

For the current algebra on sl2 the verdicts only see the diagonal
restrictions A'_{ql}(x) = A_{ql}(x, -x), which a DiagProfile holds.  A
profile stores only these nine entries: the boundary constants (alpha,
beta, gamma, zeta) are the values A'(0) at CONSTANT_PAIRS, where the
table boundary_values puts them, and efh_shift reads them there, as the
entries at the zero form.  The catalog below stores, over the generic
diagonal profile, the ten independent projection identities (named by
their basis triple), the worked f x h x f variant, the two
action-variable identities that replace the e x f x h projection in the
weak case, and its shifted variant with the boundary-constant
correction kappa, as three products of those constants.  Each
identity's argument forms are linear in the bracket's own variables d2,
d3 and (where a generator action brings it back) d1, so eval_equation
reads an r-matrix's diagonal through the same maps d1 -> form as the
bracket, and a derived projection is compared with its identity as it
is built.  Each catalog entry records the positive integer `scale`
relating the raw projection to the stored normalized form:
raw == scale * stored.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import partial
from hashlib import sha256
from typing import Iterable, Optional, Sequence

from .conformal import ConfAlgebra, ConfTensor, act_on_tensor, project
from .exactpoly import (
    CORE_REGISTRY, EXPONENT_LIMIT, ExponentOverflow, MPoly, Substitution, SymbolRegistry, _FIELD,
    _finished, _mac, _term_list,
)
from .liealg import AutMatrix, Scalar, sl2, transform_tensor

PAIRS = tuple(itertools.product(("e", "f", "h"), repeat=2))
CONSTANT_NAMES = ("alpha", "beta", "gamma", "zeta")
# Where boundary_values puts each bare constant: A'(0) at he, fe, hf and
# hh is alpha, beta, gamma and zeta.
CONSTANT_PAIRS = (("h", "e"), ("f", "e"), ("h", "f"), ("h", "h"))


def boundary_values(constants: Sequence[Scalar]) -> list:
    """Boundary values A'_{ql}(0), in PAIRS order, from the constants
    (alpha, beta, gamma, zeta):

        ee, ff: 0      ef: 4 zeta - beta   fe: beta
        he: alpha      eh: -alpha          hf: gamma     fh: -gamma
        hh: zeta

    Works over int, Fraction and MPoly alike; ee and ff are the int 0,
    so int constants give int values throughout.
    """
    alpha, beta, gamma, zeta = constants
    table = {
        ("e", "e"): 0, ("f", "f"): 0,
        ("e", "f"): 4 * zeta - beta, ("f", "e"): beta,
        ("h", "e"): alpha, ("e", "h"): -alpha,
        ("h", "f"): gamma, ("f", "h"): -gamma,
        ("h", "h"): zeta,
    }
    return [table[pair] for pair in PAIRS]


def shift_constant(constants: Sequence[Scalar]) -> Scalar:
    """Boundary-value correction 4*alpha*gamma + (4*zeta - beta)*beta."""
    alpha, beta, gamma, zeta = constants
    return 4 * alpha * gamma + (4 * zeta - beta) * beta


def transform_conf_tensor(aut: AutMatrix, t: ConfTensor) -> ConfTensor:
    """Coefficient transport along a Lie algebra automorphism phi, applied
    to every factor of a tensor over the current algebra.

    On an r-matrix the transformed coefficients are
    \\hat A_{ij} = sum_{ql} Phi_iq Phi_jl A_{ql}.
    """
    if t.alg.kind != "cur":
        raise ValueError("automorphisms act on current-algebra tensors")
    return ConfTensor(t.alg, t.arity, transform_tensor(aut, t.entries))


# Linear argument forms (a, b, c), read as a*d2 + b*d3 + c*d1: the
# double bracket's variables d2, d3, and d1, which only the action
# identities read (a generator action brings it back).  The bracket
# substitutes the first four (_BRACKET_FORMS) into the diagonal, and
# the catalog's identities read all eight; efh_shift also reads the
# boundary constants, A'(0), at the zero form _ZERO.
_ND2 = (-1, 0, 0)
_ND23 = (-1, -1, 0)
_ND3 = (0, -1, 0)
_D2 = (1, 0, 0)
_D1 = (0, 0, 1)
_D13 = (0, 1, 1)
_D12 = (1, 0, 1)
_ND13 = (0, -1, -1)
_ZERO = (0, 0, 0)
_BRACKET_FORMS = (_ND2, _ND23, _ND3, _D2)


def _form_map(alg: ConfAlgebra, arg: tuple) -> Substitution:
    """The map d1 -> a*d2 + b*d3 + c*d1, arg = (a, b, c), kept in the
    store with the powers of its target it has built: the bracket and
    eval_equation read the same map of each form, and is_invariant
    reads d1 -> -d1."""
    return alg.memo(("catalog_form", arg), partial(_compile_form, arg))


def _compile_form(arg: tuple) -> Substitution:
    reg = CORE_REGISTRY
    d1, d2, d3 = (reg.var(n) for n in ("d1", "d2", "d3"))
    return Substitution(reg, {reg.sym("d1"): d2 * arg[0] + d3 * arg[1] + d1 * arg[2]})


def diagonal(r: ConfTensor) -> dict[tuple, MPoly]:
    """A'_{ql}(d1) = A_{ql}(d1, -d1) per entry key of the r-matrix r:
    all that the bracket and the invariance check read.  An
    entry free of d2 (a lift's) is its own diagonal, the same object."""
    if r.arity != 2:
        raise ValueError("an r-matrix is an arity-2 tensor")
    reg = CORE_REGISTRY
    at_diagonal = r.alg.memo("diagonal",
                             lambda: Substitution(reg, {reg.sym("d2"): -reg.var("d1")}))
    return {key: at_diagonal(poly) for key, poly in r.entries.items()}


def ccybe_bracket(r: ConfTensor, tuples: Optional[Iterable[tuple]] = None) -> ConfTensor:
    """The double bracket of the r-matrix r with itself, as its class
    modulo the total derivation, in d2 and d3, read off diagonal(r).

    Contraction first (see the module docstring): one polynomial product
    per (entry, key of its contracted table), not per pair of entries.
    With `tuples`, only those output triples are computed: a table key
    or a final product that feeds no wanted triple is skipped, and so is
    every substituted form that only such keys would read.
    """
    entries = diagonal(r)
    alg = r.alg
    reg = alg.reg
    maps = [_form_map(alg, arg) for arg in _BRACKET_FORMS]
    wanted = None if tuples is None else frozenset(tuple(tup) for tup in tuples)
    plan = alg.memo(("ccybe_bracket.plan", wanted),
                    partial(_ContractionPlan, alg.basis_names, wanted))
    rows = [(poly, plan.rows(alg, key)) for key, poly in entries.items()]
    # tables[i][table key]: the terms of contracted table i at that key.
    # The feeds read maps 2 and 3 and the reads maps 0 and 1, so each
    # form is substituted in one place, once, and only when it is read.
    tables = [{} for _ in range(plan.tables)]
    for poly, (feeds, _) in rows:
        for j, group in feeds:
            form = maps[j](poly)._terms.items()
            for i, tkey, factor in group:
                table = tables[i]
                terms = table.get(tkey)
                if terms is None:
                    terms = table[tkey] = {}
                _mac(terms, factor, form)
    # An inserted bracket has degree at most 1 in each symbol (a
    # structure constant, or d + 2 lam), so a key of A * B * bracket has
    # every field below 2 * EXPONENT_LIMIT and never carries: the guard
    # check of each finished output coefficient covers the tables too.
    out: dict = {}
    for poly, (_, reads) in rows:
        for j, i, lands in reads:
            form = None
            for tkey, terms in tables[i].items():
                tup = lands.get(tkey)
                if tup is not None and terms:
                    if form is None:
                        form = maps[j](poly)._terms.items()
                    acc = out.get(tup)
                    if acc is None:
                        acc = out[tup] = {}
                    _mac(acc, form, terms.items())
    return ConfTensor(alg, 3, {tup: _finished(reg, terms) for tup, terms in out.items() if terms})


class _ContractionPlan:
    """ccybe_bracket's contraction over one algebra kind and Lie
    algebra, for one set of wanted triples (None for all), kept in the
    store and filled entry key by entry key on first use.

    rows(alg, (q, l)) is the pair (feeds, reads) of that entry key.
    feeds lists, per map, the rows (table, table key, factor): the
    entry's B form under that map times the factor, the term list of
    the signed inserted bracket, adds to that key of that table; slots
    1 and 2 read B at (-d3, d3), map 2, and slot 3 at (d2, -d2), map 3.
    Of the `tables` = 2n tables (n basis elements), table i < n is slot
    1's table of left index names[i], keyed (k, l'), and table n + i is
    the slot-2/3 table of right index names[i], keyed (k, l') resp.
    (q', k).
    reads lists (map, table, lands): the entry's A form under that map
    multiplies each coefficient of the table, slot 1's of q or slot
    2/3's of l, and lands sends a table key to the output triple the
    product adds to.  A wanted triple (a, b, c) reads slot 1's tables at
    (a, c) and slot 2/3's at (b, c); only table keys and triples that
    feed a wanted triple appear.  The inserted brackets with each basis
    element are built once, on first use.

    The plan holds names, triples, term lists and the inserted
    brackets' variables (polynomials over CORE_REGISTRY), never an
    algebra (see conformal.ConfAlgebra.memo): rows() is given it.
    """

    __slots__ = ("tables", "_index", "_brackets", "_read", "_lands", "_inserted", "_rows")

    def __init__(self, names: Sequence[str], wanted: Optional[frozenset]):
        self.tables = 2 * len(names)
        self._index = {p: i for i, p in enumerate(names)}
        # the inserted brackets' (d, lam): (d1, d2), (d2, d3), (d3, d2),
        # with slot 1's d1 read as -(d2 + d3)
        d2, d3 = CORE_REGISTRY.var("d2"), CORE_REGISTRY.var("d3")
        self._brackets = ((-(d2 + d3), d2), (d2, d3), (d3, d2))
        # The table keys a wanted triple (a, b, c) reads, per slot: slot
        # 1's (a, c) and slot 2's (b, c), as {c: the k of (k, c)}, and
        # slot 3's (b, c), as {b: the k of (b, k)}.  Slot 1's tables land
        # (a, c) on (a, b, c) for the entries (q, b), the slot-2/3 tables
        # (b, c) on (a, b, c) for the entries (a, l).
        self._read = ({}, {}, {})
        self._lands = ({}, {})
        read1, read2, read3 = self._read
        lands1, lands23 = self._lands
        for a, b, c in itertools.product(names, repeat=3) if wanted is None else wanted:
            read1.setdefault(c, set()).add(a)
            read2.setdefault(c, set()).add(b)
            read3.setdefault(b, set()).add(c)
            lands1.setdefault(b, {})[a, c] = (a, b, c)
            lands23.setdefault(a, {})[b, c] = (a, b, c)
        self._inserted: dict = {}
        self._rows: dict = {}

    def rows(self, alg: ConfAlgebra, key: tuple) -> tuple:
        found = self._rows.get(key)
        if found is None:
            found = self._rows[key] = self._build(alg, key)
        return found

    def _build(self, alg: ConfAlgebra, key: tuple) -> tuple:
        q, l = key
        read1, read2, read3 = self._read
        ks1, ks2, ks3 = read1.get(l), read2.get(l), read3.get(q)
        rows1 = [(i, (k, l), f) for i, k, f in self._inserted_by(alg, 0, q)
                 if k in ks1] if ks1 else []
        rows2 = [(i, (k, l), f) for i, k, f in self._inserted_by(alg, 1, q)
                 if k in ks2] if ks2 else []
        rows3 = [(i, (q, k), f) for i, k, f in self._inserted_by(alg, 2, l)
                 if k in ks3] if ks3 else []
        feeds = [(j, rows) for j, rows in ((2, rows1 + rows2), (3, rows3)) if rows]
        lands1, lands23 = self._lands
        reads = ((0, self._index[q], lands1.get(l)),
                 (1, self.tables // 2 + self._index[l], lands23.get(q)))
        return feeds, [read for read in reads if read[2]]

    def _inserted_by(self, alg: ConfAlgebra, s: int, x: str) -> list:
        """The rows (table, k, factor) of slot s + 1's inserted brackets
        with the entry index x: [p, x]_k into slot 1's table of p, and
        -[x, p]_k into the slot-2/3 table of p for slots 2 and 3."""
        found = self._inserted.get((s, x))
        if found is None:
            d, lam = self._brackets[s]
            n = self.tables // 2
            if s == 0:
                found = [(i, k, _term_list(v)) for i, p in enumerate(alg.basis_names)
                         for k, v in alg.basis_bracket(p, x, d, lam).items()]
            else:
                found = [(n + i, k, _term_list(-v)) for i, p in enumerate(alg.basis_names)
                         for k, v in alg.basis_bracket(x, p, d, lam).items()]
            self._inserted[s, x] = found
        return found


def is_strict_solution(r: ConfTensor) -> tuple[bool, ConfTensor]:
    """The class of the double bracket (ccybe_bracket); True iff it
    vanishes identically."""
    residue = ccybe_bracket(r)
    return residue.is_zero(), residue


def generator_actions(t: ConfTensor) -> dict[str, ConfTensor]:
    """Every generator's action on t at minus its total derivation.

    One act_on_tensor call acts with all generators, so each shifted
    coefficient of t is built once.  On the double bracket this is the
    weak defect, in is_invariant the invariance defect.
    """
    names = t.alg.basis_names
    return dict(zip(names, act_on_tensor(names, t, -t.total())))


def weak_verdict(bracket: ConfTensor) -> tuple[bool, dict[str, ConfTensor]]:
    """The generator actions on the class of the double bracket
    (ccybe_bracket) at mu = -(d1 + d2 + d3), which are those on the full
    bracket, since each slot shift sends d1 + d2 + d3 to 0; True iff
    all vanish.

    Checking generators suffices: an element g(D)a contributes the
    overall factor g(-mu) = g(d1 + d2 + d3), which scales the generator
    defect.

    On the current algebra on sl2 the actions vanish on a class
    P(d2, d3) iff P = c * epsilon with c constant, where epsilon =
    sum sgn(s) s(e x f x h), at every degree.  At d1 = -(d2 + d3), mu is
    0 and every slot shift is the identity, so there the actions are
    sl2's diagonal adjoint action on P(d2, d3): P lies in
    (sl2 x sl2 x sl2)^sl2 = Q * epsilon, so P = c(d2, d3) * epsilon.  On
    such a P the h-action's (e, f, h) coefficient is
    2 c(d2, d3) - 2 c(-(d1 + d3), d3), so c is free of d2, and then its
    (h, e, f) coefficient 2 c(d3) - 2 c(-(d1 + d2)) makes c constant.
    Conversely epsilon is invariant and constant, so no shift moves it
    and every action on c * epsilon vanishes.  On the search's weak
    survivors c is -kappa, kappa = shift_constant of their constants.
    """
    defects = generator_actions(bracket)
    return all(t.is_zero() for t in defects.values()), defects


def is_weak_solution(r: ConfTensor) -> tuple[bool, dict[str, ConfTensor]]:
    return weak_verdict(ccybe_bracket(r))


def is_invariant(r: ConfTensor) -> tuple[bool, dict[str, ConfTensor]]:
    """The generator actions on r + tau(r) at lam = -(d1 + d2), tau the
    factor swap; True iff all vanish.

    The slot shifts send d1 -> -d2 and d2 -> -d1, so the actions read
    the (q, l) coefficient A_{ql}(d1, d2) + A_{lq}(d2, d1) on the
    diagonal only: they are, polynomial for polynomial, the actions on
    A'_{ql}(d1) + A'_{lq}(-d1), A' = diagonal(r), which is what acts.
    """
    alg = r.alg
    flip = _form_map(alg, (0, 0, -1))
    entries: dict[tuple, MPoly] = {}
    for (q, l), a in diagonal(r).items():
        for key, part in (((q, l), a), ((l, q), flip(a))):
            entries[key] = entries[key] + part if key in entries else part
    defects = generator_actions(ConfTensor(alg, 2, entries))
    return all(t.is_zero() for t in defects.values()), defects


# Diagonal profiles --------------------------------------------------------------


@dataclass
class DiagProfile:
    """The nine univariate restrictions A'_{ql}(x) = A_{ql}(x, -x).

    Entry values may reference parameter symbols of the shared registry.
    The boundary constants (alpha, beta, gamma, zeta) are the values
    A'(0) at CONSTANT_PAIRS, which eval_equation reads off a lift.
    """

    reg: SymbolRegistry
    entries: dict[tuple, MPoly]

    def __post_init__(self):
        for key in self.entries:
            if key not in PAIRS:
                raise ValueError(f"unknown profile entry {key}")
        self.entries = {k: v for k, v in self.entries.items() if not v.is_zero()}

    def entry(self, q: str, l: str) -> MPoly:
        return self.entries.get((q, l), self.reg.zero())


def lift_profile(p: DiagProfile) -> ConfTensor:
    """Canonical lift A_{ql}(d1, d2) := A'_{ql}(d1), onto the current
    algebra on sl2 over the profile's registry; the map x -> d1 is kept
    in the store.  The lift is free of d2, so each entry is its own
    diagonal (see diagonal)."""
    alg = ConfAlgebra.cur(sl2(), p.reg)
    reg = CORE_REGISTRY
    at_d1 = alg.memo("lift_profile.at_d1",
                     lambda: Substitution(reg, {reg.sym("x"): reg.var("d1")}))
    return ConfTensor(alg, 2, {key: at_d1(poly) for key, poly in p.entries.items()})


# Equation catalog -----------------------------------------------------------------

@dataclass(frozen=True)
class Equation:
    """A normalized projection identity over the diagonal profile.

    `shifted` marks the one identity that is not a raw projection
    (efh_shift, efh plus the boundary correction kappa), which
    catalog_diffs cannot re-derive.
    """

    name: str
    triple: tuple
    terms: tuple
    scale: int = 1
    action: Optional[str] = None
    shifted: bool = False


_EFH_TERMS = (
    (2, "hf", _ND2, "eh", _ND3),
    (-2, "ef", _ND2, "hh", _ND3),
    (2, "ef", _ND23, "hh", _ND3),
    (-2, "eh", _ND23, "fh", _ND3),
    (1, "ee", _ND23, "ff", _D2),
    (-1, "ef", _ND23, "fe", _D2),
)

CATALOG: dict[str, Equation] = {
    eq.name: eq
    for eq in (
        Equation("eee", ("e", "e", "e"), (
            (1, "he", _ND2, "ee", _ND3),
            (-1, "ee", _ND2, "he", _ND3),
            (1, "eh", _ND23, "ee", _ND3),
            (-1, "ee", _ND23, "he", _ND3),
            (1, "eh", _ND23, "ee", _D2),
            (-1, "ee", _ND23, "eh", _D2),
        ), scale=2),
        Equation("hee", ("h", "e", "e"), (
            (1, "ee", _ND2, "fe", _ND3),
            (-1, "fe", _ND2, "ee", _ND3),
            (2, "hh", _ND23, "ee", _ND3),
            (-2, "he", _ND23, "he", _ND3),
            (2, "hh", _ND23, "ee", _D2),
            (-2, "he", _ND23, "eh", _D2),
        )),
        Equation("fff", ("f", "f", "f"), (
            (1, "ff", _ND2, "hf", _ND3),
            (-1, "hf", _ND2, "ff", _ND3),
            (1, "ff", _ND23, "hf", _ND3),
            (-1, "fh", _ND23, "ff", _ND3),
            (1, "ff", _ND23, "fh", _D2),
            (-1, "fh", _ND23, "ff", _D2),
        ), scale=2),
        Equation("hff", ("h", "f", "f"), (
            (1, "ef", _ND2, "ff", _ND3),
            (-1, "ff", _ND2, "ef", _ND3),
            (2, "hf", _ND23, "hf", _ND3),
            (-2, "hh", _ND23, "ff", _ND3),
            (2, "hf", _ND23, "fh", _D2),
            (-2, "hh", _ND23, "ff", _D2),
        )),
        Equation("ehh", ("e", "h", "h"), (
            (2, "hh", _ND2, "eh", _ND3),
            (-2, "eh", _ND2, "hh", _ND3),
            (1, "ee", _ND23, "fh", _ND3),
            (-1, "ef", _ND23, "eh", _ND3),
            (1, "ee", _ND23, "hf", _D2),
            (-1, "ef", _ND23, "he", _D2),
        )),
        Equation("fhh", ("f", "h", "h"), (
            (2, "fh", _ND2, "hh", _ND3),
            (-2, "hh", _ND2, "fh", _ND3),
            (1, "fe", _ND23, "fh", _ND3),
            (-1, "ff", _ND23, "eh", _ND3),
            (1, "fe", _ND23, "hf", _D2),
            (-1, "ff", _ND23, "he", _D2),
        )),
        Equation("fee", ("f", "e", "e"), (
            (1, "fe", _ND2, "he", _ND3),
            (-1, "he", _ND2, "fe", _ND3),
            (1, "fh", _ND23, "ee", _ND3),
            (-1, "fe", _ND23, "he", _ND3),
            (1, "fh", _ND23, "ee", _D2),
            (-1, "fe", _ND23, "eh", _D2),
        ), scale=2),
        Equation("eff", ("e", "f", "f"), (
            (1, "hf", _ND2, "ef", _ND3),
            (-1, "ef", _ND2, "hf", _ND3),
            (1, "ef", _ND23, "hf", _ND3),
            (-1, "eh", _ND23, "ff", _ND3),
            (1, "ef", _ND23, "fh", _D2),
            (-1, "eh", _ND23, "ff", _D2),
        ), scale=2),
        Equation("hhh", ("h", "h", "h"), (
            (1, "eh", _ND2, "fh", _ND3),
            (-1, "fh", _ND2, "eh", _ND3),
            (1, "he", _ND23, "fh", _ND3),
            (-1, "hf", _ND23, "eh", _ND3),
            (1, "he", _ND23, "hf", _D2),
            (-1, "hf", _ND23, "he", _D2),
        )),
        Equation("efh", ("e", "f", "h"), _EFH_TERMS),
        Equation("fhf", ("f", "h", "f"), (
            (2, "fh", _ND2, "hf", _ND3),
            (-2, "hh", _ND2, "ff", _ND3),
            (1, "fe", _ND23, "ff", _ND3),
            (-1, "ff", _ND23, "ef", _ND3),
            (2, "ff", _ND23, "hh", _D2),
            (-2, "fh", _ND23, "hf", _D2),
        )),
        Equation("efh_h", ("e", "f", "h"), _EFH_TERMS + (
            (-2, "hf", _D13, "eh", _ND3),
            (2, "ef", _D13, "hh", _ND3),
            (-2, "ef", _D1, "hh", _ND3),
            (2, "eh", _D1, "fh", _ND3),
            (-1, "ee", _D1, "ff", _ND13),
            (1, "ef", _D1, "fe", _ND13),
        ), scale=2, action="h"),
        Equation("efh_e", ("e", "f", "e"), (
            (-1, "ef", _ND2, "fe", _ND3),
            (1, "ff", _ND2, "ee", _ND3),
            (2, "hh", _ND23, "fe", _ND3),
            (-2, "hf", _ND23, "he", _ND3),
            (2, "he", _ND23, "fh", _D2),
            (-2, "hh", _ND23, "fe", _D2),
            (2, "ef", _ND2, "hh", _D12),
            (-2, "hf", _ND2, "eh", _D12),
            (-2, "ef", _D1, "hh", _D12),
            (2, "eh", _D1, "fh", _D12),
            (-1, "ee", _D1, "ff", _D2),
            (1, "ef", _D1, "fe", _D2),
        ), scale=2, action="e"),
        # efh plus kappa = 4 alpha gamma + (4 zeta - beta) beta, with the
        # constants read as A'(0) at CONSTANT_PAIRS (shift_constant)
        Equation("efh_shift", ("e", "f", "h"), _EFH_TERMS + (
            (4, "he", _ZERO, "hf", _ZERO),
            (4, "hh", _ZERO, "fe", _ZERO),
            (-1, "fe", _ZERO, "fe", _ZERO),
        ), shifted=True),
    )
}

# Equations the search filters with, in both modes: the nine triple
# projections shared with the strict system plus the action-variable
# variants replacing the e x f x h projection efh (see search).  The
# search's results do not need efh_h and efh_e: without them every
# report hash stays the same.  They stay as prunes, which an earlier
# scan measured them to pay for (raw degree-3 weak sweep: 2.8 s with
# them, 3.5-3.9 s without).  On the present scan they pay nothing
# measurable: raw degree 3 reads 2.5 s either way, and odd degree 5
# over {-1,0,1} takes 9.4 s with them and 8.4 s without (medians of
# five runs, 2 CPUs, Python 3.11).
WEAK_EQUATIONS = (
    "eee", "hee", "fff", "hff", "ehh", "fhh", "fee", "eff", "hhh",
    "efh_h", "efh_e", "efh_shift",
)


def eval_equation(eq: Equation, r: ConfTensor, raw: Optional[MPoly] = None) -> MPoly:
    """Evaluate a catalog entry on the r-matrix r, in d1, d2, d3; zero
    iff the identity holds.

    The entry reads r's diagonal A'(d1) = A(d1, -d1) (a lift is its own
    diagonal) at its argument forms, each through the map d1 -> form
    kept in the store (see _form_map), once per distinct (entry,
    form); efh_shift reads the boundary constants A'(0) at the zero
    form.  With `raw`, the raw projection of the entry, it returns
    raw - eq.scale * (the entry), catalog_diffs' difference: the
    products go, times -scale, into one term table started from raw's
    terms.
    """
    alg = r.alg
    diag = diagonal(r)
    at = {}
    for _coeff, left, arg1, right, arg2 in eq.terms:
        for entry, arg in ((left, arg1), (right, arg2)):
            if (entry, arg) not in at:
                poly = diag.get((entry[0], entry[1]))
                at[entry, arg] = () if poly is None else _form_map(alg, arg)(poly)._terms.items()
    factor = 1 if raw is None else -eq.scale
    acc = {} if raw is None else dict(raw._terms)
    for coeff, left, arg1, right, arg2 in eq.terms:
        f = coeff * factor
        a = at[left, arg1]
        _mac(acc, a if f == 1 else [(k, c * f) for k, c in a], at[right, arg2])
    return _finished(alg.reg, acc)


# Generic profiles and re-derivation ------------------------------------------------


def generic_profile(reg: SymbolRegistry, degree: int = 4) -> DiagProfile:
    """Profile with one free coefficient symbol per entry per degree.

    The entry (q, l) is the sum over j of c_{ql}_j * x^j, built straight
    from its packed terms.  Its symbols are interned entry by entry and
    by rising j, an order that fixes their ids and so the canonical
    print order of everything built on them.  A degree at or above
    EXPONENT_LIMIT raises ExponentOverflow before any symbol is
    interned, so no power of x reaches its field's guard bit.
    """
    if degree >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"degree {degree} is not below {EXPONENT_LIMIT}")
    x_shift = _FIELD * reg.sym("x").index
    entries = {}
    for q, l in PAIRS:
        entries[q, l] = MPoly(reg, {
            (1 << _FIELD * reg.sym(f"c_{q}{l}_{j}").index) + (j << x_shift): 1
            for j in range(degree + 1)})
    return DiagProfile(reg, entries)


def derive_projection(triple: Sequence[str], r: ConfTensor) -> MPoly:
    """Raw projection of the double bracket's class for the generic lift `r`.

    Only the triple's own coefficient of the bracket is built, in d2 and
    d3.  Matches the catalog entry for the triple up to the entry's
    recorded integer scale.
    """
    triple = tuple(triple)
    return project(ccybe_bracket(r, [triple]), triple)


def derive_weak_projection(generator: str, triple: Sequence[str], r: ConfTensor) -> MPoly:
    """Raw projection of a generator action on the bracket of the generic lift `r`.

    The action is taken at mu = -(d1+d2+d3), and the result is in d1,
    d2, d3.  The action on slot i moves a tuple's entry b to the
    components of [g, b], so the triple T only reads the bracket at T
    with slot i replaced by some b whose [g, b] has a T[i] component:
    only those coefficients of the bracket are built.
    """
    alg = r.alg
    reg = alg.reg
    triple = tuple(triple)
    d, lam = reg.var("d"), reg.var("lam")
    feeds = [triple[:i] + (b,) + triple[i + 1:]
             for i in range(3) for b in alg.basis_names
             if triple[i] in alg.basis_bracket(generator, b, d, lam)]
    bracket = ccybe_bracket(r, feeds)
    acted = act_on_tensor([generator], bracket, -bracket.total())[0]
    return project(acted, triple)


def catalog_diffs(degree: int = 3, names: Optional[Sequence[str]] = None) -> dict[str, MPoly]:
    """Re-derive every catalog identity from the generic profile.

    Returns {name: raw_projection - scale * stored_form}, in d1, d2, d3;
    the catalog is faithful iff every difference is the zero polynomial.
    The shifted variant is excluded (it is not a raw projection).  The
    identities share one lift of the generic profile: each difference
    is one term table, started from the raw projection and finished
    once by eval_equation, which reads the lift through the maps
    d1 -> form that the bracket reads too.

    At degree 7 this proves the catalog at every degree.  The lift reads
    A'(d1), and the bracket's four maps send d1 to -d2,
    -(d2+d3), -d3 and d2; a generator action's slot shifts at
    -(d1+d2+d3) add d1+d3, d1, -(d1+d3) and d1+d2.  These are the 8
    forms the catalog uses, so each difference is a sum of
    c * A'_p(L) * A'_q(M) over entries p, q and forms L, M, with
    rational c.  On the generic profile, A'_p(x) = sum_i c_{p,i} x^i,
    the coefficient of c_{p,i} c_{q,j} in it is sum C(L, M) L^i M^j,
    where C(L, M) is the sum of the c at (p, L, q, M), symmetrized with
    those at (q, M, p, L) when p == q.  At a point where the 8 forms
    take distinct values, the matrix of L^i M^j over 0 <= i, j <= 7 and
    the 64 pairs (L, M) is the tensor product of two invertible 8x8
    Vandermonde matrices.  So the differences vanishing at degree 7
    force every C(L, M) to 0, and then they vanish at any degree.
    """
    r = lift_profile(generic_profile(SymbolRegistry(), degree))
    out = {}
    for name in (names or [n for n, eq in CATALOG.items() if not eq.shifted]):
        eq = CATALOG[name]
        if eq.action is None:
            raw = derive_projection(eq.triple, r)
        else:
            raw = derive_weak_projection(eq.action, eq.triple, r)
        out[name] = eval_equation(eq, r, raw)
    return out


def canonical_hash(payload: dict) -> str:
    """sha256 of the payload's canonical JSON (sorted keys, no spaces):
    the content hash of a verify report and of a search report."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()
