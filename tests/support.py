"""Shared helpers and independent oracles used across the test suite.

The oracles here are deliberately written from scratch against textbook
formulas (classical Yang-Baxter expansion, adjoint actions, slotwise
lambda-actions) so that the engine under test is checked by a second,
structurally different computation.  Others are slower reference
paths the engine replaced: the pairwise double bracket, the two-pass
reduced action, the reduction modulo the total derivation after the
bracket is built, the unstructured candidate enumeration of the search,
its flat scan of the consistent candidates, the verdicts of every
consistent candidate checked one by one, the term-by-term generic
profile, and the factor swap tau with the general slot permutation
(the invariance check acts on r + tau(r) as read off the diagonal).
The rest are checks and constructions only the tests use: sums and
differences of tensors (the engine adds none), the names of the strict
system's equations, diagonal restrictions, the invariance residues,
the invariance-constrained generic profile, slot permutation symmetry,
the weak defect of a constant r, antisymmetry of constant 3-tensors,
algebras from JSON, random invertible integer matrices, the identity
automorphism, the Lie bracket of two elements and the check that an
automorphism preserves it, the general invariant constant tensor, the
classical operator at zero derivations (the double bracket at
d1 = d2 = d3 = 0, which classical_cybe_oracle checks), whether a
characterization passes, a map over a tensor's coefficients, the
exponent-tuple view of a polynomial's terms and the polynomial of such
terms, and the elements of a conformal algebra: the lambda-bracket of
two elements, the derivation applied to an element (the algebra laws'
oracle; the engine inserts basis-level brackets only) and an element's
action on a tensor, the linear extension of the generators' actions
(the engine acts with generators only).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from ccybe import search
from ccybe.conformal import (
    ConfAlgebra,
    ConfTensor,
    act_on_tensor,
    project,
)
from ccybe.exactpoly import (
    EXPONENT_LIMIT, MPoly, Substitution, SymbolRegistry, _FIELD, _scalar, _unpack,
)
from ccybe.families import FamilySpec, build_profile
from ccybe.liealg import AutMatrix, LieAlg, Scalar, ad, is_zero_scalar, sl2, tensor_add
from ccybe.search import candidate_profile
from ccybe.ybe import (
    CATALOG,
    CONSTANT_NAMES,
    CONSTANT_PAIRS,
    PAIRS,
    WEAK_EQUATIONS,
    DiagProfile,
    boundary_values,
    ccybe_bracket,
    derive_projection,
    derive_weak_projection,
    eval_equation,
    generic_profile,
    is_invariant,
    lift_profile,
    shift_constant,
    weak_verdict,
)


def random_poly(reg, rng, names, max_degree=4, max_terms=5):
    """Random sparse polynomial in the given symbols."""
    p = reg.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = reg.const(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        budget = max_degree
        for name in names:
            e = rng.randint(0, budget)
            budget -= e
            if e:
                term = term * reg.var(name) ** e
        p = p + term
    return p


def map_coeffs(t: ConfTensor, fn) -> ConfTensor:
    """The tensor with fn applied to every coefficient."""
    return ConfTensor(t.alg, t.arity, {tup: fn(p) for tup, p in t.entries.items()})


# Tensor arithmetic and slot permutations.  The engine adds no tensors
# and permutes no slots: the double bracket's class and the invariance
# check read each entry's diagonal (ybe.diagonal) instead.  Scale a
# tensor with map_coeffs.


def add_tensors(a: ConfTensor, b: ConfTensor) -> ConfTensor:
    """The sum of two tensors over one algebra and of one arity."""
    if a.alg is not b.alg or a.arity != b.arity:
        raise ValueError("tensor shape mismatch")
    out = dict(a.entries)
    for tup, poly in b.entries.items():
        out[tup] = out.get(tup, a.alg.reg.zero()) + poly
    return ConfTensor(a.alg, a.arity, out)


def sub_tensors(a: ConfTensor, b: ConfTensor) -> ConfTensor:
    """a - b, for tensors as add_tensors takes them."""
    return add_tensors(a, map_coeffs(b, lambda p: -p))


def permute_slots(t: ConfTensor, perm: Sequence[int]) -> ConfTensor:
    """Apply a slot permutation: factor i moves to slot perm[i], and the
    slot symbols are renamed accordingly."""
    if sorted(perm) != list(range(t.arity)):
        raise ValueError("not a permutation")
    reg = t.alg.reg
    rename = Substitution(reg, {
        reg.sym(f"d{i + 1}"): reg.var(f"d{perm[i] + 1}") for i in range(t.arity)
    })
    out: dict[tuple, MPoly] = {}
    for tup, poly in t.entries.items():
        new = [""] * t.arity
        for i, name in enumerate(tup):
            new[perm[i]] = name
        # a permutation maps distinct tuples to distinct tuples, so no
        # two entries land on one key
        out[tuple(new)] = rename(poly)
    return ConfTensor(t.alg, t.arity, out)


def tau(t: ConfTensor) -> ConfTensor:
    """Swap the two tensor factors (and the two slot symbols): the
    oracle for ybe.is_invariant, which acts on r + tau(r) read on the
    diagonal."""
    if t.arity != 2:
        raise ValueError("tau is defined on arity-2 tensors")
    return permute_slots(t, (1, 0))


# Elements of a conformal algebra.  The engine acts with generators
# only (conformal.act_on_tensor takes their names); an element g(D)a
# acts as g(-lam) times a's action, which `act` writes out.


@dataclass
class ConfElem:
    """A finite combination sum_a g_a(d) * a over the algebra basis."""

    alg: ConfAlgebra
    coeffs: dict[str, MPoly]

    def __post_init__(self):
        self.coeffs = {k: v for k, v in self.coeffs.items() if not v.is_zero()}
        for k in self.coeffs:
            if k not in self.alg.basis_names:
                raise ValueError(f"unknown basis element {k!r}")


def generator(alg: ConfAlgebra, name: str) -> ConfElem:
    """The basis element `name` as an element, with coefficient 1."""
    return ConfElem(alg, {name: alg.reg.const(1)})


def act(elems, t: ConfTensor, lam: MPoly) -> list[ConfTensor]:
    """Each element's action on t at `lam`: the sum over p of g_p(-lam)
    times generator p's action, the linear extension of act_on_tensor."""
    names = t.alg.basis_names
    actions = dict(zip(names, act_on_tensor(names, t, lam)))
    at = {t.alg.reg.sym("d"): -lam}
    out = []
    for elem in elems:
        acc = ConfTensor(t.alg, t.arity, {})
        for p, g in elem.coeffs.items():
            factor = g.subst_many(at)
            acc = add_tensors(acc, map_coeffs(actions[p], lambda c: c * factor))
        out.append(acc)
    return out


def apply_derivation(a: ConfElem) -> ConfElem:
    """D a: every coefficient g(d) becomes d * g(d)."""
    d = a.alg.reg.var("d")
    return ConfElem(a.alg, {k: v * d for k, v in a.coeffs.items()})


def lambda_bracket(a: ConfElem, b: ConfElem) -> dict[str, MPoly]:
    """[a _lam b] as a map from basis names to polynomials in (d, lam)."""
    if a.alg is not b.alg:
        raise ValueError("elements over different algebras")
    alg = a.alg
    reg = alg.reg
    d, lam = reg.var("d"), reg.var("lam")
    d_sym = reg.sym("d")
    out: dict[str, MPoly] = {}
    for p, f in a.coeffs.items():
        f_at = f.subst_many({d_sym: -lam})
        for q, g in b.coeffs.items():
            bracket = alg.basis_bracket(p, q, d, lam)
            if not bracket:
                continue
            g_at = g.subst_many({d_sym: lam + d})
            factor = f_at * g_at
            for k, poly in bracket.items():
                term = factor * poly
                out[k] = out.get(k, reg.zero()) + term
    return {k: v for k, v in out.items() if not v.is_zero()}


def tuple_terms(p: MPoly) -> dict:
    """p's terms as {exponent tuple: Fraction}, each tuple indexed by
    symbol id with trailing zeros stripped."""
    return {_unpack(key): Fraction(c) for key, c in p._terms.items()}


def poly_of(reg: SymbolRegistry, terms: Mapping[tuple, Scalar]) -> MPoly:
    """The polynomial with the terms {exponent tuple: coefficient}, each
    exponent in [0, EXPONENT_LIMIT), packed here and not by the engine;
    zero coefficients are dropped."""
    packed = {}
    for exps, coeff in terms.items():
        if not all(0 <= e < EXPONENT_LIMIT for e in exps):
            raise ValueError(f"exponent in {exps} is not in [0, {EXPONENT_LIMIT})")
        c = _scalar(coeff)
        if c:
            packed[sum(e << (_FIELD * i) for i, e in enumerate(exps))] = c
    return MPoly(reg, packed)


def termwise_subst(p: MPoly, mapping: Mapping) -> MPoly:
    """Simultaneous substitution one term at a time, each power expanded
    by repeated multiplication: an oracle for the compiled
    exactpoly.Substitution, through the public API only."""
    reg = p.reg
    images = {sym.index: expr for sym, expr in mapping.items()}
    out = reg.zero()
    for exps, c in tuple_terms(p).items():
        term = reg.const(c)
        for i, e in enumerate(exps):
            factor = images.get(i, reg.var(reg.name_of(i)))
            for _ in range(e):
                term = term * factor
        out = out + term
    return out


def random_univariate(reg, rng, name, max_degree=3, lo=-3, hi=3):
    p = reg.zero()
    for k in range(max_degree + 1):
        c = rng.randint(lo, hi)
        if c:
            p = p + reg.var(name) ** k * c if k else p + reg.const(c)
    return p


# Classical (non-conformal) oracles over a structure-constant Lie algebra.
# Tensors are plain dicts mapping basis tuples to scalars (Fraction or MPoly).


def _tadd(acc, key, val):
    cur = acc.get(key)
    new = val if cur is None else cur + val
    if isinstance(new, (int, Fraction)):
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    else:
        if new.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = new
    return acc


def classical_cybe_oracle(alg, r):
    """Textbook expansion [r12,r13] + [r12,r23] + [r13,r23].

    `r` maps (q, l) pairs of basis names to scalars.  Returns a dict over
    basis triples.  Signs follow the standard expansion:
      [r12,r13] = sum [a_i,a_j] x b_i x b_j
      [r12,r23] = sum a_i x [b_i,a_j] x b_j
      [r13,r23] = sum a_i x a_j x [b_i,b_j]
    """
    out = {}
    items = list(r.items())
    for (q, l), c1 in items:
        for (q2, l2), c2 in items:
            coeff = c1 * c2
            for k, s in alg.bracket_basis(q, q2).items():
                _tadd(out, (k, l, l2), coeff * s)
            for k, s in alg.bracket_basis(l, q2).items():
                _tadd(out, (q, k, l2), coeff * s)
            for k, s in alg.bracket_basis(l, l2).items():
                _tadd(out, (q, q2, k), coeff * s)
    return out


def adjoint_action_oracle(alg, a, tensor):
    """ad_a applied slotwise to a constant tensor (dict over basis tuples)."""
    out = {}
    for tup, coeff in tensor.items():
        for slot, b in enumerate(tup):
            for k, s in alg.bracket_basis(a, b).items():
                new = list(tup)
                new[slot] = k
                _tadd(out, tuple(new), coeff * s)
    return out


def random_invertible(rng, size=2):
    """Random integer 2x2 matrix ((a, b), (c, d)) with entries in
    [-size, size] and a*d - b*c != 0."""
    while True:
        a, b, c, d = (rng.randint(-size, size) for _ in range(4))
        if a * d - b * c:
            return (a, b), (c, d)


# Pairwise double bracket: for every pair of entries, the product of
# their substituted coefficients times each signed inserted bracket (the
# loop the engine's contraction-first ccybe_bracket replaced; the
# engine builds only the class modulo the total derivation).  The
# inserted brackets are written out here: the structure constants of a
# current algebra, d + 2 lam for Virasoro.


def _inserted(alg, p, q, d, lam):
    if alg.kind == "cur":
        return list(alg.lie.bracket_basis(p, q).items())
    return [("v", d + lam * 2)]


def pairwise_args(reg):
    """The five coefficient arguments of the pairwise bracket, as (first
    slot, second slot) values: A at (-d2, d2) and (d1, d2+d3), B at
    (d1+d2, d3), (-d3, d3) and (d2, -d2)."""
    d1, d2, d3 = (reg.var(n) for n in ("d1", "d2", "d3"))
    return (-d2, d2), (d1, d2 + d3), (d1 + d2, d3), (-d3, d3), (d2, -d2)


def pairwise_products(alg, keys):
    """Every product of the pairwise bracket of the entries at `keys`, as
    (output triple, signed inserted bracket, (A's key, argument),
    (B's key, argument)), an argument indexing pairwise_args."""
    reg = alg.reg
    d1, d2, d3 = (reg.var(n) for n in ("d1", "d2", "d3"))
    names = alg.basis_names
    ins_1, ins_2, ins_3 = (
        {(p, q): [(k, v * sign) for k, v in _inserted(alg, p, q, d, lam)]
         for p in names for q in names}
        for d, lam, sign in ((d1, d2, 1), (d2, d3, -1), (d3, d2, -1))
    )
    for q, l in keys:
        for q2, l2 in keys:
            # [q, q2] in slot 1, [q2, l] in slot 2, [l2, l] in slot 3
            for k, ins in ins_1[q, q2]:
                yield (k, l, l2), ins, ((q, l), 0), ((q2, l2), 2)
            for k, ins in ins_2[q2, l]:
                yield (q, k, l2), ins, ((q, l), 1), ((q2, l2), 3)
            for k, ins in ins_3[l2, l]:
                yield (q, q2, k), ins, ((q, l), 1), ((q2, l2), 4)


def pairwise_bracket(r):
    alg = r.alg
    reg = alg.reg
    s1, s2 = reg.sym("d1"), reg.sym("d2")
    forms = {key: [A.subst_many({s1: u, s2: v}) for u, v in pairwise_args(reg)]
             for key, A in r.entries.items()}
    out = {}
    for tup, ins, (a, i), (b, j) in pairwise_products(alg, list(r.entries)):
        poly = forms[a][i] * forms[b][j] * ins
        if not poly.is_zero():
            out[tup] = out.get(tup, reg.zero()) + poly
    return ConfTensor(alg, 3, out)


# Two-pass reduced action: act at a free variable mu, then eliminate it
# via mu := -(d1 + ... + dN).  The engine acts at that value directly.


def act_then_eliminate(elem, t):
    reg = t.alg.reg
    acted = act([elem], t, reg.var("mu"))[0]
    return map_coeffs(acted, lambda p: p.subst_many({reg.sym("mu"): -t.total()}))


# Reduction modulo the total derivation after the fact: d1 := -(d2 + ...
# + dN) on every coefficient.  The engine builds the double bracket in
# the quotient directly (ccybe_bracket builds only the class).


def _eliminate_d1(t: ConfTensor) -> dict:
    """The substitution d1 := -(d2 + ... + dN)."""
    reg = t.alg.reg
    return {reg.sym("d1"): reg.var("d1") - t.total()}


def reduce_mod_total(t: ConfTensor) -> ConfTensor:
    """Reduce modulo the total derivation: d1 := -(d2 + ... + dN)."""
    return map_coeffs(t, Substitution(t.alg.reg, _eliminate_d1(t)))


def project_reduced(t: ConfTensor, tup) -> MPoly:
    """project(reduce_mod_total(t), tup), reducing that coefficient only."""
    return project(t, tup).subst_many(_eliminate_d1(t))


# Unstructured search oracles (desk-scale configurations only).


def enumerate_candidates(cfg):
    """Stream every (constants, coefficient rows) candidate, with no
    filtering; the first entry's row varies slowest within a constants
    block."""
    n_deg = len(cfg.degrees)
    vectors = list(itertools.product(cfg.coeff_grid, repeat=n_deg))
    for constants in itertools.product(cfg.constants_grid, repeat=4):
        for combo in itertools.product(vectors, repeat=9):
            yield constants, combo


def enumerate_profiles(cfg):
    """Stream every candidate profile, with no filtering."""
    for constants, combo in enumerate_candidates(cfg):
        yield candidate_profile(cfg, constants, combo)


def _skew_profile(profile: DiagProfile) -> bool:
    """A'_{ql}(x) + A'_{lq}(-x) == 0 for all pairs."""
    x = profile.reg.sym("x")
    minus = -profile.reg.var("x")
    return all((profile.entry(q, l) + profile.entry(l, q).subst_many({x: minus})).is_zero()
               for q, l in PAIRS)


def _reference_names(cfg):
    """The reference scans' filter equations: the weak ones, plus efh in
    strict mode, where they also test skew-symmetry per candidate; the
    search instead scans the weak ones over zeta = 0, kappa = 0 only."""
    return WEAK_EQUATIONS + (("efh",) if cfg.mode == "strict" else ())


def naive_run(cfg):
    """Reference filter: the invariance residues, skew-symmetry in strict
    mode, and the exact filter equations on every enumerated candidate."""
    names = _reference_names(cfg)
    out = []
    for profile in enumerate_profiles(cfg):
        if any(not r.is_zero() for r in invariance_residues(profile)):
            continue
        if cfg.mode == "strict" and not _skew_profile(profile):
            continue
        r = lift_profile(profile)
        if all(eval_equation(CATALOG[name], r).is_zero() for name in names):
            out.append(profile)
    return out


# Brute-force verdicts: every invariance-consistent raw candidate, with
# the consistent coefficients read off the invariance relations here,
# lifted and checked by the tensor engine, with no catalog equation and
# no search table.


def brute_force_verdicts(max_degree, coeff_grid, constants_grid):
    """(entries, invariant, weak, strict, skew) per invariance-consistent
    raw candidate: every degree 1..max_degree populated from
    coeff_grid, the constant terms the boundary values of a constants
    tuple over constants_grid.  `entries` is the canonical JSON of the
    nonzero entries as a search survivor prints them; the weak and
    strict verdicts come from one reduced double bracket."""
    # The relation A'_left(lam) + A'_right(-lam) == const holds in degree
    # j iff c_left + (-1)^j c_right == 0; a diagonal entry is its own
    # mirror, so it is zero in even degrees.
    choices = []   # per (relation, degree): the (c_left, c_right) that hold
    for left, right, _mult in INVARIANCE_RELATIONS:
        for j in range(1, max_degree + 1):
            choices.append([(left, right, j, a, b) for a in coeff_grid for b in coeff_grid
                            if a + (-1) ** j * b == 0 and (left != right or a == b)])
    reg = SymbolRegistry()
    x = reg.sym("x")
    out = []
    for constants in itertools.product(constants_grid, repeat=4):
        bnd = dict(zip(PAIRS, boundary_values(constants)))
        for picks in itertools.product(*choices):
            rows = {pair: {0: bnd[pair]} for pair in PAIRS}
            for left, right, j, a, b in picks:
                rows[left][j] = a
                rows[right][j] = b
            profile = DiagProfile(reg, {pair: reg.univariate(x, row)
                                        for pair, row in rows.items()})
            r = lift_profile(profile)
            bracket = ccybe_bracket(r)
            entries = {"".join(pair): poly.to_string() for pair, poly in profile.entries.items()}
            out.append((json.dumps(entries, sort_keys=True), is_invariant(r)[0],
                        weak_verdict(bracket)[0], bracket.is_zero(), _skew_profile(profile)))
    return out


# Flat scan of the consistent candidates: number them in a mixed radix,
# decode every index, test skew-symmetry in strict mode, prescreen each
# candidate anew at the sample points, then filter exactly at the
# points of the full principal lattice in (d2, d3, d1), with this
# file's own term tables and kappa (not the engine's check table or the
# catalog's kappa terms), and post-verify as the engine's depth-first
# scan does.  The engine yields its leaves in walk order, so compare the
# two as lists sorted by canonical JSON.


def _decode(cfg, index, slots):
    """Mixed-radix decoding of a consistent-candidate index: the four
    constants are the low digits, the free slots the high ones."""
    const_grid = cfg.constants_grid
    constants = []
    for _ in range(4):
        index, r = divmod(index, len(const_grid))
        constants.append(const_grid[r])
    coeffs = [[0] * len(cfg.degrees) for _ in range(9)]
    for kind, i, k, choices in slots:
        index, r = divmod(index, len(choices))
        v = choices[r]
        coeffs[i][k] = v
        if kind == "pair+":
            coeffs[search._MIRROR[i]][k] = v
        elif kind == "pair-":
            coeffs[search._MIRROR[i]][k] = -v
    return tuple(constants), tuple(tuple(row) for row in coeffs)


def _is_skew(cfg, constants, coeffs):
    """A'_{ql}(x) + A'_{lq}(-x) == 0 for all pairs."""
    consts = boundary_values(constants)
    for i, m in search._MIRROR.items():
        if consts[i] + consts[m]:
            return False
        for k, j in enumerate(cfg.degrees):
            if coeffs[i][k] + (-1) ** j * coeffs[m][k]:
                return False
    return True


_FILTER_ARGS = sorted({
    arg
    for eq in CATALOG.values()
    for term in eq.terms
    for arg in (term[2], term[4])
})
_ARG_INDEX = {arg: n for n, arg in enumerate(_FILTER_ARGS)}


def _filter_terms(names):
    """Catalog terms with entries and argument forms as flat indices; the
    shifted identity is read as efh's terms, to which _candidate_dies
    adds kappa = shift_constant itself, independent of the catalog's
    kappa terms."""
    out = []
    for name in names:
        eq = CATALOG[name]
        terms = tuple(
            (coeff,
             search._PAIR_INDEX[(left[0], left[1])] * len(_FILTER_ARGS) + _ARG_INDEX[arg1],
             search._PAIR_INDEX[(right[0], right[1])] * len(_FILTER_ARGS) + _ARG_INDEX[arg2])
            for coeff, left, arg1, right, arg2 in (CATALOG["efh"] if eq.shifted else eq).terms
        )
        out.append((name, terms, eq.shifted))
    return out


def _arg_values(point):
    """Value of each argument form at a sample point."""
    px, py, pz = point
    return [ax * px + ay * py + az * pz for ax, ay, az in _FILTER_ARGS]


def _candidate_dies(cfg, constants, coeffs, terms, shift, points_args):
    """True once any filter equation is nonzero at one of the points,
    each given by its argument values."""
    consts = boundary_values(constants)
    n_args = len(_FILTER_ARGS)
    for args in points_args:
        cache = {}
        for _name, eq_terms, shifted in terms:
            acc = shift if shifted else 0
            for coeff, k1, k2 in eq_terms:
                for k in (k1, k2):
                    if k not in cache:
                        i, n = divmod(k, n_args)
                        s = args[n]
                        v = consts[i]
                        for c, j in zip(coeffs[i], cfg.degrees):
                            if c:
                                v += c * s ** j
                        cache[k] = v
                acc += coeff * cache[k1] * cache[k2]
            if acc:
                return True
    return False


def flat_scan(cfg):
    """(record, problems) for every consistent candidate passing the
    exact filter, in index order."""
    names = _reference_names(cfg)
    terms = _filter_terms(names)
    slots = search._free_slots(cfg)
    points_args = [_arg_values(p) for p in search._PRESCREEN_POINTS]
    # every filter equation has total degree <= 2 max_degree in
    # (d2, d3, d1), and this lattice is unisolvent for that degree
    lattice_args = [_arg_values(p) for p in search._lattice(2 * cfg.max_degree, (0, 1, 2))]
    out = []
    for index in range(search.count_consistent(cfg)):
        constants, coeffs = _decode(cfg, index, slots)
        if cfg.mode == "strict" and not _is_skew(cfg, constants, coeffs):
            continue
        shift = shift_constant(constants)
        if _candidate_dies(cfg, constants, coeffs, terms, shift, points_args):
            continue
        if not _candidate_dies(cfg, constants, coeffs, terms, shift, lattice_args):
            out.append(search._post_verify(cfg, candidate_profile(cfg, constants, coeffs)))
    return out


# Checks and constructions only the tests use.


def rational_kernel(rows: Iterable[Mapping[int, Scalar]], unknowns: int) -> list:
    """A basis of the v in Q^unknowns with sum_j row[j] * v[j] = 0 for
    every row, each row a sparse map {unknown: coefficient}: exact
    Gauss-Jordan elimination over Fraction, one basis vector per free
    unknown."""
    pivots: dict = {}   # pivot unknown: its row, 1 there and 0 at every other pivot

    def subtract(row, c, pivot_row):
        for j, v in pivot_row.items():
            s = row.get(j, 0) - c * v
            if s:
                row[j] = s
            else:
                row.pop(j, None)

    for given in rows:
        row = {j: Fraction(c) for j, c in given.items() if c}
        for p in [j for j in row if j in pivots]:
            subtract(row, row[p], pivots[p])
        if not row:
            continue
        p = min(row)
        inverse = 1 / row[p]
        row = {j: v * inverse for j, v in row.items()}
        for other in pivots.values():
            if p in other:
                subtract(other, other[p], row)
        pivots[p] = row
    basis = []
    for free in range(unknowns):
        if free not in pivots:
            v = [Fraction(0)] * unknowns
            v[free] = Fraction(1)
            for p, row in pivots.items():
                v[p] = -row.get(free, 0)
            basis.append(v)
    return basis


def tensors_equal(a: Mapping, b: Mapping) -> bool:
    for k in set(a) | set(b):
        if not is_zero_scalar(a.get(k, 0) - b.get(k, 0)):
            return False
    return True


def antisymmetrize(tensor: Mapping[tuple, Scalar]) -> dict[tuple, Scalar]:
    """Full antisymmetrization of a 3-tensor (the wedge projection)."""
    out: dict[tuple, Scalar] = {}
    perms = [
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ]
    for tup, coeff in tensor.items():
        for perm, sign in perms:
            key = tuple(tup[p] for p in perm)
            tensor_add(out, key, coeff * Fraction(sign, 6))
    return out


def is_totally_antisymmetric(tensor: Mapping[tuple, Scalar]) -> bool:
    return tensors_equal(tensor, antisymmetrize(tensor))


def algebra_from_json(data: Union[str, dict]) -> LieAlg:
    """Load an algebra definition: {"basis": [...], "brackets": [[i, j, k, "p/q"], ...]}.

    The name "sl2" is recognized as the builtin.
    """
    if isinstance(data, str):
        if data == "sl2":
            return sl2()
        data = json.loads(data)
    names = data["basis"]
    table: dict[tuple, dict[str, Fraction]] = {}
    for i, j, k, val in data["brackets"]:
        table.setdefault((i, j), {})[k] = Fraction(val)
    # fill antisymmetric counterparts that were left implicit
    for (i, j), out in list(table.items()):
        mirror = table.setdefault((j, i), {})
        for k, v in out.items():
            mirror.setdefault(k, -v)
    return LieAlg(names, table)


def identity_matrix() -> AutMatrix:
    return ad(((1, 0), (0, 1)))


def lie_bracket(alg: LieAlg, x: Mapping[str, Scalar],
                y: Mapping[str, Scalar]) -> dict[str, Scalar]:
    """Bilinear extension of the structure constants to two elements
    given as {basis name: coefficient}."""
    out: dict[str, Scalar] = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, s in alg.bracket_basis(i, j).items():
                tensor_add(out, k, ci * cj * s)
    return out


def preserves_bracket(aut: AutMatrix) -> bool:
    """Whether aut([i, j]) == [aut(i), aut(j)] for every pair of basis
    elements; ad(g) always passes, so this checks the constructor."""
    alg = aut.alg
    for i in alg.names:
        for j in alg.names:
            rhs: dict[str, Scalar] = {}
            for k, s in alg.bracket_basis(i, j).items():
                for name, v in aut.image(k).items():
                    tensor_add(rhs, name, v * s)
            if not tensors_equal(lie_bracket(alg, aut.image(i), aut.image(j)), rhs):
                return False
    return True


def invariant_constant_rmat(alpha: Scalar, beta: Scalar, gamma: Scalar,
                            zeta: Scalar) -> ConfTensor:
    """The general invariant constant tensor

        alpha (h x e - e x h) + beta (f x e - e x f)
        + gamma (h x f - f x h) + zeta (h x h + 4 e x f),

    the lemma1 family member, over a fresh current algebra on sl2.
    """
    spec = FamilySpec("lemma1", SymbolRegistry(), {
        "alpha": alpha, "beta": beta, "gamma": gamma, "zeta": zeta,
    })
    return lift_profile(build_profile(spec))


def cybe(r: Mapping[tuple, Scalar], alg: Optional[LieAlg] = None,
         reg: Optional[SymbolRegistry] = None) -> dict[tuple, Scalar]:
    """Classical YBE operator on a constant r in g tensor g.

    Computed by specializing the conformal double bracket at all slot
    derivations equal to zero, so the engine's expansion is compared
    with the textbook three-bracket formula of classical_cybe_oracle.
    """
    alg = alg or sl2()
    reg = reg or SymbolRegistry()
    entries = {}
    for (q, l), v in r.items():
        if isinstance(v, MPoly):
            if v.reg is not reg:
                raise ValueError("parametric coefficients must share the registry")
            if any(sym.name in ("d1", "d2", "d3") for sym in v.symbols()):
                raise ValueError("cybe requires constant (derivation-free) input")
            entries[(q, l)] = v
        else:
            entries[(q, l)] = reg.const(v)
    bracket = ccybe_bracket(ConfTensor(ConfAlgebra.cur(alg, reg), 2, entries))
    at_zero = Substitution(reg, {reg.sym(n): reg.zero() for n in ("d1", "d2", "d3")})
    out: dict[tuple, Scalar] = {}
    for tup, poly in bracket.entries.items():
        v = at_zero(poly)
        if not v.is_zero():
            out[tup] = v.constant_value() if v.is_constant() else v
    return out


def weak_cybe_defect(r: Mapping[tuple, Scalar], alg: Optional[LieAlg] = None,
                     reg: Optional[SymbolRegistry] = None) -> dict[str, dict[tuple, Scalar]]:
    """Adjoint action of every basis element on cybe(r); all zero iff weak."""
    alg = alg or sl2()
    value = cybe(r, alg, reg)
    out = {}
    for a in alg.names:
        defect: dict[tuple, Scalar] = {}
        for tup, coeff in value.items():
            for slot, b in enumerate(tup):
                for k, s in alg.bracket_basis(a, b).items():
                    new = list(tup)
                    new[slot] = k
                    tensor_add(defect, tuple(new), coeff * s)
        out[a] = defect
    return out


def characterization_ok(rep) -> bool:
    """Whether a families.characterize report passes all four checks."""
    return rep.sym and rep.shared_f_ok and rep.rank_le_1 and rep.constants_ok


def diagonal_profile_of(t: ConfTensor) -> DiagProfile:
    """Restrict every coefficient of an r-matrix over the sl2 current
    algebra to the diagonal (d1, d2) = (x, -x); the zero restrictions
    are dropped."""
    if t.alg.kind == "vir":
        raise ValueError("diagonal profiles are defined over the sl2 current algebra")
    reg = t.alg.reg
    x = reg.var("x")
    sub = {reg.sym("d1"): x, reg.sym("d2"): -x}
    return DiagProfile(reg, {key: poly.subst_many(sub) for key, poly in t.entries.items()})


# The ten projection identities of the strict system, in catalog order.
STRICT_EQUATIONS = (
    "eee", "hee", "fff", "hff", "ehh", "fhh", "fee", "eff", "hhh", "efh",
)


# (left entry, right entry, multiple of zeta on the right-hand side):
# A'_left(lam) + A'_right(-lam) == rhs_zeta * zeta.
INVARIANCE_RELATIONS = (
    (("e", "e"), ("e", "e"), 0),
    (("f", "e"), ("e", "f"), 4),
    (("h", "e"), ("e", "h"), 0),
    (("f", "f"), ("f", "f"), 0),
    (("h", "f"), ("f", "h"), 0),
    (("h", "h"), ("h", "h"), 2),
)


def constant_values(p: DiagProfile) -> list[MPoly]:
    """(alpha, beta, gamma, zeta): the x-free parts of the profile's
    entries at CONSTANT_PAIRS."""
    x = p.reg.sym("x")
    return [p.entry(*pair).as_univariate_in(x).get(0, p.reg.zero()) for pair in CONSTANT_PAIRS]


def invariance_residues(p: DiagProfile) -> list[MPoly]:
    """The six residues whose joint vanishing is equivalent to invariance."""
    reg = p.reg
    x = reg.sym("x")
    lam = reg.var("lam")
    zeta = constant_values(p)[3]
    out = []
    for left, right, mult in INVARIANCE_RELATIONS:
        res = p.entry(*left).subst_many({x: lam})
        res = res + p.entry(*right).subst_many({x: -lam})
        if mult:
            res = res - zeta * mult
        out.append(res)
    return out


def catalog_diff_oracle(name: str, degree: int) -> MPoly:
    """ybe.catalog_diffs' difference for one catalog identity, built with
    MPoly arithmetic: the raw projection minus scale times the stored
    identity, whose every (entry, form) is substituted by subst_many on
    the generic profile itself."""
    reg = SymbolRegistry()
    prof = generic_profile(reg, degree)
    r = lift_profile(prof)
    eq = CATALOG[name]
    if eq.action is None:
        raw = derive_projection(eq.triple, r)
    else:
        raw = derive_weak_projection(eq.action, eq.triple, r)
    x = reg.sym("x")
    d1, d2, d3 = (reg.var(n) for n in ("d1", "d2", "d3"))
    stored = reg.zero()
    for coeff, left, (a1, b1, c1), right, (a2, b2, c2) in eq.terms:
        at1 = prof.entry(*left).subst_many({x: d2 * a1 + d3 * b1 + d1 * c1})
        at2 = prof.entry(*right).subst_many({x: d2 * a2 + d3 * b2 + d1 * c2})
        stored = stored + at1 * at2 * coeff
    return raw - stored * eq.scale


def termwise_generic_profile(reg: SymbolRegistry, degree: int = 4) -> DiagProfile:
    """ybe.generic_profile built term by term, poly + c * x**j, interning
    each coefficient symbol as it goes: the reference for the profile
    summed from monomials."""
    x = reg.var("x")
    entries = {}
    for q, l in PAIRS:
        poly = reg.zero()
        for j in range(degree + 1):
            c = reg.var(f"c_{q}{l}_{j}")
            poly = poly + c * x ** j
        entries[(q, l)] = poly
    return DiagProfile(reg, entries)


def constrained_generic_profile(reg: SymbolRegistry, degree: int = 3) -> DiagProfile:
    """Generic profile satisfying the invariance relations identically.

    One side of each mirror pair is parametrized freely and the other is
    defined through the relation, so every invariance residue vanishes
    by construction:

        ee, ff       free odd,
        hh           zeta plus free odd,
        eh, fh, ef   free with constant terms -alpha, -gamma, 4 zeta - beta,
        he(x) = -eh(-x),  hf(x) = -fh(-x),  fe(x) = 4 zeta - ef(-x).
    """
    x = reg.var("x")
    boundary = dict(zip(PAIRS, boundary_values([reg.var(n) for n in CONSTANT_NAMES])))

    def free(pair, degrees):
        poly = reg.zero() + boundary[pair]
        for j in degrees:
            poly = poly + reg.var(f"c_{pair[0]}{pair[1]}_{j}") * x ** j
        return poly

    all_degrees = list(range(1, degree + 1))
    odd_degrees = [j for j in all_degrees if j % 2]
    entries = {}
    for pair in (("e", "h"), ("f", "h"), ("e", "f")):
        entries[pair] = free(pair, all_degrees)
        # A'_{lq}(x) = A'_{ql}(0) + A'_{lq}(0) - A'_{ql}(-x)
        flipped = entries[pair].subst_many({reg.sym("x"): -x})
        entries[pair[::-1]] = boundary[pair] + boundary[pair[::-1]] - flipped
    for pair in (("e", "e"), ("f", "f"), ("h", "h")):
        entries[pair] = free(pair, odd_degrees)
    return DiagProfile(reg, entries)


def permutation_symmetry_check(p: DiagProfile) -> bool:
    """Whether slot permutations fix the reduced double bracket up to sign.

    For profiles satisfying the invariance relations the reduced double
    bracket of the canonical lift is fixed by even slot permutations and
    negated by odd ones; this is what makes the ten catalog projections
    exhaust all twenty-seven.  Profiles violating invariance report False.
    """
    reduced = ccybe_bracket(lift_profile(p))
    perms = (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
    )
    for perm, sign in perms:
        moved = reduce_mod_total(permute_slots(reduced, perm))
        if moved != map_coeffs(reduced, lambda p: p * sign):
            return False
    return True
