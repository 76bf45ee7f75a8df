import gc
import itertools
import random
from fractions import Fraction

import pytest

from ccybe import conformal, ybe
from ccybe.conformal import (
    ConfAlgebra,
    ConfTensor,
    act_on_tensor,
    project,
)
from ccybe.exactpoly import (
    CORE_SYMBOLS,
    EXPONENT_LIMIT,
    ExponentOverflow,
    MPoly,
    RegistryMismatch,
    Substitution,
    SymbolRegistry,
)
from ccybe.families import SL2_CASES, FamilySpec, build_profile
from ccybe.liealg import LieAlg, ad, sl2
from ccybe.ybe import (
    CATALOG,
    CONSTANT_NAMES,
    PAIRS,
    DiagProfile,
    boundary_values,
    ccybe_bracket,
    derive_projection,
    derive_weak_projection,
    diagonal,
    eval_equation,
    generator_actions,
    generic_profile,
    is_invariant,
    is_strict_solution,
    is_weak_solution,
    lift_profile,
    shift_constant,
    transform_conf_tensor,
)

from support import (
    STRICT_EQUATIONS,
    ConfElem,
    act,
    act_then_eliminate,
    add_tensors,
    apply_derivation,
    catalog_diff_oracle,
    constant_values,
    constrained_generic_profile,
    diagonal_profile_of,
    generator,
    invariance_residues,
    map_coeffs,
    pairwise_args,
    pairwise_bracket,
    pairwise_products,
    permutation_symmetry_check,
    profile_entry,
    project_reduced,
    random_invertible,
    random_univariate,
    rational_kernel,
    reduce_mod_total,
    sub_tensors,
    tau,
    termwise_generic_profile,
    tuple_terms,
)

F = Fraction


@pytest.fixture()
def reg():
    return SymbolRegistry()


@pytest.fixture()
def cur(reg):
    return ConfAlgebra.cur(sl2(), reg)


def profile_from(reg, entries):
    return DiagProfile(reg, {(key[0], key[1]): reg.parse(text)
                             for key, text in entries.items()})


# Double bracket -------------------------------------------------------------------


def test_bracket_zero(cur):
    assert ccybe_bracket(ConfTensor(cur, 2, {})).is_zero()


@pytest.mark.parametrize("arity", [1, 3])
def test_bracket_refuses_other_arities(cur, reg, arity):
    # an r-matrix is an arity-2 tensor; the checks refuse any other
    t = ConfTensor(cur, arity, {("h",) * arity: reg.parse("d1 + 1")})
    with pytest.raises(ValueError, match="arity-2"):
        ccybe_bracket(t)
    if arity == 3:
        with pytest.raises(ValueError, match="arity-2"):
            is_invariant(t)


def test_bracket_single_hh(cur, reg):
    r = ConfTensor(cur, 2, {("h", "h"): reg.parse("d1^2 - d2")})
    assert ccybe_bracket(r).is_zero()


def test_bracket_unreduced_single_entry(cur, reg):
    # r = A(d1, d2) e x f: the only surviving contraction of the full
    # bracket (the pairwise oracle's) is the middle one, with
    # coefficient -A(d1, d2 + d3) A(-d3, d3) at e x h x f; the bracket's
    # class reads it at d1 = -(d2 + d3)
    A = reg.parse("d1^2 + 3*d2 - 1")
    r = ConfTensor(cur, 2, {("e", "f"): A})
    s1, s2 = reg.sym("d1"), reg.sym("d2")
    d2, d3 = reg.var("d2"), reg.var("d3")
    want = -(A.subst_many({s2: d2 + d3})
             * A.subst_many({s1: -d3, s2: d3}))
    assert pairwise_bracket(r).entries == {("e", "h", "f"): want}
    assert ccybe_bracket(r).entries == {("e", "h", "f"): want.subst_many({s1: -(d2 + d3)})}


def test_bracket_unreduced_vir(reg):
    # r = v x v with coefficient 1: the three contractions of the full
    # bracket give (d1 + 2 d2) - (d2 + 2 d3) - (d3 + 2 d2) = d1 - d2 - 3 d3,
    # and the bracket's class is its reduction
    vir = ConfAlgebra.vir(reg)
    r = ConfTensor(vir, 2, {("v", "v"): reg.const(1)})
    full = pairwise_bracket(r)
    assert full.entries == {("v", "v", "v"): reg.parse("d1 - d2 - 3*d3")}
    assert ccybe_bracket(r) == reduce_mod_total(full)


def _random_scalar(reg, rng, kind):
    """A random int, Fraction or affine combination of parameter
    symbols, as a polynomial."""
    if kind == "int":
        return reg.const(rng.randint(-5, 5))
    if kind == "fraction":
        return reg.const(F(rng.randint(-5, 5), rng.randint(1, 6)))
    return reg.var(rng.choice(("alpha", "beta"))) * rng.randint(-3, 3) + rng.randint(-2, 2)


def _random_coeff(reg, rng, kind, degree):
    """Random polynomial in d1, d2 of total degree <= degree whose
    coefficients are ints, Fractions or affine in parameter symbols."""
    p = reg.zero()
    for _ in range(rng.randint(1, 4)):
        e1 = rng.randint(0, degree)
        e2 = rng.randint(0, degree - e1)
        p = p + _random_scalar(reg, rng, kind) * reg.var("d1") ** e1 * reg.var("d2") ** e2
    return p


def _dense_coeff(reg, rng, kind, degree):
    """Polynomial in d1, d2 with a random coefficient of _random_scalar's
    kind at every monomial of total degree <= degree."""
    p = reg.zero()
    for e1 in range(degree + 1):
        for e2 in range(degree + 1 - e1):
            p = p + _random_scalar(reg, rng, kind) * reg.var("d1") ** e1 * reg.var("d2") ** e2
    return p


def _check_restricted(r, oracle, rng):
    # the bracket restricted to a random set S of triples is the
    # oracle's class restricted to S, with no other keys
    triples = list(itertools.product(r.alg.basis_names, repeat=3))
    for size in (1, rng.randint(0, len(triples))):
        wanted = rng.sample(triples, size)
        part = ccybe_bracket(r, wanted)
        assert part.entries == {t: p for t, p in oracle.entries.items() if t in wanted}


@pytest.mark.parametrize("kind", ["int", "fraction", "param"])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_bracket_matches_pairwise_oracle(kind, dense):
    # contracting the structure constants with the B forms first gives
    # the class of the bracket that the pairwise loop over all entry
    # pairs gives, and so does the bracket restricted to a random subset
    # of triples
    rng = random.Random(10 * len(kind) + dense)
    subsets = random.Random(20 * len(kind) + dense)
    pairs = [(q, l) for q in "efh" for l in "efh"]
    nonzero = 0
    for degree in range(5):
        for _ in range(2):
            reg = SymbolRegistry()
            cur = ConfAlgebra.cur(sl2(), reg)
            support = pairs if dense else rng.sample(pairs, rng.randint(1, 3))
            r = ConfTensor(cur, 2, {pair: _random_coeff(reg, rng, kind, degree)
                                    for pair in support})
            bracket = ccybe_bracket(r)
            oracle = reduce_mod_total(pairwise_bracket(r))
            assert bracket == oracle
            _check_restricted(r, oracle, subsets)
            nonzero += not bracket.is_zero()
    assert nonzero >= 5


@pytest.mark.parametrize("kind", ["int", "fraction", "param"])
def test_bracket_matches_pairwise_oracle_vir(kind):
    rng = random.Random(len(kind))
    subsets = random.Random(10 + len(kind))
    for degree in range(5):
        reg = SymbolRegistry()
        r = ConfTensor(ConfAlgebra.vir(reg), 2,
                       {("v", "v"): _random_coeff(reg, rng, kind, degree)})
        bracket = ccybe_bracket(r)
        assert not bracket.is_zero()
        oracle = reduce_mod_total(pairwise_bracket(r))
        assert bracket == oracle
        _check_restricted(r, oracle, subsets)
        assert ccybe_bracket(r, []).is_zero()


def test_bracket_constant_solution_at_zero(cur, reg):
    alpha = reg.var("alpha")
    r = ConfTensor(cur, 2, {("h", "e"): alpha, ("e", "h"): -alpha})
    bracket = ccybe_bracket(r)
    zero = {reg.sym(n): reg.zero() for n in ("d1", "d2", "d3")}
    at_zero = map_coeffs(bracket, lambda p: p.subst_many(zero))
    assert at_zero.is_zero()


# Double bracket modulo the total derivation ------------------------------------------


def _member(case, formal):
    """The canonical lift of a member of the family `case`, with integer
    or formal parameters and f of degree 2 (formal coefficients too)."""
    reg = SymbolRegistry()
    names = SL2_CASES[case].params
    if case == "cor6_iii":
        u, v = (reg.var(n) for n in "uv") if formal else (1, 2)
        params = {"alpha": u * u, "beta": u * v * 2, "gamma": v * v}
    elif formal:
        params = {n: reg.var(n) for n in names}
    else:
        params = {n: k + 1 for k, n in enumerate(names)}
    t = reg.var("t")
    f = t * t + (reg.var("f1") * t + reg.var("f0") if formal else t * -2 + 3)
    return lift_profile(build_profile(FamilySpec(case, reg, params, f=f)))


def _check_reduced(r, tuples=None):
    # the bracket, built modulo the total derivation, is the reduction
    # of the pairwise oracle's full bracket, restricted to the wanted
    # triples, and no coefficient of it reads d1
    reduced = ccybe_bracket(r, tuples)
    oracle = reduce_mod_total(pairwise_bracket(r)).entries
    wanted = oracle.keys() if tuples is None else set(tuples)
    assert reduced.entries == {t: p for t, p in oracle.items() if t in wanted}
    d1 = r.alg.reg.sym("d1")
    assert all(d1 not in p.symbols() for p in reduced.entries.values())
    return reduced


@pytest.mark.parametrize("formal", [False, True], ids=["numeric", "formal"])
def test_reduced_bracket_family_members(formal):
    nonzero = 0
    for case in sorted(SL2_CASES):
        r = _member(case, formal)
        reduced = _check_reduced(r)
        # the cor6 members are strict solutions, the thm5 ones only weak
        assert reduced.is_zero() == case.startswith("cor6"), case
        nonzero += not reduced.is_zero()
    assert nonzero >= 3


@pytest.mark.parametrize("kind", ["int", "fraction", "param"])
def test_reduced_bracket_random_and_restricted(kind):
    # dense random r in d1 and d2 on sl2 and on Virasoro, whole and
    # restricted to random sets of triples
    rng = random.Random(30 + len(kind))
    pairs = list(itertools.product("efh", repeat=2))
    triples = list(itertools.product("efh", repeat=3))
    nonzero = 0
    for degree in range(4):
        reg = SymbolRegistry()
        cur = ConfAlgebra.cur(sl2(), reg)
        r = ConfTensor(cur, 2, {pair: _random_coeff(reg, rng, kind, degree) for pair in pairs})
        nonzero += not _check_reduced(r).is_zero()
        for size in (0, 1, rng.randint(2, len(triples))):
            _check_reduced(r, rng.sample(triples, size))
        vir = ConfAlgebra.vir(reg)
        r = ConfTensor(vir, 2, {("v", "v"): _random_coeff(reg, rng, kind, degree)})
        nonzero += not _check_reduced(r).is_zero()
        _check_reduced(r, [("v", "v", "v")])
    assert nonzero >= 6


def test_reduced_bracket_zero_and_vir(cur, reg):
    assert ccybe_bracket(ConfTensor(cur, 2, {})).is_zero()
    # v x v with coefficient 1: d1 - d2 - 3 d3 at d1 = -(d2 + d3); slot
    # 1's inserted bracket d + 2 lam is read at d = -(d2 + d3) too
    vir = ConfAlgebra.vir(reg)
    r = ConfTensor(vir, 2, {("v", "v"): reg.const(1)})
    assert ccybe_bracket(r).entries == {("v", "v", "v"): reg.parse("-2*d2 - 4*d3")}


def test_generator_actions_read_only_the_class(cur, reg):
    # acting at -(d1 + d2 + d3) sends the total derivation to zero, so
    # the generator actions on the bracket's class are those on the full
    # bracket, the pairwise oracle's: the weak verdict may read the class
    # alone
    vir = ConfAlgebra.vir(reg)
    cases = [  # (r, whether its weak defect is nonzero)
        (ConfTensor(cur, 2, {("e", "f"): reg.const(1)}), True),
        (ConfTensor(cur, 2, {("e", "e"): reg.const(1), ("h", "f"): reg.var("d1"),
                             ("f", "h"): reg.parse("d2^2 - 2*d1")}), True),
        (ConfTensor(vir, 2, {("v", "v"): reg.const(1)}), True),
        (ConfTensor(vir, 2, {("v", "v"): reg.parse("d1^2 - 3*d1*d2 + 2")}), True),
        (_member("thm5_ii", False), False),
    ]
    for r, defective in cases:
        full = generator_actions(pairwise_bracket(r))
        assert generator_actions(ccybe_bracket(r)) == full
        assert any(not t.is_zero() for t in full.values()) == defective


# Strict / weak / invariance --------------------------------------------------------


def test_strict_cor6_ii_shape(cur, reg):
    # A_hh(x, y) = x f(x^2) lifted: all h-h brackets vanish identically
    r = ConfTensor(cur, 2, {("h", "h"): reg.parse("d1^3 + d1")})
    ok, residue = is_strict_solution(r)
    assert ok and residue.is_zero()


def test_strict_cor6_i_with_catalog_oracle(reg):
    # a_ee = 1, f = 1, alpha = 1: strict via the tensor machinery, and
    # independently all ten projection identities vanish on the profile.
    prof = profile_from(reg, {"ee": "x", "he": "1", "eh": "-1"})
    r = lift_profile(prof)
    ok, _ = is_strict_solution(r)
    assert ok
    for name in STRICT_EQUATIONS:
        assert eval_equation(CATALOG[name], r).is_zero()


def test_strict_fails_with_beta(reg):
    prof = profile_from(reg, {"hh": "x + 1", "ef": "2", "fe": "2"})
    r = lift_profile(prof)
    weak_ok, _ = is_weak_solution(r)
    strict_ok, _ = is_strict_solution(r)
    assert weak_ok and not strict_ok


def test_weak_thm5_iii_symbolic(reg):
    a, b, g, z = (reg.var(n) for n in ("alpha", "beta", "gamma", "zeta"))
    prof = DiagProfile(reg, {
        ("e", "f"): z * 4 - b, ("f", "e"): b,
        ("h", "e"): a, ("e", "h"): -a,
        ("h", "f"): g, ("f", "h"): -g,
        ("h", "h"): z,
    })
    ok, _ = is_weak_solution(lift_profile(prof))
    assert ok


def test_weak_defect_constants(cur, reg):
    # e x e has an identically vanishing double bracket (every contraction
    # hits [e, e]), so its weak defect is zero even though it fails
    # invariance; e x f is a genuine weak non-solution.
    r_ee = ConfTensor(cur, 2, {("e", "e"): reg.const(1)})
    assert ccybe_bracket(r_ee).is_zero()
    assert is_weak_solution(r_ee)[0]
    assert not is_invariant(r_ee)[0]
    r_ef = ConfTensor(cur, 2, {("e", "f"): reg.const(1)})
    ok, defects = is_weak_solution(r_ef)
    assert not ok
    assert any(not t.is_zero() for t in defects.values())


@pytest.mark.parametrize("case", ["cur_weak", "vir_weak", "cur_invariance"])
def test_weak_defect_alternate_path(case):
    # Acting at mu = -(d1+...+dN) in one pass equals acting at a free mu
    # and eliminating it afterwards, and either way the action does not
    # depend on the representative modulo the total derivation.
    reg = SymbolRegistry()
    if case == "vir_weak":
        alg = ConfAlgebra.vir(reg)
        r = ConfTensor(alg, 2, {("v", "v"): reg.parse("d1^2 - 3*d1*d2 + 2")})
    else:
        alg = ConfAlgebra.cur(sl2(), reg)
        r = ConfTensor(alg, 2, {("e", "e"): reg.const(1), ("h", "f"): reg.var("d1"),
                                ("f", "h"): reg.parse("d2^2 - 2*d1")})
    if case == "cur_invariance":
        direct = is_invariant(r)[1]
        base = add_tensors(r, tau(r))
    else:
        direct = is_weak_solution(r)[1]
        base = pairwise_bracket(r)
    assert any(not t.is_zero() for t in direct.values())
    for t in (base, reduce_mod_total(base)):
        for name in alg.basis_names:
            assert act_then_eliminate(generator(alg, name), t) == direct[name]


def test_weak_generator_sufficiency(cur, reg):
    # the defect of g(D)a factors through g evaluated at the total
    # derivation, so checking the generators decides the weak condition
    rng = random.Random(41)
    r = ConfTensor(cur, 2, {("e", "f"): reg.const(1), ("h", "e"): reg.var("d1")})
    bracket = ccybe_bracket(r)
    total = reg.parse("d1 + d2 + d3")
    defects = is_weak_solution(r)[1]
    for _ in range(10):
        name = rng.choice(cur.basis_names)
        g = random_univariate(reg, rng, "d", 2)
        if g.is_zero():
            continue
        elem = ConfElem(cur, {name: g})
        acted = act_then_eliminate(elem, bracket)
        factor = g.subst_many({reg.sym("d"): total})
        assert acted == map_coeffs(defects[name], lambda p: p * factor)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_weak_kernel_is_epsilon(degree):
    # the generator actions at -(d1+d2+d3) vanish on a reduced 3-tensor,
    # each coefficient of degree <= `degree` in d2 and d3, iff it is
    # c * epsilon with c constant, epsilon = sum sgn(s) s(e x f x h):
    # weak_verdict's argument at low degree, over one free coefficient
    # per (triple, monomial) (27, 81 and 162 unknowns), which the shared
    # action tables act on
    reg = SymbolRegistry()
    alg = ConfAlgebra.cur(sl2(), reg)
    d2, d3 = reg.var("d2"), reg.var("d3")
    monomials = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    unknowns = list(itertools.product(itertools.product(alg.basis_names, repeat=3), monomials))
    index, entries = {}, {}
    for n, (tup, (a, b)) in enumerate(unknowns):
        c = reg.sym(f"c{n}")
        index[c.index] = n
        entries[tup] = entries.get(tup, reg.zero()) + reg.var(c) * d2 ** a * d3 ** b
    rows = {}
    core = len(CORE_SYMBOLS)
    for g, acted in generator_actions(ConfTensor(alg, 3, entries)).items():
        for tup, poly in acted.entries.items():
            for exps, coeff in tuple_terms(poly).items():
                (unknown,) = [i for i, e in enumerate(exps) if e and i >= core]
                rows.setdefault((g, tup, exps[:core]), {})[index[unknown]] = coeff
    epsilon = [Fraction((-1) ** sum(a > b for a, b in itertools.combinations(tup, 2)))
               if m == (0, 0) and sorted(tup) == ["e", "f", "h"] else Fraction(0)
               for tup, m in unknowns]
    (kernel,) = rational_kernel(rows.values(), len(unknowns))
    scale = kernel[unknowns.index((("e", "f", "h"), (0, 0)))]
    assert scale and kernel == [scale * v for v in epsilon]


EPSILON_SIGNS = {("e", "f", "h"): 1, ("f", "h", "e"): 1, ("h", "e", "f"): 1,
                 ("f", "e", "h"): -1, ("e", "h", "f"): -1, ("h", "f", "e"): -1}


def _near_c_epsilon(rng, reg):
    """(name, arity-3 sl2 tensor, whether it is c * epsilon with c free
    of d1, d2 and d3) for a random c and one deviation from c * epsilon
    or none."""
    alg = ConfAlgebra.cur(sl2(), reg)
    d = [reg.var(f"d{i}") for i in (1, 2, 3)]
    c = reg.const(rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)]))
    other = c + rng.choice([1, -1, Fraction(1, 3)])
    kind = rng.choice(["exact", "zero", "parametric", "sign", "missing", "slot", "extra",
                       "two_values"])
    if kind == "parametric":
        c = c + reg.var(rng.choice(["alpha", "lhh", "p0"])) * rng.choice([1, -3])
    elif kind == "slot":
        c = c + d[rng.randrange(3)] * rng.choice([1, 2])
    entries = {tup: c * sign for tup, sign in EPSILON_SIGNS.items()}
    pick = rng.choice(sorted(EPSILON_SIGNS))
    if kind == "zero":
        entries = {}
    elif kind == "sign":
        entries[pick] = -entries[pick]
    elif kind == "missing":
        del entries[pick]
    elif kind == "extra":
        outside = [t for t in itertools.product("efh", repeat=3) if t not in EPSILON_SIGNS]
        entries[rng.choice(outside)] = c
    elif kind == "two_values":
        entries[pick] = other * EPSILON_SIGNS[pick]
    return kind, ConfTensor(alg, 3, entries), kind in ("exact", "zero", "parametric")


def test_weak_certificate_accepts_exactly_c_epsilon():
    # near c * epsilon, weak_verdict's certificate accepts the tensors
    # that are c * epsilon with c free of the slot variables (parameters
    # allowed) and no other: each accepted one has zero generator
    # actions, and every verdict and defect equals the actions' own
    rng = random.Random(3301)
    reg = SymbolRegistry()
    seen = set()
    for _ in range(160):
        kind, t, accept = _near_c_epsilon(rng, reg)
        seen.add(kind)
        assert ybe._is_c_epsilon(t) == accept, kind
        acted = generator_actions(t)
        ok, defects = ybe.weak_verdict(t)
        assert ok == all(a.is_zero() for a in acted.values()) == accept, kind
        assert {g: a.entries for g, a in defects.items()} == \
            {g: a.entries for g, a in acted.items()}
    assert len(seen) == 8


def test_weak_certificate_needs_sl2_itself(monkeypatch):
    # another Lie algebra on the names e, f and h (a copy of sl2's
    # constants, or the Heisenberg algebra) never takes the certificate:
    # its generators act, here with the same verdict
    calls = []

    def counted(t, _fn=ybe.generator_actions):
        calls.append(t.alg.lie)
        return _fn(t)

    monkeypatch.setattr(ybe, "generator_actions", counted)
    reg = SymbolRegistry()
    copy = LieAlg(sl2().names, sl2().table)
    heisenberg = LieAlg(("e", "f", "h"), {("e", "f"): {"h": 1}, ("f", "e"): {"h": -1}})
    for lie in (copy, heisenberg, sl2()):
        alg = ConfAlgebra.cur(lie, reg)
        t = ConfTensor(alg, 3, {tup: reg.const(sign * 2) for tup, sign in EPSILON_SIGNS.items()})
        assert ybe.weak_verdict(t)[0]
        assert ybe._is_c_epsilon(t) == (lie is sl2())
    assert calls == [copy, heisenberg]


def test_invariance_constrained_profile(reg):
    prof = constrained_generic_profile(reg, degree=3)
    assert all(res.is_zero() for res in invariance_residues(prof))
    ok, defects = is_invariant(lift_profile(prof))
    assert ok, {k: {t: str(p) for t, p in v.entries.items()}
                for k, v in defects.items() if not v.is_zero()}


def test_invariance_defect_ee(cur, reg):
    r = ConfTensor(cur, 2, {("e", "e"): reg.const(1)})
    ok, defects = is_invariant(r)
    assert not ok
    # h-action: both slots of 2 e x e pick up the eigenvalue 2
    assert defects["h"].entries[("e", "e")] == 8
    assert invariance_residues(diagonal_profile_of(r))[0] == 2


def test_invariance_skew_trivial(cur, reg):
    r = ConfTensor(cur, 2, {("e", "f"): reg.const(1), ("f", "e"): reg.const(-1)})
    assert add_tensors(r, tau(r)).is_zero()
    ok, _ = is_invariant(r)
    assert ok


@pytest.mark.parametrize("kind", ["int", "fraction", "param"])
def test_invariance_matches_factor_swap_oracle(kind):
    # is_invariant acts on A'_ql(d1) + A'_lq(-d1), read off the diagonal;
    # on dense random r in d1 and d2, over sl2 and over Virasoro, its
    # defects are, polynomial for polynomial, the generator actions on
    # r + tau(r) at -(d1 + d2)
    rng = random.Random(60 + len(kind))
    failing = 0
    for degree in range(4):
        reg = SymbolRegistry()
        for alg in (ConfAlgebra.cur(sl2(), reg), ConfAlgebra.vir(reg)):
            names = alg.basis_names
            r = ConfTensor(alg, 2, {pair: _dense_coeff(reg, rng, kind, degree)
                                    for pair in itertools.product(names, repeat=2)})
            t = add_tensors(r, tau(r))
            want = dict(zip(names, act_on_tensor(names, t, -t.total())))
            ok, defects = is_invariant(r)
            assert defects == want
            assert ok == all(d.is_zero() for d in want.values())
            failing += not ok
            # r - tau(r) has no symmetric part, so it is invariant
            assert is_invariant(sub_tensors(r, tau(r)))[0]
    assert failing >= 6


def test_generic_profile_matches_termwise():
    # entries summed from monomials give the term-by-term profile, with
    # the symbols interned in the same order (ids fix the print order),
    # also on a registry that already holds some of them
    for degree in range(5):
        for held in ((), ("c_hh_0", "c_ef_1", "zz")):
            got_reg, want_reg = SymbolRegistry(), SymbolRegistry()
            for name in held:
                got_reg.sym(name)
                want_reg.sym(name)
            got = generic_profile(got_reg, degree)
            want = termwise_generic_profile(want_reg, degree)
            assert got_reg._names == want_reg._names
            assert got.entries.keys() == want.entries.keys()
            for pair, poly in want.entries.items():
                assert tuple_terms(got.entries[pair]) == tuple_terms(poly)
                assert got.entries[pair].to_string() == poly.to_string()


@pytest.mark.parametrize("degree", [EXPONENT_LIMIT, 2 * EXPONENT_LIMIT])
def test_generic_profile_refuses_degree_up_front(reg, degree):
    # a degree whose top power of x would reach the guard bit, or carry
    # into the next field, is refused before any symbol is interned
    size = len(reg._names)
    with pytest.raises(ExponentOverflow):
        generic_profile(reg, degree)
    assert len(reg._names) == size


def test_invariance_defect_he_coefficient(reg):
    # for the canonical lift, the (h, e) entry of the e-generator
    # invariance defect collapses to
    #   A'_fe(-d2) - 2 A'_hh(d1) + A'_ef(d2) - 2 A'_hh(-d1)
    prof = generic_profile(reg, 3)
    defects = is_invariant(lift_profile(prof))[1]
    x = reg.sym("x")
    d1, d2 = reg.var("d1"), reg.var("d2")

    def at(q, l, arg):
        return profile_entry(prof, q, l).subst_many({x: arg})

    want = (at("f", "e", -d2) - at("h", "h", d1) * 2
            + at("e", "f", d2) - at("h", "h", -d1) * 2)
    assert defects["e"].entries[("h", "e")] == want


def test_invariance_residues_even_entry(reg):
    prof = profile_from(reg, {"ee": "x^2"})
    residues = invariance_residues(prof)
    assert residues[0] == reg.parse("2*lam^2")
    assert all(r.is_zero() for r in residues[1:])


def test_invariance_residues_all_zero_profile(reg):
    prof = profile_from(reg, {})
    assert all(r.is_zero() for r in invariance_residues(prof))


# Cocommutator: a -> a_lam r at lam = -(d1 + d2) -------------------------------------


def test_cocommutator_zero(cur, reg):
    zero = ConfTensor(cur, 2, {})
    assert act_on_tensor(["h"], zero, -zero.total())[0].is_zero()


def test_cocommutator_h_on_constant_ef(cur, reg):
    r = ConfTensor(cur, 2, {("e", "f"): reg.const(1)})
    assert act_on_tensor(["h"], r, -r.total())[0].is_zero()


def test_cocommutator_h_general_formula(cur, reg):
    # h acting on A(d1,d2) e x f gives 2(A(-d2,d2) - A(d1,-d1)) e x f
    A = reg.parse("d1^2 + 3*d2")
    r = ConfTensor(cur, 2, {("e", "f"): A})
    out = act_on_tensor(["h"], r, -r.total())[0]
    s1, s2 = reg.sym("d1"), reg.sym("d2")
    d1, d2 = reg.var("d1"), reg.var("d2")
    want = (A.subst_many({s1: -d2, s2: d2}) - A.subst_many({s1: d1, s2: -d1})) * 2
    assert out.entries == {("e", "f"): want}


def test_cocommutator_e_on_hh(cur, reg):
    r = ConfTensor(cur, 2, {("h", "h"): reg.const(1)})
    out = act_on_tensor(["e"], r, -r.total())[0]
    assert out.entries == {
        ("e", "h"): reg.const(-2), ("h", "e"): reg.const(-2),
    }


def test_cocommutator_conformal_linear(cur, reg):
    # delta(D a) = (d1 + d2) delta(a): sesquilinearity at lam = -(d1+d2)
    rng = random.Random(19)
    r = ConfTensor(cur, 2, {
        ("h", "h"): random_univariate(reg, rng, "d1", 2),
        ("e", "f"): random_univariate(reg, rng, "d2", 2),
        ("f", "e"): reg.parse("d1*d2"),
    })
    for name in cur.basis_names:
        lhs = act([apply_derivation(generator(cur, name))], r, -r.total())[0]
        rhs = map_coeffs(act_on_tensor([name], r, -r.total())[0], lambda p: p * r.total())
        assert lhs == rhs


# Tables in the store ----------------------------------------------------------------


def _algebra(kind):
    reg = SymbolRegistry()
    return ConfAlgebra.cur(sl2(), reg) if kind == "cur" else ConfAlgebra.vir(reg)


def _memo_cases(kind, seed):
    """Inputs as text, so that each can be built over any registry:
    (r-matrix entries, arity-3 tensor entries, element coefficients).
    Entries reach degree 3 per slot; some carry a Fraction or the
    parameter alpha."""
    rng = random.Random(seed)
    scratch = SymbolRegistry()
    names = ("e", "f", "h") if kind == "cur" else ("v",)
    extras = ("1", "1/2", "alpha")

    def poly(arity):
        p = scratch.parse(rng.choice(extras))
        for i in range(arity):
            p = p * random_univariate(scratch, rng, f"d{i + 1}", rng.randint(0, 3))
        return p.to_string()

    def entries(arity):
        return {tuple(rng.choice(names) for _ in range(arity)): poly(arity)
                for _ in range(rng.randint(1, 4))}

    elem = {n: random_univariate(scratch, rng, "d", 2).to_string() for n in names}
    return entries(2), entries(3), elem


def _printed(t):
    return {tup: p.to_string() for tup, p in t.entries.items()}


def _memo_inputs(alg, case):
    reg = alg.reg
    r_text, t_text, elem_text = case
    return (ConfTensor(alg, 2, {k: reg.parse(v) for k, v in r_text.items()}),
            ConfTensor(alg, 3, {k: reg.parse(v) for k, v in t_text.items()}),
            ConfElem(alg, {k: reg.parse(v) for k, v in elem_text.items()}))


def _actions(defects):
    return {g: _printed(a) for g, a in defects.items()}


# Every check that reads the algebra's tables, as (r, t, elem) ->
# printed result, so that results over different registries compare.
_MEMO_CHECKS = {
    "bracket": lambda r, t, elem: _printed(ccybe_bracket(r)),
    "weak": lambda r, t, elem: _actions(generator_actions(ccybe_bracket(r))),
    "arity3": lambda r, t, elem: _actions(generator_actions(t)),
    "arity2": lambda r, t, elem: _actions(generator_actions(r)),
    "invariant": lambda r, t, elem: (is_invariant(r)[0], _actions(is_invariant(r)[1])),
    "cocommutator": lambda r, t, elem: _printed(act([elem], r, -r.total())[0]),
    # at a free variable, on both arities with the same generators
    "free": lambda r, t, elem: [_actions(dict(zip(r.alg.basis_names, act_on_tensor(
        r.alg.basis_names, u, r.alg.reg.var("mu"))))) for u in (r, t)],
    "lift": lambda r, t, elem: r.alg.kind == "cur" and _printed(lift_profile(
        DiagProfile(r.alg.reg, {("e", "f"): r.alg.reg.parse("x^3 + 2*x")}))),
    # each subset of triples has its own contraction plan
    "restricted": lambda r, t, elem: [_printed(ccybe_bracket(r, tuples))
                                      for tuples in _RESTRICTED[r.alg.kind]],
}
_RESTRICTED = {
    "cur": ([("e", "f", "h")], [("h", "h", "h"), ("e", "e", "f"), ("f", "h", "e")],
            [("h", "e", "f"), ("e", "f", "h")], []),
    "vir": ([("v", "v", "v")], []),
}


@pytest.mark.parametrize("kind", ["cur", "vir"])
def test_algebra_tables_match_fresh_algebras(kind):
    # one algebra keeps its tables (action table, bracket maps, lift
    # map) from check to check and case to case; in either order, every
    # result equals the one computed on a fresh algebra over a fresh
    # registry
    cases = [_memo_cases(kind, seed) for seed in range(6)]
    expected = [{name: check(*_memo_inputs(_algebra(kind), case))
                 for name, check in _MEMO_CHECKS.items()} for case in cases]
    for order in (range(len(cases)), reversed(range(len(cases)))):
        shared = _algebra(kind)
        for n in order:
            inputs = _memo_inputs(shared, cases[n])
            for name, check in _MEMO_CHECKS.items():
                assert check(*inputs) == expected[n][name], (n, name)


def test_action_table_built_once_per_key(monkeypatch, cur, reg):
    monkeypatch.setattr(conformal, "_TABLES", {})
    builds = []
    build = conformal._action_table

    def counted(alg, names, arity, lam):
        builds.append(arity)
        return build(alg, names, arity, lam)

    monkeypatch.setattr(conformal, "_action_table", counted)
    rs = [ConfTensor(cur, 2, {("e", "f"): reg.parse("d1 + 1"), ("h", "h"): reg.parse("d1^3")}),
          ConfTensor(cur, 2, {("h", "e"): reg.parse("2*d1^2 - d2"), ("e", "h"): reg.const(3)})]
    for r in rs:
        generator_actions(ccybe_bracket(r))
    assert builds == [3]
    for r in rs:
        is_invariant(r)
        generator_actions(r)
    assert builds == [3, 2]
    for r in rs:
        act_on_tensor(["e"], r, -r.total())
    assert builds == [3, 2, 2]
    act_on_tensor(["f"], rs[0], -rs[0].total())
    act_on_tensor(["e"], rs[0], reg.var("mu"))
    assert builds == [3, 2, 2, 2, 2]
    # another algebra, over another registry, reads the same tables
    other = ConfAlgebra.cur(sl2(), SymbolRegistry())
    generator_actions(ccybe_bracket(ConfTensor(other, 2, {("e", "f"): other.reg.parse("d1")})))
    assert builds == [3, 2, 2, 2, 2]


def test_algebra_tables_refuse_foreign_tensors(cur, reg):
    r = ConfTensor(cur, 2, {("e", "f"): reg.parse("d1 + 1")})
    generator_actions(ccybe_bracket(r))
    other = ConfAlgebra.cur(sl2(), SymbolRegistry())
    # the algebra's own tensor and r-matrix with another registry's
    # coefficients, after the tables for them exist
    with pytest.raises(RegistryMismatch):
        generator_actions(ConfTensor(cur, 3, {("e", "f", "h"): other.reg.parse("d1")}))
    with pytest.raises(RegistryMismatch):
        ccybe_bracket(ConfTensor(cur, 2, {("e", "f"): other.reg.parse("d1")}))
    # and the refused calls leave the tables sound
    fresh = ConfTensor(ConfAlgebra.cur(sl2(), reg), 2, r.entries)
    assert ccybe_bracket(r).entries == ccybe_bracket(fresh).entries


def test_fresh_algebra_leaves_no_reference_cycles():
    # an algebra's tables hold neither it nor its elements, so an
    # algebra and all it built are freed by reference counting alone;
    # the entries are built without the parser, whose nested functions
    # form cycles of their own
    gc.collect()
    gc.disable()
    try:
        reg = SymbolRegistry()
        alg = ConfAlgebra.cur(sl2(), reg)
        d1, d2 = reg.var("d1"), reg.var("d2")
        r = ConfTensor(alg, 2, {("e", "f"): d1 + 1, ("h", "h"): d1 * d1 - d2,
                                ("h", "e"): reg.const(3)})
        is_invariant(r)
        is_weak_solution(r)
        is_strict_solution(r)
        ccybe_bracket(r, [("e", "f", "h")])
        ybe.catalog_diffs(degree=2)
        del reg, alg, d1, d2, r
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_restricted_bracket_substitutes_only_forms_it_reads(monkeypatch):
    # a restricted bracket restricts every entry to its diagonal once
    # (a lift is its own diagonal); then each (entry, map) it
    # substitutes is read by a product that the pairwise bracket sends
    # to the wanted triple, at that argument read modulo the total
    # derivation, whose first slot the map's one target, at d1, is, and
    # it is substituted once
    monkeypatch.setattr(conformal, "_TABLES", {})
    reg = SymbolRegistry()
    r = lift_profile(generic_profile(reg, 3))
    applied = []

    class Counted(Substitution):
        __slots__ = ("images",)

        def __init__(self, reg, mapping):
            super().__init__(reg, mapping)
            # printed, since the maps are over the core registry
            self.images = tuple((sym, str(expr)) for sym, expr in mapping.items())

        def __call__(self, p):
            applied.append((self.images, p))
            return super().__call__(p)

    monkeypatch.setattr(ybe, "Substitution", Counted)
    s1 = reg.sym("d1")
    d2, d3 = reg.var("d2"), reg.var("d3")
    at_diagonal = ((reg.sym("d2"), str(-reg.var(s1))),)
    in_class = Substitution(reg, {s1: -(d2 + d3)})
    args = [((s1, str(in_class(u))),) for u, _v in pairwise_args(reg)]
    key_of = {id(poly): key for key, poly in r.entries.items()}
    for name in STRICT_EQUATIONS:
        triple = CATALOG[name].triple
        applied.clear()
        derive_projection(triple, r)
        read = {(key, args[i]) for tup, _ins, a, b in pairwise_products(r.alg, r.entries)
                if tup == triple for key, i in (a, b)}
        restricted = [key_of[id(p)] for images, p in applied if images == at_diagonal]
        assert sorted(restricted) == sorted(r.entries), name
        substituted = [(key_of[id(p)], images) for images, p in applied
                       if images != at_diagonal]
        assert substituted, name
        assert len(set(substituted)) == len(substituted), name
        assert set(substituted) <= read, name


@pytest.mark.parametrize("kind", ["cur", "vir"])
def test_contraction_plan_is_built_whole(monkeypatch, kind):
    # over an empty store, each wanted set's plan is built by one call,
    # on a one-entry r-matrix, with a row for every basis pair, so an
    # r-matrix on every pair builds and fills nothing more; both
    # brackets are the reduced pairwise oracle's, or its restriction
    monkeypatch.setattr(conformal, "_TABLES", {})
    built = []
    build = ybe._contraction_plan

    def counted(alg, wanted):
        built.append(wanted)
        return build(alg, wanted)

    monkeypatch.setattr(ybe, "_contraction_plan", counted)
    reg = SymbolRegistry()
    alg = ConfAlgebra.cur(sl2(), reg) if kind == "cur" else ConfAlgebra.vir(reg)
    pairs = list(itertools.product(alg.basis_names, repeat=2))
    d1, d2 = reg.var("d1"), reg.var("d2")
    one = ConfTensor(alg, 2, {pairs[-1]: d1 * d1 + d2 * 3 + 1})
    every = ConfTensor(alg, 2, {pair: d1 * (i + 1) - d2 * d2 + i
                                for i, pair in enumerate(pairs)})
    triple = ("e", "f", "h") if kind == "cur" else ("v", "v", "v")
    # the feeds of the e-action on (e, f, h) are (h, f, h) and (e, f, f)
    derive_weak_projection(alg.basis_names[0], triple, one)
    feeds = built[-1]
    assert feeds == (frozenset({("h", "f", "h"), ("e", "f", "f")}) if kind == "cur"
                     else frozenset({triple}))
    wanted_sets = list(dict.fromkeys([None, frozenset({triple}), feeds]))
    for r in (one, every):
        oracle = reduce_mod_total(pairwise_bracket(r)).entries
        for wanted in wanted_sets:
            assert ccybe_bracket(r, wanted).entries == (
                oracle if wanted is None
                else {t: p for t, p in oracle.items() if t in wanted})
            plan = alg.memo(("ccybe_bracket.plan", wanted), None)
            assert type(plan) is dict and sorted(plan) == sorted(pairs)
    assert sorted(built, key=repr) == sorted(wanted_sets, key=repr)


@pytest.mark.parametrize("kind", ["cur", "vir"])
@pytest.mark.parametrize("restricted", [False, True])
def test_bracket_refuses_exponent_overflow(kind, restricted):
    # A * B reaches the guard bit of alpha; the finished output
    # coefficient refuses it, in the whole bracket and in the bracket
    # restricted to the one triple the product lands on
    reg = SymbolRegistry()
    alg = ConfAlgebra.cur(sl2(), reg) if kind == "cur" else ConfAlgebra.vir(reg)
    key = ("e", "f") if kind == "cur" else ("v", "v")
    tuples = [("e", "h", "f") if kind == "cur" else ("v", "v", "v")] if restricted else None
    r = ConfTensor(alg, 2, {key: reg.var("alpha") ** (EXPONENT_LIMIT // 2)})
    with pytest.raises(ExponentOverflow):
        ccybe_bracket(r, tuples)
    half = ConfTensor(alg, 2, {key: reg.var("alpha") ** (EXPONENT_LIMIT // 2 - 1)})
    assert not ccybe_bracket(half, tuples).is_zero()


# Catalog ---------------------------------------------------------------------------


def test_catalog_rederivation_quick():
    diffs = ybe.catalog_diffs(degree=2)
    assert all(diff.is_zero() for diff in diffs.values())


def test_catalog_rederivation_degree_7():
    # by the argument in catalog_diffs, this proves the catalog at every
    # degree
    diffs = ybe.catalog_diffs(degree=7)
    assert all(diff.is_zero() for diff in diffs.values())


def test_catalog_forms_are_the_bracket_and_action_forms(reg):
    # the argument forms the catalog uses are the images of the lift's
    # d1 under the bracket's maps, and under a generator
    # action's slot shifts at -(d1+d2+d3); a new form would raise the
    # degree that catalog_diffs needs to prove the catalog
    r = lift_profile(generic_profile(reg, 1))
    alg = r.alg
    bracket = ccybe_bracket(r)
    lifted_x = alg.memo("lift_profile.at_d1", None)(reg.var("x"))
    maps = [alg.memo(("catalog_form", arg), None) for arg in ybe._BRACKET_FORMS]
    images = {m(lifted_x) for m in maps}
    table = conformal._action_table(alg, alg.basis_names, 3, -bracket.total())
    forms = images | {shift(u) for shift, _row in table.values() for u in images}
    d1, d2, d3 = (reg.var(n) for n in ("d1", "d2", "d3"))
    used = {d2 * a + d3 * b + d1 * c for eq in CATALOG.values() if not eq.shifted
            for term in eq.terms for a, b, c in (term[2], term[4])}
    assert len(images) == 4
    assert forms == used
    assert len(used) == 8
    assert _readers_of_zero_form() == {"efh_shift"}


def _readers_of_zero_form() -> set:
    """The catalog identities that read an entry at the zero form, the
    boundary constants A'(0)."""
    return {eq.name for eq in CATALOG.values()
            for term in eq.terms if ybe._ZERO in (term[2], term[4])}


def test_catalog_compiles_each_map_once(monkeypatch):
    # the bracket and the stored identities read the same maps
    # d1 -> form: over an empty store, every map catalog_diffs compiles,
    # each of the 8 forms of the re-derived identities among them, is
    # compiled once for all 13 identities; only the shifted identity,
    # which it leaves out, reads the zero form
    monkeypatch.setattr(conformal, "_TABLES", {})
    built = []

    class Counted(Substitution):
        __slots__ = ()

        def __init__(self, reg, mapping):
            super().__init__(reg, mapping)
            built.append(tuple((sym.name, str(poly)) for sym, poly in mapping.items()))

    monkeypatch.setattr(ybe, "Substitution", Counted)
    diffs = ybe.catalog_diffs(degree=2)
    assert len(diffs) == 13 and all(diff.is_zero() for diff in diffs.values())
    assert len(set(built)) == len(built), built
    reg = SymbolRegistry()
    d1, d2, d3 = (reg.var(n) for n in ("d1", "d2", "d3"))
    forms = {str(d2 * a + d3 * b + d1 * c) for eq in CATALOG.values() if not eq.shifted
             for term in eq.terms for a, b, c in (term[2], term[4])}
    assert len(forms) == 8
    assert _readers_of_zero_form() == {"efh_shift"}
    assert {items[0][1] for items in built
            if len(items) == 1 and items[0][0] == "d1"} >= forms


def _fault_hee(eq):
    # one coefficient of the stored identity moved by +1
    coeff, *rest = eq.terms[2]
    return ybe.Equation(eq.name, eq.triple, eq.terms[:2] + ((coeff + 1, *rest),)
                        + eq.terms[3:], eq.scale)


def _scale_one(eq):
    return ybe.Equation(eq.name, eq.triple, eq.terms, 1, eq.action)


@pytest.mark.parametrize("name, fault", [(None, None), ("hee", _fault_hee),
                                         ("eee", _scale_one), ("efh_e", _scale_one)])
def test_catalog_diffs_match_mpoly_oracle(monkeypatch, name, fault):
    # each difference, one term table, equals raw - scale * stored built
    # with MPoly arithmetic term for term and as printed: on the faithful
    # catalog (every non-shifted identity) and with one fault injected
    if fault is not None:
        monkeypatch.setitem(ybe.CATALOG, name, fault(CATALOG[name]))
    names = [name] if name else [n for n, eq in CATALOG.items() if not eq.shifted]
    diffs = ybe.catalog_diffs(degree=2, names=names)
    assert list(diffs) == names
    for n in names:
        want = catalog_diff_oracle(n, 2)
        assert tuple_terms(diffs[n]) == tuple_terms(want), n
        assert diffs[n].to_string() == want.to_string(), n
        assert diffs[n].is_zero() == (fault is None), n


def test_catalog_fault_detected(monkeypatch):
    eq = CATALOG["eee"]
    flipped = tuple((-c, l, a1, r, a2) for c, l, a1, r, a2 in eq.terms)
    monkeypatch.setitem(ybe.CATALOG, "eee", ybe.Equation("eee", eq.triple, flipped, eq.scale))
    diffs = ybe.catalog_diffs(degree=1, names=["eee"])
    assert not diffs["eee"].is_zero()


def test_weak_projection_is_shifted_triple_projection(reg):
    # the e-action projection at h x f x f is the f x f x f projection
    # transported by the action, i.e. exactly twice the stored identity
    r = lift_profile(generic_profile(reg, 2))
    dwp = derive_weak_projection("e", ("h", "f", "f"), r)
    assert dwp == eval_equation(CATALOG["fff"], r) * 2


def test_derived_projections_match_full_bracket(reg):
    # each derived projection, built from the bracket restricted to the
    # coefficients it reads, equals the projection of the pairwise
    # oracle's full bracket, reduced (and, for the weak one, of a
    # generator action on all of it)
    prof = generic_profile(reg, 2)
    r = lift_profile(prof)
    full = pairwise_bracket(r)
    triples = list(itertools.product("efh", repeat=3))
    for triple in triples:
        assert derive_projection(triple, r) == project_reduced(full, triple)
    for name in "efh":
        acted = act_on_tensor([name], full, -full.total())[0]
        assert not acted.is_zero()
        for triple in triples:
            assert derive_weak_projection(name, triple, r) == project(acted, triple)


def test_fhf_substitution_matches_hff(reg):
    # substituting d2 := -d2-d3 transports the f x h x f identity to
    # minus the h x f x f identity modulo the invariance relations
    r = lift_profile(constrained_generic_profile(reg, degree=2))
    fhf = eval_equation(CATALOG["fhf"], r)
    hff = eval_equation(CATALOG["hff"], r)
    d2, d3 = reg.var("d2"), reg.var("d3")
    assert (fhf.subst_many({reg.sym("d2"): -d2 - d3}) + hff).is_zero()


def test_efh_shift_on_families(reg):
    # on invariant weak solutions the e x f x h identity evaluates to the
    # negated boundary constant, so the shifted variant vanishes
    a, b = reg.var("alpha"), reg.var("beta")
    zeta = b * F(1, 2)
    prof = DiagProfile(reg, {
        ("e", "e"): reg.parse("x^3 + x"),
        ("e", "f"): zeta * 4 - b, ("f", "e"): b,
        ("h", "e"): a, ("e", "h"): -a,
        ("h", "h"): zeta,
    })
    r = lift_profile(prof)
    assert eval_equation(CATALOG["efh_shift"], r).is_zero()
    assert eval_equation(CATALOG["efh"], r) == -shift_constant(constant_values(prof))


def test_permutation_symmetry(reg):
    prof = constrained_generic_profile(reg, degree=2)
    assert permutation_symmetry_check(prof)


def test_permutation_symmetry_violated(reg):
    prof = constrained_generic_profile(reg, degree=2)
    broken = dict(prof.entries)
    broken[("e", "e")] = broken.get(("e", "e"), reg.zero()) + reg.var("x") ** 2
    assert not permutation_symmetry_check(DiagProfile(reg, broken))


# Diagonal sufficiency and covariance ------------------------------------------------


def test_diagonal_sufficiency(cur, reg):
    rng = random.Random(31)
    base = ConfTensor(cur, 2, {
        ("e", "e"): reg.parse("d1"),
        ("h", "e"): reg.parse("1"),
        ("e", "h"): reg.parse("-1"),
        ("f", "h"): reg.parse("d1*d2"),
    })
    total = reg.parse("d1 + d2")
    perturbed_entries = dict(base.entries)
    for pair in [("e", "f"), ("h", "h"), ("e", "e")]:
        bump = total * random_univariate(reg, rng, "d1", 1) \
            * random_univariate(reg, rng, "d2", 1)
        perturbed_entries[pair] = perturbed_entries.get(pair, reg.zero()) + bump
    perturbed = ConfTensor(cur, 2, perturbed_entries)
    # same diagonal profile
    assert diagonal_profile_of(base).entries == diagonal_profile_of(perturbed).entries
    assert is_invariant(base)[1] == is_invariant(perturbed)[1]
    assert is_weak_solution(base)[1] == is_weak_solution(perturbed)[1]
    assert is_strict_solution(base)[1] == is_strict_solution(perturbed)[1]


def test_bracket_covariance(cur, reg):
    rng = random.Random(7)
    aut = ad(random_invertible(rng))
    r = ConfTensor(cur, 2, {("e", "f"): reg.parse("d1 + 1"), ("h", "h"): reg.parse("d2")})
    lhs = ccybe_bracket(transform_conf_tensor(aut, r))
    rhs = transform_conf_tensor(aut, ccybe_bracket(r))
    assert lhs == rhs


def test_transform_rmat_psi(cur, reg):
    r = ConfTensor(cur, 2, {("e", "e"): reg.parse("d1")})
    out = transform_conf_tensor(ad(((0, 1), (1, 0))), r)
    assert out.entries == {("f", "f"): reg.parse("d1")}


# Profiles and lifts ------------------------------------------------------------------


def test_lift_roundtrip(reg):
    prof = profile_from(reg, {"hh": "x", "ef": "3"})
    r = lift_profile(prof)
    assert r.entries[("h", "h")] == reg.var("d1")
    back = diagonal_profile_of(r)
    assert back.entries == prof.entries


@pytest.mark.parametrize("kind", ["int", "fraction", "mpoly"])
def test_constant_values_round_trip(reg, kind):
    # the values A'(0) at CONSTANT_PAIRS give back the constants that
    # boundary_values spreads over the nine entries, also under an x part
    # that carries the same symbols; the shifted identity reads the same
    # constants off the lift's diagonal, as on the generic profile: the
    # identity efh_shift - efh == kappa that makes the strict search's
    # prune to kappa = 0 exact
    constants = {"int": [2, -1, 3, 5],
                 "fraction": [F(1, 2), F(-3, 4), F(0), F(5, 3)],
                 "mpoly": [reg.var(n) for n in CONSTANT_NAMES]}[kind]
    x = reg.var("x")
    entries = {}
    for k, (pair, v) in enumerate(zip(PAIRS, boundary_values(constants))):
        v = v if isinstance(v, MPoly) else reg.const(v)
        entries[pair] = v + x * (k + 1) * (constants[k % 4] + 1)
    prof = DiagProfile(reg, entries)
    assert constant_values(prof) == constants
    generic = generic_profile(reg, 2)
    for p, kappa in ((prof, shift_constant(constants)),
                     (generic, shift_constant(constant_values(generic)))):
        r = lift_profile(p)
        shift = eval_equation(CATALOG["efh_shift"], r) - eval_equation(CATALOG["efh"], r)
        assert shift == kappa


def test_diagonal_restricts_each_entry(cur, reg):
    # diagonal(r) is A(d1, -d1) per entry; a lift, free of d2, is its own
    # diagonal, entry for entry the same objects; other arities are refused
    rng = random.Random(61)
    r = ConfTensor(cur, 2, {pair: _dense_coeff(reg, rng, "param", 3) for pair in PAIRS})
    at = {reg.sym("d2"): -reg.var("d1")}
    assert diagonal(r) == {key: p.subst_many(at) for key, p in r.entries.items()}
    lift = lift_profile(generic_profile(reg, 3))
    got = diagonal(lift)
    assert list(got) == list(lift.entries)
    assert all(got[key] is poly for key, poly in lift.entries.items())
    with pytest.raises(ValueError, match="arity-2"):
        diagonal(ConfTensor(cur, 3, {("h", "h", "h"): reg.var("d1")}))


def test_tensor2_diagonal_skew(reg):
    prof = profile_from(reg, {"ee": "x", "he": "1", "eh": "-1"})
    r = lift_profile(prof)
    t = add_tensors(r, tau(r))
    diag = diagonal_profile_of(t).entries
    assert diag == {}
