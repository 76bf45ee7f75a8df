import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

from ccybe import cli, conformal, rmatfile, ybe
from ccybe.conformal import (
    ConfAlgebra,
    ConfTensor,
    act_on_tensor,
    project,
)
from ccybe.exactpoly import (
    CORE_REGISTRY,
    CORE_SYMBOLS,
    RegistryMismatch,
    Substitution,
    SymbolRegistry,
)
from ccybe.liealg import sl2

from support import (
    ConfElem,
    act,
    act_then_eliminate,
    add_tensors,
    apply_derivation,
    generator,
    lambda_bracket,
    map_coeffs,
    permute_slots,
    random_univariate,
    reduce_mod_total,
    sub_tensors,
    tau,
)

F = Fraction


@pytest.fixture()
def cur():
    return ConfAlgebra.cur(sl2(), SymbolRegistry())


@pytest.fixture()
def vir():
    return ConfAlgebra.vir(SymbolRegistry())


def random_elem(alg, rng, max_degree=3):
    coeffs = {}
    for name in alg.basis_names:
        if rng.random() < 0.7:
            p = random_univariate(alg.reg, rng, "d", max_degree)
            if not p.is_zero():
                coeffs[name] = p
    return ConfElem(alg, coeffs)


# Bracket examples ---------------------------------------------------------------


def test_bracket_shifted_generator(cur):
    reg = cur.reg
    a = ConfElem(cur, {"e": reg.var("d")})
    b = generator(cur, "f")
    out = lambda_bracket(a, b)
    assert set(out) == {"h"}
    assert out["h"] == -reg.var("lam")


def test_bracket_vir(vir):
    out = lambda_bracket(generator(vir, "v"), generator(vir, "v"))
    assert out["v"] == vir.reg.parse("d + 2*lam")


def test_bracket_nilpotent(cur):
    assert lambda_bracket(generator(cur, "e"), generator(cur, "e")) == {}


def test_bracket_current_rule(cur):
    # [f(D)a _lam g(D)b] = f(-lam) g(lam + D) [a, b]
    reg = cur.reg
    d, lam = reg.var("d"), reg.var("lam")
    a = ConfElem(cur, {"e": d ** 2})
    b = ConfElem(cur, {"f": d + 1})
    out = lambda_bracket(a, b)
    assert out["h"] == (lam ** 2) * (lam + d + 1)


# Algebra axioms -------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cur", "vir"])
def test_sesquilinearity(kind):
    alg = ConfAlgebra.cur(sl2(), SymbolRegistry()) if kind == "cur" \
        else ConfAlgebra.vir(SymbolRegistry())
    reg = alg.reg
    lam = reg.var("lam")
    d = reg.var("d")
    rng = random.Random(1)
    for _ in range(40):
        a, b = random_elem(alg, rng), random_elem(alg, rng)
        base = lambda_bracket(a, b)
        left = lambda_bracket(apply_derivation(a), b)
        for k in set(base) | set(left):
            assert left.get(k, reg.zero()) == -lam * base.get(k, reg.zero())
        right = lambda_bracket(a, apply_derivation(b))
        for k in set(base) | set(right):
            assert right.get(k, reg.zero()) == (lam + d) * base.get(k, reg.zero())


@pytest.mark.parametrize("kind", ["cur", "vir"])
def test_anticommutativity(kind):
    # [a _lam b] = -[b _{-lam-d} a]
    alg = ConfAlgebra.cur(sl2(), SymbolRegistry()) if kind == "cur" \
        else ConfAlgebra.vir(SymbolRegistry())
    reg = alg.reg
    lam = reg.sym("lam")
    rng = random.Random(2)
    for _ in range(40):
        a, b = random_elem(alg, rng), random_elem(alg, rng)
        lhs = lambda_bracket(a, b)
        rhs = lambda_bracket(b, a)
        flipped = {
            k: -v.subst_many({lam: -reg.var("lam") - reg.var("d")})
            for k, v in rhs.items()
        }
        keys = set(lhs) | set(flipped)
        for k in keys:
            assert lhs.get(k, reg.zero()) == flipped.get(k, reg.zero())


def bracket_as_elem(alg, out, rename_to):
    """Reinterpret a bracket value as an element with a renamed variable."""
    reg = alg.reg
    lam = reg.sym("lam")
    return ConfElem(alg, {
        k: v.subst_many({lam: reg.var(rename_to)}) for k, v in out.items()
    })


@pytest.mark.parametrize("kind", ["cur", "vir"])
def test_conformal_jacobi(kind):
    # [a_lam [b_mu c]] - [b_mu [a_lam c]] = [[a_lam b]_{lam+mu} c]
    alg = ConfAlgebra.cur(sl2(), SymbolRegistry()) if kind == "cur" \
        else ConfAlgebra.vir(SymbolRegistry())
    reg = alg.reg
    lam_s, mu = reg.sym("lam"), reg.var("mu")
    nu1, nu2, nu3 = (reg.sym(n) for n in ("nu1", "nu2", "nu3"))
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = (random_elem(alg, rng, 2) for _ in range(3))
        t1 = lambda_bracket(a, bracket_as_elem(alg, lambda_bracket(b, c), "nu1"))
        t1 = {k: v.subst_many({nu1: mu}) for k, v in t1.items()}
        t2 = lambda_bracket(b, bracket_as_elem(alg, lambda_bracket(a, c), "nu2"))
        t2 = {k: v.subst_many({lam_s: mu, nu2: reg.var("lam")}) for k, v in t2.items()}
        inner = bracket_as_elem(alg, lambda_bracket(a, b), "nu3")
        t3 = lambda_bracket(inner, c)
        t3 = {
            k: v.subst_many({lam_s: reg.var("lam") + mu, nu3: reg.var("lam")})
            for k, v in t3.items()
        }
        for k in set(t1) | set(t2) | set(t3):
            lhs = t1.get(k, reg.zero()) - t2.get(k, reg.zero())
            assert lhs == t3.get(k, reg.zero())


def test_module_action_compatibility(cur):
    # [a_lam b] acting at lam+mu equals a_lam (b_mu T) - b_mu (a_lam T)
    reg = cur.reg
    lam, mu = reg.var("lam"), reg.var("mu")
    nu, rho = reg.sym("nu"), reg.sym("rho")
    rng = random.Random(4)
    for _ in range(15):
        a, b = random_elem(cur, rng, 2), random_elem(cur, rng, 2)
        entries = {}
        for _k in range(rng.randint(1, 3)):
            tup = (rng.choice(cur.basis_names), rng.choice(cur.basis_names))
            p = random_univariate(reg, rng, "d1", 2) * random_univariate(reg, rng, "d2", 1)
            if not p.is_zero():
                entries[tup] = entries.get(tup, reg.zero()) + p
        t = ConfTensor(cur, 2, entries)
        # act with the bracket (lam renamed to the parameter nu) at the
        # fresh variable rho, then set rho := lam + mu and nu := lam.
        lhs = act([bracket_as_elem(cur, lambda_bracket(a, b), "nu")], t, reg.var(rho))[0]
        lhs = map_coeffs(lhs, lambda p: p.subst_many({rho: lam + mu, nu: lam}))
        ab = act([a], act([b], t, mu)[0], lam)[0]
        ba = act([b], act([a], t, lam)[0], mu)[0]
        assert lhs == sub_tensors(ab, ba)


# Tensor operations ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cur", "vir"])
@pytest.mark.parametrize("arity", [2, 3])
def test_multi_element_action_matches_each_element(kind, arity):
    # acting with several generators in one call, which share the shifted
    # coefficients, equals acting with each alone at a free variable and
    # eliminating it afterwards; so does an element's action, the sum of
    # the generators' actions times its coefficients at -lam
    reg = SymbolRegistry()
    alg = ConfAlgebra.cur(sl2(), reg) if kind == "cur" else ConfAlgebra.vir(reg)
    names = alg.basis_names
    rng = random.Random(10 * arity + len(kind))
    for _ in range(6):
        elems = [random_elem(alg, rng, 2) for _ in range(rng.randint(1, 3))]
        entries = {}
        for _k in range(rng.randint(1, 4)):
            tup = tuple(rng.choice(alg.basis_names) for _ in range(arity))
            p = reg.const(rng.randint(1, 3))
            for i in range(arity):
                p = p * random_univariate(reg, rng, f"d{i + 1}", 2)
            entries[tup] = entries.get(tup, reg.zero()) + p
        t = ConfTensor(alg, arity, entries)
        acted = act_on_tensor(names, t, -t.total())
        assert acted == [act_then_eliminate(generator(alg, n), t) for n in names]
        assert act_on_tensor(names[-1:], t, -t.total()) == acted[-1:]
        assert act(elems, t, -t.total()) == [act_then_eliminate(e, t) for e in elems]


def test_act_constant_coefficients(cur):
    reg = cur.reg
    t = ConfTensor(cur, 2, {("f", "f"): reg.const(1)})
    out = act_on_tensor(["e"], t, reg.var("mu"))[0]
    assert out.entries == {("h", "f"): reg.const(1), ("f", "h"): reg.const(1)}


def test_act_vir(vir):
    reg = vir.reg
    t = ConfTensor(vir, 2, {("v", "v"): reg.const(1)})
    out = act_on_tensor(["v"], t, reg.var("mu"))[0]
    assert out.entries[("v", "v")] == reg.parse("d1 + d2 + 4*mu")


def test_act_cancellation(cur):
    reg = cur.reg
    t = ConfTensor(cur, 2, {("e", "f"): reg.const(1)})
    out = act_on_tensor(["h"], t, reg.var("mu"))[0]
    assert out.is_zero()


def test_act_refuses_unknown_generator(cur, vir):
    # a name outside the basis has no bracket row, so it would act as
    # zero if it were not refused
    t = ConfTensor(cur, 2, {("e", "f"): cur.reg.const(1)})
    for names in (["e", "v"], ["x"], ["e", "v"]):
        with pytest.raises(ValueError, match="unknown generator"):
            act_on_tensor(names, t, -t.total())
    assert act_on_tensor(["e"], t, -t.total())[0].entries == {("e", "h"): cur.reg.const(1)}
    u = ConfTensor(vir, 2, {("v", "v"): vir.reg.const(1)})
    with pytest.raises(ValueError, match="unknown generator 'e'"):
        act_on_tensor(["e"], u, -u.total())


def test_tau(cur):
    reg = cur.reg
    a = reg.parse("d1^2 - 2*d2")
    t = ConfTensor(cur, 2, {("e", "f"): a})
    swapped = tau(t)
    assert swapped.entries == {("f", "e"): reg.parse("d2^2 - 2*d1")}
    assert tau(swapped) == t
    h = ConfTensor(cur, 2, {("h", "h"): reg.var("d1")})
    assert tau(h).entries == {("h", "h"): reg.var("d2")}


def test_tau_requires_arity_2(cur):
    t = ConfTensor(cur, 3, {("e", "f", "h"): cur.reg.const(1)})
    with pytest.raises(ValueError):
        tau(t)


def test_reduce_total_derivation(cur):
    reg = cur.reg
    t = ConfTensor(cur, 3, {("e", "e", "e"): reg.parse("d1 + d2 + d3")})
    assert reduce_mod_total(t).is_zero()


def test_reduce_collapses_to_diagonal(cur):
    reg = cur.reg
    # A(d1 + d2, d3) with A(u, v) = u: reduction sends d1 := -d2 - d3
    t = ConfTensor(cur, 3, {("e", "f", "h"): reg.parse("d1 + d2")})
    out = reduce_mod_total(t)
    assert out.entries[("e", "f", "h")] == reg.parse("-d3")


def test_reduce_idempotent_commutes_with_project(cur):
    reg = cur.reg
    rng = random.Random(9)
    entries = {}
    for tup in [("e", "f", "h"), ("h", "h", "e")]:
        entries[tup] = (random_univariate(reg, rng, "d1", 2)
                        + random_univariate(reg, rng, "d2", 2)
                        * random_univariate(reg, rng, "d3", 1))
    t = ConfTensor(cur, 3, entries)
    once = reduce_mod_total(t)
    assert reduce_mod_total(once) == once
    for tup in entries:
        assert project(once, tup) == reduce_mod_total(t).entries.get(tup, reg.zero())


def test_project(cur):
    reg = cur.reg
    t = ConfTensor(cur, 2, {("h", "f"): reg.var("d1")})
    assert project(t, ("h", "f")) == reg.var("d1")
    assert project(t, ("f", "h")).is_zero()
    with pytest.raises(ValueError):
        project(t, ("h", "f", "f"))


def test_permute_slots(cur):
    reg = cur.reg
    t = ConfTensor(cur, 3, {("e", "f", "h"): reg.var("d1")})
    out = permute_slots(t, (1, 0, 2))
    assert out.entries == {("f", "e", "h"): reg.var("d2")}
    # the arity-2 swap, which tau is
    t = ConfTensor(cur, 2, {("e", "f"): reg.parse("d1^2 - 2*d2"), ("h", "h"): reg.var("d1")})
    assert permute_slots(t, (1, 0)).entries == {("f", "e"): reg.parse("d2^2 - 2*d1"),
                                                ("h", "h"): reg.var("d2")}


# The store of algebra tables ---------------------------------------------------------


def _fresh_algebra(kind):
    reg = SymbolRegistry()
    return ConfAlgebra.cur(sl2(), reg) if kind == "cur" else ConfAlgebra.vir(reg)


def _fill_store(alg):
    """Every check that reads the store, on tensors over `alg`."""
    reg = alg.reg
    first, last = alg.basis_names[0], alg.basis_names[-1]
    r = ConfTensor(alg, 2, {(first, last): reg.parse("d1^2 + 2*d2 - 1"),
                            (last, last): reg.parse("alpha*d1")})
    t = ConfTensor(alg, 3, {(first, last, first): reg.parse("d1*d3 + d2")})
    ybe.is_invariant(r)
    ybe.is_weak_solution(r)
    ybe.ccybe_bracket(r, [(first, first, last)])
    ybe.generator_actions(t)
    act_on_tensor(alg.basis_names, t, reg.var("mu"))
    if alg.kind == "cur":
        ybe.lift_profile(ybe.DiagProfile(reg, {("e", "f"): reg.parse("x^3 + x")}))
        ybe.eval_equation(ybe.CATALOG["efh_e"], r)


@pytest.mark.parametrize("kind", ["cur", "vir"])
def test_store_shares_tables_across_registries(monkeypatch, kind):
    # two algebras over two fresh registries read the same table object
    # under every key, and the second builds none
    monkeypatch.setattr(conformal, "_TABLES", {})
    first, second = _fresh_algebra(kind), _fresh_algebra(kind)
    _fill_store(first)
    tables = dict(conformal._TABLES)
    assert len(tables) >= (12 if kind == "cur" else 7)
    _fill_store(second)
    assert conformal._TABLES == tables

    def unbuilt():
        raise AssertionError("a table was built twice")

    for (_kind, _lie, key), table in tables.items():
        assert second.memo(key, unbuilt) is table


@pytest.mark.parametrize("algebra, coeff", [("cur_sl2", "a*d1^2 + d2"), ("vir", "a*d1 + 1")])
def test_store_pins_no_registry(algebra, coeff):
    # the tables a verify check leaves in the store hold no polynomial of
    # the r-matrix's registry, so the registry is freed with the r-matrix
    left, right = ("e", "f") if algebra == "cur_sl2" else ("v", "v")
    r = rmatfile.loads(json.dumps({"algebra": algebra, "parameters": ["a"], "entries": [
        {"left": left, "right": right, "coeff": coeff}]}))
    for mode in ("invariance", "weak", "strict"):
        cli._run_check(r, mode)
    ref = weakref.ref(r.alg.reg)
    del r
    gc.collect()
    assert ref() is None


def test_core_registry_is_sealed():
    # the core registry has every registry's core ids and guard mask, and
    # refuses a new name, so a table over it reads core symbols only
    fresh = SymbolRegistry()
    assert [CORE_REGISTRY.sym(n) for n in CORE_SYMBOLS] == [fresh.sym(n) for n in CORE_SYMBOLS]
    assert CORE_REGISTRY._guard == fresh._guard
    with pytest.raises(ValueError, match="no new symbol"):
        CORE_REGISTRY.sym("nu")
    assert "nu" not in CORE_REGISTRY


def test_substitution_across_registries():
    # a map over the core registry applies to any registry's polynomial,
    # in that registry, as the same map compiled there does; a map over
    # any other registry still refuses a foreign polynomial, and neither
    # takes a foreign symbol or target
    a, b = SymbolRegistry(), SymbolRegistry()
    b.sym("nu")
    p = b.parse("d1^2*nu + d2 - 3")
    core = Substitution(CORE_REGISTRY, {CORE_REGISTRY.sym("d1"): CORE_REGISTRY.parse("d2 + 1")})
    got = core(p)
    assert got.reg is b
    assert got == Substitution(b, {b.sym("d1"): b.parse("d2 + 1")})(p)
    over_a = Substitution(a, {a.sym("d1"): a.parse("d2 + 1")})
    with pytest.raises(RegistryMismatch):
        over_a(p)
    with pytest.raises(RegistryMismatch):
        Substitution(CORE_REGISTRY, {CORE_REGISTRY.sym("d1"): b.var("nu")})
    with pytest.raises(RegistryMismatch):
        Substitution(CORE_REGISTRY, {b.sym("nu"): CORE_REGISTRY.var("d2")})
    # and a tensor takes entries of its algebra's registry only
    with pytest.raises(RegistryMismatch):
        ConfTensor(ConfAlgebra.cur(sl2(), a), 2, {("e", "f"): p})


def test_action_tables_keyed_by_terms_of_lam(monkeypatch):
    # -t.total() over two registries is one key; a lam that reads a
    # non-core symbol gets a table for its call only, and acts as the
    # core variable it renames does
    monkeypatch.setattr(conformal, "_TABLES", {})
    tensors = []
    for _ in range(2):
        alg = _fresh_algebra("cur")
        tensors.append(ConfTensor(alg, 3, {("e", "f", "h"): alg.reg.parse("d1^2*d3 + 2*d2")}))
    for t in tensors:
        act_on_tensor(["e", "h"], t, -t.total())
    assert [key for _kind, _lie, key in conformal._TABLES] == [
        ("act_on_tensor", 3, frozenset((-tensors[0].total())._terms.items()), ("e", "h"))]
    t = tensors[1]
    reg = t.alg.reg
    nu = reg.var("nu")
    got = act_on_tensor(["e", "h"], t, nu)
    assert len(conformal._TABLES) == 1
    rename = Substitution(reg, {reg.sym("mu"): nu})
    assert got == [map_coeffs(u, rename) for u in act_on_tensor(["e", "h"], t, reg.var("mu"))]
    assert len(conformal._TABLES) == 2


# Hypothesis properties -------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_NAMES = ("e", "f", "h")


@st.composite
def tensors2(draw):
    reg = draw(st.shared(st.builds(SymbolRegistry), key="conf_reg"))
    alg = ConfAlgebra.cur(sl2(), reg)
    entries = {}
    for _ in range(draw(st.integers(1, 3))):
        tup = (draw(st.sampled_from(_NAMES)), draw(st.sampled_from(_NAMES)))
        poly = reg.zero()
        for _t in range(draw(st.integers(1, 3))):
            c = draw(st.integers(-4, 4))
            e1, e2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
            poly = poly + reg.var("d1") ** e1 * reg.var("d2") ** e2 * c
        entries[tup] = entries.get(tup, reg.zero()) + poly
    return ConfTensor(alg, 2, entries)


@settings(max_examples=60)
@given(tensors2())
def test_tau_involution_random(t):
    assert tau(tau(t)) == t


@settings(max_examples=60)
@given(tensors2())
def test_tau_fixes_symmetric_part(t):
    sym = add_tensors(t, tau(t))
    assert tau(sym) == sym
