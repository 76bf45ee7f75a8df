import random
from fractions import Fraction

import pytest

from ccybe import ybe
from ccybe.exactpoly import SymbolRegistry, _scalar
from ccybe.families import (
    ConstraintViolation,
    FamilySpec,
    build_profile,
    characterize,
    scalar_relation_residues,
    vir_rmatrix,
)
from ccybe.liealg import rank_le_1
from ccybe.ybe import (
    PAIRS,
    boundary_values,
    is_invariant,
    is_strict_solution,
    is_weak_solution,
    lift_profile,
)

from support import (
    add_tensors,
    characterization_ok,
    constant_values,
    diagonal_profile_of,
    invariant_constant_rmat,
    profile_entry,
    random_poly,
    tau,
)

F = Fraction


@pytest.fixture()
def reg():
    return SymbolRegistry()


def test_build_profile_thm5_ii(reg):
    spec = FamilySpec("thm5_ii", reg, {"lhh": 1, "beta": 2, "zeta": 1})
    prof = build_profile(spec)
    assert profile_entry(prof, "h", "h") == reg.parse("x + 1")
    assert profile_entry(prof, "e", "f") == 2
    assert profile_entry(prof, "f", "e") == 2
    for pair in [("e", "e"), ("f", "f"), ("h", "e"), ("e", "h"), ("h", "f"), ("f", "h")]:
        assert profile_entry(prof, *pair).is_zero()


def test_build_profile_thm5_iii(reg):
    spec = FamilySpec("thm5_iii", reg, {"alpha": 1, "beta": 0, "gamma": 0, "zeta": 0})
    prof = build_profile(spec)
    assert profile_entry(prof, "h", "e") == 1
    assert profile_entry(prof, "e", "h") == -1
    for pair in [("e", "e"), ("f", "f"), ("h", "h"), ("e", "f"), ("f", "e"),
                 ("h", "f"), ("f", "h")]:
        assert profile_entry(prof, *pair).is_zero()


def test_constraint_errors(reg):
    with pytest.raises(ConstraintViolation, match="gamma = 0"):
        FamilySpec("thm5_i", reg, {"alpha": 0, "beta": 0, "gamma": 1})
    with pytest.raises(ConstraintViolation, match="zeta = beta/2"):
        FamilySpec("thm5_i", reg, {"alpha": 0, "beta": 2, "zeta": 0})
    with pytest.raises(ConstraintViolation, match="lhh != 0"):
        FamilySpec("thm5_ii", reg, {"lhh": 0, "beta": 0, "zeta": 0})
    with pytest.raises(ConstraintViolation, match="4\\*alpha\\*gamma"):
        FamilySpec("cor6_iii", reg, {"alpha": 0, "beta": 1, "gamma": 0})
    with pytest.raises(ConstraintViolation, match="requires parameter"):
        FamilySpec("thm5_i", reg, {"alpha": 0})
    with pytest.raises(ConstraintViolation, match="monic"):
        FamilySpec("thm5_i", reg, {"alpha": 0, "beta": 0}, f=reg.parse("2*t"))
    for case in ("thm9_x", "vir"):
        with pytest.raises(ConstraintViolation, match="unknown case"):
            FamilySpec(case, reg, {})


def test_family_spec_leaves_caller_params(reg):
    # the pinned constants passed are checked and dropped from the
    # spec's own copy of params, not from the caller's dict
    params = {"lhh": 1, "beta": 2, "zeta": 1, "alpha": 0, "gamma": 0}
    spec = FamilySpec("thm5_ii", reg, params)
    assert params == {"lhh": 1, "beta": 2, "zeta": 1, "alpha": 0, "gamma": 0}
    assert spec.params == {"lhh": 1, "beta": 2, "zeta": 1}
    again = FamilySpec("thm5_ii", reg, params)
    assert build_profile(again) == build_profile(spec)


def test_lift_examples(reg):
    prof = ybe.DiagProfile(reg, {("h", "h"): reg.var("x")})
    r = lift_profile(prof)
    assert r.entries == {("h", "h"): reg.var("d1")}
    assert lift_profile(ybe.DiagProfile(reg, {})).entries == {}


def test_lift_diagonal_roundtrip(reg):
    spec = FamilySpec("thm5_i", reg, {"alpha": 2, "beta": 4}, f=reg.parse("t + 3"))
    prof = build_profile(spec)
    back = diagonal_profile_of(lift_profile(prof))
    assert back.entries == prof.entries


def test_invariant_constant_rmat():
    r = invariant_constant_rmat(1, 0, 0, 0)
    assert r.entries[("h", "e")] == 1
    assert r.entries[("e", "h")] == -1
    assert len(r.entries) == 2

    r = invariant_constant_rmat(0, 0, 0, 1)
    assert r.entries[("h", "h")] == 1
    assert r.entries[("e", "f")] == 4
    assert len(r.entries) == 2

    assert invariant_constant_rmat(0, 0, 0, 0).entries == {}


def test_characterize_family(reg):
    spec = FamilySpec("thm5_i", reg, {"alpha": 0, "beta": 0}, f=reg.parse("t + 1"))
    rep = characterize(build_profile(spec))
    assert characterization_ok(rep)
    assert rep.shared_f == reg.parse("t + 1")
    assert rep.matrix[0][0] == 1
    assert sum(1 for row in rep.matrix for v in row if v) == 1


@pytest.mark.parametrize("scale", [1, F(4, 2), F(3, 2), F(-1, 3)])
def test_characterize_matrix_int_first(reg, scale):
    # the numeric matrix holds an int where an entry is integral and a
    # Fraction otherwise, and the rank verdict is that of its Fraction form
    x = reg.var("x")
    rank1 = FamilySpec("thm5_ii", reg, {"lhh": scale * 2, "beta": 1, "zeta": scale},
                       f=reg.parse("t + 1"))
    rank2 = ybe.DiagProfile(reg, {("e", "e"): x * scale, ("f", "f"): x})
    for prof, rank_ok in ((build_profile(rank1), True), (rank2, False)):
        rep = characterize(prof)
        m = rep.matrix
        for row in m:
            for v in row:
                assert type(v) is (int if F(v).denominator == 1 else F)
        assert rep.rank_le_1 is rank_ok
        as_fractions = tuple(tuple(F(v) for v in row) for row in m)
        assert rank_le_1(as_fractions) is rank_ok
    assert characterization_ok(characterize(build_profile(rank1)))


def test_characterize_rank2(reg):
    prof = ybe.DiagProfile(reg, {
        ("e", "e"): reg.var("x"), ("f", "f"): reg.var("x"),
    })
    rep = characterize(prof)
    assert rep.sym and rep.shared_f_ok and rep.constants_ok
    assert not rep.rank_le_1
    assert not characterization_ok(rep)


def test_characterize_different_f(reg):
    prof = ybe.DiagProfile(reg, {
        ("e", "e"): reg.parse("x^3 + x"), ("h", "h"): reg.var("x"),
    })
    rep = characterize(prof)
    assert rep.shared_f is None
    assert not rep.shared_f_ok


def test_characterize_requires_numeric(reg):
    # a parameter in any coefficient of any entry, the boundary value
    # included, is refused
    for text in ("alpha*x", "alpha*x^3 + x", "x + beta"):
        prof = ybe.DiagProfile(reg, {("e", "e"): reg.parse(text)})
        with pytest.raises(ValueError, match="parameter-free"):
            characterize(prof)


def _ee(reg, text):
    return characterize(ybe.DiagProfile(reg, {("e", "e"): reg.parse(text)}))


def test_characterize_axf_numeric(reg):
    # 2x^3 + 2x = 2 x f(x^2) with f = t + 1
    rep = _ee(reg, "2*x^3 + 2*x")
    assert characterization_ok(rep) and rep.matrix[0][0] == 2
    assert rep.shared_f == reg.parse("t + 1")


def test_characterize_axf_rational_ratio(reg):
    # f's coefficients are c / a exactly: 2/3, not the float 0.666...
    rep = _ee(reg, "3*x^3 + 2*x")
    assert rep.matrix[0][0] == 3
    assert rep.shared_f.to_string() == "t + 2/3"


def test_characterize_even_part_rejected(reg):
    # a centered entry with an even degree is no a x f(x^2)
    rep = _ee(reg, "x^2")
    assert not rep.shared_f_ok and rep.shared_f is None
    assert rep.matrix[0][0] == 0


def test_characterize_mixed_parity_rejected(reg):
    # x^3 + x^2 + x + 1 centers to x^3 + x^2 + x: its odd part x^3 + x
    # has the shape, but the even x^2 left over refuses the entry
    rep = characterize(ybe.DiagProfile(reg, {("h", "h"): reg.parse("x^3 + x^2 + x + 1")}))
    assert not rep.shared_f_ok and rep.shared_f is None
    assert rep.matrix[2][2] == 0
    assert rep.constants == (0, 0, 0, 1)


def test_characterize_pure_odd(reg):
    # x^5 + x = x f(x^2) with f = t^2 + 1
    rep = characterize(ybe.DiagProfile(reg, {("h", "h"): reg.parse("x^5 + x")}))
    assert characterization_ok(rep) and rep.matrix[2][2] == 1
    assert rep.shared_f.to_string() == "t^2 + 1"


def test_characterize_constants_only(reg):
    # an entry that is its boundary value alone centers to zero: no f,
    # no matrix entry, and the constants read exactly, int-first
    constants = (1, -2, F(1, 2), 3)
    spec = FamilySpec("lemma1", reg, dict(zip(ybe.CONSTANT_NAMES, constants)))
    rep = characterize(build_profile(spec))
    assert characterization_ok(rep) and rep.shared_f is None
    assert all(v == 0 for row in rep.matrix for v in row)
    assert rep.constants == constants
    assert [type(v) for v in rep.constants] == [int, int, F, int]


def test_characterize_axf_roundtrip(reg):
    rng = random.Random(7)
    x, t = reg.sym("x"), reg.sym("t")
    for _ in range(100):
        p = random_poly(reg, rng, ("x",), max_degree=7, max_terms=4)
        rep = characterize(ybe.DiagProfile(reg, {("e", "e"): p}))
        centered = p - p.subst_many({x: reg.zero()})
        has_even = any(deg % 2 == 0 for deg in centered.as_univariate_in(x))
        assert rep.shared_f_ok is not has_even
        if has_even or centered.is_zero():
            assert rep.shared_f is None
            continue
        f = rep.shared_f
        assert reg.var("x") * f.subst_many({t: reg.var("x") ** 2}) * rep.matrix[0][0] == centered
        # monic in t
        assert f.as_univariate_in(t)[f.degree_in(t)] == 1


def test_characterize_parity_reading(reg):
    # the degree reading agrees with the parity under x -> -x: an entry
    # passes exactly when its centered part is odd, its value at 0 is
    # the boundary constant (zeta, on hh), and f(x^2) is even
    rng = random.Random(11)
    x = reg.sym("x")
    minus_x = {x: -reg.var("x")}
    for _ in range(100):
        p = random_poly(reg, rng, ("x",), max_degree=7, max_terms=4)
        rep = characterize(ybe.DiagProfile(reg, {("h", "h"): p}))
        at_zero = p.subst_many({x: reg.zero()})
        centered = p - at_zero
        assert rep.shared_f_ok is (centered.subst_many(minus_x) == -centered)
        assert at_zero == rep.constants[3]
        if rep.shared_f is not None:
            f_of_x2 = rep.shared_f.subst_many({reg.sym("t"): reg.var("x") ** 2})
            assert f_of_x2.subst_many(minus_x) == f_of_x2


def test_characterize_roundtrip_random(reg):
    rng = random.Random(13)
    for _ in range(50):
        case = rng.choice(["thm5_i", "thm5_ii", "thm5_iii"])
        t = reg.var("t")
        deg = rng.randint(0, 2)
        f = t ** deg
        for j in range(deg):
            f = f + t ** j * rng.randint(-3, 3)
        if case == "thm5_i":
            params = {"alpha": F(rng.randint(-3, 3)), "beta": F(rng.randint(-3, 3))}
        elif case == "thm5_ii":
            params = {"lhh": F(rng.choice([1, 2, -1, 3])),
                      "beta": F(rng.randint(-3, 3)), "zeta": F(rng.randint(-3, 3))}
        else:
            params = {n: F(rng.randint(-3, 3))
                      for n in ("alpha", "beta", "gamma", "zeta")}
        spec = FamilySpec(case, reg, params, f=f)
        prof = build_profile(spec)
        rep = characterize(prof)
        assert characterization_ok(rep)
        m = rep.matrix
        if case == "thm5_i":
            assert m[0][0] == 1 and sum(v != 0 for row in m for v in row) == 1
            assert rep.shared_f == f
        elif case == "thm5_ii":
            assert m[2][2] == params["lhh"]
            assert rep.shared_f == f
        else:
            assert all(v == 0 for row in m for v in row)
        constants = [v.constant_value() for v in constant_values(prof)]
        assert rep.constants == tuple(map(_scalar, constants))
        assert all(type(v) is (int if F(v).denominator == 1 else F) for v in rep.constants)
        assert not any(scalar_relation_residues(constants, m).values())


def test_cor6_profiles_strict_and_skew(reg):
    u, v = reg.var("u"), reg.var("v")
    specs = [
        FamilySpec("cor6_i", reg, {"alpha": reg.var("alpha")}, f=reg.parse("t")),
        FamilySpec("cor6_ii", reg, {"lhh": reg.var("lhh")}, f=reg.parse("t + 1")),
        FamilySpec("cor6_iii", reg, {"alpha": u * u, "beta": u * v * 2, "gamma": v * v}),
    ]
    for spec in specs:
        r = lift_profile(build_profile(spec))
        assert is_strict_solution(r)[0]
        assert is_weak_solution(r)[0]
        assert is_invariant(r)[0]
        sym_part = add_tensors(r, tau(r))
        assert diagonal_profile_of(sym_part).entries == {}


def test_vir_rmatrix(reg):
    r = vir_rmatrix(reg.parse("x + y"))
    assert r.entries[("v", "v")] == reg.parse("d1 + d2")
    assert is_invariant(r)[0]
    assert is_weak_solution(r)[0]

    r2 = vir_rmatrix(reg.parse("(x+y)*x^3"))
    assert is_invariant(r2)[0]
    assert is_weak_solution(r2)[0]

    r3 = vir_rmatrix(reg.const(1))
    ok, defects = is_weak_solution(r3)
    assert not ok
    slice_poly = defects["v"].entries[("v", "v", "v")].subst_many({
        reg.sym("d3"): reg.zero(), reg.sym("d1"): reg.var("d2") * -2,
    })
    assert slice_poly == reg.parse("-24*d2^2")


def test_constants_table():
    table = dict(zip(PAIRS, boundary_values((F(1), F(2), F(3), F(4)))))
    assert table[("e", "e")] == table[("f", "f")] == 0
    assert table[("e", "f")] == 14
    assert table[("f", "e")] == 2
    assert table[("h", "e")] == 1
    assert table[("e", "h")] == -1
    assert table[("h", "f")] == 3
    assert table[("f", "h")] == -3
    assert table[("h", "h")] == 4
