import random
from fractions import Fraction

import pytest

from ccybe.exactpoly import SymbolRegistry
from ccybe.liealg import (
    AutMatrix,
    LieAlg,
    ad,
    is_zero_scalar,
    rank_le_1,
    sl2,
    transform_tensor,
)

from support import (
    adjoint_action_oracle,
    algebra_from_json,
    antisymmetrize,
    classical_cybe_oracle,
    cybe,
    identity_matrix,
    is_totally_antisymmetric,
    lie_bracket,
    preserves_bracket,
    random_invertible,
    tensors_equal,
    weak_cybe_defect,
)

F = Fraction


@pytest.fixture(scope="module")
def alg():
    return sl2()


def test_bracket_table(alg):
    assert lie_bracket(alg, {"e": F(1)}, {"f": F(1)}) == {"h": F(1)}
    assert lie_bracket(alg, {"h": F(1)}, {"e": F(1)}) == {"e": F(2)}
    assert lie_bracket(alg, {"h": F(1)}, {"f": F(1)}) == {"f": F(-2)}
    assert lie_bracket(alg, {"e": F(1)}, {"e": F(1)}) == {}


def test_bracket_bilinear(alg):
    x = {"e": F(2), "h": F(1)}
    y = {"f": F(3)}
    # [2e + h, 3f] = 6h - 6f
    assert lie_bracket(alg, x, y) == {"h": F(6), "f": F(-6)}


def test_jacobi_enforced():
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlg(("a", "b", "c"), {
            ("a", "b"): {"c": 1}, ("b", "a"): {"c": -1},
            ("b", "c"): {"a": 1}, ("c", "b"): {"a": -1},
            ("c", "a"): {"a": 1}, ("a", "c"): {"a": -1},
        })
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlg(("a", "b"), {("a", "b"): {"a": 1}, ("b", "a"): {"a": 1}})


def test_sl2_is_built_once_and_read_only():
    # one shared, validated instance whose tables cannot be changed
    alg = sl2()
    assert sl2() is alg
    assert algebra_from_json("sl2") is alg
    with pytest.raises(TypeError):
        alg.table[("e", "e")] = {"h": F(1)}
    with pytest.raises(TypeError):
        alg.table[("e", "f")]["h"] = F(2)
    for pair in (("e", "f"), ("e", "e")):
        with pytest.raises(TypeError):
            alg.bracket_basis(*pair)["h"] = F(2)
    assert alg.bracket_basis("e", "f") == {"h": F(1)}
    assert alg.bracket_basis("e", "e") == {}


def test_algebra_from_json_builtin():
    assert algebra_from_json("sl2").names == ("e", "f", "h")


def test_algebra_from_json_custom():
    alg = algebra_from_json({
        "basis": ["a", "b", "c"],
        "brackets": [["a", "b", "c", "1"], ["b", "c", "a", "2"], ["c", "a", "b", "1/2"]],
    })
    assert alg.bracket_basis("b", "a") == {"c": F(-1)}


# Classical YBE ----------------------------------------------------------------


def test_cybe_oracle_agreement(alg):
    rng = random.Random(17)
    for _ in range(25):
        r = {}
        for q in "efh":
            for l in "efh":
                c = rng.randint(-2, 2)
                if c:
                    r[(q, l)] = F(c)
        assert tensors_equal(cybe(r), classical_cybe_oracle(alg, r))


def test_cybe_known_solutions():
    assert cybe({("h", "e"): F(1), ("e", "h"): F(-1)}) == {}
    assert cybe({}) == {}
    assert cybe({("e", "e"): F(1)}) == {}


def test_cybe_rejects_derivations():
    reg = SymbolRegistry()
    with pytest.raises(ValueError, match="constant"):
        cybe({("e", "e"): reg.var("d1")}, reg=reg)


def test_weak_defect_general_solution_symbolic(alg):
    reg = SymbolRegistry()
    a, b, g, z = (reg.var(n) for n in ("alpha", "beta", "gamma", "zeta"))
    r0 = {("h", "e"): a, ("e", "h"): -a, ("f", "e"): b, ("e", "f"): -b + z * 4,
          ("h", "f"): g, ("f", "h"): -g, ("h", "h"): z}
    defects = weak_cybe_defect(r0, alg, reg)
    assert all(not d for d in defects.values())


def test_weak_defect_nonzero(alg):
    defects = weak_cybe_defect({("e", "f"): F(1)}, alg)
    assert any(d for d in defects.values())
    # cross-check against the slotwise adjoint oracle
    value = cybe({("e", "f"): F(1)}, alg)
    for name, defect in defects.items():
        assert tensors_equal(defect, adjoint_action_oracle(alg, name, value))


def test_cybe_skew_part_antisymmetric(alg):
    reg = SymbolRegistry()
    a, b, g = (reg.var(n) for n in ("alpha", "beta", "gamma"))
    r = {("h", "e"): a, ("e", "h"): -a, ("f", "e"): b, ("e", "f"): -b,
         ("h", "f"): g, ("f", "h"): -g}
    value = cybe(r, alg, reg)
    assert value and is_totally_antisymmetric(value)


def test_antisymmetrize_projects():
    t = {("e", "f", "h"): F(6)}
    alt = antisymmetrize(t)
    assert alt[("e", "f", "h")] == F(1)
    assert alt[("f", "e", "h")] == F(-1)
    assert is_totally_antisymmetric(alt)


# Automorphisms -----------------------------------------------------------------


SWAP = ((0, 1), (1, 0))


def test_psi_swaps():
    # Ad of the swap matrix is the swap e <-> f with h -> -h
    psi = ad(SWAP)
    assert psi.m == ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert psi.image("e") == {"f": F(1)}
    assert psi.image("f") == {"e": F(1)}
    assert psi.image("h") == {"h": F(-1)}
    assert preserves_bracket(psi)


def test_ad_diagonal_scales_e_and_f():
    # Ad diag(k, 1) is e -> k e, f -> f / k, h -> h, with int-first entries
    for k in (2, -3, F(1, 2)):
        aut = ad(((k, 0), (0, 1)))
        assert aut.image("e") == {"e": k}
        assert aut.image("f") == {"f": 1 / F(k)}
        assert aut.image("h") == {"h": 1}
        assert all(type(v) is int for row in aut.m for v in row if F(v).denominator == 1)


def test_ad_refuses_singular_and_nonconstant_det():
    reg = SymbolRegistry()
    b = reg.var("b")
    for g in (((1, 1), (1, 1)), ((0, 0), (0, 0)), ((F(1, 2), 1), (1, 2)),
              ((b, b), (1, 1))):
        with pytest.raises(ValueError, match="invertible"):
            ad(g)
    with pytest.raises(ValueError, match="constant"):
        ad(((b, 0), (0, 1)))


def test_ad_preserves_bracket():
    rng = random.Random(5)
    dets = set()
    for _ in range(10):
        g = random_invertible(rng)
        dets.add(abs(g[0][0] * g[1][1] - g[0][1] * g[1][0]))
        assert preserves_bracket(ad(g))
    assert max(dets) > 1
    # the symbolic shears, with formal entries of a constant det
    reg = SymbolRegistry()
    b, c = reg.var("b"), reg.var("c")
    for g in (((1, b), (0, 1)), ((1, 0), (c, 1))):
        assert preserves_bracket(ad(g))
    # and a matrix that is not an automorphism fails the check
    assert not preserves_bracket(AutMatrix(sl2(), ((1, 0, 0), (0, 1, 0), (0, 0, 2))))


def test_cybe_covariance_classical():
    rng = random.Random(23)
    r = {("e", "f"): F(2), ("h", "e"): F(1), ("f", "f"): F(-1)}
    for _ in range(8):
        aut = ad(random_invertible(rng))
        lhs = cybe(transform_tensor(aut, r))
        rhs = transform_tensor(aut, cybe(r))
        assert tensors_equal(lhs, rhs)


# Congruence and rank -------------------------------------------------------------

# A coefficient matrix M moves as the two-tensor {(q, l): M_ql}, so
# transform_tensor gives Phi M Phi^T.
NAMES = ("e", "f", "h")


def _tensor(rows):
    return {(q, l): v for q, row in zip(NAMES, rows) for l, v in zip(NAMES, row)}


def _rows(tensor):
    return tuple(tuple(tensor.get((q, l), 0) for l in NAMES) for q in NAMES)


def _e11():
    return ((1, 0, 0), (0, 0, 0), (0, 0, 0))


def _minors(a):
    return [a[r0][c0] * a[r1][c1] - a[r0][c1] * a[r1][c0]
            for r0 in range(3) for r1 in range(r0 + 1, 3)
            for c0 in range(3) for c1 in range(c0 + 1, 3)]


def test_congruence_psi_moves_corner():
    out = _rows(transform_tensor(ad(SWAP), _tensor(_e11())))
    assert out[1][1] == 1
    assert sum(1 for row in out for v in row if v) == 1


def test_congruence_identity(alg):
    m = ((F(1), F(2), F(3)), (F(2), F(4), F(5)), (F(3), F(5), F(6)))
    assert _rows(transform_tensor(identity_matrix(), _tensor(m))) == m


SCALINGS = (1, 2, -3, F(1, 2))


def test_congruence_parametric_derived():
    # Ad ((k, 0), (c, 1/k)): the image of the first slot is
    # (k^2, -c^2, -k c), so congruating the corner matrix gives its
    # symmetric outer square.
    reg = SymbolRegistry()
    c = reg.var("c")
    for k in SCALINGS:
        aut = ad(((k, 0), (c, 1 / F(k))))
        out = _rows(transform_tensor(aut, {("e", "e"): reg.const(1)}))
        col = (reg.const(k * k), -(c * c), -(c * k))
        for i in range(3):
            for j in range(3):
                assert (out[i][j] - col[i] * col[j]).is_zero()


def test_congruence_second_diagonal_formula():
    # Ad ((1/d, 0), (c, d)): the (2,2) entry of Phi M Phi^T expands to
    # c^4 m11 - 4 c^3 d m13 + 2 c^2 d^2 (2 m33 - m12) + 4 c d^3 m23 + d^4 m22.
    reg = SymbolRegistry()
    c = reg.var("c")
    names = ("m11", "m12", "m13", "m22", "m23", "m33")
    m11, m12, m13, m22, m23, m33 = (reg.var(n) for n in names)
    m = ((m11, m12, m13), (m12, m22, m23), (m13, m23, m33))
    for d in map(F, SCALINGS):
        out = _rows(transform_tensor(ad(((1 / d, 0), (c, d))), _tensor(m)))
        want = (c ** 4 * m11 + m22 * d ** 4 - c ** 3 * m13 * (4 * d)
                + c * c * (m33 * 2 - m12) * (2 * d * d) + c * m23 * (4 * d ** 3))
        assert (out[1][1] - want).is_zero()


def test_rank_le_1():
    assert rank_le_1(_e11())
    diag = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(0)))
    assert not rank_le_1(diag)
    v = (F(1), F(2), F(3))
    outer = tuple(tuple(a * b for b in v) for a in v)
    assert rank_le_1(outer)


@pytest.mark.parametrize("kind", ["int", "fraction", "constant_poly"])
def test_rank_le_1_matches_minors(kind):
    # rank_le_1 agrees with the vanishing of all nine 2x2 minors on
    # numeric symmetric matrices built as sums of 0, 1, 2 and 3 scaled
    # outer products v v^T
    rng = random.Random(5)
    reg = SymbolRegistry()

    def scalar():
        if kind == "int":
            return rng.randint(-4, 4)
        return F(rng.randint(-4, 4), rng.randint(1, 5))

    verdicts = {0: set(), 1: set(), 2: set(), 3: set()}
    for _ in range(30):
        vs = [[scalar() for _ in range(3)] for _ in range(3)]
        for n in range(4):
            ks = [scalar() for _ in range(n)]
            a = [[sum((k * v[i] * v[j] for k, v in zip(ks, vs)), 0 * scalar())
                  for j in range(3)] for i in range(3)]
            if kind == "constant_poly":
                a = [[reg.const(x) for x in row] for row in a]
            m = tuple(tuple(row) for row in a)
            want = all(is_zero_scalar(x) for x in _minors(m))
            assert rank_le_1(m) == want
            verdicts[n].add(want)
    assert verdicts[0] == verdicts[1] == {True}
    assert False in verdicts[2] and False in verdicts[3]
