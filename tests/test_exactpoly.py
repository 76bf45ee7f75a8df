import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccybe.exactpoly import (
    CORE_SYMBOLS,
    EXPONENT_LIMIT,
    MAX_NESTING,
    ExponentOverflow,
    MPoly,
    ParseError,
    RegistryMismatch,
    Substitution,
    Sym,
    SymbolRegistry,
    _finished,
    _mac,
    _term_list,
)

from support import poly_of, random_poly, termwise_subst, tuple_terms


@pytest.fixture()
def reg():
    return SymbolRegistry()


# Frozen examples -------------------------------------------------------------


def test_add_inverse(reg):
    d1 = reg.var("d1")
    assert (d1 + (-d1)).is_zero()


def test_add_like_terms(reg):
    p = reg.var("d1") * reg.var("d2")
    assert p + p == p * 2


def test_add_rationals(reg):
    x = reg.var("x")
    assert x * Fraction(3, 2) + x * Fraction(1, 3) == x * Fraction(11, 6)


def test_mul_difference_of_squares(reg):
    x, y = reg.var("x"), reg.var("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_mul_by_zero(reg):
    p = reg.parse("3*x^2 - y")
    assert (reg.zero() * p).is_zero()


def test_mul_square(reg):
    d1, d2 = reg.var("d1"), reg.var("d2")
    assert (d1 + d2) * (d1 + d2) == d1 ** 2 + d1 * d2 * 2 + d2 ** 2


def test_registry_mismatch(reg):
    other = SymbolRegistry()
    with pytest.raises(RegistryMismatch):
        reg.var("x") + other.var("x")
    with pytest.raises(RegistryMismatch):
        reg.var("x") * other.var("x")


def test_subst_total_derivative(reg):
    d1, d2, d3 = (reg.var(n) for n in ("d1", "d2", "d3"))
    p = d1 + d2 + d3
    assert p.subst_many({reg.sym("d1"): -d2 - d3}).is_zero()


def test_subst_shifted_argument(reg):
    # A(u, v) = u evaluated at (d1 + lam, d2), then lam := -d1 - d2.
    d1, d2, lam = reg.var("d1"), reg.var("d2"), reg.var("lam")
    shifted = d1 + lam
    assert shifted.subst_many({reg.sym("lam"): -d1 - d2}) == -d2


def test_subst_zero(reg):
    x = reg.var("x")
    p = x * (x ** 2 + 1)  # x*f(x^2) with f = t + 1
    assert p.subst_many({reg.sym("x"): reg.zero()}).is_zero()


def test_parse_basic(reg):
    p = reg.parse("3/2*d1^2 - d2")
    assert p == reg.var("d1") ** 2 * Fraction(3, 2) - reg.var("d2")


def test_parse_parenthesized_power(reg):
    assert reg.parse("(d1+d2)^2") == reg.parse("d1^2 + 2*d1*d2 + d2^2")


def test_parse_negative_exponent_rejected(reg):
    with pytest.raises(ParseError):
        reg.parse("x^(-1)")


def test_parse_unknown_symbol(reg):
    with pytest.raises(ParseError):
        reg.parse("frobble + 1")


def test_parse_error_position(reg):
    with pytest.raises(ParseError) as err:
        reg.parse("x + ")
    assert err.value.position == 4


def test_parse_no_division_operator(reg):
    with pytest.raises(ParseError):
        reg.parse("x/2")


def test_parse_leaves_no_reference_cycle(reg):
    # a parse frees everything it built by reference counting alone,
    # refusals included: no garbage is left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        p = reg.parse("-(d1 + 2*d2)^3 - d1*d2 + 1/2", max_degree=3)
        assert p == -reg.parse("d1 + 2*d2") ** 3 - reg.parse("d1*d2") + Fraction(1, 2)
        try:
            reg.parse("(x + ")
        except ParseError as err:
            assert err.position == 5
        else:
            raise AssertionError("a truncated expression parsed")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_print_canonical(reg):
    p = reg.parse("- d2 + 3/2*d1^2")
    assert p.to_string() == "3/2*d1^2 - d2"
    assert reg.zero().to_string() == "0"
    assert reg.const(Fraction(-5, 3)).to_string() == "-5/3"


# Int-first coefficients and packed monomials --------------------------------


def test_public_coefficients_are_fractions(reg):
    assert type(reg.const(4).constant_value()) is Fraction
    assert type(reg.zero().constant_value()) is Fraction
    assert reg.parse("1/2*y - 1/2*y + 5").constant_value() == 5


def test_integral_coefficients_stored_as_int(reg):
    x = reg.var("x")
    half = x * Fraction(1, 2)
    assert half.to_string() == "1/2*x"
    # Fraction(3, 1) and 3 print, compare and hash alike.
    p = (half * 6) * (x + Fraction(2, 2))
    assert p == reg.parse("3*x^2 + 3*x")
    assert hash(p) == hash(reg.parse("3*x^2 + 3*x"))
    assert all(type(c) is int for c in p._terms.values())
    assert reg.const(Fraction(4, 2)) == 2
    two_d = reg.univariate("d", {1: Fraction(6, 3)})
    assert two_d == reg.var("d") * 2 and two_d._terms == {1: 2}
    assert type(two_d._terms[1]) is int


def _tuple_product(p, q):
    # The representation before packing: tuple exponents, Fraction sums.
    out = {}
    for ea, ca in tuple_terms(p).items():
        for eb, cb in tuple_terms(q).items():
            n = max(len(ea), len(eb))
            key = tuple(a + b for a, b in zip(ea + (0,) * (n - len(ea)),
                                              eb + (0,) * (n - len(eb))))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def test_packed_products_high_symbol_ids(reg):
    rng = random.Random(3)
    names = [f"s{i}" for i in range(80)]
    for name in names:
        reg.sym(name)
    high = names[-6:] + ["d1"]
    assert reg.sym(high[0]).index > 80
    for _ in range(40):
        p = random_poly(reg, rng, high, max_degree=4, max_terms=6)
        q = random_poly(reg, rng, high, max_degree=4, max_terms=6)
        prod = p * q
        want = _tuple_product(p, q)
        assert prod == poly_of(reg, want)
        assert tuple_terms(prod) == {e: c for e, c in want.items() if c}
        assert reg.parse(prod.to_string()) == prod
        s = reg.sym(high[1])
        assert prod.subst_many({s: q}) == termwise_subst(prod, {s: q})
    top = reg.var(names[-1]) ** (EXPONENT_LIMIT - 1)
    assert (top * reg.var("d")).to_string() == f"d*{names[-1]}^{EXPONENT_LIMIT - 1}"


def test_compiled_substitution_matches_termwise_oracle(reg):
    # one compiled map applied to many polynomials, its cached powers
    # shared between them, equals the term-by-term expansion of each
    rng = random.Random(11)
    names = [f"s{i}" for i in range(70)]
    for name in names:
        reg.sym(name)
    high = names[-5:] + ["d1", "x"]
    assert reg.sym(high[0]).index > 70
    for _ in range(12):
        targets = rng.sample(high, rng.randint(1, 3))
        mapping = {reg.sym(n): random_poly(reg, rng, high, max_degree=3, max_terms=4)
                   for n in targets}
        sub = Substitution(reg, mapping)
        polys = [random_poly(reg, rng, high, max_degree=5, max_terms=8) for _ in range(10)]
        for p in polys + polys[:3]:
            want = termwise_subst(p, mapping)
            assert sub(p) == want
            assert p.subst_many(mapping) == want
    # scalar and zero targets, and the empty map
    x, y = reg.var("x"), reg.var("y")
    p = x * x * y + x - 3
    assert Substitution(reg, {reg.sym("x"): 2})(p) == y * 4 - 1
    assert Substitution(reg, {reg.sym("x"): reg.zero()})(p) == -3
    assert Substitution(reg, {})(p) is p
    # a polynomial in which no term has a substituted symbol comes back
    # as the same object, for a one-term target and for a binomial one
    for target in (y * -2, y + 1):
        sub = Substitution(reg, {reg.sym("z"): target})
        for free in (p, reg.zero(), reg.const(5)):
            assert sub(free) is free
        assert sub._images == {}
        assert sub(p * reg.var("z")) == p * target


def test_compiled_substitution_errors(reg):
    # overflow and registry checks hold through a compiled map, and a
    # failed application leaves the map usable
    x, y, z = reg.var("x"), reg.var("y"), reg.var("z")
    square = Substitution(reg, {reg.sym("x"): x * x})
    assert square(reg.var("x") ** (2 ** 14 - 1)) == reg.var("x") ** (2 ** 15 - 2)
    with pytest.raises(ExponentOverflow, match="x"):
        square(reg.var("x") ** (2 ** 14))
    with pytest.raises(ExponentOverflow, match="x"):
        square(reg.var("x") ** (2 ** 14 - 1) * y + reg.var("x") ** (2 ** 14))
    assert square(x + y) == x * x + y
    merge = Substitution(reg, {reg.sym("x"): z, reg.sym("y"): z})
    with pytest.raises(ExponentOverflow, match="z"):
        merge(reg.var("x") ** 20000 * reg.var("y") ** 20000)
    assert merge(x * y) == z * z
    other = SymbolRegistry()
    with pytest.raises(RegistryMismatch):
        Substitution(reg, {reg.sym("x"): other.var("y")})
    with pytest.raises(RegistryMismatch):
        square(other.var("x"))
    with pytest.raises(RegistryMismatch):
        x.subst_many({reg.sym("x"): other.var("y")})


@pytest.fixture()
def products(monkeypatch):
    """The polynomial-by-polynomial products taken while the test runs."""
    seen = []
    real_mul = MPoly.__mul__

    def counting_mul(self, other):
        if isinstance(other, MPoly):
            seen.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counting_mul)
    return seen


@pytest.mark.parametrize("mapping, expected", [
    # x: 2, 4, 4^2 * x; 2 * 1 and 4 * 3; y: 2, 2^2 * y; x: 9 * 3; an
    # image of two symbols, such as x^2 * y^5, is a term table of their
    # powers, not a polynomial product
    ({"x": "x + 2*z", "y": "1 - y"}, [4, 2, 3, 1, 0]),
    # one-term targets: every term maps to one term, with no product
    ({"x": "-3*z^2", "y": "2*x*y"}, [0, 0, 0, 0, 0]),
], ids=["binomial", "monomial"])
def test_substitution_powers_from_held(reg, monkeypatch, products, mapping, expected):
    # a missing power is built from the powers held and kept: x^9 first
    # keeps x^2, x^4 and x^9, the gapped exponents after it take one
    # product each from those, and no power is expanded from scratch
    mapping = {reg.sym(name): reg.parse(expr) for name, expr in mapping.items()}
    polys = [reg.parse(text) for text in
             ("x^9", "x^3 + x^7", "x^2*y^5", "x^12 + 3*y^2*z", "x^9*y^5")]
    wants = [termwise_subst(p, mapping) for p in polys]

    def no_pow(self, n):
        raise AssertionError(f"power {n} expanded from scratch")

    monkeypatch.setattr(MPoly, "__pow__", no_pow)
    sub = Substitution(reg, mapping)
    steps = []
    for p, want in zip(polys, wants):
        del products[:]
        assert sub(p) == want
        steps.append(len(products))
    assert steps == expected


def test_substitution_builds_each_image_once(reg, monkeypatch, products):
    # the image of a monomial in the substituted symbols is built on its
    # first use and kept: a later call, on another polynomial with the
    # same monomials, builds none and takes no product
    built = []
    real_image = Substitution._image

    def counting_image(self, t):
        built.append(t)
        return real_image(self, t)

    mapping = {reg.sym("x"): reg.parse("x + z"), reg.sym("y"): reg.parse("-2*y")}
    first, second = reg.parse("x^2*y + x*y - 3"), reg.parse("5*x^2*y*d + x*y*z^2 + d")
    wants = [termwise_subst(p, mapping) for p in (first, second)]
    monomials = [reg.parse(m)._terms.popitem()[0] for m in ("x^2*y", "x*y", "1")]
    monkeypatch.setattr(Substitution, "_image", counting_image)
    sub = Substitution(reg, mapping)
    assert sub(first) == wants[0]
    assert sorted(built) == sorted(monomials) and sub._images.keys() == set(monomials)
    images = dict(sub._images)
    del built[:], products[:]
    assert sub(second) == wants[1]
    assert built == [] and products == []
    assert all(sub._images[t] is image for t, image in images.items())


@pytest.mark.parametrize("target, n", [("x*x + y", 1000), ("2", 30000)],
                         ids=["binomial", "constant"])
def test_substitution_lone_power_logarithmic(reg, products, target, n):
    # a lone high power is built by squaring: O(log n) products and
    # powers kept, also for a constant target, which the exponent guard
    # never refuses
    x = reg.sym("x")
    mapping = {x: reg.parse(target)}
    if target == "2":
        want = reg.const(2 ** n)
    else:
        # the binomial theorem: (x^2 + y)^n = sum_k C(n, k) x^(2k) y^(n-k)
        acc = {}
        for k in range(n + 1):
            _mac(acc, _term_list(reg.var("x") ** (2 * k) * reg.var("y") ** (n - k)),
                 _term_list(math.comb(n, k)))
        want = _finished(reg, acc)
    del products[:]
    sub = Substitution(reg, mapping)
    assert sub(reg.var("x") ** n) == want
    assert len(products) <= 2 * n.bit_length()
    assert len(sub._powers[x.index]) <= n.bit_length() + 1


def test_substitution_power_refused_before_expanding(reg, products):
    # n * deg(target) at EXPONENT_LIMIT is refused before any product
    # is taken, also when some powers are already held, and the powers
    # held stay usable after the refusal
    x, y = reg.var("x"), reg.var("y")
    target = x * x * y * -2
    sub = Substitution(reg, {reg.sym("x"): target})
    assert sub(reg.var("x") ** 3) == target * target * target
    del products[:]
    with pytest.raises(ExponentOverflow, match="16384"):
        sub(reg.var("x") ** (EXPONENT_LIMIT // 2))
    assert products == []
    assert sub(reg.var("x") ** 4) == target * target * target * target


@pytest.mark.parametrize("mapping", [
    {"x": "y", "y": "x"},
    {"x": "-x", "d2": "-d2"},
    {"x": "-2/3*y^2*z", "y": "3*x*z"},
    {"x": "5/2", "z": "0"},
    {"x": "-1", "y": "x^3", "z": "z"},
    {"x": "-y", "y": "y + 2*z"},
], ids=["swap", "sign", "monomials", "constants", "identity", "mixed"])
def test_one_term_targets_match_termwise_oracle(reg, products, mapping):
    # one-term targets map each term to one term, exactly as the term by
    # term expansion, and take no product; a mixed map, with a binomial
    # target, gives the same result
    mapping = {reg.sym(name): reg.parse(text) for name, text in mapping.items()}
    sub = Substitution(reg, mapping)
    rng = random.Random(19)
    names = ["x", "y", "z", "d2"]
    for _ in range(40):
        p = random_poly(reg, rng, names, max_degree=6, max_terms=8)
        want = termwise_subst(p, mapping)
        del products[:]
        assert sub(p) == want
        if all(target.num_terms() <= 1 for target in mapping.values()):
            assert products == []
    # terms that meet and cancel after the map
    x, y = reg.var("x"), reg.var("y")
    assert Substitution(reg, {reg.sym("x"): y, reg.sym("y"): x})(x * y * 2 - y * x) == x * y
    assert Substitution(reg, {reg.sym("x"): -y})(x + y) == 0


def test_one_term_power_refused_before_any_product(reg, products):
    # x -> y^2 on x^20000 is refused as its power would be, before any
    # product or key sum, and the message is the power's; so is an image
    # sum that reaches the guard bit, with the guard's message
    square = Substitution(reg, {reg.sym("x"): reg.parse("y^2")})
    merge = Substitution(reg, {reg.sym("x"): reg.var("z") ** 20000,
                               reg.sym("y"): reg.var("z") ** 20000})
    high, xy = reg.parse("x^20000 + x"), reg.parse("x*y")
    del products[:]
    with pytest.raises(ExponentOverflow, match="power 20000 takes an exponent 2 to 40000"):
        square(high)
    with pytest.raises(ExponentOverflow, match="exponent of z reaches"):
        merge(xy)
    assert products == []
    assert square(reg.parse("x^16383*z")) == reg.parse("y^32766*z")


def test_one_term_images_checked_after_each_key_sum(reg, products):
    # two images that meet in one field are checked before a third key
    # is added: z^40000 has its guard bit set, and adding z^30000 to it
    # would carry into the next field and leave no guard bit to find
    z20, z30 = reg.var("z") ** 20000, reg.var("z") ** 30000
    two = Substitution(reg, {reg.sym("x"): z20, reg.sym("y"): z20})
    three = Substitution(reg, {reg.sym(n): z30 for n in ("x", "y", "w")})
    # a zero image has no key to overflow, as a product with zero has none
    zero_first = Substitution(reg, {reg.sym("d"): 0, reg.sym("x"): z30, reg.sym("y"): z30})
    polys = [reg.parse(text) for text in
             ("x*y*z^30000", "x*y*w", "y*z^30000", "x + y", "d*x*y + 1")]
    del products[:]
    for sub, p in ((two, polys[0]), (three, polys[1]), (two, polys[2])):
        with pytest.raises(ExponentOverflow, match="exponent of z reaches"):
            sub(p)
    assert two(polys[3]) == z20 * 2
    assert zero_first(polys[4]) == 1
    assert products == []


def test_one_term_power_takes_no_product(reg, products):
    # a one-term base raised to n is one term, refused as any power
    base = reg.parse("-3/2*d1^2*x")
    del products[:]
    assert base ** 9 == poly_of(reg, {(0, 0, 0, 18, 0, 0, 9): Fraction(-3, 2) ** 9})
    assert reg.parse("d1^9") == reg.var("d1") ** 9
    assert reg.const(-2) ** 5 == -32
    assert products == []
    with pytest.raises(ExponentOverflow, match="power 16384 takes an exponent 2 to 32768"):
        base ** 16384


def test_exponent_overflow_guard(reg):
    x, y = reg.var("x"), reg.var("y")
    with pytest.raises(ExponentOverflow):
        reg.var("x") ** (2 ** 15)
    big = reg.var("x") ** (2 ** 14)
    assert (reg.var("x") ** (2 ** 14 - 1) * big).degree_in(reg.sym("x")) == 2 ** 15 - 1
    with pytest.raises(ExponentOverflow, match="x"):
        big * big
    with pytest.raises(ExponentOverflow):
        (x + y) * big * reg.var("x") ** (2 ** 14 - 1) * x
    with pytest.raises(ExponentOverflow):
        (x + 1) ** (2 ** 15)
    with pytest.raises(ExponentOverflow):
        (big + y) ** 2
    with pytest.raises(ExponentOverflow):
        big.subst_many({reg.sym("x"): x * x})
    z = reg.var("z")
    both = reg.var("x") ** 20000 * reg.var("y") ** 20000
    with pytest.raises(ExponentOverflow, match="z"):
        both.subst_many({reg.sym("x"): z, reg.sym("y"): z})
    assert reg.const(2) ** (2 ** 15) == 2 ** (2 ** 15)
    # a constant's exponent is never refused, however large
    for c in (-1, 0, 1):
        for k in (0, 1):
            assert reg.const(c) ** (2 ** 1100 + k) == c ** (2 ** 1100 + k)
    # A full field never spills into its neighbour.
    edge = reg.var("x") ** (2 ** 15 - 1) * reg.var("y") ** (2 ** 15 - 1)
    assert edge.degree_in(reg.sym("x")) == edge.degree_in(reg.sym("y")) == 2 ** 15 - 1


def test_parse_nesting_limit(reg):
    x = reg.var("x")
    at_limit = "(" * MAX_NESTING + "x + 1" + ")" * MAX_NESTING
    assert reg.parse(at_limit) == x + 1
    for depth in (MAX_NESTING + 1, 100000):
        with pytest.raises(ParseError, match="nest deeper") as err:
            reg.parse("(" * depth + "x" + ")" * depth)
        assert err.value.position == MAX_NESTING
    # siblings do not add up: the limit is on depth, not on count
    assert reg.parse(" + ".join(["(x)"] * 500)) == x * 500
    assert reg.parse("-" * 100001 + "x^2") == -(x * x)
    assert reg.parse("-" * 100000 + "x") == x


def test_parse_exponent_limit(reg):
    assert reg.parse(f"x^{2 ** 15 - 1}") == reg.var("x") ** (2 ** 15 - 1)
    with pytest.raises(ParseError, match="below 32768"):
        reg.parse("(x + 1)^70000")
    with pytest.raises(ParseError):
        reg.parse("2^32768")


# Properties ------------------------------------------------------------------

NAMES = ("d1", "d2", "d3", "x", "y", "z")


@st.composite
def polys(draw):
    reg = draw(st.shared(st.builds(SymbolRegistry), key="reg"))
    n_terms = draw(st.integers(0, 5))
    p = reg.zero()
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        term = reg.const(coeff)
        budget = 4
        for name in NAMES:
            e = draw(st.integers(0, budget))
            budget -= e
            if e:
                term = term * reg.var(name) ** e
        p = p + term
    return p


@settings(max_examples=200)
@given(polys(), polys(), polys(), st.integers(0, 3), st.integers(0, 3))
def test_ring_laws(p, q, r, a, b):
    reg = p.reg
    one = reg.const(1)
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + reg.zero() == p
    assert p * one == p
    assert p * reg.zero() == reg.zero()
    assert p ** 0 == one
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    assert p ** (a + b) == p ** a * p ** b


@settings(max_examples=100)
@given(polys(), polys(), polys())
def test_subst_commutes_when_disjoint(p, e1, e2):
    # Substitute d1 and d2 by expressions avoiding both; sequential order
    # must agree with the other sequential order (i.e. simultaneous).
    reg = p.reg
    s1, s2 = reg.sym("d1"), reg.sym("d2")
    f1 = e1.subst_many({s1: reg.zero(), s2: reg.zero()})
    f2 = e2.subst_many({s1: reg.zero(), s2: reg.zero()})
    seq = p.subst_many({s1: f1}).subst_many({s2: f2})
    sim = p.subst_many({s1: f1, s2: f2})
    assert seq == sim


# Fused multiply-accumulate ---------------------------------------------------

# The registry of _addends: 80 interned names, so s79 has the highest id,
# next to d1 (id 3); exponents are small or just below the limit.
_SUM_NAMES = ("d1", "s79")
_exponent = st.sampled_from((1, 2, 3) + tuple(EXPONENT_LIMIT - k for k in (1, 2, 3)))
_coefficient = st.sampled_from((1, -1, 2, -3)) | st.builds(
    Fraction, st.sampled_from((1, -1, 2, 4, -6)), st.integers(1, 3))


@st.composite
def _sum_poly(draw, reg):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = [0] * (reg.sym("s79").index + 1)
        for name in draw(st.lists(st.sampled_from(_SUM_NAMES), min_size=1, max_size=2,
                                  unique=True)):
            exps[reg.sym(name).index] = draw(_exponent)
        terms[tuple(exps)] = draw(_coefficient)
    return poly_of(reg, terms)


@st.composite
def _addends(draw):
    """(registry, [(a, b)]): b a polynomial or an int or Fraction scalar,
    each addend drawn with or without its exact negation."""
    reg = SymbolRegistry()
    for i in range(80):
        reg.sym(f"s{i}")
    out = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(_sum_poly(reg))
        b = draw(_sum_poly(reg) | _coefficient)
        out.append((a, b))
        if draw(st.booleans()):
            out.append((-a, b) if draw(st.booleans()) else (a, -b))
    return reg, out


def _exact_sum(addends) -> dict:
    """Sum of products on exponent tuples, with no exponent limit."""
    out = {}
    for a, b in addends:
        bterms = tuple_terms(b).items() if isinstance(b, MPoly) else [((), Fraction(b))]
        for ea, ca in tuple_terms(a).items():
            for eb, cb in bterms:
                n = max(len(ea), len(eb))
                key = tuple(x + y for x, y in zip(ea + (0,) * (n - len(ea)),
                                                  eb + (0,) * (n - len(eb))))
                out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _sum_of_products(addends) -> dict:
    """The term table that _mac fills with every product a * b."""
    acc = {}
    for a, b in addends:
        _mac(acc, _term_list(a), _term_list(b))
    return acc


@settings(max_examples=150, deadline=None)
@given(_addends())
def test_mac_table_matches_sum_of_products(drawn):
    # one table that _mac fills, once _finished, equals the sum of the
    # products, stores integral coefficients as ints and raises
    # ExponentOverflow exactly when a monomial that survives the sum
    # reaches the limit
    reg, addends = drawn
    acc = _sum_of_products(addends)
    want = _exact_sum(addends)
    if any(e >= EXPONENT_LIMIT for exps in want for e in exps):
        with pytest.raises(ExponentOverflow):
            _finished(reg, acc)
        return
    got = _finished(reg, acc)
    assert got == poly_of(reg, want)
    assert all(type(c) is int or c.denominator > 1 for c in got._terms.values())
    try:
        products = reg.zero()
        for a, b in addends:
            products = products + a * b
    except ExponentOverflow:
        pass  # a product overflows, but that monomial cancels in the sum
    else:
        assert got == products
    assert got._terms is acc  # _finished takes the table, with no copy


def test_mac_table_examples(reg):
    x, y = reg.var("x"), reg.var("y")
    got = _finished(reg, _sum_of_products([
        (x + y, x - y), (y, y), (x, Fraction(-2, 4)), (x, Fraction(1, 2)), (y, 0)]))
    assert got == x * x and got.to_string() == "x^2"
    got = _finished(reg, _sum_of_products([(x * Fraction(1, 3), 3)]))
    assert got._terms == {reg.var("x")._terms.popitem()[0]: 1}
    top = reg.var("x") ** (EXPONENT_LIMIT - 1)
    # an overflowing monomial that cancels is no overflow
    assert _finished(reg, _sum_of_products([(top, x), (top, -x), (top, 1)])) == top
    with pytest.raises(ExponentOverflow, match="of x reaches"):
        _finished(reg, _sum_of_products([(top, x + 1)]))


def test_parse_print_roundtrip(reg):
    rng = random.Random(11)
    for _ in range(200):
        p = random_poly(reg, rng, NAMES, max_degree=5, max_terms=6)
        assert reg.parse(p.to_string()) == p


def test_pow(reg):
    p = reg.parse("x + 1")
    assert p ** 0 == 1
    assert p ** 3 == reg.parse("x^3 + 3*x^2 + 3*x + 1")
    with pytest.raises(ValueError):
        p ** -1


def test_interning_bijective(reg):
    s1 = reg.sym("alpha")
    s2 = reg.sym("alpha")
    assert s1 == s2
    assert reg.name_of(s1.index) == "alpha"
    for bad in ("not valid!", "1x", "", "x\u00e9"):
        with pytest.raises(ValueError):
            reg.sym(bad)


def test_registry_core_table(reg):
    # every registry starts from the core table at fixed ids, with a guard
    # bit on each core field, and owns its copy of the table
    assert reg._names == list(CORE_SYMBOLS)
    for idx, name in enumerate(CORE_SYMBOLS):
        assert reg.sym(name) == Sym(name, idx)
        assert name in reg and reg.name_of(idx) == name
        with pytest.raises(ExponentOverflow, match=f"of {name} reaches"):
            reg.var(name) ** (EXPONENT_LIMIT - 1) * reg.var(name)
    fresh = reg.sym("fresh")
    assert fresh == Sym("fresh", len(CORE_SYMBOLS)) and reg.sym("fresh") is fresh
    with pytest.raises(ExponentOverflow, match="of fresh reaches"):
        reg.var("fresh") ** (EXPONENT_LIMIT - 1) * reg.var("fresh")
    other = SymbolRegistry()
    assert "fresh" not in other
    assert other._names == list(CORE_SYMBOLS)
    assert other.sym("elsewhere").index == len(CORE_SYMBOLS)
    assert "elsewhere" not in reg


def test_interning_concurrent(reg):
    import threading

    names = [f"sym_{i}" for i in range(50)]
    results = [[] for _ in range(8)]

    def worker(bucket):
        for name in names:
            bucket.append(reg.sym(name))

    threads = [threading.Thread(target=worker, args=(results[i],))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for bucket in results[1:]:
        assert bucket == results[0]
    assert len({s.index for s in results[0]}) == len(names)


def test_univariate_matches_sums(reg):
    # the packed-term constructor equals the sum of c * sym ** j, stores
    # integral values as ints and drops zeros
    for name in ("x", "fresh"):
        coeffs = {0: Fraction(3), 1: Fraction(-1, 2), 2: 0, 5: Fraction(4, 2)}
        p = reg.univariate(name, coeffs)
        s = reg.var(name)
        assert p == sum((s ** j * c for j, c in coeffs.items()), reg.zero())
        assert sorted(type(c).__name__ for c in p._terms.values()) == \
            ["Fraction", "int", "int"]
    assert reg.univariate("x", {}).is_zero()
    reg.univariate("x", {EXPONENT_LIMIT - 1: 1})
    for bad in (-1, EXPONENT_LIMIT):
        with pytest.raises(ExponentOverflow):
            reg.univariate("x", {bad: 1})
