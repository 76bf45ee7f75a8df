"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from packed monomials to nonzero coefficients.
A coefficient is a plain int when its denominator is 1 and a Fraction
otherwise, so integer work never pays for Fraction arithmetic.  Values
are made int-first where they enter (constants, variables, univariate
polynomials and scalar multiples) and in finished term tables; a sum or
product of two MPolys is stored as it comes, since an integral Fraction
compares, hashes and prints exactly like the int.  All arithmetic is
exact; there is no floating-point mode anywhere.  MPoly(reg, terms) is
the one constructor: it takes canonical packed terms as they are, which
the registry's constructors and the arithmetic build.
constant_value() returns a Fraction.

A monomial is packed into one Python int with a 16-bit field per symbol:
field i (bits 16*i to 16*i + 15) holds the exponent of symbol id i, so a
monomial product is one integer addition and the constant monomial is 0
(after Monagan & Pearce, "Sparse polynomial multiplication and division
in Maple 14", 2009).  The top bit of every field is a guard bit: an
exponent must stay below 2**15, products and substitutions check their
result against the registry's guard mask, and a field that reaches the
guard bit raises ExponentOverflow instead of wrapping into its
neighbour.

Substitution is the one substitution path: a map {symbol: polynomial}
is compiled once and applied to any number of polynomials; MPoly.subst_many
compiles a map for a single use.  The cost model: one loop over the
terms, in which each term's monomial in the substituted symbols looks
up its image, built once per map and kept, and the image's terms are
added, shifted and scaled, into one table.  A power of a one-term
polynomial c * m is the one term c ** n * m ** n, one key product and
one scalar power, with no polynomial product; so when every target of a
map is one term (a rename, a sign flip, a constant), every image is one
term built by key arithmetic alone.  Any other target keeps the powers
it has built, and a missing power n is built from them: as power(m) *
power(n - m) from the highest power m held below n when 2m >= n, else
by squaring, so no power is expanded from scratch and a lone high power
costs O(log n) products; MPoly.__pow__ builds a power the same way,
through the same function.  A power that would take an exponent to
EXPONENT_LIMIT is refused before the first product or key sum.  Callers
that apply one map to many polynomials (a tensor's coefficients) build
it once; a map whose symbols and targets are core symbols is compiled
over CORE_REGISTRY, kept in conformal's one store of algebra tables
(conformal.ConfAlgebra.memo) and serves every polynomial of every
registry.

_mac is the one product loop: it adds the product of two term lists
into a table of terms, and a product of two polynomials and a
substitution's images go through it.  A filled table becomes a polynomial
through one helper, _finished: one guard check, integral Fractions made
ints, no copy.  So a sum of products is one table that _mac fills, with
no polynomial built per product, and _term_list gives a polynomial's
or a scalar's terms (v as the one term ((0, v),)).  The tensor code (the
double bracket's contraction tables and outputs, the Leibniz sum of an
action) keeps many tables at once; a catalog difference
(ybe.catalog_diffs) is one table, started from the raw projection's
terms, into which the stored identity's products go scaled.

Symbols are interned in a SymbolRegistry (append-only, synchronized).
A registry starts from a prebuilt table of the core symbols, and a
lookup of a name already interned takes no lock.  Two polynomials may
only be combined when they share the same registry object; mixing
registries raises RegistryMismatch.  The one exception is a
Substitution over CORE_REGISTRY, the sealed registry that holds the
core symbols alone and interns no other name: it applies to a
polynomial of any registry.  A core symbol has the same id and guard
bit in every registry, and such a map's images hold core fields only,
so the result is the same polynomial, in the argument's registry, that
the map compiled over that registry gives.

The text grammar accepted by parse_poly:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT ('/' INT)? | SYMBOL | '(' expr ')'

An INT is [0-9]+ in ASCII, as a SYMBOL's letters and digits are, and no
longer than int() reads from text (4,300 digits by default); a longer
literal is a ParseError at its start.  A SYMBOL must already be
interned in the registry.  Exponents must be
nonnegative integer literals below 2**15, parentheses nest at most
MAX_NESTING deep, and implicit multiplication is not allowed.  With a
degree limit, a power or product that would exceed it in some symbol is
refused before it is expanded.
The canonical printer emits terms in descending graded-lexicographic
order with explicit '*', and parse(print(p)) == p.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Mapping, Optional, Union

Scalar = Union[int, Fraction]

_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
EXPONENT_LIMIT = 1 << (_FIELD - 1)  # the guard bit of a field
# Deepest parenthesis nesting parse_poly accepts: each level costs four
# frames of its recursive descent.
MAX_NESTING = 100


class RegistryMismatch(ValueError):
    """Operands do not share a symbol registry."""


class ExponentOverflow(OverflowError):
    """An exponent reached EXPONENT_LIMIT, the packed-field guard bit."""


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Sym:
    """An interned symbol: equal names always map to equal ids."""

    name: str
    index: int


# Symbols every registry starts with, in a fixed order so that canonical
# printing and golden files are stable across runs.
CORE_SYMBOLS = (
    "d", "lam", "mu", "d1", "d2", "d3", "x", "y", "z", "t",
    "alpha", "beta", "gamma", "zeta", "lhh",
)

_CORE_SYMS = {name: Sym(name, idx) for idx, name in enumerate(CORE_SYMBOLS)}
_CORE_GUARD = sum(EXPONENT_LIMIT << (_FIELD * idx) for idx in range(len(CORE_SYMBOLS)))

_DIGITS = frozenset("0123456789")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | _DIGITS


def _scalar(value) -> Scalar:
    """`value` as an exact coefficient: int if integral, else Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _ints_first(terms: dict) -> dict:
    """Turn integral Fraction values of `terms` into ints, in place."""
    for key, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[key] = c.numerator
    return terms


def _unpack(key: int) -> tuple:
    """Exponent tuple of a packed monomial, trailing zeros stripped."""
    n = (key.bit_length() + _FIELD - 1) // _FIELD
    return struct.unpack(f"<{n}H", key.to_bytes(2 * n, "little"))


def _mac(out: dict, a_terms, b_terms) -> None:
    """Add the product of two term lists, as (packed key, coefficient)
    pairs, into the table `out`, dropping a key whose sum cancels.  The
    caller checks the guard mask of the result."""
    get = out.get
    for ea, ca in a_terms:
        for eb, cb in b_terms:
            key = ea + eb
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]


def _term_list(value) -> tuple:
    """A polynomial's terms as a term list for _mac, or a scalar v as the
    one term ((0, v),) (no term for 0)."""
    if isinstance(value, MPoly):
        return tuple(value._terms.items())
    c = _scalar(value)
    return ((0, c),) if c else ()


def _finished(reg: "SymbolRegistry", terms: dict) -> "MPoly":
    """The polynomial of a term table that _mac filled, taking the table
    as its terms: the guard mask is checked once and integral Fractions
    become ints.

    One check at the end is enough when every factor _mac multiplied has
    each field below EXPONENT_LIMIT: the key of a product term, the sum
    of two such keys, has each field below 2 * EXPONENT_LIMIT and never
    carries into its neighbour.  A table key is therefore the exact
    exponent vector of its monomial, and a monomial whose exponent
    reaches the limit either keeps its guard bit to the end, where this
    check raises ExponentOverflow, or cancels exactly and is gone from
    the sum as well.
    """
    reg._check_guard(terms)
    return MPoly(reg, _ints_first(terms))


class SymbolRegistry:
    """Append-only bijective interning of symbol names to integer ids.

    Every registry starts with CORE_SYMBOLS at ids 0-14, copied from one
    prebuilt table.  A name already interned is a single dict lookup;
    only a new name is validated and interned under the lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._names: list[str] = list(CORE_SYMBOLS)
        self._syms: dict[str, Sym] = dict(_CORE_SYMS)
        self._guard = _CORE_GUARD  # guard bit of every interned symbol's field

    def sym(self, name: str) -> Sym:
        """Return the Sym for `name`, interning it if new."""
        found = self._syms.get(name)
        if found is not None:
            return found
        if not name or name[0] not in _NAME_START or not _NAME_CONT.issuperset(name):
            raise ValueError(f"invalid symbol name {name!r}")
        with self._lock:
            found = self._syms.get(name)
            if found is None:
                idx = len(self._names)
                self._names.append(name)
                self._guard |= EXPONENT_LIMIT << (_FIELD * idx)
                # published last, so a lock-free lookup never sees a
                # symbol whose field the guard mask does not yet cover
                found = self._syms[name] = Sym(name, idx)
        return found

    def name_of(self, index: int) -> str:
        return self._names[index]

    def __contains__(self, name: str) -> bool:
        return name in self._syms

    def _check_guard(self, keys: Iterable[int]) -> None:
        """Raise ExponentOverflow if any packed key sets a guard bit."""
        hit = reduce(or_, keys, 0) & self._guard
        if hit:
            name = self.name_of((hit.bit_length() - 1) // _FIELD)
            raise ExponentOverflow(
                f"exponent of {name} reaches {EXPONENT_LIMIT}, the packed-field limit")

    # Polynomial constructors -------------------------------------------------

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def const(self, value: Scalar) -> "MPoly":
        c = _scalar(value)
        return MPoly(self, {0: c} if c else {})

    def var(self, name_or_sym: Union[str, Sym]) -> "MPoly":
        sym = name_or_sym if isinstance(name_or_sym, Sym) else self.sym(name_or_sym)
        return MPoly(self, {1 << (_FIELD * sym.index): 1})

    def univariate(self, name_or_sym: Union[str, Sym],
                   coeffs: Mapping[int, Scalar]) -> "MPoly":
        """The sum of c * sym ** j over the items (j, c) of `coeffs`,
        built straight from its packed terms."""
        sym = name_or_sym if isinstance(name_or_sym, Sym) else self.sym(name_or_sym)
        shift = _FIELD * sym.index
        terms: dict[int, Scalar] = {}
        for j, coeff in coeffs.items():
            if not 0 <= j < EXPONENT_LIMIT:
                raise ExponentOverflow(
                    f"exponent {j} of {sym.name} is not in [0, {EXPONENT_LIMIT})")
            c = _scalar(coeff)
            if c:
                terms[j << shift] = c
        return MPoly(self, terms)

    def parse(self, text: str, max_degree: Optional[int] = None) -> "MPoly":
        return parse_poly(text, self, max_degree=max_degree)


class _SealedRegistry(SymbolRegistry):
    """A registry of the core symbols that refuses every other name."""

    def sym(self, name: str) -> Sym:
        found = self._syms.get(name)
        if found is None:
            raise ValueError(f"the core registry interns no new symbol ({name!r})")
        return found


# The registry of the tables that depend on an algebra alone: their maps
# and terms read only core symbols, which mean the same in every registry.
CORE_REGISTRY = _SealedRegistry()


class MPoly:
    """Immutable sparse polynomial over the rationals.

    `_terms` maps packed monomials (one int, a 16-bit exponent field per
    symbol id) to nonzero coefficients, ints where they enter integral
    and Fractions otherwise.  Every stored field stays below EXPONENT_LIMIT,
    so the sum of two keys never carries between fields; the guard bit
    turns an overflow into ExponentOverflow.
    """

    __slots__ = ("reg", "_terms", "_hash")

    def __init__(self, reg: SymbolRegistry, terms: dict):
        # terms must be canonical: guard-clean packed keys, nonzero
        # int-or-Fraction values; the dict becomes the polynomial's own
        self.reg = reg
        self._terms = terms
        self._hash: Optional[int] = None

    # Introspection ----------------------------------------------------------

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises otherwise)."""
        if not self._terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self._terms[0])
        raise ValueError(f"not a constant polynomial: {self}")

    def degree_in(self, sym: Sym) -> int:
        if not self._terms:
            return -1
        shift = _FIELD * sym.index
        return max((key >> shift) & _FIELD_MASK for key in self._terms)

    def symbols(self) -> set[Sym]:
        used = _unpack(reduce(or_, self._terms, 0))
        return {Sym(self.reg.name_of(i), i) for i, e in enumerate(used) if e}

    # Arithmetic --------------------------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.reg is not other.reg:
            raise RegistryMismatch("operands use different symbol registries")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.reg.const(other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return MPoly(self.reg, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.reg, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.reg.const(other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _scalar(other)
            if not c:
                return self.reg.zero()
            return MPoly(self.reg, _ints_first(
                {e: k * c for e, k in self._terms.items()}))
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        out: dict[int, Scalar] = {}
        _mac(out, self._terms.items(), other._terms.items())
        self.reg._check_guard(out)
        return MPoly(self.reg, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponents are not supported")
        if n == 0:
            return self.reg.const(1)
        return _power_from({1: self}, n, self._top())

    def _top(self) -> int:
        """The highest exponent of any symbol in any term, 0 for a
        constant: over Q, deg_s(p**n) = n * deg_s(p), so n * top decides
        whether p ** n reaches EXPONENT_LIMIT before anything is
        expanded."""
        return max((max(_unpack(key), default=0) for key in self._terms), default=0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.reg.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.reg is other.reg and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # Substitution ------------------------------------------------------------

    def subst_many(self, mapping: Mapping[Sym, "MPoly"]) -> "MPoly":
        """Simultaneous substitution of several symbols."""
        return Substitution(self.reg, mapping)(self)

    # Structure ---------------------------------------------------------------

    def as_univariate_in(self, sym: Sym) -> dict[int, "MPoly"]:
        """Split into {degree in sym: coefficient polynomial (sym-free)}."""
        shift = _FIELD * sym.index
        keep = ~(_FIELD_MASK << shift)
        buckets: dict[int, dict[int, Scalar]] = {}
        for key, coeff in self._terms.items():
            e = (key >> shift) & _FIELD_MASK
            buckets.setdefault(e, {})[key & keep] = coeff
        return {deg: MPoly(self.reg, terms) for deg, terms in buckets.items()}

    # Printing ----------------------------------------------------------------

    def to_string(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        rows = sorted(((_unpack(key), c) for key, c in self._terms.items()),
                      key=lambda row: (sum(row[0]), row[0]), reverse=True)
        for exps, coeff in rows:
            syms = [
                self.reg.name_of(i) + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            mag = abs(coeff)
            if not syms:
                body = str(mag)
            elif mag == 1:
                body = "*".join(syms)
            else:
                body = "*".join([str(mag)] + syms)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"MPoly({self.to_string()})"


class Substitution:
    """A simultaneous substitution, compiled once and applied to many
    polynomials of one registry: `Substitution(reg, {sym: expr})(p)`.
    One compiled over CORE_REGISTRY applies to a polynomial of any
    registry and returns a polynomial of that registry (see the module
    docstring).

    One loop maps every term.  A term a * m_t * q, with m_t its part in
    the substituted symbols and q free of them, goes to a * image(m_t) *
    q: the image's term list, with each key shifted by the key of q and
    each coefficient times a, is added into one output table.  The image
    of each monomial m_t = prod s_i ** e_i is built once, on its first
    use, and kept in the object (`_images`): the product of the powers
    target_i ** e_i, taken in a _mac table and guard-checked after each
    factor, so that no factor's key sum can carry into a neighbouring
    field.  A one-term target c * m (a rename, a sign flip, a monomial,
    a constant) has the one-term power c ** e * m ** e, and a zero
    target the power zero (see _power_from), so an image of such
    targets is one term, or none, built by key arithmetic with no
    polynomial product.

    Each power of a target of two or more terms is kept for the lifetime
    of the object, and a missing power n is built from the highest power
    m < n of that target already held: as power(m) * power(n - m) when
    2m >= n, else as power(n // 2) squared (times the target for odd
    n), each factor found or built the same way.  So rising exponents,
    odd-only or gapped ones (x * f(x^2)) included, cost about one
    product per new power, a lone power n costs O(log n) products and
    keeps O(log n) powers, and no power is expanded from scratch.  The
    powers and images belong to the object and are bounded by the
    monomials it has seen: a map may live as long as the process, in
    conformal's store (see conformal.ConfAlgebra.memo), or be built for
    one tensor and dropped.

    A power whose exponent would reach EXPONENT_LIMIT is refused before
    any product or key sum takes it, against the top exponent of its
    target, found once when the map is compiled, and a polynomial in
    which no term has a substituted symbol (one OR over its keys tells)
    is returned as it is: the same object, with no copy.
    """

    __slots__ = ("reg", "_shifts", "_cleared", "_powers", "_images")

    def __init__(self, reg: SymbolRegistry, mapping: Mapping[Sym, Union[MPoly, Scalar]]):
        self.reg = reg
        powers: dict[int, dict[int, MPoly]] = {}  # powers[idx][n]: target ** n
        for sym, expr in mapping.items():
            if not isinstance(expr, MPoly):
                expr = reg.const(expr)
            elif expr.reg is not reg:
                raise RegistryMismatch("operands use different symbol registries")
            if reg._syms.get(sym.name) != sym:
                raise RegistryMismatch(f"symbol {sym.name} is not interned in the registry")
            powers[sym.index] = {1: expr}
        self._powers = powers
        # (symbol id, field shift, top exponent of the target) per symbol
        self._shifts = [(idx, _FIELD * idx, powers[idx][1]._top()) for idx in sorted(powers)]
        self._cleared = reduce(or_, (_FIELD_MASK << shift for _, shift, _ in self._shifts), 0)
        self._images: dict[int, tuple] = {}  # monomial m_t: the terms of its image

    def __call__(self, p: MPoly) -> MPoly:
        reg = p.reg
        if reg is not self.reg and self.reg is not CORE_REGISTRY:
            raise RegistryMismatch("operands use different symbol registries")
        cleared = self._cleared
        if not reduce(or_, p._terms, 0) & cleared:
            return p  # no term has a substituted symbol
        images = self._images
        out: dict[int, Scalar] = {}
        get = out.get
        for key, coeff in p._terms.items():
            t = key & cleared
            image = images.get(t)
            if image is None:
                image = images[t] = self._image(t)
            key ^= t
            for k, c in image:
                k += key
                s = get(k, 0) + coeff * c
                if s:
                    out[k] = s
                else:
                    del out[k]
        reg._check_guard(out)
        return MPoly(reg, out)

    def _image(self, t: int) -> tuple:
        """The terms of the image of the monomial t in the substituted
        symbols: the held power of its first factor as it is, times the
        power of each further factor through _mac, with a guard check
        after each product."""
        image = None
        for idx, shift, top in self._shifts:
            e = (t >> shift) & _FIELD_MASK
            if e:
                held = self._powers[idx]
                pw = held.get(e)
                if pw is None:
                    pw = _power_from(held, e, top)
                if image is None:
                    image = tuple(pw._terms.items())
                else:
                    acc: dict[int, Scalar] = {}
                    _mac(acc, image, pw._terms.items())
                    self.reg._check_guard(acc)
                    image = tuple(acc.items())
        return ((0, 1),) if image is None else image


def _power_from(held: dict[int, MPoly], n: int, top: int) -> MPoly:
    """base ** n for n >= 1, with `held` the powers of base built so far
    ({k: base ** k}, with base at 1) and `top` base's highest exponent
    (MPoly._top): the one power path of ** and Substitution.  A zero
    base is its own power.  A power that would take an exponent to
    EXPONENT_LIMIT is refused first.  A one-term base c * m gives the
    one term c ** n * m ** n, with no product; any other base is built
    from held by _build_power, which keeps every power it builds there."""
    base = held[1]
    if not base._terms:
        return base
    if n * top >= EXPONENT_LIMIT:
        raise ExponentOverflow(
            f"power {n} takes an exponent {top} to {n * top}, not below {EXPONENT_LIMIT}")
    if len(base._terms) == 1:
        ((k, c),) = base._terms.items()
        return MPoly(base.reg, {k * n: c ** n})
    return _build_power(held, n)


def _build_power(held: dict[int, MPoly], n: int) -> MPoly:
    """target ** n from the powers in `held` ({k: target ** k}, with 1),
    keeping in it every power built.  Each recursion at most halves n."""
    pw = held.get(n)
    if pw is None:
        m = max(k for k in held if k < n)
        if 2 * m >= n:
            pw = held[m] * _build_power(held, n - m)
        else:
            half = _build_power(held, n // 2)
            pw = half * half
            if n % 2:
                pw = pw * held[1]
        held[n] = pw
    return pw


# Parsing ---------------------------------------------------------------------


class _Parser:
    """Recursive descent over the module docstring's grammar, one method
    per rule.

    It holds the text and the position in it, the registry, the degree
    limit and the number of open parentheses; the methods reach one
    another through the instance, so a parse leaves no reference cycle.
    """

    def __init__(self, text: str, reg: SymbolRegistry, max_degree: Optional[int]):
        self.text = text
        self.pos = 0
        self.reg = reg
        self.max_degree = max_degree
        self.depth = 0  # open parentheses

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> Optional[str]:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take_int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # ASCII digits always read, so this is int()'s limit on the
            # length of decimal text (4,300 digits by default)
            raise ParseError(f"integer literal of {self.pos - start} digits is longer "
                             f"than int() reads", start) from None

    def take_name(self) -> str:
        self._skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _NAME_START:
            raise ParseError("expected a symbol", start)
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CONT:
            self.pos += 1
        return self.text[start : self.pos]

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def bound(self, here: int, degs: dict) -> None:
        for name, d in sorted(degs.items()):
            if d > self.max_degree:
                raise ParseError(
                    f"degree {d} in {name} is above the limit {self.max_degree}", here)

    def expr(self) -> MPoly:
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = node + self.term()
            elif ch == "-":
                self.pos += 1
                node = node - self.term()
            else:
                return node

    def term(self) -> MPoly:
        node = self.factor()
        while self.peek() == "*":
            here = self.pos
            self.pos += 1
            rhs = self.factor()
            if self.max_degree is not None and node and rhs:
                left, right = _degrees(node), _degrees(rhs)
                self.bound(here, {name: left.get(name, 0) + right.get(name, 0)
                                  for name in left.keys() | right.keys()})
            node = node * rhs
        return node

    def factor(self) -> MPoly:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if self.peek() not in _DIGITS:
                raise ParseError("exponent must be a nonnegative integer literal", self.pos)
            here = self.pos
            n = self.take_int()
            if n >= EXPONENT_LIMIT:
                raise ParseError(f"exponent must be below {EXPONENT_LIMIT}", here)
            if self.max_degree is not None:
                self.bound(here, {name: n * d for name, d in _degrees(node).items()})
            node = node ** n
        return -node if negate else node

    def atom(self) -> MPoly:
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", self.pos)
            self.depth += 1
            self.pos += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if ch in _DIGITS:
            num = self.take_int()
            if self.peek() == "/":
                self.pos += 1
                here = self.pos
                den = self.take_int()
                if den == 0:
                    raise ParseError("zero denominator", here)
                return self.reg.const(Fraction(num, den))
            return self.reg.const(num)
        if ch in _NAME_START:
            here = self.pos
            name = self.take_name()
            if name not in self.reg:
                raise ParseError(f"unknown symbol {name!r}", here)
            return self.reg.var(name)
        raise ParseError(f"unexpected character {ch!r}", self.pos)


def _degrees(p: MPoly) -> dict:
    return {sym.name: p.degree_in(sym) for sym in p.symbols()}


def parse_poly(text: str, reg: SymbolRegistry,
               max_degree: Optional[int] = None) -> MPoly:
    """Parse an expression into an MPoly over `reg`.

    An unknown symbol raises ParseError.  With max_degree set, every
    power and product keeps the degree in each symbol at most
    max_degree, or raises ParseError before it is computed: over Q,
    deg_s(p**n) = n * deg_s(p) and deg_s(p*q) = deg_s(p) + deg_s(q), and
    sums never raise a degree, so the result and every step towards it
    stay within the limit.  Parentheses nest at
    most MAX_NESTING deep, so the recursive descent stays far below
    Python's recursion limit; a unary minus is a loop, not a recursion.
    """
    parser = _Parser(text, reg, max_degree)
    result = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"unexpected trailing input {parser.peek()!r}", parser.pos)
    return result
