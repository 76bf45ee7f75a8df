"""Finite-dimensional Lie algebras given by structure constants.

Provides the builtin sl2 basis (e, f, h with [e,f] = h, [h,e] = 2e,
[h,f] = -2f), automorphism matrices with their one constructor for sl2
(ad, conjugation X -> g X g^-1 by an invertible 2x2 matrix g) and their
one transport transform_tensor, and the rank test of a numeric 3x3
coefficient matrix.  A coefficient matrix is moved by an automorphism
as the two-tensor {(q, l): a_ql}, so transform_tensor gives
Phi M Phi^T.

Tensors over the Lie algebra are plain dicts mapping basis-name tuples
to scalars; scalars may be Fractions or parametric MPoly values.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .exactpoly import MPoly, _scalar

Scalar = Union[int, Fraction, MPoly]

_NO_BRACKET: Mapping[str, Fraction] = MappingProxyType({})


def is_zero_scalar(v: Scalar) -> bool:
    if isinstance(v, MPoly):
        return v.is_zero()
    return v == 0


def tensor_add(acc: dict, key: tuple, val: Scalar) -> None:
    cur = acc.get(key)
    new = val if cur is None else cur + val
    if is_zero_scalar(new):
        acc.pop(key, None)
    else:
        acc[key] = new


class LieAlg:
    """A Lie algebra over Q presented by structure constants.

    `table` holds the bracket of basis pairs: table[(i, j)] maps output
    basis names to rational coefficients, int-first (an int where the
    value is integral, a Fraction otherwise).  Antisymmetry and the Jacobi
    identity are verified exhaustively at construction.  The table and
    its rows are read-only views, so an algebra can be shared.
    """

    def __init__(self, names: Sequence[str], table: Mapping[tuple, Mapping[str, Scalar]]):
        self.names = tuple(names)
        full: dict[tuple, dict[str, Union[int, Fraction]]] = {}
        for (i, j), out in table.items():
            cleaned = {k: _scalar(v) for k, v in out.items() if v}
            if cleaned:
                full[(i, j)] = MappingProxyType(cleaned)
        self.table: Mapping[tuple, Mapping[str, Union[int, Fraction]]] = MappingProxyType(full)
        self._validate()

    def bracket_basis(self, i: str, j: str) -> Mapping[str, Union[int, Fraction]]:
        return self.table.get((i, j), _NO_BRACKET)

    def _validate(self) -> None:
        for i in self.names:
            for j in self.names:
                bij = self.bracket_basis(i, j)
                bji = self.bracket_basis(j, i)
                for k in set(bij) | set(bji):
                    if bij.get(k, Fraction(0)) != -bji.get(k, Fraction(0)):
                        raise ValueError(f"structure constants not antisymmetric at [{i},{j}]")
        for i, j, k in itertools.product(self.names, repeat=3):
            acc: dict[str, Fraction] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket_basis(a, b)
                for m, s in inner.items():
                    for l, s2 in self.bracket_basis(m, c).items():
                        acc[l] = acc.get(l, Fraction(0)) + s * s2
            if any(acc.values()):
                raise ValueError(f"Jacobi identity fails at ({i},{j},{k})")


@functools.cache
def sl2() -> LieAlg:
    """The standard basis e, f, h; built and validated once, then shared."""
    return LieAlg(
        ("e", "f", "h"),
        {
            ("e", "f"): {"h": 1},
            ("f", "e"): {"h": -1},
            ("h", "e"): {"e": 2},
            ("e", "h"): {"e": -2},
            ("h", "f"): {"f": -2},
            ("f", "h"): {"f": 2},
        },
    )


# Automorphisms ----------------------------------------------------------------


@dataclass
class AutMatrix:
    """Matrix of a Lie algebra automorphism; columns are basis images."""

    alg: LieAlg
    m: tuple[tuple[Scalar, ...], ...]

    def image(self, name: str) -> dict[str, Scalar]:
        j = self.alg.names.index(name)
        out = {}
        for i, row_name in enumerate(self.alg.names):
            v = self.m[i][j]
            if not is_zero_scalar(v):
                out[row_name] = v
        return out


def ad(g) -> AutMatrix:
    """Ad g: X -> g X g^-1 on sl2, for an invertible g = ((a, b), (c, d)).

    Every automorphism of sl2 is one of these.  The columns, the images
    of e, f and h, are

        e -> ( a^2 e - c^2 f - a c h) / det g
        f -> (-b^2 e + d^2 f + b d h) / det g
        h -> (-2 a b e + 2 c d f + (a d + b c) h) / det g.

    Entries may be MPoly when det g is a nonzero constant; number
    entries are int-first.  A singular g or a non-constant det raises
    ValueError.
    """
    (a, b), (c, d) = g
    det = a * d - b * c
    if isinstance(det, MPoly):
        if not det.is_constant():
            raise ValueError(f"det g must be a constant, got {det}")
        det = det.constant_value()
    if not det:
        raise ValueError("g must be invertible")
    inv = Fraction(1) / det

    def scaled(v: Scalar) -> Scalar:
        return v * inv if isinstance(v, MPoly) else _scalar(v * inv)

    m = (
        (a * a, -(b * b), -2 * a * b),
        (-(c * c), d * d, 2 * c * d),
        (-(a * c), b * d, a * d + b * c),
    )
    return AutMatrix(sl2(), tuple(tuple(scaled(v) for v in row) for row in m))


def transform_tensor(aut: AutMatrix, tensor: Mapping[tuple, Scalar]) -> dict[tuple, Scalar]:
    """Phi^{(x)n}: apply phi to every factor of a tensor of any arity.

    This is the one automorphism transport: the values may be int,
    Fraction or MPoly, so it serves constant tensors, coefficient
    matrices and the coefficients of conformal tensors alike.  Zero
    values are dropped.
    """
    images = {name: list(aut.image(name).items()) for name in aut.alg.names}
    out: dict[tuple, Scalar] = {}
    for tup, coeff in tensor.items():
        for combo in itertools.product(*(images[b] for b in tup)):
            c: Scalar = 1
            for _, v in combo:
                c = c * v
            tensor_add(out, tuple(name for name, _ in combo), coeff * c)
    return out


# Coefficient matrices -----------------------------------------------------------


def rank_le_1(rows) -> bool:
    """True iff every 2x2 minor of the numeric 3x3 matrix `rows` vanishes."""
    return not any(
        rows[r0][c0] * rows[r1][c1] - rows[r0][c1] * rows[r1][c0]
        for r0, r1 in itertools.combinations(range(3), 2)
        for c0, c1 in itertools.combinations(range(3), 2))
