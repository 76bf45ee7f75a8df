"""Lambda-bracket calculus on free conformal algebras of finite type.

An algebra is a free module over the polynomials in D on its basis, the
generators.  Two algebra kinds are supported:

  * the current algebra over a structure-constant Lie algebra, with
    bracket  [f(D)a _lam g(D)b] = f(-lam) g(lam + D) [a, b];
  * the Virasoro algebra on one generator v, with [v _lam v] = (D + 2 lam) v.

Tensor powers are maps from basis tuples to polynomials in the slot
symbols d1..dN (plus any parameter symbols).  The left action of a
generator on a tensor is the Leibniz sum over slots: acting on slot i
shifts di by the bracket variable's value and inserts the basis-level
bracket.  That value is a polynomial, not a fresh symbol: a free
variable for the module axioms, or -(d1 + ... + dN) (minus the tensor's
`total()`) to read the action modulo the total derivation in one pass.
Only generators act: by sesquilinearity an element g(D)a acts as
g(-lam) times a's action, so every check that asks all elements to act
asks the generators.  act_on_tensor acts with a list of generators,
named, on one tensor, and they share the shifts: each (tuple, slot)
coefficient is moved by its slot's shift di -> di + lam (an
exactpoly.Substitution) once and multiplied by every generator's
inserted bracket.  Each output coefficient is a plain term table: the
Leibniz sum adds its products there through exactpoly._mac, with no
polynomial built per product, and exactpoly._finished makes each table
a polynomial once.

The tables that depend on the structure alone live in one store for the
whole process, keyed by (kind, Lie algebra, key): `ConfAlgebra.memo`
builds a table on first use, and every algebra of that kind and Lie
algebra, over any registry, reads the same one.  Each table is built
over the sealed exactpoly.CORE_REGISTRY and reads only core symbols,
which have the same ids in every registry, so a map kept there applies
to every registry's polynomials (see exactpoly.Substitution) and the
store pins no registry.  act_on_tensor keeps there, per (arity, the
terms of lam, generator names), its slot shifts with the powers of
di + lam they have built and its inserted-bracket rows; ybe keeps there
one map d1 -> form per form (which the double bracket, the catalog's
equations and the invariance check share), the contraction plans, the
diagonal's map and the lift map.  So each table is built once per
process, whichever registry or algebra asks first.  The keys come from
fixed sets (the catalog forms, the wanted-triple sets, the arities and
the core values of lam), and a map's images and powers grow only with
the monomials in its substituted symbols, which the degree limits bound.

The quotient by the image of the total derivation is read with
d1 := -(d2 + ... + dN).  No tensor-wide reduction, sum or slot swap
is provided: the double bracket is built in the quotient directly
(ybe.ccybe_bracket builds only its class), the invariance check reads
each entry's diagonal (ybe.diagonal), and an action at
-(d1 + ... + dN) reads only the class of the tensor it acts on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional, Sequence

from .exactpoly import (
    CORE_REGISTRY, CORE_SYMBOLS, MPoly, RegistryMismatch, Substitution, SymbolRegistry, _FIELD,
    _finished, _mac, _term_list,
)
from .liealg import LieAlg, Scalar

# The algebra tables of the process, keyed (kind, Lie algebra, key).
_TABLES: dict = {}
# A packed key below this reads core symbols only.
_CORE_END = 1 << (_FIELD * len(CORE_SYMBOLS))


class ConfAlgebra:
    """A current or Virasoro conformal algebra over a shared registry."""

    def __init__(self, kind: str, reg: SymbolRegistry, lie: Optional[LieAlg] = None):
        if kind not in ("cur", "vir"):
            raise ValueError(f"unknown conformal algebra kind {kind!r}")
        if kind == "cur" and lie is None:
            raise ValueError("current algebra requires a Lie algebra")
        self.kind = kind
        self.reg = reg
        self.lie = lie

    def memo(self, key, build):
        """The table of this algebra's kind and Lie algebra under `key`,
        made by `build()` on first use and kept in the process's store.

        A key must name everything the table depends on besides the
        kind and the Lie algebra.  A table is built over CORE_REGISTRY:
        it holds no algebra, tensor or polynomial of another registry,
        so it serves every registry and keeps none alive.  A table is a
        function of its key alone, so if two threads miss at once and
        both build it (or fill the same part of it), either copy serves.
        """
        full = (self.kind, self.lie, key)
        table = _TABLES.get(full)
        if table is None:
            table = _TABLES[full] = build()
        return table

    @classmethod
    def cur(cls, lie: LieAlg, reg: SymbolRegistry) -> "ConfAlgebra":
        return cls("cur", reg, lie)

    @classmethod
    def vir(cls, reg: SymbolRegistry) -> "ConfAlgebra":
        return cls("vir", reg)

    @property
    def basis_names(self) -> tuple[str, ...]:
        return self.lie.names if self.kind == "cur" else ("v",)

    def basis_bracket(self, p: str, q: str, d: MPoly, lam: MPoly) -> Mapping[str, Scalar]:
        """Bracket of basis generators with the derivation on the result's
        slot read as `d` and the bracket variable as `lam`.

        A current algebra's bracket is the structure constant, a scalar
        from the read-only `LieAlg.bracket_basis` row; the Virasoro
        bracket is the polynomial d + 2 lam.
        """
        if self.kind == "cur":
            return self.lie.bracket_basis(p, q)
        return {"v": d + lam * 2}


@dataclass
class ConfTensor:
    """Element of the N-th tensor power, coefficients in d1..dN."""

    alg: ConfAlgebra
    arity: int
    entries: dict[tuple, MPoly]

    def __post_init__(self):
        cleaned = {}
        names = self.alg.basis_names
        reg = self.alg.reg
        for tup, poly in self.entries.items():
            if len(tup) != self.arity:
                raise ValueError(f"tuple {tup} has wrong arity")
            for name in tup:
                if name not in names:
                    raise ValueError(f"unknown basis element {name!r}")
            if poly.reg is not reg:
                raise RegistryMismatch(f"entry {tup} is over another symbol registry")
            if not poly.is_zero():
                cleaned[tup] = poly
        self.entries = cleaned

    def is_zero(self) -> bool:
        return not self.entries

    def total(self) -> MPoly:
        """The total derivation d1 + ... + dN on this tensor's slots,
        built straight from its packed terms."""
        reg = self.alg.reg
        return MPoly(reg, {1 << _FIELD * reg.sym(f"d{i + 1}").index: 1
                           for i in range(self.arity)})


def act_on_tensor(names: Sequence[str], t: ConfTensor, lam: MPoly) -> list[ConfTensor]:
    """Leibniz action of the generators `names` on a tensor, with the
    bracket variable at `lam`.

    On the acted slot i the coefficient argument di shifts to di + lam,
    and the basis-level bracket is inserted with its d read as di and
    its lam as `lam`.  Substituting before the products is a ring
    homomorphism, so acting at -t.total() equals acting at a free
    variable and eliminating it afterwards.  An element g(D)a acts as
    g(-lam) times a's action (sesquilinearity), so the generators'
    actions are all there is to compute.

    Returns the actions of `names` in order; a name that is no basis
    element raises ValueError.  The generators share the shifts: each
    (tuple, slot) coefficient is moved by its slot's shift once, if any
    generator has a nonzero bracket with that slot's basis element, and
    every such generator multiplies the same shifted coefficient.  The
    shifts and the factor rows (see _action_table) are kept in the store
    under lam's terms, so -t.total() over any registry is one key.  A
    lam or a slot variable that is no core symbol (arity above 3) gets
    a table for this call only.
    """
    alg = t.alg
    names = tuple(names)
    if max(lam._terms, default=0) < _CORE_END and f"d{t.arity}" in CORE_REGISTRY:
        table = alg.memo(("act_on_tensor", t.arity, frozenset(lam._terms.items()), names),
                         partial(_action_table, alg, names, t.arity,
                                 MPoly(CORE_REGISTRY, lam._terms)))
    else:
        table = _action_table(alg, names, t.arity, lam)
    outs = [{} for _ in names]
    for tup, coeff in t.entries.items():
        for i, b in enumerate(tup):
            shift, row = table[b, i]
            if not row:
                continue
            shifted = shift(coeff)._terms.items()
            for j, k, f in row:
                out = outs[j]
                acted = tup[:i] + (k,) + tup[i + 1:]
                terms = out.get(acted)
                if terms is None:
                    terms = out[acted] = {}
                _mac(terms, f, shifted)
    reg = alg.reg
    return [ConfTensor(alg, t.arity, {tup: _finished(reg, terms)
                                      for tup, terms in out.items() if terms})
            for out in outs]


def _action_table(alg: ConfAlgebra, names: tuple, arity: int, lam: MPoly) -> dict:
    """act_on_tensor's table for the generators `names` acting at `lam`
    on tensors of `arity`.

    Per (basis element b, slot i): di's shift di -> di + lam, and the
    row of (j, k, f): f is the term list of the nonzero k component of
    [g _lam b], g the generator names[j].  The table is over lam's
    registry.  A name that is no basis element raises ValueError, so no
    table is kept for it.
    """
    for g in names:
        if g not in alg.basis_names:
            raise ValueError(f"unknown generator {g!r}")
    reg = lam.reg
    table = {}
    for i in range(arity):
        di_sym = reg.sym(f"d{i + 1}")
        di = reg.var(di_sym)
        shift = Substitution(reg, {di_sym: di + lam})
        for b in alg.basis_names:
            row = [(j, k, f) for j, g in enumerate(names)
                   for k, v in alg.basis_bracket(g, b, di, lam).items()
                   if (f := _term_list(v))]
            table[b, i] = (shift, row)
    return table


def project(t: ConfTensor, tup: Sequence[str]) -> MPoly:
    """Coefficient polynomial at a basis tuple (zero when absent)."""
    tup = tuple(tup)
    if len(tup) != t.arity:
        raise ValueError("projection tuple has wrong arity")
    return t.entries.get(tup, t.alg.reg.zero())
