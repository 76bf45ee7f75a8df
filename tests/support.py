"""Shared helpers and independent oracles used across the test suite.

The oracles here are deliberately written from scratch against textbook
formulas (classical Yang-Baxter expansion, adjoint actions, slotwise
lambda-actions) so that the engine under test is checked by a second,
structurally different computation.  The rest are slower reference
paths the engine replaced: the two-pass reduced action, the
unstructured candidate enumeration of the search, and its flat scan of
the consistent candidates.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ccybe import search
from ccybe.conformal import act_on_tensor
from ccybe.exactpoly import MPoly, SymbolRegistry
from ccybe.search import candidate_profile, filter_equation_names
from ccybe.ybe import (
    CATALOG,
    PAIRS,
    boundary_values,
    eval_equation,
    invariance_residues,
    shift_constant,
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
                term = term * reg.var(name, e)
        p = p + term
    return p


def random_univariate(reg, rng, name, max_degree=3, lo=-3, hi=3):
    p = reg.zero()
    for k in range(max_degree + 1):
        c = rng.randint(lo, hi)
        if c:
            p = p + reg.var(name, k) * c if k else p + reg.const(c)
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


def random_unimodular(rng, size=3, steps=4):
    """Random integer (a, b, c, d) with a*d - b*c == 1, via shear products."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        k = rng.randint(-size, size)
        if rng.random() < 0.5:
            # multiply by [[1, k], [0, 1]]
            a, b = a + k * c, b + k * d
        else:
            # multiply by [[1, 0], [k, 1]]
            c, d = c + k * a, d + k * b
    return a, b, c, d


# Two-pass reduced action: act at a free variable mu, then eliminate it
# via mu := -(d1 + ... + dN).  The engine acts at that value directly.


def act_then_eliminate(elem, t):
    reg = t.alg.reg
    acted = act_on_tensor(elem, t, reg.var("mu"))
    return acted.map_coeffs(lambda p: p.subst_linear(reg.sym("mu"), -t.total()))


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


def naive_run(cfg):
    """Reference filter: the invariance residues, skew-symmetry in strict
    mode, and the exact filter equations on every enumerated candidate."""
    names = filter_equation_names(cfg)
    out = []
    for profile in enumerate_profiles(cfg):
        if any(not r.is_zero() for r in invariance_residues(profile)):
            continue
        if cfg.mode == "strict":
            x = profile.reg.sym("x")
            minus = -profile.reg.var("x")
            skew = all(
                (profile.entry(q, l) + profile.entry(l, q).subst_linear(x, minus)).is_zero()
                for q, l in PAIRS
            )
            if not skew:
                continue
        if all(eval_equation(CATALOG[name], profile).is_zero() for name in names):
            out.append(profile)
    return out


# Flat scan of the consistent candidates: number them in a mixed radix,
# decode every index, test skew-symmetry in strict mode, prescreen each
# candidate anew at the sample points, then filter exactly by symbolic
# evaluation (eval_equation) and post-verify as the engine's depth-first
# scan does.  The engine yields its leaves in walk order, so compare the
# two as lists sorted by canonical JSON.


def _decode(cfg, index, slots, const_grid):
    """Mixed-radix decoding of a consistent-candidate index: the four
    constants are the low digits, the free slots the high ones."""
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
    """Catalog terms with entries and argument forms as flat indices."""
    out = []
    for name in names:
        eq = CATALOG[name]
        terms = tuple(
            (coeff,
             search._PAIR_INDEX[(left[0], left[1])] * len(_FILTER_ARGS) + _ARG_INDEX[arg1],
             search._PAIR_INDEX[(right[0], right[1])] * len(_FILTER_ARGS) + _ARG_INDEX[arg2])
            for coeff, left, arg1, right, arg2 in eq.terms
        )
        out.append((name, terms, eq.shifted))
    return out


def _arg_values(point):
    """Value of each argument form at a sample point."""
    px, py, pz = point
    return [ax * px + ay * py + az * pz for ax, ay, az in _FILTER_ARGS]


def _candidate_dies(cfg, constants, coeffs, terms, shift, points_args):
    """True once any filter equation is nonzero at a sample point."""
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
    names = filter_equation_names(cfg)
    terms = _filter_terms(names)
    slots = search._free_slots(cfg)
    const_grid = search._fast(cfg.constants_grid)
    points_args = [_arg_values(p) for p in search._PRESCREEN_POINTS]
    out = []
    for index in range(search.count_consistent(cfg)):
        constants, coeffs = _decode(cfg, index, slots, const_grid)
        if cfg.mode == "strict" and not _is_skew(cfg, constants, coeffs):
            continue
        shift = shift_constant(constants)
        if _candidate_dies(cfg, constants, coeffs, terms, shift, points_args):
            continue
        profile = candidate_profile(cfg, constants, coeffs)
        if all(eval_equation(CATALOG[name], profile).is_zero() for name in names):
            out.append(search._post_verify(cfg, profile))
    return out
