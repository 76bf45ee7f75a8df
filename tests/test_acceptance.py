"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything asserted here is an exact identity; there are no
numerical tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction

from ccybe import families, search, ybe
from ccybe.conformal import ConfAlgebra, ConfTensor
from ccybe.exactpoly import SymbolRegistry
from ccybe.liealg import ad, sl2
from ccybe.ybe import (
    ccybe_bracket,
    catalog_diffs,
    is_invariant,
    is_strict_solution,
    is_weak_solution,
    lift_profile,
    transform_conf_tensor,
)

from support import (
    STRICT_EQUATIONS,
    ConfElem,
    act,
    act_then_eliminate,
    apply_derivation,
    constant_values,
    cybe,
    diagonal_profile_of,
    generator,
    invariance_residues,
    is_totally_antisymmetric,
    lambda_bracket,
    map_coeffs,
    profile_entry,
    random_invertible,
    random_univariate,
    sub_tensors,
    weak_cybe_defect,
)

F = Fraction


def report(number, label, t0):
    print(f"[criterion {number}] PASS  {label} ({time.time() - t0:.1f}s)")


def sparse_univariate(reg, rng, name, max_degree=3, nnz=2):
    p = reg.zero()
    for k in rng.sample(range(max_degree + 1), rng.randint(1, nnz)):
        c = rng.choice((-2, -1, 1, 2))
        p = p + reg.var(name) ** k * c if k else p + reg.const(c)
    return p


def random_elem(alg, rng, max_degree=3):
    coeffs = {}
    for name in alg.basis_names:
        if rng.random() < 0.6:
            coeffs[name] = sparse_univariate(alg.reg, rng, "d", max_degree)
    return coeffs and ConfElem(alg, coeffs) or generator(alg, alg.basis_names[0])


def random_tensor2(alg, rng):
    reg = alg.reg
    entries = {}
    for _ in range(rng.randint(1, 3)):
        tup = (rng.choice(alg.basis_names), rng.choice(alg.basis_names))
        p = random_univariate(reg, rng, "d1", 2) * random_univariate(reg, rng, "d2", 1)
        if not p.is_zero():
            entries[tup] = entries.get(tup, reg.zero()) + p
    return ConfTensor(alg, 2, entries)


def bracket_as_elem(alg, out, rename_to):
    reg = alg.reg
    lam = reg.sym("lam")
    return ConfElem(alg, {
        k: v.subst_many({lam: reg.var(rename_to)}) for k, v in out.items()
    })


def test_criterion_1_algebra_laws():
    t0 = time.time()
    n_cases = 0
    for kind in ("cur", "vir"):
        alg = ConfAlgebra.cur(sl2(), SymbolRegistry()) if kind == "cur" \
            else ConfAlgebra.vir(SymbolRegistry())
        reg = alg.reg
        lam, mu = reg.var("lam"), reg.var("mu")
        lam_s = reg.sym("lam")
        d = reg.var("d")
        nu1, nu2, nu3, nu, rho = (reg.sym(n) for n in
                                  ("nu1", "nu2", "nu3", "nu", "rho"))
        rng = random.Random(100)
        for _ in range(100):
            a, b, c = (random_elem(alg, rng) for _ in range(3))
            # sesquilinearity in both arguments
            base = lambda_bracket(a, b)
            left = lambda_bracket(apply_derivation(a), b)
            right = lambda_bracket(a, apply_derivation(b))
            for k in set(base) | set(left) | set(right):
                v = base.get(k, reg.zero())
                assert left.get(k, reg.zero()) == -lam * v
                assert right.get(k, reg.zero()) == (lam + d) * v
            # conformal anticommutativity
            flipped = lambda_bracket(b, a)
            for k in set(base) | set(flipped):
                moved = -flipped.get(k, reg.zero()).subst_many({lam_s: -lam - d})
                assert base.get(k, reg.zero()) == moved
            # conformal Jacobi
            t1 = lambda_bracket(a, bracket_as_elem(alg, lambda_bracket(b, c), "nu1"))
            t1 = {k: v.subst_many({nu1: mu}) for k, v in t1.items()}
            t2 = lambda_bracket(b, bracket_as_elem(alg, lambda_bracket(a, c), "nu2"))
            t2 = {k: v.subst_many({lam_s: mu, nu2: lam}) for k, v in t2.items()}
            t3 = lambda_bracket(bracket_as_elem(alg, base, "nu3"), c)
            t3 = {k: v.subst_many({lam_s: lam + mu, nu3: lam}) for k, v in t3.items()}
            for k in set(t1) | set(t2) | set(t3):
                assert (t1.get(k, reg.zero()) - t2.get(k, reg.zero())
                        == t3.get(k, reg.zero()))
            # module axiom on tensor squares
            t = random_tensor2(alg, rng)
            lhs = act([bracket_as_elem(alg, base, "nu")], t, reg.var(rho))[0]
            lhs = map_coeffs(lhs, lambda p: p.subst_many({rho: lam + mu, nu: lam}))
            rhs = sub_tensors(act([a], act([b], t, mu)[0], lam)[0],
                              act([b], act([a], t, lam)[0], mu)[0])
            assert lhs == rhs
            n_cases += 1
    assert n_cases == 200
    report(1, "lambda-bracket axioms on 100 random cases per algebra", t0)


def test_criterion_2_catalog_rederivation():
    t0 = time.time()
    diffs = catalog_diffs(degree=3)
    bad = {name: diff.to_string() for name, diff in diffs.items()
           if not diff.is_zero()}
    assert not bad, bad
    assert set(STRICT_EQUATIONS) <= set(diffs)
    assert {"efh_h", "efh_e"} <= set(diffs)
    report(2, f"all {len(diffs)} projection identities re-derived exactly", t0)


def _formal_monic(reg, degree):
    t = reg.var("t")
    f = t ** degree
    for j in range(degree):
        f = f + reg.var(f"f{j}") * t ** j
    return f


def test_criterion_3_family_certification():
    t0 = time.time()
    cases = [
        ("thm5_i", lambda reg: {"alpha": reg.var("alpha"), "beta": reg.var("beta")},
         False),
        ("thm5_ii", lambda reg: {"lhh": reg.var("lhh"), "beta": reg.var("beta"),
                                 "zeta": reg.var("zeta")}, False),
        ("thm5_iii", lambda reg: {n: reg.var(n) for n in
                                  ("alpha", "beta", "gamma", "zeta")}, False),
        ("cor6_i", lambda reg: {"alpha": reg.var("alpha")}, True),
        ("cor6_ii", lambda reg: {"lhh": reg.var("lhh")}, True),
        ("cor6_iii", lambda reg: {"alpha": reg.var("u") * reg.var("u"),
                                  "beta": reg.var("u") * reg.var("v") * 2,
                                  "gamma": reg.var("v") * reg.var("v")}, True),
    ]
    checked = 0
    for case, make_params, strict in cases:
        # degree 5 proves every degree (see scripts/certify_families.py)
        for degree in range(6):
            reg = SymbolRegistry()
            spec = families.FamilySpec(case, reg, make_params(reg),
                                       f=_formal_monic(reg, degree))
            r = lift_profile(families.build_profile(spec))
            inv_ok, inv_defects = is_invariant(r)
            assert inv_ok, (case, degree, "invariance")
            weak_ok, _ = is_weak_solution(r)
            assert weak_ok, (case, degree, "weak")
            if strict:
                strict_ok, _ = is_strict_solution(r)
                assert strict_ok, (case, degree, "strict")
            checked += 1
    assert checked == 36
    report(3, "all six family cases certified symbolically, f degrees 0-5", t0)


def test_criterion_4_negative_controls():
    t0 = time.time()
    # weak-but-not-strict member with beta = 2, zeta = 1
    reg = SymbolRegistry()
    spec = families.FamilySpec("thm5_ii", reg, {"lhh": 1, "beta": 2, "zeta": 1})
    r = lift_profile(families.build_profile(spec))
    assert is_weak_solution(r)[0]
    assert not is_strict_solution(r)[0]

    # constant e x e fails invariance with the predicted residue
    reg2 = SymbolRegistry()
    cur = ConfAlgebra.cur(sl2(), reg2)
    r_ee = ConfTensor(cur, 2, {("e", "e"): reg2.const(1)})
    ok, defects = is_invariant(r_ee)
    assert not ok
    assert invariance_residues(diagonal_profile_of(r_ee))[0] == 2

    # an even entry fails invariance
    reg3 = SymbolRegistry()
    prof3 = ybe.DiagProfile(reg3, {("e", "e"): reg3.var("x") ** 2})
    residues = invariance_residues(prof3)
    assert residues[0] == reg3.parse("2*lam^2")
    assert not is_invariant(lift_profile(prof3))[0]
    report(4, "negative controls behave as classified", t0)


def test_criterion_5_virasoro():
    t0 = time.time()
    reg = SymbolRegistry()
    rng = random.Random(55)
    x_s, y_s = reg.sym("x"), reg.sym("y")
    checked = 0
    for i in range(50):
        coeff = reg.zero()
        for _ in range(rng.randint(1, 4)):
            cx, cy = rng.randint(0, 2), rng.randint(0, 2)
            c = rng.randint(-2, 2)
            if c:
                coeff = coeff + reg.var("x") ** cx * reg.var("y") ** cy * c
        if i % 2 == 0:
            # force a zero diagonal: multiply by (x + y)
            coeff = coeff * (reg.var("x") + reg.var("y"))
        r = families.vir_rmatrix(coeff)
        diagonal = coeff.subst_many({x_s: reg.var("x"), y_s: -reg.var("x")})
        both = is_invariant(r)[0] and is_weak_solution(r)[0]
        assert both == diagonal.is_zero(), coeff.to_string()
        checked += 1
    assert checked == 50

    # the constant tensor: raw specialized residue, twice the normalized value
    r1 = families.vir_rmatrix(reg.const(1))
    ok, defects = is_weak_solution(r1)
    assert not ok
    raw = defects["v"].entries[("v", "v", "v")].subst_many({
        reg.sym("d3"): reg.zero(), reg.sym("d1"): reg.var("d2") * -2,
    })
    assert raw == reg.parse("-24*d2^2")
    assert raw == reg.parse("-12*d2^2") * 2
    report(5, "vanishing-diagonal criterion on 50 random coefficients; "
              "constant residue -24*t^2 = 2*(-12*t^2)", t0)


def _grid_family_records(reg_factory):
    """All family members whose parameters lie on the {-1, 0, 1} grids
    with entries of degree <= 1 (f = 1)."""
    grid = (F(-1), F(0), F(1))
    specs = []
    for alpha in grid:
        for beta in grid:
            for gamma in grid:
                for zeta in grid:
                    specs.append(("thm5_iii", {"alpha": alpha, "beta": beta,
                                               "gamma": gamma, "zeta": zeta}))
    for alpha in grid:
        specs.append(("thm5_i", {"alpha": alpha, "beta": F(0)}))
    for lhh in (F(-1), F(1)):
        for beta in grid:
            for zeta in grid:
                specs.append(("thm5_ii", {"lhh": lhh, "beta": beta, "zeta": zeta}))
    records = set()
    for case, params in specs:
        reg = reg_factory()
        spec = families.FamilySpec(case, reg, params)
        prof = families.build_profile(spec)
        entries = {
            "".join(pair): profile_entry(prof, *pair).to_string()
            for pair in ybe.PAIRS if not profile_entry(prof, *pair).is_zero()
        }
        constants = {n: str(v.constant_value()) for n, v in
                     zip(ybe.CONSTANT_NAMES, constant_values(prof))}
        records.add(json.dumps({"constants": constants, "entries": entries},
                               sort_keys=True))
    return records


def test_criterion_6_classification_cross_check():
    t0 = time.time()
    cfg_raw = search.SearchConfig(max_degree=1, coeff_grid=(-1, 0, 1),
                                  constants_grid=(-1, 0, 1), mode="weak", raw=True)
    cfg_odd = search.SearchConfig(max_degree=3, coeff_grid=(0, 1),
                                  constants_grid=(-1, 0, 1), mode="weak")
    cfg_strict = search.SearchConfig(max_degree=1, coeff_grid=(-1, 0, 1),
                                     constants_grid=(-1, 0, 1), mode="strict",
                                     raw=True)
    serial_reports = {}
    t_serial = time.time()
    for name, cfg in (("raw", cfg_raw), ("odd", cfg_odd), ("strict", cfg_strict)):
        serial_reports[name] = search.run_search(cfg)
    serial_elapsed = time.time() - t_serial
    assert serial_elapsed < 300, f"single-threaded sweep took {serial_elapsed:.0f}s"

    for name, rep in serial_reports.items():
        assert rep.characterization_failures == [], name
        assert rep.survivors, name

    # frozen survivor censuses (exact properties of these grids)
    def census(rep):
        out = {}
        for record in rep.survivors:
            out[record["case"]] = out.get(record["case"], 0) + 1
        return len(rep.survivors), out

    assert census(serial_reports["raw"]) == (
        171, {"other": 69, "thm5_i": 3, "thm5_ii": 18, "thm5_iii": 81})
    assert census(serial_reports["odd"]) == (
        162, {"other": 45, "thm5_i": 9, "thm5_ii": 27, "thm5_iii": 81})
    assert census(serial_reports["strict"]) == (
        39, {"other": 29, "thm5_i": 3, "thm5_ii": 2, "thm5_iii": 5})

    # strict survivors: zeta = 0 always, beta = 0 whenever a_hh != 0
    for record in serial_reports["strict"].survivors:
        assert record["constants"]["zeta"] == "0"
        if record["matrix"][2][2] != "0":
            assert record["constants"]["beta"] == "0"

    # desk-scale completeness: every on-grid family member appears
    survivor_keys = {
        json.dumps({"constants": r["constants"], "entries": r["entries"]},
                   sort_keys=True)
        for r in serial_reports["raw"].survivors
    }
    missing = _grid_family_records(SymbolRegistry) - survivor_keys
    assert not missing, sorted(missing)[:3]

    # the constant family alone: coefficient grid {0}
    rep_const = search.run_search(search.SearchConfig(
        max_degree=1, coeff_grid=(0,), constants_grid=(-1, 0, 1)))
    assert len(rep_const.survivors) == 81
    assert all(r["case"] == "thm5_iii" for r in rep_const.survivors)

    # determinism and the 8-worker bound
    t_pool = time.time()
    pool_reports = {}
    for name, cfg in (("raw", cfg_raw), ("odd", cfg_odd), ("strict", cfg_strict)):
        pool_cfg = search.SearchConfig(
            max_degree=cfg.max_degree, coeff_grid=cfg.coeff_grid,
            constants_grid=cfg.constants_grid, mode=cfg.mode, raw=cfg.raw,
            workers=8)
        pool_reports[name] = search.run_search(pool_cfg)
    pool_elapsed = time.time() - t_pool
    for name in serial_reports:
        assert (pool_reports[name].content_hash
                == serial_reports[name].content_hash), name
    assert pool_elapsed < 60, f"8-worker sweep took {pool_elapsed:.0f}s"

    report(6, f"searches: {len(serial_reports['raw'].survivors)} weak raw, "
              f"{len(serial_reports['odd'].survivors)} weak odd-ansatz, "
              f"{len(serial_reports['strict'].survivors)} strict survivors; "
              f"serial {serial_elapsed:.0f}s, 8 workers {pool_elapsed:.0f}s", t0)


def test_criterion_7_constant_solution_suite():
    t0 = time.time()
    alg = sl2()
    reg = SymbolRegistry()
    a, b, g, z = (reg.var(n) for n in ("alpha", "beta", "gamma", "zeta"))

    # the 4-parameter invariant tensor solves the weak equation symbolically
    r0 = {("h", "e"): a, ("e", "h"): -a, ("f", "e"): b, ("e", "f"): -b + z * 4,
          ("h", "f"): g, ("f", "h"): -g, ("h", "h"): z}
    defects = weak_cybe_defect(r0, alg, reg)
    assert all(not d for d in defects.values())

    # the rank-one skew representative is a strict solution
    assert cybe({("h", "e"): F(1), ("e", "h"): F(-1)}, alg) == {}

    # the zeta part of the displayed general solution is a strict solution
    s_part = {("h", "h"): z, ("e", "f"): z * 4}
    assert cybe(s_part, alg, reg) == {}

    # the skew part has a totally antisymmetric value
    r0_skew = {("h", "e"): a, ("e", "h"): -a, ("f", "e"): b, ("e", "f"): -b,
               ("h", "f"): g, ("f", "h"): -g}
    value = cybe(r0_skew, alg, reg)
    assert value and is_totally_antisymmetric(value)

    # documented fact: the symmetrized invariant 2-tensor is NOT a strict
    # solution (its value is the invariant alternating 3-tensor), but its
    # weak defect vanishes
    casimir = {("h", "h"): z, ("e", "f"): z * 2, ("f", "e"): z * 2}
    casimir_value = cybe(casimir, alg, reg)
    assert casimir_value and is_totally_antisymmetric(casimir_value)
    assert all(not d for d in weak_cybe_defect(casimir, alg, reg).values())
    report(7, "constant-solution suite (symbolic in all four parameters)", t0)


def test_criterion_8_automorphism_covariance():
    t0 = time.time()
    rng = random.Random(88)
    checked = 0
    dets = []
    for _ in range(20):
        reg = SymbolRegistry()
        cur = ConfAlgebra.cur(sl2(), reg)
        (a, b), (c, d) = g = random_invertible(rng)
        dets.append(a * d - b * c)
        aut = ad(g)
        entries = {}
        for _ in range(rng.randint(1, 3)):
            pair = (rng.choice(cur.basis_names), rng.choice(cur.basis_names))
            p = random_univariate(reg, rng, "d1", 1, -2, 2) \
                + random_univariate(reg, rng, "d2", 1, -2, 2)
            if not p.is_zero():
                entries[pair] = entries.get(pair, reg.zero()) + p
        r = ConfTensor(cur, 2, entries)
        moved = transform_conf_tensor(aut, r)

        # the double bracket's class transports along phi x phi x phi
        lhs = ccybe_bracket(moved)
        rhs = transform_conf_tensor(aut, ccybe_bracket(r))
        assert lhs == rhs

        # generator defects transport the same way
        gen = rng.choice(cur.basis_names)
        phi_gen = ConfElem(cur, {
            name: reg.const(v) for name, v in aut.image(gen).items()
        })
        lhs_w = act_then_eliminate(phi_gen, ccybe_bracket(moved))
        rhs_w = transform_conf_tensor(
            aut, act_then_eliminate(generator(cur, gen), ccybe_bracket(r)))
        assert lhs_w == rhs_w
        checked += 1
    assert checked == 20
    # conjugation by matrices outside SL2 is covered too
    assert max(abs(det) for det in dets) > 1
    report(8, "defect covariance under conjugation by 20 random invertible "
              "integer matrices", t0)
