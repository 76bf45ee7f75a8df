import gc
import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from ccybe import conformal, search, ybe
from ccybe.search import (
    MAX_CONSISTENT,
    MAX_DEGREE,
    MAX_WORKERS,
    SearchConfig,
    SearchConfigError,
    candidate_profile,
    count_candidates,
    count_consistent,
    run_search,
)
from ccybe.exactpoly import MPoly, SymbolRegistry
from ccybe.families import SL2_CASES, FamilySpec, build_profile, name_case
from ccybe.ybe import (
    CATALOG,
    CONSTANT_NAMES,
    PAIRS,
    DiagProfile,
    Equation,
    boundary_values,
    eval_equation,
    is_invariant,
    is_strict_solution,
    lift_profile,
    shift_constant,
)

from support import (
    brute_force_verdicts,
    constant_values,
    constrained_generic_profile,
    enumerate_candidates,
    enumerate_profiles,
    flat_scan,
    invariance_residues,
    naive_run,
    principal_lattice,
    profile_entry,
    random_poly,
    reduce_mod_total,
)

F = Fraction

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_config_validation():
    with pytest.raises(SearchConfigError, match="nonempty"):
        SearchConfig(coeff_grid=())
    with pytest.raises(SearchConfigError, match="odd max_degree"):
        SearchConfig(max_degree=2)
    with pytest.raises(SearchConfigError, match="mode"):
        SearchConfig(mode="fast")
    # raw mode allows even bounds
    SearchConfig(max_degree=2, raw=True)


@pytest.mark.parametrize("grids", [
    {"coeff_grid": (0, 0), "constants_grid": (0,)},
    {"coeff_grid": (1, 1.0, Fraction(2, 2))},
    {"coeff_grid": (-1, 0, 1), "constants_grid": (Fraction(1, 2), 0, Fraction(2, 4))},
], ids=["zeros", "one_three_ways", "constants_half"])
def test_config_refuses_repeated_grid_values(grids):
    # a repeated value counted each candidate it builds once per copy:
    # coeff_grid (0, 0) reported 64 identical survivors
    with pytest.raises(SearchConfigError, match="repeats a value"):
        SearchConfig(max_degree=1, raw=True, **grids)
    distinct = {name: tuple(dict.fromkeys(Fraction(v) for v in grid))
                for name, grid in grids.items()}
    assert SearchConfig(max_degree=1, raw=True, **distinct)


def test_consistent_bound(monkeypatch):
    # degree 7 over {-1,0,1} is refused by default, before any scan
    grid = dict(max_degree=7, coeff_grid=(-1, 0, 1), constants_grid=(-1, 0, 1))
    with pytest.raises(SearchConfigError, match="22876792454961"):
        SearchConfig(**grid)
    # the degree-5 grid of the same size stays within the bound
    assert count_consistent(SearchConfig(max_degree=5, coeff_grid=(-1, 0, 1))) \
        < MAX_CONSISTENT
    # the bound is read when a configuration is built, and a count equal
    # to it is accepted
    cfg = SearchConfig(max_degree=1, raw=True)
    monkeypatch.setattr(search, "MAX_CONSISTENT", count_consistent(cfg))
    SearchConfig(max_degree=1, raw=True)
    monkeypatch.setattr(search, "MAX_CONSISTENT", count_consistent(cfg) - 1)
    with pytest.raises(SearchConfigError, match=f"bound {count_consistent(cfg) - 1}"):
        SearchConfig(max_degree=1, raw=True)


def test_degree_bound(monkeypatch):
    # max_degree is bounded on its own, even with a single candidate
    # whose consistent count is far inside MAX_CONSISTENT
    tiny = dict(coeff_grid=(0,), constants_grid=(0,), raw=True)
    SearchConfig(max_degree=MAX_DEGREE, **tiny)
    SearchConfig(max_degree=7, coeff_grid=(0, 1))
    for degree in (MAX_DEGREE + 1, MAX_DEGREE + 2, 201):
        with pytest.raises(SearchConfigError, match=f"between 1 and {MAX_DEGREE}"):
            SearchConfig(max_degree=degree, **tiny)
    # the bound is read when a configuration is built
    monkeypatch.setattr(search, "MAX_DEGREE", 3)
    SearchConfig(max_degree=3, **tiny)
    with pytest.raises(SearchConfigError, match="between 1 and 3"):
        SearchConfig(max_degree=4, **tiny)


def test_candidate_counting():
    cfg = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0,))
    assert count_candidates(cfg) == 512
    assert sum(1 for _ in enumerate_profiles(cfg)) == 512


def test_raw_mode_includes_even_entries():
    cfg = SearchConfig(max_degree=2, coeff_grid=(0, 1), constants_grid=(0,),
                       raw=True)
    found = None
    # the leading entry varies slowest, so an x^2 first entry appears
    # within the second block of len(vectors)^8 candidates; only the
    # candidate whose first row is x^2's coefficients is built
    for constants, coeffs in itertools.islice(enumerate_candidates(cfg), 4 ** 8 + 1):
        if coeffs[0] == (0, 1):
            profile = candidate_profile(cfg, constants, coeffs)
            x = profile.reg.var("x")
            if profile_entry(profile, "e", "e") == x * x:
                found = profile
    assert found is not None
    assert any(not r.is_zero() for r in invariance_residues(found))


def test_structured_matches_naive_weak():
    cfg = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0,))
    report = run_search(cfg)
    naive = naive_run(cfg)
    assert len(report.survivors) == len(naive)
    assert report.candidates_scanned == count_candidates(cfg)
    naive_keys = set()
    for profile in naive:
        entries = {
            "".join(pair): profile_entry(profile, *pair).to_string()
            for pair in search.PAIRS if not profile_entry(profile, *pair).is_zero()
        }
        constants = {n: str(v) for n, v in zip(CONSTANT_NAMES, constant_values(profile))}
        naive_keys.add(json.dumps({"constants": constants, "entries": entries},
                                  sort_keys=True))
    report_keys = {
        json.dumps({"constants": r["constants"], "entries": r["entries"]},
                   sort_keys=True)
        for r in report.survivors
    }
    assert naive_keys == report_keys


def test_structured_matches_naive_strict():
    cfg = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0,),
                       mode="strict")
    report = run_search(cfg)
    naive = naive_run(cfg)
    assert len(report.survivors) == len(naive)
    assert all(r["constants"]["zeta"] == "0" for r in report.survivors)
    # on a grid containing zeta = 1 the strict filter is a proper refinement
    weak = run_search(SearchConfig(max_degree=1, coeff_grid=(0,),
                                   constants_grid=(0, 1)))
    strict = run_search(SearchConfig(max_degree=1, coeff_grid=(0,),
                                     constants_grid=(0, 1), mode="strict"))
    assert len(strict.survivors) < len(weak.survivors)
    assert all(r["constants"]["zeta"] == "0" for r in strict.survivors)


def test_strict_search_finds_skew_solutions_only():
    # strict mode prunes non-skew constants tuples up front, so it misses
    # the constant profile (alpha, beta, gamma, zeta) = (0, 0, 0, 1):
    # invariant and strict on its lift, but not skew, so it passes
    # verify --mode strict
    reg = SymbolRegistry()
    values = boundary_values((0, 0, 0, 1))
    r = lift_profile(DiagProfile(reg, {pair: reg.const(v) for pair, v in zip(PAIRS, values)}))
    assert is_invariant(r)[0] and is_strict_solution(r)[0]
    grids = dict(max_degree=1, raw=True, coeff_grid=(0,), constants_grid=(0, 1))
    weak = run_search(SearchConfig(**grids))
    strict = run_search(SearchConfig(mode="strict", **grids))
    zeta_only = {"alpha": "0", "beta": "0", "gamma": "0", "zeta": "1"}
    assert len(weak.survivors) == 16
    assert zeta_only in [rec["constants"] for rec in weak.survivors]
    assert len(strict.survivors) == 3
    assert zeta_only not in [rec["constants"] for rec in strict.survivors]


def test_raw_search_matches_brute_force():
    # every invariance-consistent raw candidate of degree 2 over the
    # coefficients {0, 1} and the constants {-1, 0, 1}, checked by the
    # tensor engine alone: the weak search keeps exactly the weak
    # solutions, and the strict search exactly the skew-symmetric strict
    # ones; the other strict solutions are not skew (see
    # test_strict_search_finds_skew_solutions_only)
    grids = dict(max_degree=2, raw=True, coeff_grid=(0, 1), constants_grid=(-1, 0, 1))
    verdicts = brute_force_verdicts(2, (0, 1), (-1, 0, 1))
    assert len(verdicts) == count_consistent(SearchConfig(**grids)) == 5184
    assert all(invariant for _e, invariant, _w, _s, _k in verdicts)
    weak = {entries for entries, _i, ok, _s, _k in verdicts if ok}
    strict = {entries: skew for entries, _i, _w, ok, skew in verdicts if ok}
    assert len(weak) == 108 and len(strict) == 32
    assert sum(strict.values()) == 16
    for mode, solutions in (("weak", weak), ("strict", {e for e, k in strict.items() if k})):
        report = run_search(SearchConfig(mode=mode, **grids))
        assert report.characterization_failures == []
        found = [json.dumps(rec["entries"], sort_keys=True) for rec in report.survivors]
        assert len(found) == len(set(found))
        assert set(found) == solutions, mode


def test_worker_count_determinism():
    # strict mode prunes its constants tuples before the pool is sized
    for mode in ("weak", "strict"):
        grids = dict(max_degree=1, coeff_grid=(0, 1), constants_grid=(0, 1), mode=mode)
        rep1 = run_search(SearchConfig(**grids))
        rep2 = run_search(SearchConfig(workers=2, **grids))
        assert rep1.survivors, mode
        assert rep1.content_hash == rep2.content_hash
        assert rep1.survivors == rep2.survivors


def test_constants_only_matches_general_solution():
    # with the zero coefficient grid the survivors are exactly the
    # 4-parameter constant family restricted to the constants grid
    cfg = SearchConfig(max_degree=1, coeff_grid=(0,), constants_grid=(-1, 0, 1))
    report = run_search(cfg)
    assert len(report.survivors) == 3 ** 4
    assert not report.characterization_failures
    assert all(r["case"] == "thm5_iii" for r in report.survivors)


@pytest.mark.parametrize("mode", ["weak", "strict"])
def test_named_survivors_round_trip(mode):
    # a survivor named by the family table is rebuilt exactly from its
    # record through FamilySpec, and no row of the table names a survivor
    # recorded as "other"
    report = run_search(SearchConfig(max_degree=1, raw=True, mode=mode))
    named = 0
    for record in report.survivors:
        constants = [F(record["constants"][n]) for n in CONSTANT_NAMES]
        if record["case"] == "other":
            matrix = [[F(v) for v in row] for row in record["matrix"]]
            assert name_case(constants, matrix, tuple(SL2_CASES)) is None
            continue
        reg = SymbolRegistry()
        params = {n: F(v) for n, v in record["params"].items()}
        f = reg.parse(record["f"]) if "f" in record else None
        profile = build_profile(FamilySpec(record["case"], reg, params, f=f))
        entries = {"".join(pair): p.to_string()
                   for pair, p in profile.entries.items() if not p.is_zero()}
        assert entries == record["entries"]
        assert {n: str(v.constant_value())
                for n, v in zip(CONSTANT_NAMES, constant_values(profile))} \
            == record["constants"]
        named += 1
    assert named == {"weak": 102, "strict": 10}[mode]


def test_weak_survivor_brackets_are_minus_kappa_epsilon():
    # the weak bracket is one number: the class of a weak survivor's
    # double bracket is -kappa * epsilon, with epsilon = sum over the
    # permutations s of sgn(s) s(e x f x h), sl2's invariant alternating
    # 3-tensor, and kappa = shift_constant of its constants; on each run
    # of scripts/run_classification_search.py, (survivors, kappa = 0)
    runs = {
        "weak_raw_deg1": (SearchConfig(max_degree=1, coeff_grid=(-1, 0, 1),
                                       constants_grid=(-1, 0, 1), mode="weak", raw=True),
                          171, 69),
        "strict_raw_deg1": (SearchConfig(max_degree=1, coeff_grid=(-1, 0, 1),
                                         constants_grid=(-1, 0, 1), mode="strict", raw=True),
                            39, 39),
        "weak_odd_deg3": (SearchConfig(max_degree=3, coeff_grid=(0, 1),
                                       constants_grid=(-1, 0, 1), mode="weak"),
                          162, 66),
        "weak_odd_deg5": (SearchConfig(max_degree=5, coeff_grid=(0, 1),
                                       constants_grid=(-1, 0, 1), mode="weak"),
                          270, 134),
    }
    reg = SymbolRegistry()
    epsilon = {perm: (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
               for perm in itertools.permutations("efh")}
    for name, (cfg, survivors, kappa_zero) in runs.items():
        report = run_search(cfg)
        assert len(report.survivors) == survivors, name
        assert not report.characterization_failures, name
        vanishing = 0
        for record in report.survivors:
            profile = DiagProfile(reg, {(key[0], key[1]): reg.parse(text)
                                        for key, text in record["entries"].items()})
            kappa = shift_constant([F(record["constants"][n]) for n in CONSTANT_NAMES])
            bracket = ybe.ccybe_bracket(lift_profile(profile))
            assert bracket.entries == {perm: reg.const(-kappa * sign)
                                       for perm, sign in epsilon.items() if kappa}, record
            vanishing += not kappa
        assert vanishing == kappa_zero, name


def test_golden_report():
    cfg = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0, 1),
                       mode="weak")
    report = run_search(cfg)
    with open(os.path.join(DATA, "search_golden.json")) as fh:
        golden = json.load(fh)
    assert report.content_hash == golden["content_hash"]
    assert report.survivors == golden["survivors"]
    assert report.candidates_scanned == golden["candidates_scanned"]


def test_fractional_grid():
    cfg = SearchConfig(max_degree=1, coeff_grid=(0, F(1, 2)), constants_grid=(0,))
    report = run_search(cfg)
    assert not report.characterization_failures
    halves = [r for r in report.survivors if r["entries"].get("ee") == "1/2*x"]
    assert halves
    assert halves[0]["matrix"][0][0] == "1/2"


def test_raw_rediscovers_oddness():
    # raw mode at degree 2: no survivor keeps an even coefficient
    cfg = SearchConfig(max_degree=2, coeff_grid=(0, 1), constants_grid=(0, 1),
                       raw=True)
    report = run_search(cfg)
    assert not report.characterization_failures
    assert report.survivors
    for record in report.survivors:
        for text in record["entries"].values():
            assert "x^2" not in text


def _sweep_config(a, b, mode):
    return SearchConfig(max_degree=1, coeff_grid=(-a, 0, a), constants_grid=(-b, 0, b),
                        mode=mode, raw=True)


SCAN_CONFIGS = {
    **{f"sweep_{mode}_a{a}_b{b}": _sweep_config(a, b, mode)
       for a in (1, 2) for b in (1, 2) for mode in ("weak", "strict")},
    "weak_01": SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0, 1)),
    "raw_deg2": SearchConfig(max_degree=2, coeff_grid=(0, 1), constants_grid=(0, 1),
                             raw=True),
    "fractional": SearchConfig(max_degree=1, coeff_grid=(0, F(1, 2)),
                               constants_grid=(0,)),
    # kappa = 0 off the beta = 0 line: beta = +-2 with 4 alpha gamma = 4
    "strict_beta2": SearchConfig(max_degree=1, coeff_grid=(0, 1),
                                 constants_grid=(-2, -1, 0, 1, 2), mode="strict", raw=True),
    # odd degrees (1, 3), where the scan leaves out eee, fff and hhh
    "odd_deg3": SearchConfig(max_degree=3, coeff_grid=(0, 1), constants_grid=(0,)),
}


def _canonical(pairs):
    return sorted(pairs, key=lambda pair: json.dumps(pair, sort_keys=True))


@pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
def test_scan_matches_flat_scan(name):
    # the depth-first scan keeps exactly the records and problems of the
    # flat reference scan; a record fixes the constants and every entry,
    # and the reference records are pairwise distinct, so equal sorted
    # lists mean the same candidates
    cfg = SCAN_CONFIGS[name]
    passed = search._scan(cfg)
    reference = flat_scan(cfg)
    assert passed
    assert len({json.dumps(record, sort_keys=True) for record, _ in reference}) \
        == len(reference)
    assert _canonical(passed) == _canonical(reference)


@pytest.mark.parametrize("cfg", [
    SCAN_CONFIGS["weak_01"],
    SCAN_CONFIGS["fractional"],
    SearchConfig(max_degree=1, coeff_grid=(-1, 1), constants_grid=(0, 1), mode="strict",
                 raw=True),
], ids=["weak_01", "fractional", "strict"])
def test_exact_filter_alone_matches_flat_scan(cfg, monkeypatch):
    # with the origin as the only sample point nearly every candidate
    # reaches a leaf, so the lattice check of the scan's equations alone
    # (the seven of the ten that do not vanish at degree 1) must keep
    # what the reference scan keeps with its own twelve
    monkeypatch.setattr(search, "_PRESCREEN_POINTS", ((0, 0),))
    leaves = []
    leaf = search._leaf
    monkeypatch.setattr(search, "_leaf", lambda *args: (leaves.append(args), leaf(*args))[1])
    passed = search._scan(cfg)
    assert len(leaves) > 2 * len(passed)
    assert _canonical(passed) == _canonical(flat_scan(cfg))


_REVERIFY = ["reverify:weak_defect", "reverify:strict"]


@pytest.mark.parametrize("entries, problems", [
    ({"ee": "x", "ff": "x"}, ["characterize:rank_le_1", *_REVERIFY]),
    ({"ee": "x^2"}, ["characterize:shared_f_ok"]),
    ({"ef": "x", "fe": "2*x"}, ["characterize:sym", *_REVERIFY]),
    ({"ee": "x", "ef": "-1", "fe": "1"}, ["relation:c_e1", *_REVERIFY]),
    ({"ee": "x + 1"}, ["characterize:constants_ok"]),
], ids=["rank2", "even", "not_symmetric", "constant_relation", "boundary_off_table"])
def test_post_verify_names_each_fault_once(entries, problems):
    # a flag that covers a relation is its only report: the minors are
    # rank_le_1, an even entry fails shared_f_ok, and a non-symmetric
    # profile reports an all-zero matrix, which passes rank_le_1; the
    # constants are A'(0) at he, fe, hf, hh (beta = 1 is fe(0) = 1), and
    # an ee(0) off the boundary table fails constants_ok
    reg = search._registry()
    profile = DiagProfile(reg, {(k[0], k[1]): reg.parse(v) for k, v in entries.items()})
    cfg = SearchConfig(mode="strict", raw=True)
    assert search._post_verify(cfg, profile)[1] == problems


def test_characterization_failures_sorted(monkeypatch):
    # every survivor flagged by the post-verification lands in
    # characterization_failures, sorted by canonical JSON; the scan
    # yields them in another order, so the sort is what orders them
    post_verify = search._post_verify
    monkeypatch.setattr(search, "_post_verify", lambda cfg, profile: (
        post_verify(cfg, profile)[0], ["characterize:forced"]))
    cfg = SCAN_CONFIGS["weak_01"]
    report = run_search(cfg)
    assert not report.survivors
    keys = [json.dumps(f, sort_keys=True) for f in report.characterization_failures]
    assert len(keys) > 1 and keys == sorted(keys)
    walk = [json.dumps({"record": r, "problems": p}, sort_keys=True)
            for r, p in search._scan(cfg)]
    assert walk != keys and sorted(walk) == keys


def test_run_search_leaves_no_reference_cycles():
    cfg = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0, 1))
    gc.disable()
    try:
        gc.collect()
        run_search(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_workers_bound():
    SearchConfig(workers=MAX_WORKERS)
    with pytest.raises(SearchConfigError, match="workers"):
        SearchConfig(workers=MAX_WORKERS + 1)


def test_serial_without_fork(monkeypatch):
    # where the platform has no fork start method a multi-worker search
    # runs serially and gives the same report
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was requested")

    monkeypatch.setattr(search, "get_context", no_pool)
    monkeypatch.setattr(search, "get_all_start_methods", lambda: ["spawn"])
    report = run_search(SearchConfig(max_degree=1, coeff_grid=(0, 1),
                                     constants_grid=(0, 1), workers=2))
    with open(os.path.join(DATA, "search_golden.json")) as fh:
        golden = json.load(fh)
    assert report.content_hash == golden["content_hash"]


# Exact filter on the principal lattice ---------------------------------------------


def _value_at(poly, point):
    reg = poly.reg
    return poly.subst_many({reg.sym(n): reg.const(v)
                            for n, v in zip("xyz", point)}).constant_value()


def _lattice_for(variables):
    """The scan's lattice in (d2, d3) when the variables, as positions in
    (d2, d3, d1), are among its two; else the flat-scan oracle's in
    (d2, d3, d1)."""
    return search._lattice if max(variables) < 2 else principal_lattice


@pytest.mark.parametrize("variables", [(0,), (0, 1), (0, 1, 2), (1, 2)])
def test_lattice_unisolvent(variables):
    # a nonzero polynomial of total degree <= n in the given variables is
    # nonzero somewhere on T_n, for the scan's lattice and the oracle's
    rng = random.Random(5)
    reg = SymbolRegistry()
    names = ["xyz"[v] for v in variables]
    for n in range(6):
        points = _lattice_for(variables)(n)
        tried = 0
        while tried < 12:
            p = random_poly(reg, rng, names, max_degree=n, max_terms=6)
            if p.is_zero():
                continue
            tried += 1
            assert any(_value_at(p, pt) for pt in points), (n, p)


@pytest.mark.parametrize("variables", [(0,), (0, 1), (0, 1, 2)])
def test_lattice_degree_bound_is_tight(variables):
    # x (x - 1) ... (x - n) has degree n + 1 and vanishes on all of T_n
    reg = SymbolRegistry()
    x = reg.var("x")
    for n in range(6):
        p = reg.const(1)
        for k in range(n + 1):
            p = p * (x - k)
        assert not p.is_zero()
        assert not any(_value_at(p, pt) for pt in _lattice_for(variables)(n))


def _reads_d1(eq):
    """Whether a term of eq reads a form with a nonzero d1 part."""
    return any(term[k][2] for term in eq.terms for k in (2, 4))


def test_weak_equations_read_no_d1():
    # the scan's points are pairs (d2, d3), which is exact only for
    # equations whose forms have zero d1 part; only the two action
    # identities, which the scan leaves out, read d1
    assert len(ybe.WEAK_EQUATIONS) == 10
    assert not any(_reads_d1(CATALOG[name]) for name in ybe.WEAK_EQUATIONS)
    assert [eq.name for eq in CATALOG.values() if _reads_d1(eq)] == ["efh_h", "efh_e"]


# The WEAK_EQUATIONS each degree tuple's ansatz leaves out of the scan.
_DROPPED = {
    (1,): ("eee", "fff", "hhh"),
    (1, 3): ("eee", "fff", "hhh"),
    (1, 2): (),
    (1, 2, 3): (),
    (1, 2, 3, 4): (),
    (1, 3, 5): (),
    (1, 3, 5, 7): (),
}


@pytest.mark.parametrize("degrees", sorted(_DROPPED),
                         ids=lambda degrees: "deg" + "_".join(map(str, degrees)))
def test_live_equations(degrees):
    # raw (1,) and odd (1, 3) keep seven names; the scan's plan reads
    # only those, and WEAK_EQUATIONS keeps all ten
    live = search._live_equations(degrees)
    assert live == tuple(n for n in ybe.WEAK_EQUATIONS if n not in _DROPPED[degrees])
    assert len(ybe.WEAK_EQUATIONS) == 10
    plan = search._Plan(SearchConfig(max_degree=degrees[-1], coeff_grid=(0,),
                                     constants_grid=(0,), raw=degrees[1:2] == (2,)))
    assert plan.cfg.degrees == degrees
    assert len(plan.table.per_equation) == len(live)


@pytest.mark.parametrize("odd, degree, up", [(False, 1, 2), (True, 3, 5)],
                         ids=["raw_deg1", "odd_deg3"])
def test_dropped_equations_vanish_only_there(odd, degree, up):
    # the oracle: on the generic profile that satisfies the invariance
    # relations identically, each equation the scan drops is the zero
    # polynomial at its degree and nonzero one degree up, where the scan
    # keeps it
    degrees = tuple(range(1, degree + 1, 2 if odd else 1))
    for name in _DROPPED[degrees]:
        for top, zero in ((degree, True), (up, False)):
            profile = constrained_generic_profile(SymbolRegistry(), degree=top, odd=odd)
            assert eval_equation(CATALOG[name], lift_profile(profile)).is_zero() == zero, \
                (name, top)
        assert name in search._live_equations(tuple(range(1, up + 1, 2 if odd else 1)))


@pytest.mark.parametrize("max_degree", [2, 3])
def test_every_choice_is_invariance_consistent(max_degree):
    # over a grid closed under negation a mirror pair takes nonzero
    # coefficients in even degrees too, with opposite signs: every
    # choice of every level (_group_rows, which the vanishing test also
    # reads) satisfies the invariance relations
    cfg = SearchConfig(max_degree=max_degree, coeff_grid=(-2, -1, 0, 1, 2),
                       constants_grid=(0,), raw=True)
    plan = search._Plan(cfg)
    for n in range(max(len(choices) for choices in plan.levels)):
        coeffs = [()] * len(PAIRS)
        for choices in plan.levels:
            for i, row in choices[n % len(choices)][0]:
                coeffs[i] = row
        profile = candidate_profile(cfg, (1, -1, 2, 1), coeffs)
        assert all(r.is_zero() for r in invariance_residues(profile)), n


def test_perturbed_equation_is_kept():
    # eee with any one term's coefficient flipped is eee minus twice
    # that term, which is not zero, so the scan must keep it
    eee = CATALOG["eee"]
    assert search._vanishes_on_ansatz(eee, (1,)) and search._vanishes_on_ansatz(eee, (1, 3))
    for n, (c, *rest) in enumerate(eee.terms):
        terms = eee.terms[:n] + ((-c, *rest),) + eee.terms[n + 1:]
        mutant = Equation("eee", eee.triple, terms, scale=eee.scale)
        for degrees in ((1,), (1, 3)):
            assert not search._vanishes_on_ansatz(mutant, degrees), (n, degrees)


def test_live_equations_decided_symbolically(monkeypatch):
    # with the integer screen forced to read zero, every equation goes
    # to the symbolic lattice step, which alone gives the same live sets
    vanishes = search._vanishes
    symbolic = []

    def screen_reads_zero(checks, vals):
        if not any(isinstance(v, MPoly) for v in vals):
            return True
        symbolic.append(len(vals))
        return vanishes(checks, vals)

    monkeypatch.setattr(search, "_vanishes", screen_reads_zero)
    for degrees, dropped in _DROPPED.items():
        assert search._live_equations.__wrapped__(degrees) \
            == tuple(n for n in ybe.WEAK_EQUATIONS if n not in dropped)
    assert len(symbolic) == len(_DROPPED) * len(ybe.WEAK_EQUATIONS)


def _exact_agrees(eq, profile, max_degree):
    """The leaf's exact check of one equation, on the scan's shared point
    set, against eval_equation."""
    points = search._PRESCREEN_POINTS + tuple(search._lattice(2 * max_degree))
    checks = search._Checks([eq], points, [0] * len(PAIRS), 1)
    x = profile.reg.sym("x")
    table = [profile_entry(profile, *PAIRS[i]).subst_many({x: profile.reg.const(s)})
             .constant_value() for i, s in checks.slots]
    vanishes = search._vanishes(checks.per_equation[0], table)
    assert vanishes == eval_equation(eq, lift_profile(profile)).is_zero(), (eq.name, max_degree)
    return vanishes


def _random_profile(rng, degree, fractional):
    reg = SymbolRegistry()
    x = reg.var("x")
    constants = [F(rng.randint(-2, 2), rng.choice((1, 2, 3)) if fractional else 1)
                 for _ in CONSTANT_NAMES]
    entries = {}
    for pair, b in zip(PAIRS, boundary_values(constants)):
        poly = reg.const(b)
        for j in range(1, degree + 1):
            poly = poly + x ** j * F(rng.randint(-2, 2), rng.choice((1, 2)) if fractional else 1)
        entries[pair] = poly
    return DiagProfile(reg, entries)


def _family_profiles(degree):
    """Solution-family members whose entries have degree <= degree."""
    out = []
    for case, params in (("thm5_i", {"alpha": 1, "beta": -2}),
                         ("thm5_ii", {"lhh": F(1, 2), "beta": 1, "zeta": -1}),
                         ("thm5_iii", {"alpha": 1, "beta": 2, "gamma": -1, "zeta": 1})):
        reg = SymbolRegistry()
        t = reg.var("t")
        f = reg.const(1)
        for k in range((degree - 1) // 2):
            f = f * (t + k + 1)
        out.append(build_profile(FamilySpec(case, reg, params, f=f)))
    return out


@pytest.mark.parametrize("max_degree", [1, 2, 3, 4, 5])
def test_exact_check_matches_eval_equation(max_degree):
    # per catalog equation free of d1, the leaf's check on the shared
    # point set agrees with the symbolic evaluation, on random profiles
    # and on solutions
    rng = random.Random(max_degree)
    profiles = [_random_profile(rng, max_degree, fractional) for fractional in (False, True)]
    profiles += _family_profiles(max_degree)
    outcomes = set()
    for profile in profiles:
        for eq in CATALOG.values():
            if not _reads_d1(eq):
                outcomes.add(_exact_agrees(eq, profile, max_degree))
    assert outcomes == {True, False}


@pytest.mark.parametrize("max_degree", [1, 2, 3, 4, 5])
def test_exact_check_catches_near_misses(max_degree):
    # products ee(x) * ff(-y) that vanish on much of the space, but not
    # identically, must fail the exact check:
    # - ee = x (x - 1) ... (x - D + 1) and ff = x vanish on T_D, so the
    #   lattice must have degree 2 * D;
    # - with the roots of ee at the sample points' x values, they vanish
    #   at all three sample points
    reg = SymbolRegistry()
    x = reg.var("x")
    root_sets = [range(max_degree)]
    if max_degree >= len(search._PRESCREEN_POINTS):
        root_sets.append([p[0] for p in search._PRESCREEN_POINTS])
    for roots in root_sets:
        probe = Equation("probe", ("e", "e", "e"), ((1, "ee", (1, 0, 0), "ff", (0, -1, 0)),))
        ee = reg.const(1)
        for v in roots:
            ee = ee * (x - v)
        profile = DiagProfile(reg, {("e", "e"): ee, ("f", "f"): x})
        assert not _exact_agrees(probe, profile, max_degree)


def test_post_verify_builds_one_bracket_per_survivor(monkeypatch):
    # the weak verdict and the strict one (whether it vanishes) of a
    # survivor are read from the same double bracket, built modulo the
    # total derivation, so no reduction step runs; every survivor's
    # bracket is c * epsilon, which weak_verdict certifies without a
    # generator acting, so no act_on_tensor call runs and no action
    # table is built; a bracket that is not c * epsilon acts once, looked
    # up on ybe, where a tracer sees it, and its arity-3 action table is
    # built once per process, in conformal's store
    calls = {"ccybe_bracket": 0, "generator_actions": 0, "reduce_mod_total": 0,
             "act_on_tensor": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(ybe, name, reduce_mod_total), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ybe, name, counted, raising=False)
    builds = []
    build = conformal._action_table

    def counted_build(alg, names, arity, lam):
        builds.append(arity)
        return build(alg, names, arity, lam)

    monkeypatch.setattr(conformal, "_action_table", counted_build)
    monkeypatch.setattr(conformal, "_TABLES", {})
    cfg = SearchConfig(max_degree=1, coeff_grid=(-1, 0, 1), constants_grid=(-1, 0, 1),
                       mode="strict", raw=True)
    for runs in (1, 2):
        report = run_search(cfg)
        assert len(report.survivors) == 39 and not report.characterization_failures
        assert calls == {"ccybe_bracket": 39 * runs, "generator_actions": 0,
                         "reduce_mod_total": 0, "act_on_tensor": 0}
        assert builds == []
    reg = SymbolRegistry()
    profile = DiagProfile(reg, {("e", "f"): reg.var("x")})
    for runs in (1, 2):
        bracket = ybe.ccybe_bracket(lift_profile(profile))
        assert not ybe.weak_verdict(bracket)[0]
        assert calls == {"ccybe_bracket": 78 + runs, "generator_actions": runs,
                         "reduce_mod_total": 0, "act_on_tensor": runs}
        assert builds == [3]
