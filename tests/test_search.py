import gc
import itertools
import json
import os
from fractions import Fraction

import pytest

from ccybe import search
from ccybe.search import (
    MAX_WORKERS,
    SearchConfig,
    SearchConfigError,
    candidate_profile,
    count_candidates,
    count_consistent,
    diff_reports,
    run_search,
)
from ccybe.ybe import invariance_residues

from support import enumerate_candidates, enumerate_profiles, flat_scan, naive_run

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
            if profile.entry("e", "e") == x * x:
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
            "".join(pair): profile.entry(*pair).to_string()
            for pair in search.PAIRS if not profile.entry(*pair).is_zero()
        }
        constants = {k: str(v) for k, v in profile.constants.items()}
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


def test_worker_count_determinism():
    cfg1 = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0, 1))
    cfg2 = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0, 1),
                        workers=2)
    rep1, rep2 = run_search(cfg1), run_search(cfg2)
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


def test_golden_report():
    cfg = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0, 1),
                       mode="weak")
    report = run_search(cfg)
    with open(os.path.join(DATA, "search_golden.json")) as fh:
        golden = json.load(fh)
    assert report.content_hash == golden["content_hash"]
    assert report.survivors == golden["survivors"]
    assert report.candidates_scanned == golden["candidates_scanned"]


def test_diff_reports():
    cfg = SearchConfig(max_degree=1, coeff_grid=(0, 1), constants_grid=(0,))
    rep1 = run_search(cfg)
    rep2 = run_search(cfg)
    assert diff_reports(rep1, rep2) == {"added": [], "removed": []}
    rep2.survivors = rep2.survivors[:-1]
    diff = diff_reports(rep1, rep2)
    assert not diff["added"] and len(diff["removed"]) == 1
    other = run_search(SearchConfig(max_degree=1, coeff_grid=(0,),
                                    constants_grid=(0,)))
    with pytest.raises(ValueError, match="different configurations"):
        diff_reports(rep1, other)


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
}


@pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
def test_scan_matches_flat_scan(name):
    # the depth-first scan keeps exactly the candidates, indices, records
    # and problems of the flat reference scan, in the same order
    cfg = SCAN_CONFIGS[name]
    passed = search._scan(cfg)
    assert passed
    assert passed == flat_scan(cfg)


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
