"""Result-cache effectiveness on a warm multiplier sweep.

A cold pass over one Table-II-style multiplier cell per method fills a fresh
on-disk cache; the benchmarked pass then replays the same cells and must be
served *entirely* from the cache — ``cache_hits``/``cache_misses`` are
recorded as ``extra_info`` and guarded by ``compare_baseline.py`` exactly
like the kernel and BDD counters.  The counts are deterministic (one hit per
cell, zero misses), so any change in cache-key derivation or lookup policy
shows up as a counter diff in CI rather than a silent full recompute.
"""

import pytest

from repro.eval.cache import ResultCache
from repro.eval.runner import CellSpec, run_cells
from repro.eval.scenarios import build_scenario

#: widths kept tiny — the point is hit accounting, not checker cost
MULT_WIDTHS = [3]
METHODS = ["match", "hash"]


@pytest.fixture(scope="module")
def specs(verifier_budget):
    workloads = build_scenario("multiplier", widths=MULT_WIDTHS)
    return [
        CellSpec(workload, method, time_budget=verifier_budget)
        for workload in workloads
        for method in METHODS
    ]


def test_warm_cache_serves_every_cell(benchmark, specs, tmp_path_factory):
    cache = ResultCache(directory=str(tmp_path_factory.mktemp("cache")))
    cold = run_cells(specs, cache=cache)
    assert all(m.verdict == "equivalent" for m in cold)
    assert cache.misses == len(specs)
    assert cache.hits == 0

    warm = benchmark.pedantic(lambda: run_cells(specs, cache=cache),
                              rounds=1, iterations=1)
    assert warm == cold
    assert cache.misses == len(specs), "the warm pass must not recompute"
    benchmark.extra_info["cache_hits"] = cache.hits
    benchmark.extra_info["cache_misses"] = cache.misses
    assert cache.hits == len(specs)
