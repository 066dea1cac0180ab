"""Kernel-checked tautology (taut-rw) determinism counters.

The strash counter cell enumerates all 16 of its vectors through one
evaluation memo, so its ``kernel_steps`` count each distinct subterm of
the cell once and are pinned in the baseline that ``compare_baseline.py``
guards.
"""

import pytest

from repro.eval.runner import CellSpec, run_spec
from repro.eval.scenarios import build_scenario


@pytest.fixture(scope="module")
def strash_pair():
    # register-preserving pairs: the cut-point backend taut-rw applies
    # here, unlike on the retimed figure-2 pair
    return build_scenario("strash", widths=[3])


def test_taut_rw_counter_kernel_steps(benchmark, strash_pair):
    """Every vector of the cell enumerated once, under one memo."""
    workload = strash_pair[1]  # the small counter pair: exhaustive but quick
    spec = CellSpec(workload, "taut-rw", time_budget=60.0)
    measurement = benchmark.pedantic(lambda: run_spec(spec), rounds=1,
                                     iterations=1)
    assert measurement.verdict == "equivalent"
    assert measurement.stats["vectors"] == 16.0
    benchmark.extra_info["kernel_steps"] = int(measurement.stats["kernel_steps"])
