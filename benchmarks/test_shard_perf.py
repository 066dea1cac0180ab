"""Intra-cell sharding determinism counters.

The sharded taut-rw cell: the shard-merged additive counters (``vectors``
and ``kernel_steps`` summed across vector-range shards) must equal the
unsharded run's, so the merged values are as deterministic as the backend
itself and are pinned in the baseline that ``compare_baseline.py`` guards.
"""

import pytest

from repro.eval.runner import CellSpec, run_spec
from repro.eval.scenarios import build_scenario


@pytest.fixture(scope="module")
def strash_pair():
    # register-preserving pairs: the cut-point backend taut-rw applies
    # here, unlike on the retimed figure-2 pair
    return build_scenario("strash", widths=[3])


def test_sharded_taut_rw_merged_counters(benchmark, strash_pair,
                                         verifier_budget):
    """Vector-range shards: the merged enumeration covers every vector once."""
    workload = strash_pair[1]  # the small counter pair: exhaustive but quick
    base = run_spec(CellSpec(workload, "taut-rw", time_budget=60.0))
    spec = CellSpec(workload, "taut-rw", time_budget=60.0, shards=4)
    merged = benchmark.pedantic(lambda: run_spec(spec), rounds=1, iterations=1)
    assert merged.verdict == base.verdict == "equivalent"
    assert merged.stats["vectors"] == base.stats["vectors"]
    benchmark.extra_info["kernel_steps"] = int(merged.stats["kernel_steps"])

