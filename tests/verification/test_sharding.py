"""Tests for intra-cell sharding at the backend layer.

A backend is shardable when its ``Checker`` declares ``sum_stats``; the
one that does is taut-rw, whose shard ``(k, n)`` enumerates the ``k``-th
of ``n`` contiguous index ranges of its vectors.  The governing invariant
everywhere: the shard-merged verdict, counterexample and declared additive
counters equal the unsharded run's, for every shard count, and in both
execution modes (in-process and pooled).
"""

import os
import time
from dataclasses import replace

import pytest

from repro.eval.cache import ResultCache
from repro.eval.runner import (
    MAX_SHARDS,
    CellSpec,
    Measurement,
    expand_cell,
    merge_shards,
    run_cells,
    run_spec,
)
from repro.eval.scenarios import build_scenario
from repro.eval.service import WorkerPool
from repro.eval.workloads import table1_workload
from repro.verification.common import VerificationResult
from repro.verification.registry import (
    available_checkers,
    get_checker,
    register_checker,
    run_checker,
    unregister_checker,
)

SHARDED = ("taut-rw",)
UNSHARDED = ("eijk", "fraig", "hash", "match", "sat", "sis", "smv", "taut")


@pytest.fixture(scope="module")
def strash():
    return build_scenario("strash", widths=[3])[0]


@pytest.fixture(scope="module")
def counter():
    return build_scenario("strash", widths=[3])[1]


@pytest.fixture(scope="module")
def tiny_workload():
    return table1_workload(1)


@pytest.fixture(scope="module")
def fault_pair():
    """A fault-injected fuzz pair: ground truth ``not_equivalent``, and
    taut-rw's first refuting vector is not the first of every shard."""
    from repro.eval.fuzz import build_cell, make_specs

    specs = make_specs(12, seed=0, n_inputs=3, n_flipflops=4, n_gates=16)
    return build_cell(specs[4]).workload


def _measurement(method, verdict, seconds=1.0, stats=None, **kw):
    return Measurement(workload="w", method=method, verdict=verdict,
                       seconds=seconds, stats=dict(stats or {}), **kw)


def _outcome(m):
    """What every execution mode must agree on: all but the wall clock."""
    stats = {k: v for k, v in m.stats.items() if k != "wall_seconds"}
    return m.verdict, m.counterexample, stats


# ---------------------------------------------------------------------------
# The registry protocol
# ---------------------------------------------------------------------------

def _equivalent(original, retimed, **kwargs):
    return VerificationResult(method="stub", status="equivalent", seconds=0.0)


class TestShardableRegistry:
    def test_initial_backends_are_registered(self):
        assert get_checker("taut-rw").sum_stats == frozenset(
            {"vectors", "kernel_steps", "retries"})

    def test_unshardable_method_returns_none(self):
        for method in UNSHARDED + ("eijk+",):
            checker = get_checker(method)
            assert checker.sum_stats is None, method
            assert "shard" not in checker.accepts, method

    def test_expansion_caps_the_job_count(self, strash):
        for requested, jobs in ((1, 1), (4, 4), (MAX_SHARDS + 1, MAX_SHARDS)):
            spec = CellSpec(strash, "taut-rw", shards=requested)
            assert len(expand_cell(spec)) == jobs

    def test_sum_stats_require_shard_in_accepts(self):
        with pytest.raises(ValueError):
            register_checker("shardless", _equivalent, accepts=(),
                             sum_stats=(), replace=True)
        assert "shardless" not in available_checkers()

    def test_shard_in_accepts_requires_sum_stats(self):
        with pytest.raises(ValueError):
            register_checker("sumless", _equivalent, accepts=("shard",),
                             replace=True)
        assert "sumless" not in available_checkers()


# ---------------------------------------------------------------------------
# Backend-level shard correctness
# ---------------------------------------------------------------------------

class TestBackendShards:
    @pytest.mark.parametrize("method", SHARDED)
    def test_equivalent_pair_every_shard_agrees(self, counter, method):
        base = run_checker(method, counter.original, counter.retimed,
                           time_budget=60.0, node_budget=500_000)
        assert base.status == "equivalent"
        for k in range(4):
            part = run_checker(method, counter.original, counter.retimed,
                               time_budget=60.0, node_budget=500_000,
                               shard=(k, 4))
            assert part.status == "equivalent", f"{method} shard {k}"

    def test_taut_rw_vector_counts_sum_exactly(self, counter):
        base = run_checker("taut-rw", counter.original, counter.retimed,
                           time_budget=60.0)
        sharded = sum(
            run_checker("taut-rw", counter.original, counter.retimed,
                        time_budget=60.0, shard=(k, 4)).stats["vectors"]
            for k in range(4)
        )
        assert sharded == base.stats["vectors"]

    @pytest.mark.parametrize("count", (3, 5, 7))
    def test_uneven_ranges_partition_the_vectors(self, counter, count):
        base = run_checker("taut-rw", counter.original, counter.retimed,
                           time_budget=60.0)
        total = int(base.stats["vectors"])
        parts = [run_checker("taut-rw", counter.original, counter.retimed,
                             time_budget=60.0, shard=(k, count))
                 for k in range(count)]
        assert all(part.status == "equivalent" for part in parts)
        assert [part.stats["vectors"] for part in parts] == [
            (k + 1) * total // count - k * total // count
            for k in range(count)]

    def test_an_empty_range_is_an_equivalent_shard(self, fault_pair):
        # the pair's 2^7 vectors split 2^20 ways: shard 0 is range(0, 0),
        # so even on a refutable pair it is equivalent after 0 vectors
        part = run_checker("taut-rw", fault_pair.original, fault_pair.retimed,
                           time_budget=60.0, shard=(0, 1 << 20))
        assert part.status == "equivalent"
        assert part.stats["vectors"] == 0.0
        whole = run_checker("taut-rw", fault_pair.original, fault_pair.retimed,
                            time_budget=60.0, shard=(0, 1))
        assert whole.status == "not_equivalent"

    def test_invalid_shard_ranges_are_rejected(self, strash):
        for bad in ((4, 4), (-1, 4), (0, 0)):
            with pytest.raises(ValueError):
                run_checker("taut-rw", strash.original, strash.retimed,
                            time_budget=60.0, shard=bad)

    def test_degenerate_single_shard_is_the_unsharded_run(self, counter):
        base = run_checker("taut-rw", counter.original, counter.retimed,
                           time_budget=60.0)
        single = run_checker("taut-rw", counter.original, counter.retimed,
                             time_budget=60.0, shard=(0, 1))
        assert single.status == base.status
        assert single.stats["vectors"] == base.stats["vectors"]


# ---------------------------------------------------------------------------
# The merge_shards reducer (backend-independent invariants)
# ---------------------------------------------------------------------------

class TestMergeShards:
    def _spec(self, tiny_workload):
        # taut-rw declares "vectors" additive; peaks take the max
        return CellSpec(tiny_workload, "taut-rw", shards=2)

    def test_sum_and_max_split_by_declared_stats(self, tiny_workload):
        parts = [
            _measurement("taut-rw", "equivalent", seconds=1.0,
                         stats={"vectors": 8.0, "graph_nodes": 10.0}),
            _measurement("taut-rw", "equivalent", seconds=3.0,
                         stats={"vectors": 8.0, "graph_nodes": 12.0}),
        ]
        merged = merge_shards(self._spec(tiny_workload), parts)
        assert merged.verdict == "equivalent"
        assert merged.stats["vectors"] == 16.0     # declared additive
        assert merged.stats["graph_nodes"] == 12.0  # peak: max
        assert merged.stats["shards"] == 2.0
        assert merged.seconds == 3.0  # the slowest shard is the critical path
        assert merged.detail.startswith("merged 2 shards; ")

    def test_any_refuting_shard_refutes_the_cell(self, tiny_workload):
        cex = {"pi0": False}
        parts = [
            _measurement("taut-rw", "equivalent"),
            _measurement("taut-rw", "not_equivalent",
                         detail="refuted in shard", counterexample=cex),
        ]
        merged = merge_shards(self._spec(tiny_workload), parts)
        assert merged.verdict == "not_equivalent"
        assert merged.counterexample == cex
        assert merged.detail == "refuted in shard"

    def test_timeout_shard_dashes_the_cell(self, tiny_workload):
        parts = [
            _measurement("taut-rw", "equivalent"),
            _measurement("taut-rw", "timeout"),
        ]
        merged = merge_shards(self._spec(tiny_workload), parts)
        assert merged.verdict == "timeout"

    def test_empty_group_is_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            merge_shards(self._spec(tiny_workload), [])

    def test_refutation_outranks_failure_and_timeout(self, tiny_workload):
        cex = {"pi0": True}
        parts = [
            _measurement("taut-rw", "timeout", seconds=5.0),
            _measurement("taut-rw", "error",
                         detail="crashed"),
            _measurement("taut-rw", "not_equivalent", seconds=2.0, detail="refuted",
                         counterexample=cex),
        ]
        merged = merge_shards(self._spec(tiny_workload), parts)
        assert merged.verdict == "not_equivalent"
        assert merged.counterexample == cex
        assert merged.detail == "refuted"
        assert merged.seconds == 5.0  # still the group's critical path

    def test_failure_outranks_timeout(self, tiny_workload):
        parts = [
            _measurement("taut-rw", "timeout"),
            _measurement("taut-rw", "error",
                         detail="crashed"),
            _measurement("taut-rw", "equivalent"),
        ]
        merged = merge_shards(self._spec(tiny_workload), parts)
        assert merged.verdict == "error"
        assert merged.detail == "crashed"

    def test_first_refuting_shard_by_index_supplies_the_counterexample(
            self, tiny_workload):
        first, second = {"pi0": False}, {"pi0": True}
        refuting = [
            _measurement("taut-rw", "not_equivalent",
                         detail="shard 1", counterexample=first),
            _measurement("taut-rw", "not_equivalent",
                         detail="shard 2", counterexample=second),
        ]
        ok = _measurement("taut-rw", "equivalent")
        spec = self._spec(tiny_workload)
        merged = merge_shards(spec, [ok] + refuting)
        assert (merged.detail, merged.counterexample) == ("shard 1", first)
        merged = merge_shards(spec, [ok] + refuting[::-1])
        assert (merged.detail, merged.counterexample) == ("shard 2", second)

    def test_unshardable_method_takes_the_max_of_every_stat(self,
                                                            tiny_workload):
        parts = [
            _measurement("smv", "equivalent",
                         stats={"iterations": 3.0, "peak_nodes": 9.0}),
            _measurement("smv", "equivalent",
                         stats={"iterations": 5.0, "peak_nodes": 4.0}),
        ]
        merged = merge_shards(CellSpec(tiny_workload, "smv", shards=2), parts)
        assert merged.stats == {"iterations": 5.0, "peak_nodes": 9.0,
                                "shards": 2.0}


# ---------------------------------------------------------------------------
# Expansion: one job per shard, or the cell itself
# ---------------------------------------------------------------------------

class TestExpandCell:
    @pytest.mark.parametrize("requested", (2, 3, 4))
    @pytest.mark.parametrize("method", SHARDED)
    def test_shardable_cell_expands_into_ordered_range_jobs(
            self, strash, method, requested):
        spec = CellSpec(strash, method, time_budget=7.0, shards=requested)
        jobs = expand_cell(spec)
        assert [job.shard for job in jobs] == [(k, requested)
                                              for k in range(requested)]
        # every job is the cell itself, narrowed to one unsplit range
        assert all(replace(job, shards=requested, shard=None) == spec
                   for job in jobs)

    @pytest.mark.parametrize("method", UNSHARDED)
    def test_unshardable_cell_is_a_single_job(self, strash, method):
        spec = CellSpec(strash, method, shards=4)
        assert expand_cell(spec) == [spec]

    @pytest.mark.parametrize("method", SHARDED + UNSHARDED)
    def test_unsplit_request_is_a_single_job(self, strash, method):
        spec = CellSpec(strash, method)
        assert expand_cell(spec) == [spec]


# ---------------------------------------------------------------------------
# The merged cell equals the unsharded cell
# ---------------------------------------------------------------------------

class TestShardedCells:
    @pytest.mark.parametrize("method", SHARDED)
    def test_merged_verdict_matches_unsharded(self, counter, method):
        base = run_spec(CellSpec(counter, method, time_budget=60.0))
        merged = run_spec(CellSpec(counter, method, time_budget=60.0,
                                   shards=4))
        assert merged.verdict == base.verdict == "equivalent"
        assert merged.stats["shards"] >= 2.0

    def test_merged_additive_counters_sum(self, counter):
        base = run_spec(CellSpec(counter, "taut-rw", time_budget=60.0))
        merged = run_spec(CellSpec(counter, "taut-rw", time_budget=60.0,
                                   shards=4))
        assert merged.stats["vectors"] == base.stats["vectors"]

    def test_refuting_shard_carries_a_certified_counterexample(self):
        from repro.eval.fuzz import build_cell, make_specs

        # a fault-injected pair: ground truth not_equivalent
        spec = next(s for s in make_specs(6, seed=3)
                    if s.flavour == "fault")
        cell = build_cell(spec)
        merged = run_spec(CellSpec(cell.workload, "taut-rw",
                                   time_budget=60.0, shards=4))
        assert merged.verdict == "not_equivalent"
        assert merged.counterexample is not None
        assert merged.stats.get("cex_certified") == 1.0

    @pytest.mark.parametrize("shards", (2, 3, 4, 64))
    def test_sharded_refutation_carries_the_unsharded_counterexample(
            self, fault_pair, shards):
        # the ranges keep enumeration order, so the first refuting shard
        # stops at the vector the unsplit enumeration stops at
        base = run_spec(CellSpec(fault_pair, "taut-rw", time_budget=60.0))
        merged = run_spec(CellSpec(fault_pair, "taut-rw", time_budget=60.0,
                                   shards=shards))
        assert merged.verdict == base.verdict == "not_equivalent"
        assert merged.counterexample == base.counterexample
        assert merged.stats["cex_certified"] == 1.0

    def test_unshardable_method_ignores_the_shard_request(self, strash):
        for method in ("smv", "fraig", "taut"):
            base = run_spec(CellSpec(strash, method, time_budget=60.0))
            same = run_spec(CellSpec(strash, method, time_budget=60.0,
                                     shards=4))
            assert same.verdict == base.verdict == "equivalent", method
            assert same.detail == base.detail, method
            assert "shards" not in same.stats, method


# ---------------------------------------------------------------------------
# Both execution modes expand and merge shards the same way
# ---------------------------------------------------------------------------

class TestShardModeParity:
    def test_in_process_and_pool_merge_identically(self, counter):
        from repro.eval.fuzz import build_cell, make_specs

        fault = build_cell(next(s for s in make_specs(6, seed=3)
                                if s.flavour == "fault")).workload
        specs = [CellSpec(workload, method, time_budget=60.0, shards=4)
                 for workload in (counter, fault)
                 for method in ("fraig", "taut-rw")]
        modes = {
            "in-process": run_cells(specs),
            "pool": run_cells(specs, jobs=2, isolate=True),
        }

        reference = [_outcome(m) for m in modes["in-process"]]
        assert [verdict for verdict, _, _ in reference] == (
            ["equivalent"] * 2 + ["not_equivalent"] * 2)
        # fraig runs unsplit beside the sharded taut-rw cells
        assert [stats.get("shards") for _, _, stats in reference] == [
            None, 4.0, None, 4.0]
        assert all(cex is not None for _, cex, _ in reference[2:])
        for mode, measurements in modes.items():
            assert [_outcome(m) for m in measurements] == reference, (
                mode, [m.detail for m in measurements])

    @pytest.mark.parametrize("method", SHARDED)
    def test_pooled_merge_equals_in_process(self, counter, method):
        spec = CellSpec(counter, method, time_budget=60.0, shards=4)
        serial = run_cells([spec])
        pooled = run_cells([spec], jobs=2, isolate=True)
        assert serial[0].verdict == "equivalent"
        assert serial[0].stats["shards"] == 4.0
        assert [_outcome(m) for m in pooled] == [_outcome(m) for m in serial]


# ---------------------------------------------------------------------------
# run_cells owns expansion, merging, streaming and caching of shard groups
# ---------------------------------------------------------------------------

class TestShardedRunCells:
    @pytest.mark.parametrize("isolate", (False, True), ids=("serial", "pool"))
    def test_on_result_fires_once_per_logical_cell(self, counter, isolate):
        specs = [CellSpec(counter, "taut-rw", time_budget=60.0, shards=4),
                 CellSpec(counter, "smv", time_budget=60.0, shards=4)]
        events = []
        results = run_cells(specs, jobs=2 if isolate else 1, isolate=isolate,
                            on_result=lambda i, m: events.append((i, m)))
        # shard jobs never reach the hook: each cell streams once, merged
        assert sorted(index for index, _ in events) == [0, 1]
        assert dict(events) == dict(enumerate(results))
        assert results[0].stats["shards"] == 4.0
        assert "shards" not in results[1].stats

    @pytest.mark.parametrize("isolate", (False, True), ids=("serial", "pool"))
    def test_merged_cell_is_cached_under_the_logical_key(self, counter,
                                                         isolate, tmp_path):
        spec = CellSpec(counter, "taut-rw", time_budget=60.0, shards=4)
        cache = ResultCache(str(tmp_path / "cache"))
        cold = run_cells([spec], jobs=2 if isolate else 1, isolate=isolate,
                         cache=cache)
        assert (cache.misses, cache.stores) == (1, 1)  # one cell, not 4 jobs
        # the shard count is not part of the key: an unsplit request hits
        warm = run_cells([replace(spec, shards=1)], cache=cache)
        assert cache.hits == 1
        assert warm == cold
        assert warm[0].stats["shards"] == 4.0

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="stub backends only reach isolated workers "
                               "via fork")
    def test_a_killed_shard_dashes_its_cell_uncached(self, counter, tmp_path):
        def stall(original, retimed, time_budget=None, shard=None):
            if shard == (1, 2):
                time.sleep(300)  # never polls its budget
            return VerificationResult(method="stub-stall", status="equivalent",
                                      seconds=0.0, stats={"vectors": 1.0})

        register_checker("stub-stall", stall,
                         accepts=("time_budget", "shard"),
                         sum_stats=("vectors",), replace=True)
        cache = ResultCache(str(tmp_path / "cache"))
        try:
            (merged,) = run_cells(
                [CellSpec(counter, "stub-stall", time_budget=0.3, shards=2)],
                jobs=2, isolate=True, cache=cache)
        finally:
            unregister_checker("stub-stall")
        assert merged.verdict == "timeout"
        assert "wall-clock" in merged.detail
        # the surviving shard's counters are kept; the dash is not stored
        assert (merged.stats["vectors"], merged.stats["shards"]) == (1.0, 2.0)
        assert (cache.misses, cache.stores) == (1, 0)

    def test_warm_pooled_run_starts_no_pool(self, counter, tmp_path,
                                            monkeypatch):
        spec = CellSpec(counter, "taut-rw", time_budget=60.0, shards=4)
        directory = str(tmp_path / "cache")
        cold = run_cells([spec], jobs=2, isolate=True,
                         cache=ResultCache(directory))

        def no_pool(*args, **kwargs):
            raise AssertionError("a fully cached run started a pool")

        monkeypatch.setattr("repro.eval.service.WorkerPool", no_pool)
        cache = ResultCache(directory)
        warm = run_cells([spec], jobs=2, isolate=True, cache=cache)
        assert (cache.hits, cache.misses) == (1, 0)
        assert warm == cold
        assert cold[0].stats["shards"] == 4.0

    def test_worker_pool_runs_a_sharded_spec_as_given(self, counter):
        # the pool runs plain jobs: expansion and merging are run_cells' work
        spec = CellSpec(counter, "taut-rw", time_budget=60.0, shards=4)
        with WorkerPool(1) as pool:
            results = pool.run([(0, spec)])
        assert list(results) == [0]
        assert pool.cells_run == 1
        assert "shards" not in results[0].stats
        unsplit = run_spec(replace(spec, shards=1))
        assert results[0].stats["vectors"] == unsplit.stats["vectors"]
