"""Tests of the benchmark's own arithmetic and of its seeded inputs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import itertools

import pytest

from measure import GapClock, Tracer, percentile, samples_needed, self_times


def fake_clock(times):
    """A clock returning the given instants in order."""
    return iter(times).__next__


# -- percentile and its tail sample count ------------------------------------

def test_percentile_is_nearest_rank_with_samples_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 0.5) == (50, 50)
    assert percentile(values, 0.9) == (90, 10)
    assert percentile(values, 1.0) == (100, 0)
    assert percentile([7.0], 0.9) == (7.0, 0)


def test_percentile_tail_count_below_ten_without_enough_samples():
    assert percentile(list(range(99)), 0.9)[1] == 9
    assert percentile(list(range(100)), 0.9)[1] == 10


def test_samples_needed_for_ten_beyond():
    assert samples_needed(0.9) == 100
    assert samples_needed(0.5) == 20
    for q in (0.5, 0.9, 0.99):
        n = samples_needed(q)
        assert percentile(list(range(n)), q)[1] >= 10
        assert percentile(list(range(n - 1)), q)[1] < 10


def test_percentile_rejects_empty_and_bad_quantiles():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


# -- gap-based time to verdict -------------------------------------------------

def test_gaps_when_cache_hits_stream_first():
    # the sweep starts at 10.0; cells 1 and 3 are cache hits and stream in
    # submission order before any computed cell, then 0 and 2 finish
    clock = GapClock(start=10.0, clock=fake_clock([10.25, 10.25, 11.0, 12.5]))
    for index in (1, 3, 0, 2):
        clock(index)
    assert clock.gaps == pytest.approx([0.25, 0.0, 0.75, 1.5])
    assert clock.order == [1, 3, 0, 2]
    assert clock.by_index() == pytest.approx({1: 0.25, 3: 0.0, 0: 0.75, 2: 1.5})


# -- spans and self time -------------------------------------------------------

def nested_tracer():
    """engine [0,10] > (lower [1,3], fsm [4,8] > lower [5,6])."""
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tracer.span("engine", "engine", cell="c0"):
        with tracer.span("bitblast", "lower"):
            pass
        with tracer.span("product", "fsm"):
            with tracer.span("bitblast", "lower"):
                pass
    return tracer


def test_self_time_subtracts_direct_children():
    tracer = nested_tracer()
    assert self_times(tracer.spans) == pytest.approx(
        {"engine": 10 - 2 - 4, "lower": 2 + 1, "fsm": 4 - 1})


def test_self_times_add_up_to_the_outer_span():
    tracer = nested_tracer()
    assert sum(self_times(tracer.spans).values()) == pytest.approx(10)


def test_spans_record_parent_and_inherit_the_cell():
    tracer = nested_tracer()
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]
    assert {s.cell for s in tracer.spans} == {"c0"}
    assert tracer.spans[3].to_dict() == {
        "name": "bitblast", "layer": "lower", "start": 5, "end": 6,
        "parent": 2, "cell": "c0"}


def test_outermost_skips_spans_nested_in_their_own_layer():
    tracer = Tracer(clock=fake_clock(itertools.count()))
    with tracer.span("bitblast", "lower"):
        assert tracer.inside("lower")
        with tracer.span("rewrite", "lower"):
            pass
    with tracer.span("product", "fsm"):
        assert not tracer.inside("lower")
        with tracer.span("bitblast", "lower"):
            pass
    assert [s.name for s in tracer.outermost("lower")] == ["bitblast", "bitblast"]
    assert len(tracer.outermost("fsm")) == 1


# -- seeded inputs ---------------------------------------------------------------

def cell_fingerprints(name, seed, sweep=0):
    """Netlist fingerprints of a workload's cells, in submission order."""
    import sweeps
    from repro.eval.cache import netlist_fingerprint
    from repro.eval.fuzz import build_cell

    if name == "tables":
        workloads = [spec.workload for spec in sweeps.table_specs()]
    else:
        workloads = [build_cell(spec).workload
                     for spec in sweeps.fuzz_specs(seed, sweep, cells=6)]
    return [(netlist_fingerprint(w.original), netlist_fingerprint(w.retimed))
            for w in workloads]


@pytest.mark.parametrize("name", ["tables", "fuzz"])
def test_same_seed_gives_the_same_cells(name):
    first, again, other = (cell_fingerprints(name, seed) for seed in (3, 3, 4))
    assert first == again
    # the paper's tables are fixed circuits; fuzz circuits follow the seed
    assert (first == other) == (name == "tables")


def test_each_sweep_of_a_run_draws_its_own_fuzz_cells():
    import sweeps

    assert cell_fingerprints("fuzz", 3, 1) == cell_fingerprints("fuzz", 3, 1)
    assert cell_fingerprints("fuzz", 3, 1) != cell_fingerprints("fuzz", 3, 0)
    # sweep k continues where sweep k - 1 stopped, inside the seed's stride
    seeds = [spec.seed for spec in sweeps.fuzz_specs(3, 1)]
    assert seeds[0] == 3 * sweeps.FUZZ_SEED_STRIDE + sweeps.FUZZ_CELLS
    assert seeds[-1] < 4 * sweeps.FUZZ_SEED_STRIDE


def test_specs_that_do_not_build_are_left_out():
    import sweeps

    # fuzz seed 3040215 (benchmark seed 304, sweep 1): no visible fault
    specs = sweeps.fuzz_specs(304, 1)[22:24]
    assert specs[1].seed == 3040215
    assert [cell.spec for cell in sweeps.buildable(specs)] == specs[:1]


def test_resweep_starts_from_a_warm_cache(tmp_path, monkeypatch):
    import sweeps

    full = sweeps.fuzz_specs
    monkeypatch.setattr(sweeps, "fuzz_specs",
                        lambda seed, sweep=0: full(seed, sweep, cells=6))
    workload = sweeps.Workload("resweep", 3, str(tmp_path))
    cache = workload.make_cache(1)
    sweep = workload.sweep(1, isolate=False, cache=cache)
    assert sweep.problems == [None] * sweep.cells
    # the half-run cells' equivalence verdicts come from the warm directory
    assert cache.hits > 0
    assert cache.misses > 0
