"""Tests for the process-isolated measurement runner.

Covers the timeout / failed / budget paths, ``Measurement.render``, the
enforced wall-clock kill, the serial-vs-parallel determinism guarantee and
the agreement of in-process and pooled runs on real cells.
"""

import os
import time

import pytest

from repro.circuits.generators import counter
from repro.eval.cache import ResultCache
from repro.eval.runner import (
    CellSpec,
    Measurement,
    Row,
    method_checker,
    render_table,
    run_cell,
    run_cells,
    run_rows,
)
from repro.eval.scenarios import build_scenario
from repro.eval.service import WorkerPool
from repro.eval.workloads import Workload, table1_workload
from repro.verification.common import VerificationError, VerificationResult
from repro.verification.registry import (
    get_checker,
    register_checker,
    unregister_checker,
)

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="stub backends only reach isolated workers via fork",
)


# ---------------------------------------------------------------------------
# Deterministic stub backends (registered for this module only)
# ---------------------------------------------------------------------------

def _stub_ok(original, retimed, time_budget=None):
    return VerificationResult(method="stub-ok", status="equivalent",
                              seconds=1.23, detail="stubbed",
                              stats={"kernel_steps": 42.0})


def _stub_coop_timeout(original, retimed, time_budget=None):
    return VerificationResult(method="stub-to", status="timeout",
                              seconds=float(time_budget or 0.0),
                              detail="cooperative budget check fired")


def _stub_raise(original, retimed, time_budget=None):
    raise VerificationError("boom: malformed problem")


def _stub_crash(original, retimed, time_budget=None):
    raise RuntimeError("unexpected checker bug")


def _stub_sleep(original, retimed, time_budget=None):
    time.sleep(300)  # never polls any budget


def _stub_die(original, retimed, time_budget=None):
    os._exit(3)  # simulates a segfaulting / OOM-killed worker


_STUBS = {
    "stub-ok": _stub_ok,
    "stub-to": _stub_coop_timeout,
    "stub-raise": _stub_raise,
    "stub-crash": _stub_crash,
    "stub-sleep": _stub_sleep,
    "stub-die": _stub_die,
}


@pytest.fixture(scope="module", autouse=True)
def stub_backends():
    for name, fn in _STUBS.items():
        register_checker(name, fn, accepts=("time_budget",), replace=True)
    yield
    for name in _STUBS:
        unregister_checker(name)


@pytest.fixture(scope="module")
def tiny_workload():
    return table1_workload(1)


class TestMeasurementRender:
    def test_ok_renders_seconds(self):
        m = Measurement("w", "m", "equivalent", 1.2345)
        assert m.render() == "1.23"
        assert m.render(precision=3) == "1.234"

    def test_timeout_renders_dash(self):
        assert Measurement("w", "m", "timeout", 60.0).render() == "-"

    def test_failed_renders_question_mark(self):
        assert Measurement("w", "m", "error", 0.1).render() == "?"

    def test_refutation_renders_apart_from_a_crash(self, tiny_workload):
        assert Measurement("w", "m", "not_equivalent", 0.1).render() == "!="
        row = Row(workload=tiny_workload, cells={
            "refuted": Measurement("w", "refuted", "not_equivalent", 0.1),
            "crashed": Measurement("w", "crashed", "error", 0.1),
        })
        text = render_table([row], ["refuted", "crashed"], title="t")
        assert text.splitlines()[4].split()[-2:] == ["!=", "?"]
        assert "'!=' = not equivalent" in text

    def test_legend_names_refutations_only_when_present(self, tiny_workload):
        row = Row(workload=tiny_workload, cells={
            "ok": Measurement("w", "ok", "equivalent", 0.1),
            "crashed": Measurement("w", "crashed", "error", 0.1),
        })
        text = render_table([row], ["ok", "crashed"], title="t")
        assert "'!='" not in text

    def test_legend_names_undecided_cells_only_when_present(self,
                                                            tiny_workload):
        def render(verdict):
            row = Row(workload=tiny_workload, cells={
                "ok": Measurement("w", "ok", "equivalent", 0.1),
                "other": Measurement("w", "other", verdict, 0.1),
            })
            return render_table([row], ["ok", "other"], title="t")

        text = render("error")
        assert text.splitlines()[-1] == (
            "'?' = undecided (error; the detail says why)")
        # CI greps a table of '?' cells for '!=': the legend must not add one
        assert "!=" not in text
        for verdict in ("equivalent", "not_equivalent", "timeout"):
            assert "'?'" not in render(verdict), verdict

    def test_unknown_verdict_is_rejected(self):
        for verdict in ("ok", "failed", "inconclusive", ""):
            with pytest.raises(ValueError):
                Measurement("w", "m", verdict, 0.1)


class TestRunCellPaths:
    def test_ok_path_copies_structured_stats(self, tiny_workload):
        m = run_cell(tiny_workload, "stub-ok")
        assert (m.verdict, m.seconds) == ("equivalent", 1.23)
        assert m.stats["kernel_steps"] == 42.0

    def test_cooperative_timeout_path(self, tiny_workload):
        m = run_cell(tiny_workload, "stub-to", time_budget=7.0)
        assert m.verdict == "timeout"
        assert m.seconds == 7.0

    def test_verification_error_becomes_failed_cell(self, tiny_workload):
        # the PR-3 bugfix: a raising checker must not abort the table run
        m = run_cell(tiny_workload, "stub-raise")
        assert m.verdict == "error"
        assert "VerificationError" in m.detail and "boom" in m.detail

    def test_unexpected_exception_becomes_failed_cell(self, tiny_workload):
        m = run_cell(tiny_workload, "stub-crash")
        assert m.verdict == "error"
        assert "RuntimeError" in m.detail

    def test_interface_mismatch_becomes_failed_cell(self, tiny_workload):
        # a real VerificationError out of product_fsm (input mismatch)
        bad = Workload(name="bad", original=tiny_workload.original,
                       cut=tiny_workload.cut, retimed=counter(2))
        m = run_cell(bad, "smv", time_budget=10)
        assert m.verdict == "error"
        assert "mismatch" in m.detail

    def test_node_budget_overrun_is_a_timeout(self):
        workload = table1_workload(8)
        m = run_cell(workload, "smv", time_budget=60, node_budget=100)
        assert m.verdict == "timeout"
        assert "node" in m.detail.lower()

    def test_unknown_method_raises_eagerly(self, tiny_workload):
        with pytest.raises(KeyError, match="unknown verification backend"):
            run_cell(tiny_workload, "nope")
        with pytest.raises(KeyError):
            run_cells([CellSpec(tiny_workload, "nope")])

    @pytest.mark.parametrize("roster", ["race", "race:sis,sat",
                                        "race:bdd,sat,fraig", "race:hash,sis"])
    def test_race_roster_is_an_unknown_method(self, tiny_workload, roster):
        with pytest.raises(KeyError, match="unknown verification backend"):
            method_checker(roster)
        with pytest.raises(KeyError):
            run_cell(tiny_workload, roster)
        # rejected before a pool starts or any cell of the batch runs
        with pytest.raises(KeyError):
            run_cells([CellSpec(tiny_workload, "stub-ok"),
                       CellSpec(tiny_workload, roster)], jobs=2, isolate=True)


class TestMethodLookup:
    """``method_checker`` is the plain registry lookup, made at call time."""

    @pytest.mark.parametrize("name", ["eijk", "eijk+", "fraig", "hash",
                                      "match", "sat", "sis", "smv", "taut",
                                      "taut-rw"])
    def test_method_checker_is_the_registry_descriptor(self, name):
        assert method_checker(name) is get_checker(name)
        assert method_checker(name).name == name

    def test_sees_checkers_registered_after_import(self):
        register_checker("stub-late", _stub_ok, accepts=("time_budget",),
                         replace=True)
        try:
            assert method_checker("stub-late") is get_checker("stub-late")
        finally:
            unregister_checker("stub-late")
        with pytest.raises(KeyError):
            method_checker("stub-late")


@pytest.fixture()
def pools(monkeypatch):
    """Every worker pool that ``run_cells`` starts, with its first workers."""
    started = []

    class RecordedPool(WorkerPool):
        def __init__(self, size, *args, **kwargs):
            super().__init__(size, *args, **kwargs)
            self.processes = [worker.process for worker in self._workers]
            started.append(self)

    monkeypatch.setattr("repro.eval.service.WorkerPool", RecordedPool)
    return started


@needs_fork
class TestIsolatedExecution:
    def test_non_cooperative_checker_killed_at_wall_clock_limit(self, tiny_workload):
        start = time.monotonic()
        (m,) = run_cells([CellSpec(tiny_workload, "stub-sleep", time_budget=1.0)],
                         jobs=1, isolate=True)
        elapsed = time.monotonic() - start
        assert m.verdict == "timeout"
        assert "wall-clock" in m.detail
        assert m.seconds == 1.0
        # killed promptly (budget + grace + scheduling slack), nowhere near
        # the 300s the stub would cooperatively take
        assert elapsed < 5.0

    def test_a_killed_cell_is_a_dash_that_is_not_cached(self, tiny_workload,
                                                        tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        (m,) = run_cells([CellSpec(tiny_workload, "stub-sleep", time_budget=0.3)],
                         jobs=2, isolate=True, cache=cache)
        assert m.verdict == "timeout"
        assert m.render() == "-"
        assert "wall-clock" in m.detail
        assert (cache.misses, cache.stores) == (1, 0)

    def test_dead_worker_reported_as_failed(self, tiny_workload):
        (m,) = run_cells([CellSpec(tiny_workload, "stub-die", time_budget=10.0)],
                         jobs=1, isolate=True)
        assert m.verdict == "error"
        assert "exit code 3" in m.detail

    def test_results_follow_submission_order_not_completion_order(self, tiny_workload):
        specs = [
            CellSpec(tiny_workload, "stub-sleep", time_budget=1.0),  # finishes last
            CellSpec(tiny_workload, "stub-ok", time_budget=10.0),    # finishes first
        ]
        results = run_cells(specs, jobs=2, isolate=True)
        assert [m.method for m in results] == ["stub-sleep", "stub-ok"]
        assert [m.verdict for m in results] == ["timeout", "equivalent"]

    def test_parallel_requires_isolation(self, tiny_workload):
        with pytest.raises(ValueError, match="isolate"):
            run_cells([CellSpec(tiny_workload, "stub-ok")], jobs=2, isolate=False)

    def test_fewer_than_one_worker_is_rejected(self, tiny_workload, pools):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_cells([CellSpec(tiny_workload, "stub-ok")], jobs=0, isolate=True)
        with pytest.raises(ValueError, match="pool size must be >= 1"):
            WorkerPool(0)
        assert pools == []

    def test_unknown_method_raises_before_any_pool_starts(self, tiny_workload,
                                                          pools):
        specs = [CellSpec(tiny_workload, "stub-ok"),
                 CellSpec(tiny_workload, "no-such")]
        with pytest.raises(KeyError, match="unknown verification backend"):
            run_cells(specs, jobs=2, isolate=True)
        assert pools == []

    @pytest.mark.parametrize("jobs, size", [(1, 1), (4, 2)])
    def test_each_run_starts_and_closes_its_own_pool(self, tiny_workload,
                                                     pools, jobs, size):
        specs = [CellSpec(tiny_workload, "stub-ok", time_budget=10.0)] * 2
        for _ in range(2):
            run_cells(specs, jobs=jobs, isolate=True)
        # one pool per run, no wider than the run has cells, closed at its end
        assert [pool.size for pool in pools] == [size, size]
        assert not any(process.is_alive()
                       for pool in pools for process in pool.processes)

    def test_the_pool_closes_when_a_callback_raises(self, tiny_workload, pools):
        def explode(index, measurement):
            raise RuntimeError("callback failed")

        with pytest.raises(RuntimeError, match="callback failed"):
            run_cells([CellSpec(tiny_workload, "stub-ok", time_budget=10.0)],
                      isolate=True, on_result=explode)
        assert len(pools) == 1
        assert not any(process.is_alive() for process in pools[0].processes)


@needs_fork
class TestDeterminism:
    METHODS = ["stub-ok", "stub-to"]

    def _render(self, jobs: int) -> str:
        workloads = build_scenario("figure2", widths=[1, 2, 3])
        rows = run_rows(workloads, self.METHODS, time_budget=5.0,
                        jobs=jobs, isolate=True)
        return render_table(rows, self.METHODS, title="determinism",
                            inference_method="stub-ok")

    def test_serial_and_parallel_tables_are_byte_identical(self):
        assert self._render(jobs=1) == self._render(jobs=4)

    def test_inferences_column_rendered_from_stats(self):
        text = self._render(jobs=4)
        assert "inferences" in text
        assert "42" in text


class TestRowAssembly:
    def test_run_row_in_process(self, tiny_workload):
        (row,) = run_rows([tiny_workload], ["stub-ok", "stub-to"],
                          time_budget=2.0)
        assert set(row.cells) == {"stub-ok", "stub-to"}
        assert row.cell("stub-ok").verdict == "equivalent"

    @needs_fork
    def test_run_rows_reassembles_by_workload(self):
        workloads = build_scenario("figure2", widths=[1, 2])
        rows = run_rows(workloads, ["stub-ok"], jobs=2, isolate=True)
        assert [r.workload.name for r in rows] == ["figure2 n=1", "figure2 n=2"]
        assert all(r.cells["stub-ok"].workload == r.workload.name for r in rows)


class TestRealBackendsThroughRunner:
    def test_hash_records_kernel_steps(self, tiny_workload):
        m = run_cell(tiny_workload, "hash")
        assert m.verdict == "equivalent"
        assert m.stats["kernel_steps"] > 0

    @needs_fork
    def test_isolated_real_row_matches_in_process_statuses(self):
        workload = table1_workload(2)
        methods = ["sis", "smv", "match", "hash"]
        (in_proc,) = run_rows([workload], methods, time_budget=30)
        (isolated,) = run_rows([workload], methods, time_budget=30, jobs=4,
                               isolate=True)
        assert {m: c.verdict for m, c in in_proc.cells.items()} == \
               {m: c.verdict for m, c in isolated.cells.items()}
        assert in_proc.cells["hash"].stats["kernel_steps"] == \
               isolated.cells["hash"].stats["kernel_steps"]


def _outcome(m):
    """What every execution mode must agree on: all but the clocks and the
    process-wide intern table's warmth."""
    stats = {k: v for k, v in m.stats.items()
             if not k.endswith("_seconds") and not k.startswith("term_intern_")}
    return m.verdict, m.counterexample, m.detail, stats


@pytest.fixture(scope="module")
def strash_counter():
    return build_scenario("strash", widths=[3])[1]


@pytest.fixture(scope="module")
def refuting_fault():
    """A fault-injected fuzz pair: ground truth ``not_equivalent``."""
    from repro.eval.fuzz import build_cell, make_specs

    spec = next(s for s in make_specs(6, seed=3) if s.flavour == "fault")
    return build_cell(spec).workload


_EQ, _NE, _ERR = "equivalent", "not_equivalent", "error"
#: every real backend's verdict on three pairs.  On the retimed pair the
#: cut points of the combinational backends do not correspond; the
#: structural matcher cannot pair the strash pair's rebuilt cells; and
#: the fault leaves van Eijk's induction inconclusive and hash without a
#: retiming cut.
VERDICTS = {
    "retimed": {"eijk": _EQ, "eijk+": _EQ, "fraig": _ERR, "hash": _EQ,
                "match": _EQ, "sat": _ERR, "sis": _EQ, "smv": _EQ,
                "taut": _ERR, "taut-rw": _ERR},
    "strash": {"eijk": _EQ, "eijk+": _EQ, "fraig": _EQ, "hash": _EQ,
               "match": _ERR, "sat": _EQ, "sis": _EQ, "smv": _EQ,
               "taut": _EQ, "taut-rw": _EQ},
    "fault": {"eijk": _ERR, "eijk+": _ERR, "fraig": _NE, "hash": _ERR,
              "match": _ERR, "sat": _NE, "sis": _NE, "smv": _NE,
              "taut": _NE, "taut-rw": _NE},
}
REAL_CELLS = [(pair, method) for pair, verdicts in VERDICTS.items()
              for method in verdicts]


@pytest.fixture(scope="module")
def both_modes(tiny_workload, strash_counter, refuting_fault):
    """Every real cell run in process and on a 2-worker pool, with the
    indices of the jobs the pool was given."""
    workloads = {"retimed": tiny_workload, "strash": strash_counter,
                 "fault": refuting_fault}
    specs = [CellSpec(workloads[pair], method, time_budget=60.0)
             for pair, method in REAL_CELLS]
    jobs = []

    class RecordedPool(WorkerPool):
        def run(self, items, *args, **kwargs):
            jobs.extend(index for index, _ in items)
            return super().run(items, *args, **kwargs)

    in_process = run_cells(specs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.eval.service.WorkerPool", RecordedPool)
        pooled = run_cells(specs, jobs=2, isolate=True)
    return dict(zip(REAL_CELLS, zip(in_process, pooled))), jobs


@needs_fork
class TestRealCellsAcrossModes:
    """Each cell is one job, so both modes compute it the same way."""

    @pytest.mark.parametrize("pair,method", REAL_CELLS)
    def test_in_process_and_pool_agree(self, both_modes, pair, method):
        in_process, pooled = both_modes[0][pair, method]
        assert in_process.verdict == VERDICTS[pair][method], in_process.detail
        if in_process.verdict == _NE:
            assert in_process.counterexample is not None
        assert _outcome(pooled) == _outcome(in_process)

    def test_each_cell_is_one_pool_job(self, both_modes):
        assert sorted(both_modes[1]) == list(range(len(REAL_CELLS)))

    def test_fully_cached_pooled_run_starts_no_pool(self, strash_counter,
                                                    tmp_path, monkeypatch):
        spec = CellSpec(strash_counter, "taut-rw", time_budget=60.0)
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
