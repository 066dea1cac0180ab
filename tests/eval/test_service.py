"""Tests for the worker pool (:mod:`repro.eval.service`).

Covers the persistent :class:`WorkerPool` (budget kills recycle the worker
without wedging the pool; crashed workers are respawned) and the
byte-identity guarantee: serial and ``--jobs N`` runs, cold or served
from the result cache, render the exact same table.
"""

import os
import time

import pytest

from repro.eval.cache import ResultCache
from repro.eval.runner import CellSpec, render_table, run_rows
from repro.eval.service import WorkerPool
from repro.eval.workloads import table1_workload
from repro.verification.common import VerificationResult
from repro.verification.registry import register_checker, unregister_checker

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="stub backends only reach isolated workers via fork",
)

pytestmark = needs_fork


# ---------------------------------------------------------------------------
# Deterministic stub backends (registered for this module only)
# ---------------------------------------------------------------------------

def _stub_ok(original, retimed, time_budget=None):
    return VerificationResult(method="svc-ok", status="equivalent",
                              seconds=1.23, detail="stubbed",
                              stats={"kernel_steps": 42.0})


def _stub_coop_timeout(original, retimed, time_budget=None):
    return VerificationResult(method="svc-to", status="timeout",
                              seconds=float(time_budget or 0.0),
                              detail="cooperative budget check fired")


def _stub_sleep(original, retimed, time_budget=None):
    time.sleep(300)  # never polls any budget


def _stub_die(original, retimed, time_budget=None):
    os._exit(3)  # simulates a segfaulting / OOM-killed worker


def _stub_crash_once(original, retimed, time_budget=None):
    """Crashes the first worker that runs it, succeeds on the retry.

    Cross-process state lives in a marker file named by the
    ``REPRO_TEST_CRASH_ONCE`` env var (workers inherit it at fork time).
    """
    marker = os.environ["REPRO_TEST_CRASH_ONCE"]
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return VerificationResult(method="svc-flaky", status="equivalent",
                                  seconds=0.5, detail="survived the retry")
    os.close(fd)
    os._exit(7)


_STUBS = {
    "svc-ok": _stub_ok,
    "svc-to": _stub_coop_timeout,
    "svc-sleep": _stub_sleep,
    "svc-die": _stub_die,
    "svc-flaky": _stub_crash_once,
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


def _specs(workload, methods, budget=60.0):
    return [CellSpec(workload, m, time_budget=budget) for m in methods]


# ---------------------------------------------------------------------------
# WorkerPool robustness
# ---------------------------------------------------------------------------

class TestWorkerPool:
    def test_runs_cells_and_counts_them(self, tiny_workload):
        with WorkerPool(2) as pool:
            results = pool.run(
                list(enumerate(_specs(tiny_workload, ["svc-ok", "svc-ok"]))))
            assert {m.verdict for m in results.values()} == {"equivalent"}
            assert pool.cells_run == 2
            assert pool.recycled == 0

    def test_budget_kill_recycles_and_pool_survives(self, tiny_workload):
        """An over-budget cell degrades to the dash without wedging the pool:
        the worker is killed and respawned, and the *same* pool then runs the
        next cell successfully."""
        with WorkerPool(1, grace=0.5) as pool:
            pids_before = pool.worker_pids()
            results = pool.run(
                [(0, CellSpec(tiny_workload, "svc-sleep", time_budget=0.3))])
            killed = results[0]
            assert killed.verdict == "timeout"
            assert killed.render() == "-"
            assert "wall-clock" in killed.detail
            assert pool.recycled == 1
            assert pool.retries == 0  # the dash is deterministic: no retry
            assert pool.worker_pids() != pids_before
            again = pool.run(
                [(0, CellSpec(tiny_workload, "svc-ok", time_budget=60.0))])
            assert again[0].verdict == "equivalent"
            assert again[0].seconds == 1.23

    def test_deterministic_crasher_fails_after_one_retry(self, tiny_workload):
        """A cell that always kills its worker is retried exactly once on a
        fresh worker, then recorded as ``error`` — the pool never wedges."""
        with WorkerPool(1, retry_backoff=0.01) as pool:
            results = pool.run(
                [(0, CellSpec(tiny_workload, "svc-die", time_budget=60.0))])
            assert results[0].verdict == "error"
            assert "exit code 3" in results[0].detail
            assert "retried once" in results[0].detail
            assert results[0].stats["retries"] == 1.0
            assert pool.recycled == 2  # both crashes respawned a worker
            assert pool.retries == 1
            again = pool.run(
                [(0, CellSpec(tiny_workload, "svc-ok", time_budget=60.0))])
            assert again[0].verdict == "equivalent"

    def test_crash_once_cell_succeeds_on_retry(self, tiny_workload, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE", str(tmp_path / "marker"))
        with WorkerPool(1, retry_backoff=0.01) as pool:
            results = pool.run(
                [(0, CellSpec(tiny_workload, "svc-flaky", time_budget=60.0))])
            assert results[0].verdict == "equivalent"
            assert results[0].detail == "survived the retry"
            assert results[0].stats["retries"] == 1.0
            assert pool.recycled == 1
            assert pool.retries == 1

    def test_retry_lands_on_an_idle_worker_in_wide_pools(self, tiny_workload,
                                                         tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE", str(tmp_path / "marker"))
        specs = [(0, CellSpec(tiny_workload, "svc-flaky", time_budget=60.0)),
                 (1, CellSpec(tiny_workload, "svc-ok", time_budget=60.0)),
                 (2, CellSpec(tiny_workload, "svc-ok", time_budget=60.0))]
        with WorkerPool(2, retry_backoff=0.01) as pool:
            results = pool.run(specs)
            assert [results[i].verdict for i in range(3)] == ["equivalent"] * 3
            assert results[0].stats["retries"] == 1.0
            assert "retries" not in results[1].stats
            assert pool.retries == 1

    def test_mixed_batch_keeps_indices(self, tiny_workload):
        specs = _specs(tiny_workload, ["svc-ok", "svc-to", "svc-ok"])
        with WorkerPool(2) as pool:
            results = pool.run(list(enumerate(specs)))
        assert [results[i].verdict for i in range(3)] == ["equivalent", "timeout", "equivalent"]


# ---------------------------------------------------------------------------
# The byte-identity guarantee across execution modes and the cache
# ---------------------------------------------------------------------------

class TestModeParity:
    def test_serial_jobs_and_cached_runs_render_identically(self, tmp_path):
        workloads = [table1_workload(1), table1_workload(2)]
        methods = ["svc-ok", "svc-to"]
        directory = str(tmp_path / "cache")

        def _render(cache=None, **kwargs):
            rows = run_rows(workloads, methods, time_budget=5.0, cache=cache,
                            **kwargs)
            return render_table(rows, methods, title="parity")

        serial = _render()
        cold = ResultCache(directory)
        parallel = _render(cold, jobs=2, isolate=True)
        assert (cold.hits, cold.misses, cold.stores) == (0, 4, 2)
        warm_serial = ResultCache(directory)
        served_serial = _render(warm_serial)
        warm_pooled = ResultCache(directory)
        served_pooled = _render(warm_pooled, jobs=2, isolate=True)
        assert serial == parallel == served_serial == served_pooled
        # both decided cells are served; both dashes rerun
        for warm in (warm_serial, warm_pooled):
            assert (warm.hits, warm.misses, warm.stores) == (2, 2, 0)
