"""Tests for the evaluation service (:mod:`repro.eval.service`).

Covers the persistent :class:`WorkerPool` (budget kills recycle the worker
without wedging the pool; crashed workers are respawned), the in-process
daemon (served over an AF_UNIX socket) and the three-mode byte-identity
guarantee: serial, ``--jobs N`` and ``--via-daemon`` runs render the exact
same table.
"""

import os
import threading
import time

import pytest

from repro.eval.cache import ResultCache
from repro.eval.runner import CellSpec, render_table, run_cells, run_rows
from repro.eval.service import (
    DaemonClient,
    WorkerPool,
    serve,
)
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
        fresh worker, then recorded as ``failed`` — the pool never wedges."""
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
# Daemon + client
# ---------------------------------------------------------------------------

@pytest.fixture()
def daemon(tmp_path):
    """A live daemon on a per-test socket, with its own result cache."""
    socket_path = str(tmp_path / "repro.sock")
    cache = ResultCache(directory=str(tmp_path / "cache"))
    ready = threading.Event()
    thread = threading.Thread(
        target=serve,
        kwargs=dict(socket_path=socket_path, jobs=2, cache=cache,
                    log=lambda msg: None, ready=ready),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10.0), "daemon failed to start"
    client = DaemonClient(socket_path)
    yield client
    try:
        client.shutdown()
    except (OSError, EOFError):
        pass
    thread.join(10.0)
    assert not thread.is_alive(), "daemon failed to shut down"


class TestDaemon:
    def test_ping_reports_pool_shape(self, daemon):
        info = daemon.ping()
        assert info["pid"] == os.getpid()
        assert info["jobs"] == 2
        assert info["cells_run"] == 0
        assert info["retries"] == 0

    def test_cold_then_warm_run(self, daemon, tiny_workload):
        specs = _specs(tiny_workload, ["svc-ok", "svc-to"], budget=5.0)
        cold = daemon.run_cells(specs)
        assert daemon.stats == {"cache_hits": 0, "cache_misses": 2}
        warm = daemon.run_cells(specs)
        # the decided cell is served; the dash is never cached, so it reruns
        assert daemon.stats == {"cache_hits": 1, "cache_misses": 3}
        assert warm == cold
        assert daemon.ping()["cells_run"] == 3

    def test_results_stream_in_submission_order(self, daemon, tiny_workload):
        events = []
        daemon.run_cells(_specs(tiny_workload, ["svc-ok", "svc-to", "svc-ok"],
                                budget=5.0),
                         on_result=lambda i, m: events.append(i))
        assert sorted(events) == [0, 1, 2]

    def test_unknown_method_raises_without_wedging(self, daemon, tiny_workload):
        with pytest.raises(RuntimeError, match="unknown verification backend"):
            daemon.run_cells([CellSpec(tiny_workload, "no-such", time_budget=5.0)])
        # daemon still serves afterwards
        out = daemon.run_cells(_specs(tiny_workload, ["svc-ok"]))
        assert out[0].verdict == "equivalent"

    def test_budget_kill_inside_daemon_recycles(self, daemon, tiny_workload):
        out = daemon.run_cells(
            [CellSpec(tiny_workload, "svc-sleep", time_budget=0.3)])
        assert out[0].verdict == "timeout"
        assert daemon.ping()["recycled"] == 1
        out = daemon.run_cells(_specs(tiny_workload, ["svc-ok"]))
        assert out[0].verdict == "equivalent"

    def test_stale_socket_refused_while_daemon_alive(self, daemon, tmp_path):
        with pytest.raises(RuntimeError, match="already"):
            serve(socket_path=daemon.socket_path, jobs=1,
                  cache=ResultCache(directory=str(tmp_path / "c2")),
                  log=lambda msg: None)


# ---------------------------------------------------------------------------
# The three-mode byte-identity guarantee
# ---------------------------------------------------------------------------

class TestThreeModeParity:
    def test_serial_jobs_and_daemon_render_identically(self, daemon):
        workloads = [table1_workload(1), table1_workload(2)]
        methods = ["svc-ok", "svc-to"]

        def _render(**kwargs):
            rows = run_rows(workloads, methods, time_budget=5.0, **kwargs)
            return render_table(rows, methods, title="parity")

        serial = _render()
        parallel = _render(jobs=2, isolate=True)
        via_daemon_cold = _render(client=daemon)
        via_daemon_warm = _render(client=daemon)
        assert serial == parallel == via_daemon_cold == via_daemon_warm
        # the warm pass served both decided cells; both dashes reran
        assert daemon.stats == {"cache_hits": 2, "cache_misses": 6}

    def test_run_cells_client_path_matches_serial(self, daemon, tiny_workload):
        specs = _specs(tiny_workload, ["svc-ok", "svc-to"], budget=5.0)
        assert run_cells(specs, client=daemon) == run_cells(specs)


# ---------------------------------------------------------------------------
# DaemonClient connection resilience
# ---------------------------------------------------------------------------

class TestClientConnectRetry:
    """Transient refused/reset connections back off and retry; an absent
    socket file fails fast (a stopped daemon should not cost 4 backoffs)."""

    def _patch(self, monkeypatch, failures, exc_type):
        import repro.eval.service as service

        attempts = []
        sleeps = []

        def fake_client(path, family=None, authkey=None):
            attempts.append(path)
            if len(attempts) <= failures:
                raise exc_type("transient")
            return "connected"

        monkeypatch.setattr(service.mp_connection, "Client", fake_client)
        monkeypatch.setattr(service.time, "sleep",
                            lambda s: sleeps.append(s))
        return attempts, sleeps

    def test_refused_connection_is_retried_with_backoff(self, monkeypatch):
        attempts, sleeps = self._patch(monkeypatch, failures=2,
                                       exc_type=ConnectionRefusedError)
        client = DaemonClient("/tmp/nope.sock")
        assert client._connect() == "connected"
        assert len(attempts) == 3
        assert sleeps == [DaemonClient.CONNECT_BACKOFF,
                          DaemonClient.CONNECT_BACKOFF * 2]

    def test_persistent_refusal_raises_after_budget(self, monkeypatch):
        attempts, sleeps = self._patch(monkeypatch, failures=99,
                                       exc_type=ConnectionResetError)
        client = DaemonClient("/tmp/nope.sock")
        with pytest.raises(ConnectionResetError):
            client._connect()
        assert len(attempts) == DaemonClient.CONNECT_RETRIES + 1
        assert len(sleeps) == DaemonClient.CONNECT_RETRIES

    def test_absent_socket_fails_fast(self, monkeypatch):
        attempts, sleeps = self._patch(monkeypatch, failures=99,
                                       exc_type=FileNotFoundError)
        client = DaemonClient("/tmp/nope.sock")
        with pytest.raises(FileNotFoundError):
            client._connect()
        assert len(attempts) == 1
        assert sleeps == []
