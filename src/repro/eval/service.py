"""Evaluation as a service: persistent worker pool, daemon and client.

Three layers, bottom to top:

* :class:`WorkerPool` — a fixed-size pool of **persistent** worker
  subprocesses.  Workers accept cell jobs over a duplex pipe and run one
  :func:`~repro.eval.runner.run_cell` per job instead of dying after a
  single cell (the pre-service runner forked a fresh process per cell).
  The enforced wall-clock kill semantics are preserved by *recycling*: a
  worker still alive past its cell's budget (plus grace) is killed and a
  fresh worker is spawned in its place, so a runaway cell degrades to the
  paper's dash without wedging the pool; a crashed worker (EOF on its
  pipe) is recycled the same way and reported as a ``failed`` cell.

* :func:`serve` — a long-running daemon (``python -m repro serve``) that
  owns one pool plus a :class:`~repro.eval.cache.ResultCache` on the
  shared cache directory and accepts job batches over a Unix-domain
  socket.  Each batch goes through :func:`~repro.eval.runner.run_cells` on
  the resident pool, so cache hits short-circuit before worker dispatch
  and sharded cells expand and merge exactly as in a local run; each
  batch's reply stream ends with a ``cache_hits``/``cache_misses``
  summary.  The daemon keeps no results of its own: what it caches is on
  disk, where ``repro cache stats|clear`` sees it.

* :class:`DaemonClient` — the submit/stream client API.  ``run_cells``
  submits a batch and invokes the caller's ``on_result`` hook per cell as
  results stream back (cache hits first, then pool completions), returning
  the measurements in submission order — exactly the contract of the local
  runner, which is why ``repro run --via-daemon`` renders byte-identically
  to a serial run.

The transport is :mod:`multiprocessing.connection` over ``AF_UNIX`` with a
fixed authkey: the socket file's permissions are the security boundary,
as usual for local daemons.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .runner import (
    KILL_GRACE,
    CellSpec,
    Measurement,
    _killed_measurement,
    _mp_context,
    run_cell,
    run_cells,
)

#: default daemon socket (relative to the working directory)
DEFAULT_SOCKET = os.path.join(".benchmarks", "repro.sock")

_AUTHKEY = b"repro-eval-service"


def default_socket_path() -> str:
    return os.environ.get("REPRO_SOCKET", DEFAULT_SOCKET)


# ---------------------------------------------------------------------------
# The persistent worker pool
# ---------------------------------------------------------------------------

def _pool_worker(conn) -> None:
    """Worker subprocess entry point: serve cell jobs until told to stop."""
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            break
        if spec is None:  # orderly shutdown
            break
        try:
            measurement = run_cell(
                spec.workload, spec.method, spec.time_budget, spec.node_budget,
                shard=spec.shard,
            )
        except BaseException as exc:  # the parent must always receive *something*
            measurement = Measurement(
                workload=spec.workload.name,
                method=spec.method,
                verdict="error",
                seconds=0.0,
                detail=f"worker crashed: {type(exc).__name__}: {exc}",
            )
        try:
            conn.send(measurement)
        except (BrokenPipeError, OSError):
            break
    conn.close()


@dataclass
class _Worker:
    process: object
    conn: object


class WorkerPool:
    """A fixed-size pool of persistent cell workers with kill-based recycling."""

    def __init__(self, size: int, grace: float = KILL_GRACE,
                 retry_backoff: float = 0.05):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.grace = grace
        #: delay before a crashed cell's single retry is re-dispatched
        self.retry_backoff = retry_backoff
        #: kill + respawn events (budget overruns and worker deaths)
        self.recycled = 0
        #: jobs completed over the pool's lifetime (one per shard of a
        #: sharded cell)
        self.cells_run = 0
        #: crashed cells re-dispatched onto a fresh worker (one retry each)
        self.retries = 0
        self._ctx = _mp_context()
        self._workers: List[_Worker] = [self._spawn() for _ in range(size)]

    # -- lifecycle ------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def _recycle(self, worker: _Worker) -> _Worker:
        """Kill (if needed) and replace one worker; returns the fresh one."""
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(1.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn worker
                worker.process.kill()
        worker.process.join()
        worker.conn.close()
        fresh = self._spawn()
        self._workers[self._workers.index(worker)] = fresh
        self.recycled += 1
        return fresh

    def worker_pids(self) -> List[int]:
        return [w.process.pid for w in self._workers]

    def close(self) -> None:
        """Shut every worker down (politely, then firmly)."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.kill()
                    worker.process.join()
            worker.conn.close()
        self._workers = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------------
    def run(
        self,
        items: Sequence[Tuple[int, CellSpec]],
        on_result: Optional[Callable[[int, Measurement], None]] = None,
    ) -> Dict[int, Measurement]:
        """Run ``(index, spec)`` jobs on the pool; returns ``{index: result}``.

        ``on_result`` fires per job in completion order.  A job whose
        worker blows the wall-clock budget is recorded as the timeout dash
        and the worker is recycled; a job whose worker dies is retried
        exactly once on a fresh worker after ``retry_backoff`` seconds — a
        second crash is recorded as ``failed`` (with ``stats["retries"]=1``),
        so a deterministic crasher still fails fast and never wedges the
        pool.  Budget kills are *not* retried: the dash is the cell's
        verdict under this run's budget.  Between events the pool sleeps
        until a result arrives, the nearest kill deadline passes or a
        backed-off retry is due.
        """
        # (index, spec, earliest dispatch instant — the retry backoff)
        queue = deque((index, spec, 0.0) for index, spec in items)
        busy: Dict[int, Tuple[_Worker, CellSpec, float]] = {}
        results: Dict[int, Measurement] = {}
        retried: set = set()  # indices given their one crash retry

        def finish(index: int, measurement: Measurement) -> None:
            if index in retried:
                measurement.stats["retries"] = 1.0
            results[index] = measurement
            self.cells_run += 1
            if on_result is not None:
                on_result(index, measurement)

        while queue or busy:
            now = time.monotonic()
            busy_ids = {id(w) for (w, _, _) in busy.values()}
            idle = [w for w in self._workers if id(w) not in busy_ids]
            # dispatch instants are nondecreasing along the queue (fresh
            # jobs first, retries appended in crash order), so stop at the
            # first job whose backoff has not elapsed yet
            while queue and idle and queue[0][2] <= now:
                index, spec, _ = queue.popleft()
                worker = idle.pop()
                try:
                    worker.conn.send(spec)
                except (BrokenPipeError, OSError):
                    # the worker died idle; replace it and try once more
                    worker = self._recycle(worker)
                    worker.conn.send(spec)
                deadline = time.monotonic() + spec.time_budget + self.grace
                busy[index] = (worker, spec, deadline)

            if not busy:
                # only backed-off retries remain; sleep the head's delay out
                time.sleep(max(0.0, queue[0][2] - time.monotonic()))
                continue

            # sleep until a worker's pipe becomes readable (wait returns
            # early), the nearest kill deadline arrives, or a backed-off
            # retry becomes dispatchable on an idle worker
            wait_for = min(dl for (_, _, dl) in busy.values()) - time.monotonic()
            if queue and idle:
                wait_for = min(wait_for, queue[0][2] - time.monotonic())
            ready = set(mp_connection.wait(
                [w.conn for (w, _, _) in busy.values()],
                timeout=max(0.0, wait_for),
            ))
            now = time.monotonic()
            for index in sorted(busy):
                worker, spec, deadline = busy[index]
                if worker.conn in ready:
                    try:
                        measurement = worker.conn.recv()
                    except (EOFError, OSError):
                        measurement = None
                    del busy[index]
                    if measurement is None:  # the worker died mid-cell
                        worker.process.join()
                        exitcode = worker.process.exitcode
                        self._recycle(worker)
                        if index not in retried:
                            retried.add(index)
                            self.retries += 1
                            queue.append((index, spec,
                                          time.monotonic() + self.retry_backoff))
                            continue
                        measurement = Measurement(
                            workload=spec.workload.name,
                            method=spec.method,
                            verdict="error",
                            seconds=0.0,
                            detail="worker exited without a result "
                                   f"(exit code {exitcode}; retried once)",
                        )
                    finish(index, measurement)
                elif now >= deadline:
                    self._recycle(worker)
                    del busy[index]
                    finish(index, _killed_measurement(spec))
        return results


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------

def _handle_connection(conn, pool: WorkerPool, cache, log) -> bool:
    """Serve one client connection; returns False on a shutdown request."""
    message = conn.recv()
    op = message[0]
    if op == "ping":
        conn.send(("pong", {
            "pid": os.getpid(),
            "jobs": pool.size,
            "recycled": pool.recycled,
            "cells_run": pool.cells_run,
            "retries": pool.retries,
            "cache": cache.counters() if cache is not None else None,
        }))
    elif op == "run":
        specs: List[CellSpec] = list(message[1])
        hits_before = cache.hits if cache is not None else 0
        try:
            run_cells(specs, isolate=True, cache=cache, pool=pool,
                      on_result=lambda i, m: conn.send(("result", i, m)))
        except (KeyError, ValueError) as exc:  # raised before any cell runs
            conn.send(("error", str(exc)))
            return True
        hits = cache.hits - hits_before if cache is not None else 0
        conn.send(("done", {"cache_hits": hits,
                            "cache_misses": len(specs) - hits}))
        if log is not None:
            log(f"served {len(specs)} cell(s): {hits} cached, "
                f"{len(specs) - hits} computed")
    elif op == "shutdown":
        conn.send(("ok", None))
        return False
    else:
        conn.send(("error", f"unknown request {op!r}"))
    return True


def serve(
    socket_path: Optional[str] = None,
    jobs: int = 2,
    cache=None,
    log: Optional[Callable[[str], None]] = None,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run the evaluation daemon until a shutdown request (or SIGTERM).

    Refuses to start when another daemon already answers on the socket;
    a stale socket file left by a dead daemon is removed.  ``ready`` is
    set once the listener accepts connections (used by in-process tests).
    """
    path = socket_path or default_socket_path()
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    if os.path.exists(path):
        try:
            DaemonClient(path).ping()
        except (OSError, EOFError):
            os.unlink(path)  # stale socket from a dead daemon
        else:
            raise RuntimeError(f"a repro daemon is already serving on {path}")

    if threading.current_thread() is threading.main_thread():
        import signal

        def _terminate(_signum, _frame):
            raise SystemExit(0)

        signal.signal(signal.SIGTERM, _terminate)

    listener = mp_connection.Listener(path, family="AF_UNIX", authkey=_AUTHKEY)
    pool = WorkerPool(jobs)
    if log is not None:
        store = "off" if cache is None else cache.directory
        log(f"repro daemon: {jobs} worker(s), socket {path}, cache {store}")
    if ready is not None:
        ready.set()
    try:
        running = True
        while running:
            try:
                conn = listener.accept()
            except (OSError, EOFError, mp_connection.AuthenticationError):
                continue
            try:
                running = _handle_connection(conn, pool, cache, log)
            except (EOFError, OSError, BrokenPipeError):
                pass  # client went away mid-request; keep serving
            finally:
                conn.close()
    finally:
        pool.close()
        listener.close()
        if log is not None:
            log("repro daemon: stopped")


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------

class DaemonClient:
    """Submit/stream client for a running ``python -m repro serve`` daemon.

    ``stats`` accumulates the per-batch ``cache_hits``/``cache_misses``
    summaries across every ``run_cells`` call made through this client,
    so a CLI invocation that submits several batches (e.g. the per-row
    Table-I loop) reports one total.
    """

    #: transient connection errors are retried this many times with
    #: exponential backoff; an absent socket file is *not* retried, so a
    #: stopped daemon still fails fast
    CONNECT_RETRIES = 4
    CONNECT_BACKOFF = 0.05

    def __init__(self, socket_path: Optional[str] = None):
        self.socket_path = socket_path or default_socket_path()
        self.stats: Dict[str, int] = {"cache_hits": 0, "cache_misses": 0}

    def _connect(self):
        delay = self.CONNECT_BACKOFF
        for attempt in range(self.CONNECT_RETRIES + 1):
            try:
                return mp_connection.Client(
                    self.socket_path, family="AF_UNIX", authkey=_AUTHKEY
                )
            except (ConnectionRefusedError, ConnectionResetError):
                # daemon busy in accept()/restarting: back off and retry
                # instead of aborting the whole batch
                if attempt == self.CONNECT_RETRIES:
                    raise
                time.sleep(delay)
                delay *= 2

    def run_cells(
        self,
        specs: Sequence[CellSpec],
        on_result: Optional[Callable[[int, Measurement], None]] = None,
    ) -> List[Measurement]:
        """Submit a batch; stream results into ``on_result``; return in order."""
        specs = list(specs)
        results: List[Optional[Measurement]] = [None] * len(specs)
        conn = self._connect()
        try:
            conn.send(("run", specs))
            while True:
                message = conn.recv()
                if message[0] == "result":
                    _, index, measurement = message
                    results[index] = measurement
                    if on_result is not None:
                        on_result(index, measurement)
                elif message[0] == "done":
                    for key, value in message[1].items():
                        self.stats[key] = self.stats.get(key, 0) + value
                    break
                else:
                    raise RuntimeError(f"daemon error: {message[1]}")
        finally:
            conn.close()
        if any(m is None for m in results):  # pragma: no cover - daemon bug
            raise RuntimeError("daemon closed the stream before all cells finished")
        return results  # type: ignore[return-value]

    def _simple(self, *message):
        conn = self._connect()
        try:
            conn.send(message)
            return conn.recv()
        finally:
            conn.close()

    def ping(self) -> Dict:
        return self._simple("ping")[1]

    def shutdown(self) -> None:
        self._simple("shutdown")
