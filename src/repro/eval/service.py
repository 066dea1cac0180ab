"""The persistent worker pool behind isolated cell execution.

:class:`WorkerPool` is a fixed-size pool of **persistent** worker
subprocesses.  Workers accept cell jobs over a duplex pipe and run one
:func:`~repro.eval.runner.run_cell` per job instead of dying after a
single cell.  :func:`~repro.eval.runner.run_cells` starts one per isolated
run and closes it when the run ends.

The enforced wall-clock kill semantics are preserved by *recycling*: a
worker still alive past its cell's budget (plus grace) is killed and a
fresh worker is spawned in its place, so a runaway cell degrades to the
paper's dash without wedging the pool.  A crashed worker (EOF on its
pipe) is recycled the same way; its cell is retried once, then reported
as an ``error`` cell.
"""

from __future__ import annotations

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
)


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
        #: cells completed over the pool's lifetime
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
        second crash is recorded as ``error`` (with ``stats["retries"]=1``),
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
