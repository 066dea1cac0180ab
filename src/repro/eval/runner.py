"""Measurement runner shared by all table/figure harnesses.

Each cell of the paper's tables is one (workload, method) pair, dispatched
through the backend registry (:mod:`repro.verification.registry`).  Cells
run in one of two modes:

* **in-process** (``isolate=False``) — used by the pytest-benchmark
  harness, where the measurement loop must stay in one process, with
  *cooperative* budget checks inside the checkers; or
* **process-isolated** (``isolate=True``) — cells run on a pool of
  persistent worker subprocesses (:class:`repro.eval.service.WorkerPool`)
  started for the run, up to ``jobs`` concurrently, and the time budget
  is an *enforced* wall-clock kill: a backend that never polls its budget
  (or is stuck inside a single huge BDD operation) is killed at the
  limit, reported as the paper's dash, and its worker is recycled so the
  pool stays live.

Both modes read and write one content-addressed result cache
(:mod:`repro.eval.cache`), which short-circuits cells already proved
``equivalent`` before any dispatch; a run whose every cell hits starts no
pool at all.

Results are collected by submission index, never by completion order, so a
table produced with ``jobs=4`` has exactly the same rows, columns and
verdicts as the serial one; with cached or deterministic cell results the
output is byte-identical, which ``tests/eval/test_runner.py`` and
``tests/eval/test_service.py`` pin down.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..verification.common import VERDICTS
from ..verification.registry import get_checker, run_checker
from .workloads import Workload


#: how a table renders each verdict (``equivalent`` cells render their
#: time in timing tables); shared by :func:`render_table` and the fuzz table
VERDICT_SYMBOL = {"equivalent": "=", "not_equivalent": "!=", "timeout": "-",
                  "error": "?"}


@dataclass
class Measurement:
    """One cell of a results table."""

    workload: str
    method: str
    #: the cell's outcome, one of ``VERDICTS``: the backend's verdict, or
    #: ``timeout`` for a killed or skipped cell and ``error`` for a crash
    verdict: str
    seconds: float
    detail: str = ""
    #: structured cost counters from the backend (kernel steps, BDD nodes,
    #: iterations, ...) — see :class:`repro.verification.common.VerificationResult`.
    stats: Dict[str, float] = field(default_factory=dict)
    #: certified counterexample of a ``not_equivalent`` verdict (total,
    #: sorted-key assignment; see verification.common.certify_result).
    counterexample: Optional[Dict[str, bool]] = None

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.counterexample is not None:
            self.counterexample = {
                str(k): bool(v) for k, v in sorted(self.counterexample.items())
            }

    def render(self, precision: int = 2) -> str:
        if self.verdict == "equivalent":
            return f"{self.seconds:.{precision}f}"
        return VERDICT_SYMBOL[self.verdict]


#: default per-cell wall-clock budget (seconds)
DEFAULT_TIME_BUDGET = 60.0
#: default BDD node budget per cell
DEFAULT_NODE_BUDGET = 2_000_000
#: slack added to the hard kill deadline, covering worker start-up and the
#: result hand-over — *not* extra compute time for the checker itself
KILL_GRACE = 0.5

#: verdicts that decide a cell — a timeout or error leaves the question open
DEFINITE_VERDICTS = frozenset({"equivalent", "not_equivalent"})

#: the registry descriptor of a method, under the name harnesses outside
#: the package look up on the runner
method_checker = get_checker


@dataclass(frozen=True)
class CellSpec:
    """One unit of work for :func:`run_cells`."""

    workload: Workload
    method: str
    time_budget: float = DEFAULT_TIME_BUDGET
    node_budget: int = DEFAULT_NODE_BUDGET


def run_cell(
    workload: Workload,
    method: str,
    time_budget: float = DEFAULT_TIME_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Measurement:
    """Measure one registered method on one workload, in-process.

    Backend exceptions (``VerificationError`` or anything unexpected) never
    escape: they become an ``error`` cell so a single bad pairing cannot
    abort an entire table run.  Unknown method names *do* raise.
    """
    get_checker(method)  # unknown methods are a caller error, raised eagerly
    start = time.perf_counter()
    try:
        result = run_checker(
            method,
            workload.original,
            workload.retimed,
            cut=workload.cut,
            time_budget=time_budget,
            node_budget=node_budget,
        )
    except Exception as exc:
        return Measurement(
            workload=workload.name,
            method=method,
            verdict="error",
            seconds=time.perf_counter() - start,
            detail=f"{type(exc).__name__}: {exc}",
        )
    return Measurement(
        workload=workload.name,
        method=method,
        verdict=result.status,
        seconds=result.seconds,
        detail=result.detail,
        stats=dict(result.stats),
        counterexample=result.counterexample,
    )


# ---------------------------------------------------------------------------
# Process-isolated execution
# ---------------------------------------------------------------------------

def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _killed_measurement(spec: CellSpec) -> Measurement:
    return Measurement(
        workload=spec.workload.name,
        method=spec.method,
        verdict="timeout",
        seconds=spec.time_budget,
        detail=f"killed at the wall-clock limit ({spec.time_budget:.1f}s)",
    )


def run_spec(spec: CellSpec) -> Measurement:
    """Run one cell in-process."""
    return run_cells([spec])[0]


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    isolate: bool = False,
    on_result: Optional[Callable[[int, Measurement], None]] = None,
    cache=None,
) -> List[Measurement]:
    """Run many cells, optionally isolated, in parallel and cached.

    With ``isolate=False`` (and necessarily ``jobs=1``) cells run serially
    in this process.  With ``isolate=True`` cells run on a
    :class:`~repro.eval.service.WorkerPool` of at most ``jobs`` worker
    subprocesses, started for this call; a worker still alive
    :data:`KILL_GRACE` seconds past its cell's time budget is killed (and
    the pool recycles it), recording the cell as a timeout.  The returned
    list always matches ``specs`` order.  Each pending cell is one job:
    parallelism comes only from running cells side by side.

    ``cache`` is an optional :class:`~repro.eval.cache.ResultCache`: cells
    whose content-addressed digest is already cached short-circuit before
    any worker dispatch, and freshly computed ``equivalent`` cells are
    stored back (every other verdict is recomputed next time).  Serial,
    pooled and cached runs return the same measurements for deterministic
    cells, so the rendered tables are byte-identical.

    ``on_result`` is the streaming hook: it is invoked as ``(index,
    measurement)`` the moment each cell finishes — cache hits first (in
    submission order), then computed cells in *completion* order — while
    the returned list (and therefore any final table render) stays in
    submission order, byte-identical whether or not a callback is
    installed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not isolate and jobs != 1:
        raise ValueError("parallel execution requires isolate=True")
    for spec in specs:
        get_checker(spec.method)  # fail fast on unknown methods

    results: List[Optional[Measurement]] = [None] * len(specs)
    keys: List[Optional[str]] = [None] * len(specs)
    pending: List[int] = []
    for index, spec in enumerate(specs):
        cached = None
        if cache is not None:
            keys[index] = cache.key_for(spec)
            cached = cache.lookup(keys[index])
        if cached is not None:
            results[index] = cached
        else:
            pending.append(index)
    if on_result is not None:  # cache hits stream first, in submission order
        for index, measurement in enumerate(results):
            if measurement is not None:
                on_result(index, measurement)

    def _finish(index: int, measurement: Measurement) -> None:
        results[index] = measurement
        if cache is not None:
            cache.store(keys[index], measurement)
        if on_result is not None:
            on_result(index, measurement)

    if not pending:
        return results  # type: ignore[return-value]
    if not isolate:
        for index in pending:
            spec = specs[index]
            _finish(index, run_cell(spec.workload, spec.method,
                                    spec.time_budget, spec.node_budget))
    else:
        from .service import WorkerPool  # deferred: service builds on this module

        with WorkerPool(min(jobs, len(pending))) as pool:
            pool.run([(index, specs[index]) for index in pending],
                     on_result=_finish)

    assert all(m is not None for m in results)
    return results  # type: ignore[return-value]


@dataclass
class Row:
    """One row of a results table: a workload plus its per-method measurements."""

    workload: Workload
    cells: Dict[str, Measurement] = field(default_factory=dict)

    def cell(self, method: str) -> Measurement:
        return self.cells[method]


def run_rows(
    workloads: Sequence[Workload],
    methods: Sequence[str],
    time_budget: float = DEFAULT_TIME_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
    **options,
) -> List[Row]:
    """Measure a whole table, parallelising across *all* cells of all rows.

    One :class:`CellSpec` per workload and method, in row-major order;
    ``options`` (``jobs``, ``isolate``, ``on_result``, ``cache``) go to
    :func:`run_cells` unchanged.
    """
    specs = [
        CellSpec(workload, method, time_budget, node_budget)
        for workload in workloads
        for method in methods
    ]
    measurements = run_cells(specs, **options)
    rows: List[Row] = []
    per_row = len(methods)
    for i, workload in enumerate(workloads):
        chunk = measurements[i * per_row:(i + 1) * per_row]
        rows.append(Row(workload=workload, cells={m.method: m for m in chunk}))
    return rows


def render_table(
    rows: Sequence[Row],
    methods: Sequence[str],
    title: str,
    extra_columns: Optional[Dict[str, Callable[[Workload], object]]] = None,
    inference_method: Optional[str] = "hash",
) -> str:
    """Render measurement rows as a fixed-width text table (paper style).

    When ``inference_method`` names a measured method that reports kernel
    steps (``stats["kernel_steps"]``), an ``inferences`` column records them
    per row — the kernel-checked cost counter next to the wall-clock times.
    """
    extra_columns = extra_columns or {
        "flipflops": lambda w: w.flipflops,
        "gates": lambda w: w.gates,
    }

    def inference_cell(row: Row) -> str:
        cell = row.cells.get(inference_method)
        if cell is None or "kernel_steps" not in cell.stats:
            # blank, not "-": the legend defines "-" as a budget timeout
            return ""
        return str(int(cell.stats["kernel_steps"]))

    with_inferences = inference_method is not None and any(
        inference_cell(row) for row in rows
    )
    verdicts = {row.cells[m].verdict for row in rows for m in methods}
    headers = ["circuit"] + list(extra_columns) + [m.upper() for m in methods]
    if with_inferences:
        headers.append("inferences")
    table: List[List[str]] = [headers]
    for row in rows:
        cells = [row.workload.name]
        cells += [str(fn(row.workload)) for fn in extra_columns.values()]
        cells += [row.cells[m].render() for m in methods]
        if with_inferences:
            cells.append(inference_cell(row))
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    for i, r in enumerate(table):
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.append("")
    lines.append("times in seconds; '-' = budget exceeded "
                 "(the paper's 'not processable in reasonable time')")
    if "not_equivalent" in verdicts:
        lines.append("'!=' = not equivalent (the backend refuted the pair)")
    if "error" in verdicts:
        lines.append("'?' = undecided (error; the detail says why)")
    if with_inferences:
        lines.append(f"inferences = kernel steps of the {inference_method.upper()} "
                     "proof (from VerificationResult.stats)")
    return "\n".join(lines)
