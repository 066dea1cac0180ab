"""The benchmark's three workloads and one sweep of each.

A sweep runs every cell of a workload once through ``runner.run_cells``
(the path ``python -m repro run`` and ``repro fuzz`` take) and records
when each verdict streamed back.  Every workload is a pure function of
the seed.

* ``tables`` -- the paper's evaluation.  Table I is ``figure2`` widths 1-8
  under sis, smv and hash; Table II is the IWLS stand-ins under hash at
  full scale (only HASH decides there) plus eijk, eijk+ and sis at scale
  0.12, so they decide too.  Widths >= 10 are left out: their verifier
  cells end in budget kills, which measure the budget and not the code.
  These are fixed circuits: the seed does not change them.
* ``fuzz`` -- a seeded ``repro fuzz`` sweep with the default methods on
  circuits above the CLI defaults.  Fault injection is part of the sweep,
  as it is for a ``repro fuzz`` user.  Each sweep of a run draws its own
  circuits, so a run's pooled percentiles rest on more circuits than one
  sweep's.
* ``resweep`` -- the ``fuzz`` sweep after its first half was already run
  into the on-disk cache, as when ``--cells N`` is followed by
  ``--cells 2N``: a fresh ``ResultCache`` on a warm directory.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.eval import fuzz, runner
from repro.eval.cache import ResultCache
from repro.eval.workloads import table1_workload, table2_workloads

from measure import GapClock

WORKLOADS = ("tables", "fuzz", "resweep")

TABLE1_WIDTHS = range(1, 9)
TABLE1_METHODS = ("sis", "smv", "hash")
TABLE2_SCALED_METHODS = ("eijk", "eijk+", "sis")
TABLE2_SCALE = 0.12
#: twice the CLI's default node budget: figure2 n=8 under sis and smv peaks
#: at ~464k BDD nodes, under a fifth of this but not of the default
TABLE_NODE_BUDGET = 2 * runner.DEFAULT_NODE_BUDGET

#: fuzz cells per sweep (each expands to 2 or 5 method cells); the circuits
#: follow the seed, so the more of them, the less a seed moves the tail
FUZZ_CELLS = 192
FUZZ_DIMS = dict(n_inputs=6, n_flipflops=8, n_gates=48)
#: ``repro fuzz`` defaults
FUZZ_TIME_BUDGET = 20.0
FUZZ_NODE_BUDGET = 500_000
#: fuzz seeds of one benchmark seed: base, base + 1, ... with base
#: ``seed * FUZZ_SEED_STRIDE``; sweep ``k`` of a run starts at
#: ``base + k * FUZZ_CELLS``, so a run's sweeps draw distinct circuits
#: (52 sweeps fit before the next seed's, far more than a run makes)
FUZZ_SEED_STRIDE = 10_000

#: a cell must stay within 1/HEADROOM of its node budget, so that no cell is
#: near a budget kill.  Time is not checked here: wall time follows the
#: host's load, and a cell that does hit its time budget is a ``timeout``,
#: which fails the run as undecided anyway.
HEADROOM = 5.0


@dataclass
class Sweep:
    """One sweep's timings, verdicts and ground truth, in submission order."""

    wall: float
    #: time to verdict per cell in seconds, in completion order
    gaps: List[float]
    #: time to verdict per cell in seconds, by submission index
    gap_by_index: List[float]
    labels: List[str]
    measurements: list
    #: per cell: ``None`` when the verdict is right, else why it is not
    problems: List[Optional[str]] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return len(self.measurements)


def table_specs() -> List[runner.CellSpec]:
    """The ``tables`` cells, in the paper's row and column order."""
    def cell(workload, method):
        return runner.CellSpec(workload, method,
                               node_budget=TABLE_NODE_BUDGET)

    specs = [cell(table1_workload(n), method)
             for n in TABLE1_WIDTHS for method in TABLE1_METHODS]
    specs += [cell(w, "hash") for w in table2_workloads(scale=1.0)]
    specs += [cell(w, method) for w in table2_workloads(scale=TABLE2_SCALE)
              for method in TABLE2_SCALED_METHODS]
    return specs


def fuzz_specs(seed: int, sweep: int = 0,
               cells: int = FUZZ_CELLS) -> List[fuzz.FuzzSpec]:
    """The ``fuzz`` recipe of sweep ``sweep`` of one benchmark seed."""
    return fuzz.make_specs(cells, seed=seed * FUZZ_SEED_STRIDE + sweep * cells,
                           **FUZZ_DIMS)


def _headroom_problem(m, node_budget: int) -> Optional[str]:
    if m.stats.get("peak_nodes", 0.0) * HEADROOM > node_budget:
        return (f"{int(m.stats['peak_nodes'])} BDD nodes are within "
                f"{HEADROOM:g}x of the node budget")
    return None


def run_tables(cache: Optional[ResultCache], isolate: bool) -> Sweep:
    """One ``tables`` sweep; building the workloads is part of it."""
    start = time.perf_counter()
    clock = GapClock(start)
    specs = table_specs()
    measurements = runner.run_cells(specs, jobs=1, isolate=isolate,
                                    on_result=clock, cache=cache)
    wall = time.perf_counter() - start
    problems = []
    for spec, m in zip(specs, measurements):
        problem = None
        if m.verdict != "equivalent":
            problem = f"verdict {m.verdict} ({m.detail})"
        problems.append(problem or _headroom_problem(m, spec.node_budget))
    return _sweep(wall, clock, [f"{s.workload.name} / {s.method}" for s in specs],
                  measurements, problems)


def run_fuzz(specs: List[fuzz.FuzzSpec], cache: Optional[ResultCache],
             isolate: bool) -> Sweep:
    """One ``repro fuzz`` sweep (no shrinking); building cells is part of it."""
    start = time.perf_counter()
    clock = GapClock(start)
    report = fuzz.run_fuzz(specs, time_budget=FUZZ_TIME_BUDGET,
                           node_budget=FUZZ_NODE_BUDGET, jobs=1,
                           isolate=isolate, on_result=clock, cache=cache,
                           shrink=False)
    wall = time.perf_counter() - start
    labels, measurements, problems = [], [], []
    # cell-major, methods in panel order: the order run_fuzz submitted them
    for cell, row in zip(report.cells, report.measurements):
        for method in report.methods:
            m = row.get(method)
            if m is None:
                continue
            found = fuzz.violation_of(runner.method_checker(method),
                                      cell.expected, m)
            if found is not None:
                problem = f"{found[0]}: {found[1]}"
            elif m.verdict not in runner.DEFINITE_VERDICTS:
                problem = f"undecided: {m.verdict}"
            else:
                problem = _headroom_problem(m, FUZZ_NODE_BUDGET)
            labels.append(f"{cell.workload.name} / {method}")
            measurements.append(m)
            problems.append(problem)
    return _sweep(wall, clock, labels, measurements, problems)


def _sweep(wall: float, clock: GapClock, labels, measurements,
           problems) -> Sweep:
    if sorted(clock.order) != list(range(len(measurements))):
        raise RuntimeError("the stream did not report every cell once")
    by_index = clock.by_index()
    return Sweep(wall=wall, gaps=list(clock.gaps),
                 gap_by_index=[by_index[i] for i in range(len(measurements))],
                 labels=labels, measurements=measurements, problems=problems)


def buildable(specs: List[fuzz.FuzzSpec]) -> List[fuzz.FuzzCell]:
    """The cells of the specs that build.

    For a rare spec (about one in several thousand) none of the faults the
    injector tries is visible, and ``build_cell`` raises ``FuzzError``,
    which stops a sweep as it stops ``repro fuzz``.  Such specs are left
    out.
    """
    cells = []
    for spec in specs:
        try:
            cells.append(fuzz.build_cell(spec))
        except fuzz.FuzzError:
            pass
    return cells


def method_cells(cells: List[fuzz.FuzzCell]) -> List[runner.CellSpec]:
    """The cells ``fuzz.run_fuzz`` submits for ``cells``, in its order.

    ``resweep`` preparation runs these on cells it has already built, as
    ``fuzz.run_fuzz`` would have run them but without building them again.
    """
    return [runner.CellSpec(cell.workload, method, FUZZ_TIME_BUDGET,
                            FUZZ_NODE_BUDGET)
            for cell in cells for method in fuzz.DEFAULT_METHODS
            if fuzz.method_applies(runner.method_checker(method),
                                   cell.spec.flavour)]


class Workload:
    """One named workload: numbered sweeps, each with untimed preparation.

    Sweep ``k`` of ``fuzz`` and ``resweep`` runs the specs of
    ``fuzz_specs(seed, k)`` that build; ``tables`` runs the same cells
    every time.  ``make_cache(k)`` returns the cache sweep ``k`` starts
    with: empty for ``tables`` and ``fuzz``; for ``resweep``, a fresh copy
    of a directory the first half of sweep ``k``'s cells was run into.
    The first time sweep ``k`` is asked for, its specs are built (to find
    those that build) and the ``resweep`` directory is filled, untimed.
    """

    def __init__(self, name: str, seed: int, scratch: str):
        self.name = name
        self.seed = seed
        self._scratch = scratch
        self._caches = 0
        #: sweep index -> the specs of its cells that build
        self._specs: Dict[int, List[fuzz.FuzzSpec]] = {}
        #: sweep index -> its half-run cache directory (resweep only)
        self._warm: Dict[int, str] = {}

    def _prepare(self, index: int) -> None:
        if self.name == "tables" or index in self._specs:
            return
        cells = buildable(fuzz_specs(self.seed, index))
        self._specs[index] = [cell.spec for cell in cells]
        if self.name == "resweep":
            directory = os.path.join(self._scratch, f"warm{index}")
            runner.run_cells(method_cells(cells[:len(cells) // 2]), jobs=1,
                             isolate=True, cache=ResultCache(directory))
            self._warm[index] = directory

    def make_cache(self, index: int = 0) -> ResultCache:
        self._prepare(index)
        self._caches += 1
        directory = os.path.join(self._scratch, f"cache{self._caches}")
        if self.name == "resweep":
            shutil.copytree(self._warm[index], directory)
        return ResultCache(directory)

    def sweep(self, index: int = 0, isolate: bool = True,
              cache: Optional[ResultCache] = None) -> Sweep:
        """Sweep ``index``; only ``Sweep.wall`` is timed, not preparation."""
        cache = cache if cache is not None else self.make_cache(index)
        if self.name == "tables":
            return run_tables(cache, isolate)
        self._prepare(index)
        return run_fuzz(self._specs[index], cache, isolate)
