"""Table I — the scalable Figure-2 example.

The paper compares SIS (FSM comparison), SMV (symbolic model checking) and
HASH on the n-bit example of Figure 2 for growing n, retimed with the maximal
forward cut.  The published shape:

* both BDD-based verifiers blow up exponentially with n and eventually cannot
  finish "in reasonable time" (dashes),
* HASH has a higher base cost (it is slower for tiny n) but its run time
  grows moderately with the circuit size and it handles every width.

Run ``python -m repro run --table 1`` to regenerate the table: the
``figure2`` scenario under the paper's title, with an ``n`` column and the
skip policy of :func:`run_table1`.  The benchmark
``benchmarks/test_table1.py`` drives the same code under pytest-benchmark.
"""

from __future__ import annotations

from typing import List, Sequence

from .runner import DEFAULT_TIME_BUDGET, Measurement, Row, render_table, run_rows
from .workloads import Workload


def run_table1(
    workloads: Sequence[Workload],
    methods: Sequence[str],
    time_budget: float = DEFAULT_TIME_BUDGET,
    on_result=None,
    **options,
) -> List[Row]:
    """Measure Table I row by row, skipping hopeless verifier cells.

    A verifier is not called on larger widths once it has timed out twice
    in a row (exactly how one would run the original tools); the skipped
    cells are reported as timeouts.  The skip decisions are taken between
    rows from complete row results, so the produced table is identical for
    every ``jobs`` setting.  ``options`` go to
    :func:`~repro.eval.runner.run_rows` unchanged.
    """
    rows: List[Row] = []
    consecutive_timeouts = {m: 0 for m in methods}
    for workload in workloads:
        skipped = [
            m for m in methods
            if m != "hash" and consecutive_timeouts[m] >= 2
        ]
        to_run = [m for m in methods if m not in skipped]
        (row,) = run_rows([workload], to_run, time_budget=time_budget,
                          on_result=on_result, **options)
        for offset, method in enumerate(skipped):
            measurement = Measurement(
                workload=workload.name, method=method, verdict="timeout",
                seconds=time_budget, detail="skipped after repeated timeouts",
            )
            row.cells[method] = measurement
            if on_result is not None:
                # skipped cells stream too: the per-cell lines must account
                # for every cell the final table renders
                on_result(len(to_run) + offset, measurement)
        for method in to_run:
            if method != "hash":
                if row.cells[method].verdict == "timeout":
                    consecutive_timeouts[method] += 1
                else:
                    consecutive_timeouts[method] = 0
        rows.append(row)
    return rows


def render(rows: Sequence[Row], methods: Sequence[str]) -> str:
    return render_table(
        rows,
        methods,
        title="Table I — retiming the Figure-2 example (n-bit)",
        extra_columns={
            "n": lambda w: w.original.width(w.original.outputs[0]),
            "flipflops": lambda w: w.flipflops,
            "gates": lambda w: w.gates,
        },
    )
