"""Table I — the scalable Figure-2 example.

The paper compares SIS (FSM comparison), SMV (symbolic model checking) and
HASH on the n-bit example of Figure 2 for growing n, retimed with the maximal
forward cut.  The published shape:

* both BDD-based verifiers blow up exponentially with n and eventually cannot
  finish "in reasonable time" (dashes),
* HASH has a higher base cost (it is slower for tiny n) but its run time
  grows moderately with the circuit size and it handles every width.

Run ``python -m repro.eval.table1`` to regenerate the table; the benchmark
``benchmarks/test_table1.py`` drives the same code under pytest-benchmark.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from .runner import DEFAULT_NODE_BUDGET, Measurement, Row, render_table, run_row
from .workloads import TABLE1_WIDTHS, TABLE1_WIDTHS_QUICK, table1_workload

#: The methods of Table I, in the paper's column order.
TABLE1_METHODS = ["sis", "smv", "hash"]


def run_table1(
    widths: Optional[Sequence[int]] = None,
    methods: Optional[Sequence[str]] = None,
    time_budget: float = 30.0,
    node_budget: int = DEFAULT_NODE_BUDGET,
    skip_hopeless: bool = True,
    jobs: int = 1,
    isolate: Optional[bool] = None,
    on_result=None,
    cache=None,
    client=None,
    aig_opt: bool = True,
    shards: int = 1,
) -> List[Row]:
    """Measure Table I.

    ``skip_hopeless`` stops calling a verifier on larger widths once it has
    timed out twice in a row (exactly how one would run the original tools);
    the skipped cells are reported as timeouts.  With ``jobs > 1`` the cells
    of one row run in parallel worker subprocesses; the skip decisions are
    taken between rows from complete row results, so the produced table is
    identical for every ``jobs`` setting.
    """
    widths = list(widths if widths is not None else TABLE1_WIDTHS)
    methods = list(methods if methods is not None else TABLE1_METHODS)
    rows: List[Row] = []
    consecutive_timeouts = {m: 0 for m in methods}
    for n in widths:
        workload = table1_workload(n)
        skipped = [
            m for m in methods
            if skip_hopeless and m != "hash" and consecutive_timeouts[m] >= 2
        ]
        to_run = [m for m in methods if m not in skipped]
        row = run_row(workload, to_run, time_budget=time_budget,
                      node_budget=node_budget, jobs=jobs, isolate=isolate,
                      on_result=on_result, cache=cache, client=client,
                      aig_opt=aig_opt, shards=shards)
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


def render(rows: Sequence[Row], methods: Optional[Sequence[str]] = None) -> str:
    methods = list(methods if methods is not None else TABLE1_METHODS)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Thin wrapper over the shared CLI (``python -m repro run --table 1``)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="use the short width sweep and a small budget")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="per-cell wall-clock budget in seconds")
    parser.add_argument("--jobs", type=int, default=1,
                        help="number of parallel worker subprocesses")
    parser.add_argument("--widths", type=int, nargs="*", default=None)
    args = parser.parse_args(argv)
    widths = args.widths or (TABLE1_WIDTHS_QUICK if args.quick else TABLE1_WIDTHS)
    budget = min(args.budget, 10.0) if args.quick else args.budget

    from ..cli import main as cli_main, table_argv

    return cli_main(table_argv(1, budget, args.jobs, widths=widths))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
