"""Table I — SIS / SMV / HASH on the scalable Figure-2 example.

Each benchmark measures one cell of the table (one method at one bit width);
the final test regenerates a quick version of the whole table, writes it to
``.benchmarks/results/table1.txt`` and asserts the paper's qualitative shape:

* the BDD-based verifiers' work (BDD ``ite_calls``) grows super-linearly
  with the bit width and exceeds the budget at the largest width (the
  paper's dash), while
* HASH completes at every width with only moderate growth, and
* HASH is *not* the fastest method at the smallest width (its base cost is
  higher — "this makes HASH slower for small sized circuits"): its median
  over five runs is at least 1.5x the faster verifier's.
"""

import os
import statistics

import pytest

from repro.eval import table1
from repro.eval.runner import run_cell
from repro.eval.scenarios import build_scenario
from repro.eval.workloads import table1_workload

#: widths benchmarked cell-by-cell (kept small so the suite stays fast)
CELL_WIDTHS = [2, 4, 6]
#: widths used for the full quick table.  The BDD engine (complement edges,
#: clustered early quantification, bit-interleaved variable order) decides
#: width 12 in about 5.8 s under SIS and under SMV on a 2-CPU host with
#: Python 3.11 (12-16 s on that host while each image step started
#: ``and_exists`` from an empty memo), too close to the 8 s budget for the
#: dash to be the same on every host, so the table extends to width 16 to
#: keep the paper's qualitative shape — the verifiers' cost is still
#: exponential and exceeds the budget at the largest width.
TABLE_WIDTHS = [1, 2, 4, 6, 8, 16]
#: the paper's Table I columns
METHODS = ["sis", "smv", "hash"]


@pytest.fixture(scope="module")
def workloads():
    return {n: table1_workload(n) for n in set(CELL_WIDTHS) | set(TABLE_WIDTHS)}


@pytest.mark.parametrize("width", CELL_WIDTHS)
@pytest.mark.parametrize("method", ["sis", "smv"])
def test_table1_verifier_cell(benchmark, workloads, method, width, verifier_budget):
    workload = workloads[width]

    def cell():
        return run_cell(workload, method, time_budget=verifier_budget)

    measurement = benchmark.pedantic(cell, rounds=1, iterations=1)
    assert measurement.verdict in ("equivalent", "timeout")


@pytest.mark.parametrize("width", CELL_WIDTHS + [16, 32])
def test_table1_hash_cell(benchmark, workloads, width):
    workload = workloads.get(width) or table1_workload(width)

    def cell():
        return run_cell(workload, "hash")

    measurement = benchmark.pedantic(cell, rounds=1, iterations=1)
    assert measurement.verdict == "equivalent"


def test_table1_full_shape(benchmark, workloads, results_dir, verifier_budget):
    def build():
        return table1.run_table1(build_scenario("figure2", widths=TABLE_WIDTHS),
                                 METHODS, time_budget=verifier_budget)

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    text = table1.render(rows, METHODS)
    with open(os.path.join(results_dir, "table1.txt"), "w") as fh:
        fh.write(text + "\n")

    # HASH completes everywhere.
    assert all(row.cells["hash"].verdict == "equivalent" for row in rows)
    # The drivers record per-method kernel steps from the structured stats;
    # the rendered table carries them in the `inferences` column.
    assert all(row.cells["hash"].stats["kernel_steps"] > 0 for row in rows)
    assert "inferences" in text
    # The verifiers hit the budget at the largest width (the paper's dash).
    last = rows[-1]
    assert last.cells["sis"].verdict == "timeout"
    assert last.cells["smv"].verdict == "timeout"
    # At the smallest width HASH is not the fastest method (higher base cost).
    # Each width-1 cell takes a few milliseconds, so one sample per method is
    # noise: compare medians of five in-process runs, at a margin.
    small = workloads[TABLE_WIDTHS[0]]
    median = {
        method: statistics.median(
            run_cell(small, method, time_budget=verifier_budget).seconds
            for _ in range(5)
        )
        for method in METHODS
    }
    assert median["hash"] >= 1.5 * min(median["sis"], median["smv"]), median
    # Verifier work grows super-linearly between the widths they solve.  It
    # is counted in BDD operations, not seconds: one timed run at each end
    # is noise, and the counts are deterministic.
    solved = [row for row in rows if row.cells["smv"].verdict == "equivalent"]
    if len(solved) >= 3:
        first_ok, last_ok = solved[0], solved[-1]
        n0 = first_ok.workload.original.width(first_ok.workload.original.outputs[0])
        n1 = last_ok.workload.original.width(last_ok.workload.original.outputs[0])
        calls = [row.cells["smv"].stats["ite_calls"] for row in (first_ok, last_ok)]
        growth = calls[1] / calls[0]
        assert growth > (n1 / n0), "SMV growth should be super-linear in the bit width"
