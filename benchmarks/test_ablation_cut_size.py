"""Ablation B — HASH run time as a function of the cut size.

Section V: "we found out that in our approach the time consumption depends on
the size of the circuit but is quite independent from the cut.  Due to step 4
it becomes a little slower for large sized functions f."  The benchmark
measures the formal step for growing cuts on a mid-size circuit and asserts
the weak dependence (largest cut at most a small multiple of the smallest).
"""

import pytest

from repro.circuits.generators import figure2
from repro.eval.ablations import run_cut_sweep
from repro.formal import formal_forward_retiming
from repro.retiming.cuts import maximal_forward_cut, sized_forward_cut

WIDTH = 16


@pytest.fixture(scope="module")
def circuit():
    return figure2(WIDTH)


@pytest.mark.parametrize("size", [1, 2])
def test_ablation_cut_of_size(benchmark, circuit, size):
    cut = sized_forward_cut(circuit, size, seed=1)

    def run():
        return formal_forward_retiming(circuit, cut)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["kernel_steps"] = int(result.stats["kernel_steps"])
    assert result.theorem.is_equation()


def test_ablation_cut_sweep_shape(benchmark, circuit, results_dir):
    def sweep():
        return run_cut_sweep(circuit)

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    import os

    from repro.eval.ablations import render_cut_sweep

    with open(os.path.join(results_dir, "ablation_cut_size.txt"), "w") as fh:
        fh.write(render_cut_sweep(points) + "\n")

    assert len(points) == len(maximal_forward_cut(circuit))
    smallest = points[0].seconds
    largest = max(p.seconds for p in points)
    # "quite independent from the cut": well below an order of magnitude
    assert largest <= max(smallest, 1e-3) * 10
