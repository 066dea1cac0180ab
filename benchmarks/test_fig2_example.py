"""Figure 2 — the concrete retiming example.

Benchmarks the two engines on the paper's running example at a fixed width:
the conventional netlist transformation and the full four-step HASH formal
procedure (whose output is a theorem, not just a netlist).
"""

import pytest

from repro.circuits.generators import figure2, figure2_cut
from repro.circuits.simulate import outputs_equal
from repro.formal import formal_forward_retiming
from repro.retiming.apply import apply_forward_retiming

WIDTH = 8


@pytest.fixture(scope="module")
def circuit():
    return figure2(WIDTH)


def test_fig2_conventional_retiming(benchmark, circuit):
    retimed = benchmark(apply_forward_retiming, circuit, figure2_cut())
    assert retimed.registers["R_inc"].init == 1
    assert outputs_equal(circuit, retimed, cycles=64)


def test_fig2_formal_retiming(benchmark, circuit):
    result = benchmark(formal_forward_retiming, circuit, figure2_cut())
    benchmark.extra_info["kernel_steps"] = int(result.stats["kernel_steps"])
    assert result.theorem.is_equation()
    assert not result.theorem.hyps
    assert result.new_init_value == (1, 0)


def test_fig2_formal_retiming_bit_level(benchmark, circuit):
    """The same step on the bit-blasted circuit (gate-level description)."""
    from repro.circuits.bitblast import bitblast
    from repro.retiming.cuts import maximal_forward_cut

    gate = bitblast(circuit).netlist
    cut = maximal_forward_cut(gate)
    result = benchmark(formal_forward_retiming, gate, cut)
    benchmark.extra_info["kernel_steps"] = int(result.stats["kernel_steps"])
    assert result.theorem.is_equation()
