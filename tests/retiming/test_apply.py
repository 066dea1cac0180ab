"""Tests for applying forward retimings to netlists and selecting cuts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.generators import (
    counter,
    figure2,
    figure2_retimed,
    fractional_multiplier,
    random_sequential_circuit,
)
from repro.circuits.netlist import Netlist
from repro.circuits.simulate import outputs_equal
from repro.eval.cache import netlist_fingerprint
from repro.retiming.apply import (
    RetimingApplyError,
    apply_forward_retiming,
    forward_retimable_cells,
)
from repro.retiming.cuts import maximal_forward_cut, sized_forward_cut


class TestForwardRetiming:
    def test_figure2_matches_reference(self):
        original = figure2(4)
        retimed = apply_forward_retiming(original, ["inc"])
        reference = figure2_retimed(4)
        # same behaviour as the hand-retimed reference
        assert outputs_equal(retimed, reference, cycles=200)
        # the moved register got the evaluated initial value f(q) = 1
        new_regs = {r.init for r in retimed.registers.values()}
        assert 1 in new_regs

    @pytest.mark.parametrize("init, moved", [(0b111, 1), (0b101, 0)])
    def test_new_initial_value_sees_input_widths(self, init, moved):
        # REDAND reads its input's width: f(q) is 1 only for an all-ones q
        nl = Netlist("redand")
        nl.add_input("a", 3)
        nl.add_register("R", "a", "q", init=init, width=3)
        nl.add_cell("all", "REDAND", ["q"], "y")
        nl.add_output("y", 1)
        retimed = apply_forward_retiming(nl, ["all"])
        assert [r.init for r in retimed.registers.values()] == [moved]
        assert outputs_equal(nl, retimed, cycles=50)

    def test_register_removed_when_unused(self):
        original = figure2(4)
        retimed = apply_forward_retiming(original, ["inc"])
        assert "D1" not in retimed.registers
        assert len(retimed.registers) == len(original.registers)

    def test_preserves_behaviour_on_counter(self):
        original = counter(5)
        retimed = apply_forward_retiming(original, maximal_forward_cut(original))
        assert outputs_equal(original, retimed, cycles=200, seed=3)

    def test_preserves_behaviour_on_multiplier(self):
        original = fractional_multiplier(4)
        retimed = apply_forward_retiming(original, ["shifter"])
        assert outputs_equal(original, retimed, cycles=200, seed=4)

    def test_false_cut_rejected(self):
        original = figure2(4)
        with pytest.raises(RetimingApplyError):
            apply_forward_retiming(original, ["cmp"])

    def test_unknown_cell_rejected(self):
        with pytest.raises(RetimingApplyError):
            apply_forward_retiming(figure2(3), ["nonexistent"])

    def test_original_untouched(self):
        original = figure2(4)
        fingerprint = netlist_fingerprint(original)
        apply_forward_retiming(original, ["inc"])
        assert netlist_fingerprint(original) == fingerprint

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_circuits_preserved(self, seed):
        original = random_sequential_circuit(3, 6, 36, seed=seed)
        cut = maximal_forward_cut(original)
        if not cut:
            pytest.skip("no retimable cells for this seed")
        retimed = apply_forward_retiming(original, cut)
        assert outputs_equal(original, retimed, cycles=150, seed=seed)

    @given(st.integers(2, 10), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_property_forward_retiming_preserves_figure2(self, width, seed):
        original = figure2(width)
        retimed = apply_forward_retiming(original, ["inc"])
        assert outputs_equal(original, retimed, cycles=80, seed=seed)


class TestCutSelection:
    def test_maximal_cut_contents(self):
        cut = maximal_forward_cut(figure2(4))
        assert "inc" in cut and "cmp" not in cut

    def test_sized_cut_deterministic(self):
        nl = random_sequential_circuit(4, 8, 40, seed=3)
        assert sized_forward_cut(nl, 2, seed=1) == sized_forward_cut(nl, 2, seed=1)
        assert len(sized_forward_cut(nl, 2, seed=1)) == 2

    def test_forward_retimable_cells_netlist(self):
        cells = forward_retimable_cells(fractional_multiplier(4))
        assert "shifter" in cells and "mult" in cells
