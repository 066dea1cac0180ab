"""Tests for applying retimings to netlists (forward, backward, lag-driven)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.generators import (
    counter,
    figure2,
    figure2_retimed,
    fractional_multiplier,
    random_sequential_circuit,
    shift_register,
)
from repro.circuits.simulate import outputs_equal
from repro.eval.cache import netlist_fingerprint
from repro.retiming.apply import (
    BackwardRetimingError,
    RetimingApplyError,
    apply_backward_retiming,
    apply_forward_retiming,
    forward_retimable_cells,
    retime_netlist,
)
from repro.retiming.cuts import false_cut, maximal_forward_cut, sized_forward_cut, single_cell_cut
from repro.retiming.graph import lags_from_cut


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


class TestBackwardRetiming:
    def test_backward_undoes_forward_on_pipeline(self):
        original = shift_register(1, width=4)
        # add a combinational stage after the register so backward can move over it
        nl = figure2(3)
        forward = apply_forward_retiming(nl, ["inc"])
        # the register R_inc now sits after the incrementer; move it back
        backward = apply_backward_retiming(forward, ["inc"])
        assert outputs_equal(nl, backward, cycles=150, seed=9)
        assert original  # silence unused warning

    def test_backward_requires_single_register_reader(self):
        nl = figure2(3)
        with pytest.raises(RetimingApplyError):
            apply_backward_retiming(nl, ["mux"])  # mux output feeds two registers

    def test_backward_preimage_search_space_guard(self):
        # Backward retiming needs to *solve* for initial values; over a wide
        # adder the search space is declared intractable and the move fails
        # (the paper notes that the backward direction is the harder one).
        from repro.circuits.netlist import Netlist

        nl = Netlist("wide")
        nl.add_input("a", 16)
        nl.add_input("b", 16)
        nl.add_cell("add", "ADD", ["a", "b"], "sum")
        nl.add_register("R", "sum", "q", init=5, width=16)
        nl.add_cell("buf", "BUF", ["q"], "y")
        nl.add_output("y", 16)
        nl.validate()
        with pytest.raises(BackwardRetimingError):
            apply_backward_retiming(nl, ["add"])

    def test_backward_solves_small_preimage(self):
        # Over a narrow incrementer the preimage is found by search and the
        # behaviour is preserved.
        from repro.circuits.netlist import Netlist

        nl = Netlist("narrow")
        nl.add_input("a", 3)
        nl.add_cell("inc", "INC", ["a"], "next")
        nl.add_register("R", "next", "q", init=5, width=3)
        nl.add_cell("buf", "BUF", ["q"], "y")
        nl.add_output("y", 3)
        nl.validate()
        moved = apply_backward_retiming(nl, ["inc"])
        assert outputs_equal(nl, moved, cycles=100, seed=1)
        inits = sorted(r.init for r in moved.registers.values())
        assert inits == [4]  # INC(4) = 5


class TestLagDrivenRetiming:
    def test_retime_netlist_from_cut_lags(self):
        original = figure2(4)
        lags = lags_from_cut(original, ["inc"])
        retimed = retime_netlist(original, lags)
        assert outputs_equal(original, retimed, cycles=150)

    def test_retime_netlist_noop(self):
        original = figure2(3)
        retimed = retime_netlist(original, {name: 0 for name in original.cells})
        assert outputs_equal(original, retimed, cycles=50)


class TestCutSelection:
    def test_maximal_cut_contents(self):
        cut = maximal_forward_cut(figure2(4))
        assert "inc" in cut and "cmp" not in cut

    def test_sized_cut_deterministic(self):
        nl = random_sequential_circuit(4, 8, 40, seed=3)
        assert sized_forward_cut(nl, 2, seed=1) == sized_forward_cut(nl, 2, seed=1)
        assert len(sized_forward_cut(nl, 2, seed=1)) == 2

    def test_single_cell_cut(self):
        assert single_cell_cut(figure2(3), "inc") == ["inc"]
        with pytest.raises(KeyError):
            single_cell_cut(figure2(3), "ghost")

    def test_false_cut_is_actually_false(self):
        nl = figure2(3)
        bad = false_cut(nl)
        assert bad is not None
        with pytest.raises(RetimingApplyError):
            apply_forward_retiming(nl, bad)

    def test_forward_retimable_cells_netlist(self):
        cells = forward_retimable_cells(fractional_multiplier(4))
        assert "shifter" in cells and "mult" in cells
