"""Tests for the HASH core: embedding, the four-step procedure, failure modes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.semantics import run_automaton
from repro.circuits.bitblast import bitblast
from repro.circuits.generators import (
    counter,
    figure2,
    figure2_cut,
    figure2_false_cut,
    fractional_multiplier,
    gray_counter,
    random_sequential_circuit,
    shift_register,
)
from repro.circuits.generators.iwls import iwls_circuit
from repro.circuits.netlist import Netlist
from repro.circuits.simulate import outputs_equal, random_input_sequence, simulate
from repro.formal import (
    EmbeddingError,
    FormalSynthesisError,
    embed_netlist,
    formal_forward_retiming,
)
from repro.formal.formal_retiming import unfold_cut_lets, unfold_named_lets_conv
from repro.retiming.apply import apply_forward_retiming
from repro.retiming.cuts import maximal_forward_cut


def _ground_inputs(embedded, vector):
    """A simulator input vector as the evaluator's ground input value."""
    values = [bool(vector[name]) if embedded.netlist.width(name) == 1
              else int(vector[name]) for name in embedded.input_layout.names]
    return values[0] if len(values) == 1 else tuple(values)


def _term_outputs_match_simulation(netlist, term, cycles=25, seed=0):
    """Run the automaton term and the cycle simulator on the same stimuli."""
    embedded = embed_netlist(netlist)
    seq = random_input_sequence(netlist, cycles, seed=seed)
    trace = simulate(netlist, seq)
    outs = run_automaton(term, [_ground_inputs(embedded, v) for v in seq])
    names = list(netlist.outputs)
    for value, expected in zip(outs, trace.outputs):
        if len(names) == 1:
            got = {names[0]: int(value)}
        else:
            got = {name: int(v) for name, v in zip(names, value)}
        if got != expected:
            return False
    return True


class TestEmbedding:
    @pytest.mark.parametrize("maker,kwargs", [
        (figure2, {"n": 4}),
        (counter, {"n": 5}),
        (fractional_multiplier, {"n": 3}),
        (shift_register, {"n_stages": 3, "width": 2}),
    ])
    def test_embedding_matches_simulation(self, maker, kwargs):
        netlist = maker(**kwargs)
        embedded = embed_netlist(netlist)
        assert _term_outputs_match_simulation(netlist, embedded.term)

    def test_bit_level_embedding_matches_simulation(self):
        gate = bitblast(figure2(2)).netlist
        embedded = embed_netlist(gate)
        assert _term_outputs_match_simulation(gate, embedded.term, cycles=15)

    def test_embedding_requires_registers(self):
        nl = Netlist("comb")
        nl.add_input("a", 2)
        nl.add_cell("n", "NOT", ["a"], "y")
        nl.add_output("y", 2)
        with pytest.raises(EmbeddingError):
            embed_netlist(nl)

    def test_embedding_requires_inputs(self):
        with pytest.raises(EmbeddingError):
            embed_netlist(gray_counter(3))

    def test_register_order_respected(self):
        netlist = figure2(3)
        embedded = embed_netlist(netlist, register_order=["D1", "D0"])
        assert embedded.register_order == ["D1", "D0"]
        with pytest.raises(EmbeddingError):
            embed_netlist(netlist, register_order=["D1"])

    def test_step_term_is_closed(self):
        embedded = embed_netlist(figure2(3))
        assert not embedded.step.free_vars()
        assert not embedded.init.free_vars()


class TestFormalRetiming:
    def test_figure2_theorem(self):
        netlist = figure2(5)
        result = formal_forward_retiming(netlist, figure2_cut())
        assert result.theorem.is_equation()
        assert not result.theorem.hyps
        assert result.theorem.lhs == result.original.term
        assert result.new_init_value == (1, 0)
        # the derived description behaves like the original circuit
        assert _term_outputs_match_simulation(netlist, result.retimed_term)

    def test_retimed_netlist_cross_check(self):
        netlist = figure2(4)
        result = formal_forward_retiming(netlist, figure2_cut())
        retimed = apply_forward_retiming(netlist, result.cut)
        assert outputs_equal(netlist, retimed, cycles=150)

    @pytest.mark.parametrize("maker,kwargs,cut", [
        (counter, {"n": 6}, None),
        (fractional_multiplier, {"n": 3}, ["shifter"]),
        (fractional_multiplier, {"n": 3}, None),
        (shift_register, {"n_stages": 2, "width": 3}, None),
    ])
    def test_various_circuits(self, maker, kwargs, cut):
        netlist = maker(**kwargs)
        chosen = cut if cut is not None else maximal_forward_cut(netlist)
        if not chosen:
            pytest.skip("nothing to retime")
        result = formal_forward_retiming(netlist, chosen)
        assert result.theorem.is_equation()
        retimed = apply_forward_retiming(netlist, result.cut)
        assert outputs_equal(netlist, retimed, cycles=120, seed=1)
        assert _term_outputs_match_simulation(netlist, result.retimed_term, cycles=20)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_circuits(self, seed):
        netlist = random_sequential_circuit(3, 5, 25, seed=seed)
        cut = maximal_forward_cut(netlist)
        if not cut:
            pytest.skip("no retimable cells")
        result = formal_forward_retiming(netlist, cut)
        assert result.theorem.is_equation()
        retimed = apply_forward_retiming(netlist, result.cut)
        assert outputs_equal(netlist, retimed, cycles=100, seed=seed)

    def test_stats_present(self):
        result = formal_forward_retiming(figure2(4), figure2_cut())
        for key in ("embed_seconds", "split_seconds", "apply_theorem_seconds",
                    "join_seconds", "init_eval_seconds", "total_seconds",
                    "kernel_steps", "proof_size"):
            assert key in result.stats
        assert result.stats["proof_size"] > 100

    def test_bit_level_retiming(self):
        gate = bitblast(figure2(2)).netlist
        cut = maximal_forward_cut(gate)
        result = formal_forward_retiming(gate, cut)
        assert result.theorem.is_equation()
        assert outputs_equal(gate, apply_forward_retiming(gate, result.cut), cycles=60)

    @given(st.integers(2, 12))
    @settings(max_examples=8, deadline=None)
    def test_property_new_init_is_one_for_any_width(self, width):
        result = formal_forward_retiming(figure2(width), figure2_cut())
        assert result.new_init_value == (1, 0)


class TestLinearSplit:
    """The split unfolds the cut ``let``s with one ``INST`` for all of them."""

    @pytest.mark.parametrize("netlist", [figure2(4), iwls_circuit("s641", 0.25)],
                             ids=["figure2-4", "s641"])
    def test_same_conclusion_as_unfolding_each_let(self, netlist):
        embedded = embed_netlist(netlist)
        cut_nets = [netlist.cells[c].output for c in maximal_forward_cut(netlist)]
        expected = unfold_named_lets_conv(cut_nets)(embedded.step)
        assert unfold_cut_lets(embedded.step, cut_nets).concl is expected.concl

    def test_a_value_reading_a_let_bound_net_is_refused(self):
        from repro.logic.conv import ConvError

        # figure2's multiplexer reads the comparator's and the incrementer's
        # let-bound outputs, which the chain's binders would capture
        with pytest.raises(ConvError):
            unfold_cut_lets(embed_netlist(figure2(4)).step, ["m"])

    def test_a_cut_of_inlined_cells_is_one_refl(self):
        from repro.logic.kernel import inference_steps

        # figure2's output buffer is inlined, not let-bound: nothing to unfold
        embedded = embed_netlist(figure2(4))
        before = inference_steps()
        theorem = unfold_cut_lets(embedded.step, ["y"])
        assert inference_steps() - before == 1
        assert theorem.lhs is embedded.step and theorem.rhs is embedded.step

    @pytest.mark.parametrize("name", ["s1196", "s641"])
    def test_term_constructions_per_kernel_step_do_not_grow(self, name):
        # Counts, not seconds: a split that copies the let chain once per cut
        # value builds about twice as many terms per kernel step at scale 2
        # as at scale 0.25
        per_step = []
        for scale in (0.25, 2.0):
            netlist = iwls_circuit(name, scale)
            stats = formal_forward_retiming(netlist, maximal_forward_cut(netlist)).stats
            calls = stats["term_intern_hits"] + stats["term_intern_misses"]
            per_step.append(calls / stats["kernel_steps"])
        assert per_step[1] <= 1.15 * per_step[0]


class TestFaultyHeuristics:
    def test_false_cut_raises(self):
        with pytest.raises(FormalSynthesisError):
            formal_forward_retiming(figure2(4), figure2_false_cut())

    def test_empty_cut_raises(self):
        with pytest.raises(FormalSynthesisError):
            formal_forward_retiming(figure2(4), [])

    def test_unknown_cell_raises(self):
        with pytest.raises(FormalSynthesisError):
            formal_forward_retiming(figure2(4), ["no_such_cell"])

    def test_constant_cell_raises(self):
        netlist = fractional_multiplier(3)
        # PIPE feeds the shifter; a CONST cell has no inputs and cannot be cut
        netlist.add_cell("konst", "CONST", [], "kn", params={"value": 1, "width": 3})
        netlist.add_cell("use", "OR", ["kn", "acc"] if "acc" in netlist.nets else ["kn", "pipe"], "used")
        netlist.mark_output("used")
        with pytest.raises(FormalSynthesisError):
            formal_forward_retiming(netlist, ["konst"])

    def test_partially_registered_cell_raises(self):
        # a cell reading one register and one primary input is a false cut
        netlist = fractional_multiplier(3)
        with pytest.raises(FormalSynthesisError):
            formal_forward_retiming(netlist, ["xreg_mux"])

    def test_no_theorem_leaks_on_failure(self):
        from repro.logic.kernel import inference_steps

        netlist = figure2(4)
        try:
            formal_forward_retiming(netlist, figure2_false_cut())
        except FormalSynthesisError:
            pass
        # the failure happened before any retiming-theorem instantiation:
        # re-running the legal cut still works and produces a fresh theorem
        result = formal_forward_retiming(netlist, figure2_cut())
        assert result.theorem.is_equation()
        assert inference_steps() > 0
