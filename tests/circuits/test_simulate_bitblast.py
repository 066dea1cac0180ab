"""Tests for cycle simulation, bit-blasting and the circuit generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.aig import aig_to_netlist, netlist_to_aig
from repro.circuits.bitblast import bit_name, bitblast
from repro.circuits.generators import (
    counter,
    figure2,
    figure2_retimed,
    fractional_multiplier,
    gray_counter,
    random_sequential_circuit,
    shift_register,
)
from repro.circuits.mutate import MUTATION_KINDS, MutationError, apply_mutation, random_mutation
from repro.circuits.netlist import Netlist, Register
from repro.circuits.simulate import (
    SimulationError,
    Simulator,
    aig_outputs,
    find_mismatch,
    outputs_equal,
    random_input_sequence,
    simulate,
)
from repro.eval.cache import netlist_fingerprint


class TestSimulation:
    def test_counter_counts(self):
        c = counter(4)
        trace = simulate(c, [{"en": 1}] * 5 + [{"en": 0}] * 3)
        assert trace.output_sequence("y") == [0, 1, 2, 3, 4, 5, 5, 5]

    def test_counter_wraps(self):
        c = counter(2)
        trace = simulate(c, [{"en": 1}] * 6)
        assert trace.output_sequence("y") == [0, 1, 2, 3, 0, 1]

    def test_shift_register_latency(self):
        s = shift_register(3, width=4)
        seq = [{"din": v} for v in (9, 5, 7, 1, 2, 3)]
        trace = simulate(s, seq)
        assert trace.output_sequence("dout")[:3] == [0, 0, 0]
        assert trace.output_sequence("dout")[3:] == [9, 5, 7]

    def test_gray_counter_sequence(self):
        g = gray_counter(4)
        trace = simulate(g, [{}] * 8)
        ys = trace.output_sequence("y")
        # consecutive Gray codes differ in exactly one bit
        for prev, nxt in zip(ys, ys[1:]):
            assert bin(prev ^ nxt).count("1") == 1

    def test_missing_input_raises(self):
        c = counter(4)
        sim = Simulator(c)
        with pytest.raises(SimulationError):
            sim.step({})

    def test_oversized_input_raises(self):
        c = counter(4)
        sim = Simulator(c)
        with pytest.raises(SimulationError):
            sim.step({"en": 2})

    def test_state_override(self):
        c = counter(4)
        sim = Simulator(c, state={"R": 7})
        assert sim.step({"en": 1})["y"] == 7

    def test_unknown_state_override(self):
        with pytest.raises(SimulationError):
            Simulator(counter(4), state={"nope": 1})

    def test_random_sequence_reproducible(self):
        c = figure2(4)
        assert random_input_sequence(c, 10, seed=3) == random_input_sequence(c, 10, seed=3)
        assert random_input_sequence(c, 10, seed=3) != random_input_sequence(c, 10, seed=4)

    def test_outputs_equal_and_mismatch(self):
        a, b = figure2(3), figure2_retimed(3)
        assert outputs_equal(a, b, cycles=128, seed=2)
        assert find_mismatch(a, b, cycles=128) is None

    def test_mismatch_detected_for_different_circuits(self):
        a = counter(3)
        b = counter(3)
        # corrupt b's initial state
        reg = b.registers["R"]
        b.registers["R"] = Register(reg.name, reg.input, reg.output, init=1, width=reg.width)
        assert find_mismatch(a, b, cycles=16) == 0


def engines_agree(a: Netlist, b: Netlist, cycles: int = 128):
    """Check the AIG step against the interpretive ``Simulator`` on
    ``find_mismatch``'s stimulus; returns the first mismatch cycle."""
    seq = random_input_sequence(a, cycles, seed=0)
    trace_a, trace_b = simulate(a, seq).outputs, simulate(b, seq).outputs
    assert list(aig_outputs(a, seq)) == trace_a
    assert list(aig_outputs(b, seq)) == trace_b
    pairs = zip(aig_outputs(a, seq), aig_outputs(b, seq))
    mismatch = next((t for t, (x, y) in enumerate(pairs) if x != y), None)
    assert find_mismatch(a, b, cycles) == mismatch
    return mismatch


def mux_netlist() -> Netlist:
    """A 1-bit MUX feeding back through an inverter and a register: every
    mutation kind, ``operand_swap`` and ``remove_inverter`` included, applies."""
    n = Netlist("mux_loop")
    for name in ("s", "a", "b"):
        n.add_input(name)
    for net in ("m", "nm", "x", "q"):
        n.add_net(net)
    n.add_cell("g_mux", "MUX", ["s", "a", "q"], "m")
    n.add_cell("g_not", "NOT", ["m"], "nm")
    n.add_cell("g_xor", "XOR", ["nm", "b"], "x")
    n.add_register("r0", "x", "q", init=1)
    n.add_cell("buf_y", "BUF", ["m"], "y")
    n.add_cell("buf_z", "BUF", ["q"], "z")
    n.add_output("y")
    n.add_output("z")
    n.validate()
    return n


class TestAigOutputs:
    """The AIG step against the interpretive reference semantics."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_resweep_size_circuits(self, seed):
        base = random_sequential_circuit(6, 8, 48, seed=seed)
        mutant = None
        rng = random.Random(seed)
        while mutant is None:
            try:
                mutant = apply_mutation(base, random_mutation(base, rng))
            except MutationError:
                pass
        engines_agree(base, mutant)

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    def test_one_mutant_per_kind(self, kind):
        base, rng = mux_netlist(), random.Random(0)
        for _ in range(20):
            try:
                mutant = apply_mutation(base, random_mutation(base, rng, kinds=(kind,)))
                break
            except MutationError:
                continue
        types = sorted(cell.type for cell in mutant.cells.values())
        if kind == "stuck_at":
            assert "CONST" in types
        elif kind == "remove_inverter":
            assert "NOT" not in types
        elif kind == "insert_inverter":
            assert types.count("NOT") == 2
        engines_agree(base, mutant)

    def test_mux_netlist(self):
        assert engines_agree(mux_netlist(), mux_netlist()) is None

    def test_word_level_retiming_has_no_mismatch(self):
        assert engines_agree(figure2(4), figure2_retimed(4)) is None

    def test_corrupted_init_mismatches_at_cycle_zero(self):
        a, b = counter(3), counter(3)
        reg = b.registers["R"]
        b.registers["R"] = Register(reg.name, reg.input, reg.output, init=1, width=reg.width)
        assert engines_agree(a, b, cycles=16) == 0

    def test_cycles_are_stepped_lazily(self):
        stimulus = iter([{"en": 1}] * 3)
        outputs = aig_outputs(counter(2), stimulus)
        assert next(outputs) == {"y": 0}
        assert next(outputs) == {"y": 1}
        assert list(stimulus) == [{"en": 1}]


class TestFigure2Behaviour:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_retimed_reference_equivalent(self, n):
        assert outputs_equal(figure2(n), figure2_retimed(n), cycles=200, seed=n)

    def test_counts_only_when_inputs_agree(self):
        c = figure2(4)
        trace = simulate(c, [{"a": 3, "b": 3}] * 4 + [{"a": 1, "b": 2}] * 3)
        ys = trace.output_sequence("y")
        assert ys[:5] == [0, 1, 2, 3, 4]
        assert ys[5:] == [4, 4]


class TestMultiplierBehaviour:
    def test_product_appears_after_load(self):
        m = fractional_multiplier(4)
        seq = [{"x": 3, "load": 1}] + [{"x": 0, "load": 0}] * 3
        trace = simulate(m, seq)
        # cycle 0 loads, cycle 1 multiplies into PIPE, cycle 2 shifts out
        assert trace.output_sequence("p")[2] == (3 * 3) >> 1

    def test_wraps_modulo_width(self):
        m = fractional_multiplier(4)
        seq = [{"x": 13, "load": 1}] + [{"x": 0, "load": 0}] * 3
        trace = simulate(m, seq)
        assert trace.output_sequence("p")[2] == ((13 * 13) & 0xF) >> 1


class TestBitblast:
    @pytest.mark.parametrize("maker,kwargs", [
        (figure2, {"n": 3}),
        (counter, {"n": 5}),
        (fractional_multiplier, {"n": 3}),
        (gray_counter, {"n": 4}),
        (shift_register, {"n_stages": 2, "width": 3}),
    ])
    def test_bitblast_preserves_behaviour(self, maker, kwargs):
        word = maker(**kwargs)
        result = bitblast(word)
        gate = result.netlist
        assert all(net.width == 1 for net in gate.nets.values())
        seq = random_input_sequence(word, 40, seed=11)
        bit_seq = []
        for vec in seq:
            bits = {}
            for name, value in vec.items():
                width = word.width(name)
                if width == 1:
                    bits[name] = value
                else:
                    for i in range(width):
                        bits[bit_name(name, i)] = (value >> i) & 1
            bit_seq.append(bits)
        word_trace = simulate(word, seq)
        gate_trace = simulate(gate, bit_seq)
        for wout, gout in zip(word_trace.outputs, gate_trace.outputs):
            packed = {}
            for out in word.outputs:
                width = word.width(out)
                names = [bit_name(out, i) for i in range(width)] if width > 1 else [out]
                packed[out] = sum((gout[name] & 1) << i for i, name in enumerate(names))
            assert packed == wout

    @pytest.mark.parametrize("maker,kwargs", [
        (figure2, {"n": 3}),
        (counter, {"n": 5}),
        (fractional_multiplier, {"n": 3}),
        (gray_counter, {"n": 4}),
        (shift_register, {"n_stages": 2, "width": 3}),
    ])
    def test_both_emitters_name_the_interface_alike(self, maker, kwargs):
        # the strash and the pattern emitter differ only inside the cones
        word = maker(**kwargs)
        raw, raw_bit_map = aig_to_netlist(netlist_to_aig(word), word)
        opt = bitblast(word)
        assert raw.inputs == opt.netlist.inputs
        assert raw.outputs == opt.netlist.outputs
        registers = [[(r.name, r.output, r.init) for r in gate.registers.values()]
                     for gate in (raw, opt.netlist)]
        assert registers[0] == registers[1]
        assert set(raw_bit_map) == set(opt.bit_map)
        assert all(raw_bit_map[net] == opt.bit_map[net] for net in word.inputs)
        assert outputs_equal(raw, opt.netlist, cycles=40)

    def test_bitblast_register_count(self):
        word = figure2(6)
        gate = bitblast(word).netlist
        assert gate.num_flipflops() == word.num_flipflops()

    @given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bitblast_adder_exhaustive_ish(self, a, b):
        nl = Netlist("add6")
        nl.add_input("a", 6)
        nl.add_input("b", 6)
        nl.add_cell("add", "ADD", ["a", "b"], "s")
        nl.add_register("R", "s", "q", width=6)
        nl.add_cell("buf", "BUF", ["q"], "y")
        nl.add_output("y", 6)
        result = bitblast(nl)
        seq = [{"a": a, "b": b}, {"a": 0, "b": 0}]
        bit_seq = [
            {bit_name(k, i): (v >> i) & 1 for k, v in vec.items() for i in range(6)}
            for vec in seq
        ]
        word_trace = simulate(nl, seq)
        gate_trace = simulate(result.netlist, bit_seq)
        y = sum((gate_trace.outputs[1][bit_name("y", i)] & 1) << i for i in range(6))
        assert y == word_trace.outputs[1]["y"] == (a + b) % 64


class TestStructural:
    def test_structural_signature_stable(self, fig2_small):
        assert netlist_fingerprint(fig2_small) == netlist_fingerprint(figure2(3))


class TestGenerators:
    def test_random_circuit_deterministic(self):
        # one name for all three: the default name carries the seed, which
        # would make the inequality below hold for any generator
        a = random_sequential_circuit(4, 6, 30, seed=5, name="rand")
        b = random_sequential_circuit(4, 6, 30, seed=5, name="rand")
        assert netlist_fingerprint(a) == netlist_fingerprint(b)
        c = random_sequential_circuit(4, 6, 30, seed=6, name="rand")
        assert netlist_fingerprint(a) != netlist_fingerprint(c)

    def test_random_circuit_sizes(self):
        nl = random_sequential_circuit(5, 12, 80, seed=1)
        assert nl.num_flipflops() == 12
        assert nl.num_gates() >= 80  # gates plus output buffers
        assert len(nl.inputs) == 5
        nl.validate()

    def test_random_circuit_has_retimable_cells(self):
        from repro.retiming.apply import forward_retimable_cells

        nl = random_sequential_circuit(4, 8, 40, seed=2)
        assert forward_retimable_cells(nl)

    def test_random_circuit_argument_validation(self):
        with pytest.raises(ValueError):
            random_sequential_circuit(0, 5, 10)

    def test_iwls_suite(self):
        from repro.circuits.generators import IWLS_BENCHMARKS, iwls_circuit

        assert len(IWLS_BENCHMARKS) == 10
        for name in ("s344", "s526"):
            nl = iwls_circuit(name, scale=0.05)
            assert nl.name.startswith(name)
            nl.validate()
        mult = iwls_circuit("s526", scale=1.0)
        assert "mult" in mult.cells
        with pytest.raises(KeyError):
            iwls_circuit("s_unknown")

    def test_figure2_width_validation(self):
        with pytest.raises(ValueError):
            figure2(0)
        with pytest.raises(ValueError):
            fractional_multiplier(1)
