"""Tests for cycle simulation, bit-blasting and the circuit generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.bitblast import bit_name, bitblast, pack_output_bits
from repro.circuits.generators import (
    counter,
    figure2,
    figure2_retimed,
    fractional_multiplier,
    gray_counter,
    random_sequential_circuit,
    shift_register,
)
from repro.circuits.netlist import Netlist
from repro.circuits.simulate import (
    SimulationError,
    Simulator,
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
        from repro.circuits.netlist import Register

        reg = b.registers["R"]
        b.registers["R"] = Register(reg.name, reg.input, reg.output, init=1, width=reg.width)
        assert find_mismatch(a, b, cycles=16) == 0


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
            assert pack_output_bits(result, word, gout) == wout

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
        assert pack_output_bits(result, nl, gate_trace.outputs[1])["y"] == \
            word_trace.outputs[1]["y"] == (a + b) % 64


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
        from repro.circuits.generators import IWLS_BENCHMARKS, iwls_circuit, iwls_suite

        assert len(IWLS_BENCHMARKS) == 10
        suite = iwls_suite(scale=0.05, names=["s344", "s526"])
        assert set(suite) == {"s344", "s526"}
        for nl in suite.values():
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
