"""Tests for the structurally-hashed AIG IR (`repro.circuits.aig`).

Covers the hash-consing invariants (no duplicate structural nodes, shared
negations, constant/idempotence/contradiction folds), randomized
differential evaluation against the cycle simulator on every generator
family, the bit-exactness of the AIG-based word-parallel signatures, and
the >2000-level deep-chain regression that extends the repo-wide
no-``setrecursionlimit`` guarantee to the AIG layer.
"""

import sys

import pytest

from repro.circuits.aig import (
    FALSE,
    TRUE,
    Aig,
    aig_to_netlist,
    lit_not,
    netlist_to_aig,
)
from repro.circuits.bitblast import bit_name, bitblast
from repro.circuits.generators import (
    counter,
    figure2,
    fractional_multiplier,
    gray_counter,
    iwls_circuit,
    random_sequential_circuit,
    shift_register,
)
from repro.circuits.netlist import Netlist
from repro.circuits.simulate import (
    Simulator,
    bit_parallel_signatures,
    random_input_sequence,
)

ALL_GENERATORS = [
    ("figure2", lambda: figure2(3)),
    ("figure2-wide", lambda: figure2(6)),
    ("counter", lambda: counter(5)),
    ("gray", lambda: gray_counter(4)),
    ("shift", lambda: shift_register(3, width=4)),
    ("fracmul", lambda: fractional_multiplier(4)),
    ("random_seq", lambda: random_sequential_circuit(4, 6, 30, seed=1)),
    ("iwls", lambda: iwls_circuit("s344", scale=0.05)),
]


class TestStructuralHashing:
    def test_folds(self):
        aig = Aig()
        x = aig.add_input("x")
        y = aig.add_input("y")
        assert aig.mk_and(x, FALSE) == FALSE
        assert aig.mk_and(x, TRUE) == x
        assert aig.mk_and(x, x) == x
        assert aig.mk_and(x, lit_not(x)) == FALSE
        xy = aig.mk_and(x, y)
        # commutativity through operand canonicalisation
        assert aig.mk_and(y, x) == xy
        assert aig.num_ands == 1

    def test_two_level_folds(self):
        aig = Aig()
        x = aig.add_input("x")
        y = aig.add_input("y")
        xy = aig.mk_and(x, y)
        assert aig.mk_and(x, xy) == xy                      # absorption
        assert aig.mk_and(lit_not(x), xy) == FALSE          # contradiction
        nxy = aig.mk_and(lit_not(x), y)
        assert aig.mk_and(x, nxy) == FALSE
        assert aig.mk_and(x, lit_not(nxy)) == x             # containment

    def test_negation_is_free_and_shared(self):
        aig = Aig()
        x = aig.add_input("x")
        y = aig.add_input("y")
        before = aig.num_nodes
        f = aig.mk_and(x, y)
        g = aig.mk_not(f)
        assert aig.num_nodes == before + 1  # the complement adds no node
        assert lit_not(g) == f
        # De Morgan: or goes through the same node as the and of complements
        h = aig.mk_or(lit_not(x), lit_not(y))
        assert h == lit_not(f)

    @pytest.mark.parametrize("name,maker", ALL_GENERATORS)
    def test_no_duplicate_structural_nodes(self, name, maker):
        lowered = netlist_to_aig(maker())
        lowered.aig.check_invariants()

    def test_xor_sharing_across_cells(self):
        # two XOR cells over the same nets must share all three AND nodes
        nl = Netlist("sharing")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_cell("x1", "XOR", ["a", "b"], "u")
        nl.add_cell("x2", "XOR", ["a", "b"], "v")
        nl.add_output("u")
        nl.add_output("v")
        lowered = netlist_to_aig(nl)
        assert lowered.lit_map["u"] == lowered.lit_map["v"]
        assert lowered.aig.strash_hits > 0

    def test_shared_subterms_emitted_once(self):
        nl = Netlist("emit_once")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_cell("x1", "XOR", ["a", "b"], "u")
        nl.add_cell("x2", "XOR", ["a", "b"], "v")
        nl.add_output("u")
        nl.add_output("v")
        gate, _ = aig_to_netlist(netlist_to_aig(nl), nl)
        # one shared xor structure (3 ANDs + inverters) plus output buffers,
        # never two copies
        ands = [c for c in gate.cells.values() if c.type == "AND"]
        assert len(ands) == 3

    def test_shared_subterms_collapse_to_one_xor_cell(self):
        nl = Netlist("emit_once_opt")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_cell("x1", "XOR", ["a", "b"], "u")
        nl.add_cell("x2", "XOR", ["a", "b"], "v")
        nl.add_output("u")
        nl.add_output("v")
        gate = bitblast(nl).netlist
        # pattern-matched emission recognises the canonical 3-AND xor
        # structure and emits one shared XOR cell plus output buffers
        xors = [c for c in gate.cells.values() if c.type in ("XOR", "XNOR")]
        assert len(xors) == 1
        assert not any(c.type == "AND" for c in gate.cells.values())


class TestDifferentialEvaluation:
    @pytest.mark.parametrize("name,maker", ALL_GENERATORS)
    def test_aig_matches_simulator_on_every_net(self, name, maker):
        """AIG word-parallel evaluation == cycle simulation, all nets, 32 cycles."""
        netlist = maker()
        lowered = netlist_to_aig(netlist)
        aig = lowered.aig
        cycles = 32
        seq = random_input_sequence(netlist, cycles, seed=7)
        mask = (1 << cycles) - 1

        sim = Simulator(netlist)
        expected = {net: [] for net in netlist.nets}
        for vec in seq:
            values = sim.evaluate_combinational(vec)
            for net, value in values.items():
                expected[net].append(value)
            sim.step(vec)

        # drive the AIG with the same stimulus: inputs bit-packed per cycle,
        # latches replayed from the simulator's state trajectory
        words = {}
        for inp in netlist.inputs:
            for i, literal in enumerate(lowered.lit_map[inp]):
                words[literal >> 1] = sum(
                    ((seq[t][inp] >> i) & 1) << t for t in range(cycles)
                )
        for reg in netlist.registers.values():
            for i, node in enumerate(lowered.latch_map[reg.name]):
                words[node] = sum(
                    ((expected[reg.output][t] >> i) & 1) << t
                    for t in range(cycles)
                )
        vals = aig.eval_words(words, mask)
        for net, lits in lowered.lit_map.items():
            for i, literal in enumerate(lits):
                got = aig.lit_word(vals, literal, mask)
                want = sum(
                    ((expected[net][t] >> i) & 1) << t for t in range(cycles)
                )
                assert got == want, f"{name}: net {net} bit {i}"

    @pytest.mark.parametrize("name,maker", ALL_GENERATORS[:5])
    def test_bit_parallel_signatures_bit_exact(self, name, maker):
        """The AIG-based packed signatures match the naive per-cycle loop."""
        gate = bitblast(maker()).netlist
        cycles = 48
        sigs = bit_parallel_signatures(gate, cycles, seed=3)
        seq = random_input_sequence(gate, cycles, seed=3)
        sim = Simulator(gate)
        naive = {net: 0 for net in gate.nets}
        for t, vec in enumerate(seq):
            values = sim.evaluate_combinational(vec)
            for net in gate.nets:
                naive[net] |= (values[net] & 1) << t
            sim.step(vec)
        assert sigs == naive

    def test_bit_parallel_signatures_zero_cycles(self):
        gate = bitblast(counter(3)).netlist
        sigs = bit_parallel_signatures(gate, 0, seed=0)
        assert set(sigs) == set(gate.nets)
        assert all(v == 0 for v in sigs.values())


class TestEmission:
    def test_round_trip_is_pure_gate_level(self):
        word = fractional_multiplier(3)
        gate, _ = aig_to_netlist(netlist_to_aig(word), word)
        assert all(net.width == 1 for net in gate.nets.values())
        assert all(
            cell.type in ("AND", "NOT", "BUF", "CONST")
            for cell in gate.cells.values()
        )

    def test_optimised_round_trip_is_gate_level(self):
        # with pattern emission the cell alphabet widens to the matched
        # gates, but stays strictly single-bit gate level
        gate = bitblast(fractional_multiplier(3)).netlist
        assert all(net.width == 1 for net in gate.nets.values())
        assert all(
            cell.type in ("AND", "NAND", "NOT", "BUF", "CONST",
                          "XOR", "XNOR", "MUX")
            for cell in gate.cells.values()
        )

    def test_rebuild_preserves_interface_and_registers(self):
        gate = bitblast(figure2(3)).netlist
        rebuilt = bitblast(gate, name_suffix="_strash").netlist
        assert sorted(rebuilt.inputs) == sorted(gate.inputs)
        assert sorted(rebuilt.outputs) == sorted(gate.outputs)
        assert {
            (r.name, r.init) for r in rebuilt.registers.values()
        } == {(r.name, r.init) for r in gate.registers.values()}

    def test_emission_uses_one_inverter_per_node(self):
        nl = Netlist("inv_shared")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_cell("g", "AND", ["a", "b"], "u")
        nl.add_cell("n1", "NOT", ["u"], "v")
        nl.add_cell("n2", "NOT", ["u"], "w")
        nl.add_cell("o", "OR", ["v", "w"], "y")
        nl.add_output("y")
        gate = bitblast(nl).netlist
        nots = [c for c in gate.cells.values() if c.type == "NOT"]
        # v and w are the same literal; or(v,w)=v, so a single inverter of u
        # (plus at most one for the output polarity) survives
        assert len(nots) <= 2


class TestDeepCircuits:
    def test_deep_chain_beyond_recursion_limit(self):
        """>2000-level AIG chains lower, evaluate, emit and simulate fine."""
        depth = 2500
        assert depth > sys.getrecursionlimit() // 2
        nl = Netlist("deep")
        nl.add_input("x")
        nl.add_input("y")
        prev = "x"
        for i in range(depth):
            out = f"n{i}"
            if i % 3 == 2:
                nl.add_cell(f"c{i}", "NOT", [prev], out)
            else:
                nl.add_cell(f"c{i}", "AND" if i % 2 else "OR", [prev, "y"], out)
            prev = out
        nl.add_output(prev)

        lowered = netlist_to_aig(nl)
        lowered.aig.check_invariants()
        cycles = 8
        words = {
            lowered.lit_map["x"][0] >> 1: 0b10110101,
            lowered.lit_map["y"][0] >> 1: 0b11011010,
        }
        vals = lowered.aig.eval_words(words, (1 << cycles) - 1)
        got = lowered.aig.lit_word(
            vals, lowered.lit_map[prev][0], (1 << cycles) - 1
        )

        gate, _bit_map = aig_to_netlist(lowered, nl)
        sim = Simulator(gate)
        want = 0
        for t in range(cycles):
            values = sim.evaluate_combinational(
                {"x": (0b10110101 >> t) & 1, "y": (0b11011010 >> t) & 1}
            )
            want |= values[prev] << t
        assert got == want

    def test_deep_signatures_at_default_recursion_limit(self):
        depth = 2400
        nl = Netlist("deepsig")
        nl.add_input("x")
        prev = "x"
        for i in range(depth):
            nl.add_cell(f"c{i}", "NOT", [prev], f"n{i}")
            prev = f"n{i}"
        nl.add_register("R", prev, "q")
        nl.add_output("q")
        sigs = bit_parallel_signatures(nl, 16, seed=0)
        assert prev in sigs and "q" in sigs


class TestWordLevelLowering:
    @pytest.mark.parametrize("op,fn", [
        ("ADD", lambda a, b, m: (a + b) & m),
        ("SUB", lambda a, b, m: (a - b) & m),
        ("MUL", lambda a, b, m: (a * b) & m),
        ("EQ", lambda a, b, m: int(a == b)),
        ("NEQ", lambda a, b, m: int(a != b)),
        ("LT", lambda a, b, m: int(a < b)),
        ("GE", lambda a, b, m: int(a >= b)),
    ])
    def test_binary_word_ops_exhaustive(self, op, fn):
        width = 3
        nl = Netlist(op.lower())
        nl.add_input("a", width)
        nl.add_input("b", width)
        nl.add_cell("op", op, ["a", "b"], "y")
        nl.mark_output("y")
        result = bitblast(nl)
        gate = result.netlist
        mask = (1 << width) - 1
        out_width = nl.width("y")
        sim = Simulator(gate)
        for a in range(1 << width):
            for b in range(1 << width):
                bits = {}
                for name, value in (("a", a), ("b", b)):
                    for i in range(width):
                        bits[bit_name(name, i)] = (value >> i) & 1
                values = sim.evaluate_combinational(bits)
                got = 0
                for i, bn in enumerate(result.bit_map["y"]):
                    got |= (values[bn] & 1) << i
                assert got == fn(a, b, mask) & ((1 << out_width) - 1), (op, a, b)
