"""Tests for pattern emission, the production gate emission of `bitblast`.

Covers differential equivalence of the raw AND/NOT emission against the
XOR/MUX pattern emission on every generator family and on randomized
circuits, the figure2(8) ≤100-cell bound, the matched XOR/MUX cells,
>2000-node deep chains that extend the repo-wide no-recursion-limit-bump
guarantee to emission, and the placeholder left where AIG rewriting was.
"""

import sys
from pathlib import Path

import pytest

import repro
from repro.circuits import aig_rewrite
from repro.circuits.aig import aig_to_netlist, netlist_to_aig
from repro.circuits.bitblast import bitblast
from repro.circuits.generators import (
    counter,
    figure2,
    figure2_retimed,
    fractional_multiplier,
    gray_counter,
    iwls_circuit,
    random_sequential_circuit,
    shift_register,
)
from repro.circuits.netlist import Netlist
from repro.circuits.simulate import bit_parallel_signatures

ALL_GENERATORS = [
    ("figure2", lambda: figure2(3)),
    ("figure2-wide", lambda: figure2(8)),
    ("figure2-retimed", lambda: figure2_retimed(8)),
    ("counter", lambda: counter(5)),
    ("gray", lambda: gray_counter(4)),
    ("shift", lambda: shift_register(3, width=4)),
    ("fracmul", lambda: fractional_multiplier(4)),
    ("random_seq", lambda: random_sequential_circuit(4, 6, 30, seed=1)),
    ("iwls", lambda: iwls_circuit("s344", scale=0.05)),
]


def _contract_nets(gate: Netlist):
    """The nets whose behaviour both emission pipelines must agree on:
    primary outputs and register outputs (internal fresh names differ)."""
    nets = set(gate.outputs)
    nets.update(r.output for r in gate.registers.values())
    return nets


def _signatures_agree(gate_a: Netlist, gate_b: Netlist, cycles=24, seed=3):
    sig_a = bit_parallel_signatures(gate_a, cycles, seed=seed)
    sig_b = bit_parallel_signatures(gate_b, cycles, seed=seed)
    shared = _contract_nets(gate_a) & _contract_nets(gate_b)
    assert shared, "no contract nets in common"
    for net in sorted(shared):
        assert sig_a[net] == sig_b[net], f"divergence on {net}"


def _raw(netlist: Netlist) -> Netlist:
    """The raw AND/NOT emission of a netlist's structurally hashed AIG."""
    return aig_to_netlist(netlist_to_aig(netlist), netlist)[0]


class TestRawVersusPatternEmission:
    @pytest.mark.parametrize("name,maker", ALL_GENERATORS)
    def test_pattern_emission_agrees_with_raw_emission(self, name, maker):
        netlist = maker()
        _signatures_agree(_raw(netlist), bitblast(netlist).netlist)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_circuits(self, seed):
        netlist = random_sequential_circuit(5, 8, 60, seed=seed)
        _signatures_agree(_raw(netlist), bitblast(netlist).netlist,
                          cycles=32, seed=seed)


class TestPatternEmission:
    def test_figure2_8_meets_the_acceptance_bound(self):
        gate = bitblast(figure2(8)).netlist
        assert gate.num_gates() <= 100  # the raw emission needs 182

    def test_xor_structures_collapse(self):
        nl = Netlist("xors")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_cell("x", "XOR", ["a", "b"], "y")
        nl.add_output("y")
        gate = bitblast(nl).netlist
        types = sorted(c.type for c in gate.cells.values())
        assert "XOR" in types or "XNOR" in types
        assert "AND" not in types and "NAND" not in types

    def test_mux_structures_collapse(self):
        nl = Netlist("muxes")
        nl.add_input("s")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_cell("m", "MUX", ["s", "a", "b"], "y")
        nl.add_output("y")
        gate = bitblast(nl).netlist
        types = [c.type for c in gate.cells.values()]
        assert types.count("MUX") == 1
        assert "AND" not in types and "NAND" not in types

    def test_emission_is_single_bit_gate_level(self):
        gate = bitblast(fractional_multiplier(4)).netlist
        gate.validate()
        assert all(net.width == 1 for net in gate.nets.values())
        assert all(
            c.type in ("AND", "NAND", "NOT", "BUF", "CONST",
                       "XOR", "XNOR", "MUX")
            for c in gate.cells.values()
        )


class TestDeepChains:
    def test_bitblasting_a_deep_mux_chain_needs_no_recursion_bump(self):
        """A >2000-AND mux chain through ``bitblast`` at the default
        interpreter recursion limit."""
        limit_before = sys.getrecursionlimit()
        depth = 700  # 3 AND nodes per mux: >2000-node AIG
        nl = Netlist("deep_mux_chain")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_input("c")
        prev = "a"
        for k in range(depth):
            net = f"n{k}"
            nl.add_net(net)
            # a mux chain never folds away during hash-consed lowering
            nl.add_cell(f"g{k}", "MUX", [prev, "b", "c"], net)
            prev = net
        nl.add_output("y")
        nl.add_cell("ybuf", "BUF", [prev], "y")
        nl.validate()

        lowered = netlist_to_aig(nl)
        assert lowered.aig.num_ands > 2000  # genuinely deep input
        result = bitblast(nl)
        assert sys.getrecursionlimit() == limit_before
        _signatures_agree(_raw(nl), result.netlist)

    def test_deep_chain_pattern_emission_is_iterative(self):
        depth = 800
        nl = Netlist("deep_emit_chain")
        nl.add_input("x0")
        prev = "x0"
        for k in range(depth):
            inp = f"i{k}"
            nl.add_net(f"n{k}")
            nl.add_input(inp)
            nl.add_cell(f"g{k}", "XOR", [prev, inp], f"n{k}")
            prev = f"n{k}"
        nl.add_output("y")
        nl.add_cell("ybuf", "BUF", [prev], "y")
        lowered = netlist_to_aig(nl)
        assert lowered.aig.num_ands > 2000  # 3 ANDs per fresh-input xor
        # emit the deep unoptimised AIG through the pattern matcher: the
        # demand marking and emission walks must both be explicit-stack
        gate, _bit_map = aig_to_netlist(lowered, source=nl, patterns=True)
        gate.validate()
        # every stage is matched (a node demanded in both polarities emits
        # an XOR and an XNOR cell rather than an inverter chain)
        xors = sum(1 for c in gate.cells.values()
                   if c.type in ("XOR", "XNOR"))
        assert depth <= xors <= 2 * depth
        assert not any(c.type in ("AND", "NAND")
                       for c in gate.cells.values())


class TestRewritingPlaceholder:
    """``circuits/aig_rewrite.py`` stays only for the benchmark harness,
    which imports :func:`load_library` and wraps
    :func:`optimize_netlist_aig`."""

    def test_the_placeholder_is_the_identity(self):
        assert aig_rewrite.load_library() == {}
        lowered = netlist_to_aig(figure2(2))
        stats = {}
        assert aig_rewrite.optimize_netlist_aig(lowered) is lowered
        assert aig_rewrite.optimize_netlist_aig(lowered, stats=stats) is lowered
        assert stats == {}

    def test_nothing_in_repro_imports_the_placeholder(self):
        package = Path(repro.__file__).parent
        placeholder = Path(aig_rewrite.__file__).resolve()
        naming = [str(path.relative_to(package))
                  for path in sorted(package.rglob("*.py"))
                  if path.resolve() != placeholder
                  and "aig_rewrite" in path.read_text(encoding="utf-8")]
        assert naming == []
