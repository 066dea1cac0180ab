"""Tests for DAG-aware AIG rewriting (`repro.circuits.aig_rewrite`).

Covers the NPN canonicalisation (invariance over the whole transform
orbit), the integrity of the precomputed 222-class structure library, the
k-feasible cut enumeration invariants, differential equivalence of the
optimised bit-blasting pipeline against the legacy one on every generator
family and on randomized circuits, the pattern-matched emission (the
ISSUE-7 figure2(8) ≤100-cell acceptance bound), and the >2000-node
deep-chain regression that extends the repo-wide no-recursion-limit-bump
guarantee to the rewriting layer.
"""

import json
import sys

import pytest

from repro.circuits.aig import Aig, aig_to_netlist, netlist_to_aig
from repro.circuits.aig_rewrite import (
    CUT_SIZE,
    ELEM_TT,
    LIBRARY_VERSION,
    TT_MASK,
    aig_levels,
    apply_npn_transform,
    cut_truth_table,
    enumerate_cuts,
    load_library,
    npn_canonical,
    optimize_netlist_aig,
)
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


class TestNpnCanonical:
    def test_canonical_is_invariant_over_the_orbit(self):
        """Every transform of a function canonicalises to the same class."""
        import itertools

        for tt in (0x6996, 0xCAFE, 0x8000, 0x0001, 0xAAAA, 0x1234):
            canon0 = npn_canonical(tt & TT_MASK)[0]
            seen = set()
            for perm in itertools.permutations(range(4)):
                for cmask in range(16):
                    for ocomp in (0, 1):
                        g = apply_npn_transform(tt & TT_MASK, perm, cmask,
                                                ocomp)
                        seen.add(npn_canonical(g)[0])
            assert seen == {canon0}

    def test_transform_tuple_maps_tt_to_canon(self):
        for tt in range(0, 1 << 16, 1237):
            canon, perm, cmask, ocomp = npn_canonical(tt)
            assert apply_npn_transform(tt, perm, cmask, ocomp) == canon

    def test_constants_and_projections(self):
        assert npn_canonical(0)[0] == 0
        assert npn_canonical(TT_MASK)[0] == 0
        for elem in ELEM_TT:
            assert npn_canonical(elem)[0] == npn_canonical(ELEM_TT[0])[0]


class TestLibrary:
    def test_library_covers_every_npn_class(self):
        library = load_library()
        canons = {npn_canonical(tt)[0] for tt in range(1 << 16)}
        assert len(canons) == 222
        assert set(library) == canons

    def test_library_structures_compute_their_class(self):
        from repro.circuits.aig_rewrite import _structure_tt

        library = load_library()
        for canon, (ands, nodes, root) in library.items():
            assert len(nodes) == ands
            assert _structure_tt(nodes, root, ELEM_TT) == canon

    def test_library_version_is_pinned(self):
        from repro.circuits.aig_rewrite import LIBRARY_PATH

        with open(LIBRARY_PATH) as fh:
            raw = json.load(fh)
        assert raw["version"] == LIBRARY_VERSION


class TestCutEnumeration:
    def _small_aig(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        c = aig.add_input("c")
        d = aig.add_input("d")
        ab = aig.mk_and(a, b)
        cd = aig.mk_and(c, d)
        aig.mk_and(ab, cd)
        return aig

    def test_cuts_are_k_feasible_and_include_the_trivial_cut(self):
        aig = self._small_aig()
        cuts, total = enumerate_cuts(aig)
        assert total == sum(len(c) for c in cuts)
        for node, node_cuts in enumerate(cuts):
            assert node_cuts[0] == (node,)  # trivial cut first
            for cut in node_cuts:
                assert len(cut) <= CUT_SIZE
                assert list(cut) == sorted(cut)

    def test_no_dominated_non_trivial_cuts(self):
        aig = self._small_aig()
        cuts, _ = enumerate_cuts(aig)
        for node_cuts in cuts:
            # among the non-trivial cuts, no leaf set contains another's
            sets = [frozenset(c) for c in node_cuts[1:]]
            for i, s in enumerate(sets):
                for j, t in enumerate(sets):
                    assert i == j or not s < t

    def test_cut_truth_tables_match_brute_force(self):
        aig = self._small_aig()
        cuts, _ = enumerate_cuts(aig)
        for node in range(aig.num_nodes):
            if not aig.is_and(node):
                continue
            for cut in cuts[node]:
                if node in cut:
                    continue  # trivial cut: no cone to evaluate
                tt = cut_truth_table(aig, node, cut)
                # brute force over all assignments to the cut leaves,
                # stopping the cone walk *at* the leaves (which may be
                # internal AND nodes of the graph)
                want = 0
                for m in range(1 << len(cut)):
                    vals = {0: 0}
                    vals.update({leaf: (m >> i) & 1
                                 for i, leaf in enumerate(cut)})
                    stack = [node]
                    while stack:
                        n = stack[-1]
                        if n in vals:
                            stack.pop()
                            continue
                        f0, f1 = aig.fanins(n)
                        missing = [c for c in (f0 >> 1, f1 >> 1)
                                   if c not in vals]
                        if missing:
                            stack.extend(missing)
                            continue
                        stack.pop()
                        vals[n] = ((vals[f0 >> 1] ^ (f0 & 1))
                                   & (vals[f1 >> 1] ^ (f1 & 1)))
                    want |= vals[node] << m
                # widen to the 16-bit table convention (don't-care vars)
                for extra in range(len(cut), 4):
                    want |= want << (1 << extra)
                assert tt == want & TT_MASK


class TestDifferentialRewriting:
    @pytest.mark.parametrize("name,maker", ALL_GENERATORS)
    def test_optimised_bitblast_agrees_with_legacy(self, name, maker):
        netlist = maker()
        legacy = bitblast(netlist, opt=False).netlist
        optimised = bitblast(netlist, opt=True).netlist
        _signatures_agree(legacy, optimised)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_circuits(self, seed):
        netlist = random_sequential_circuit(5, 8, 60, seed=seed)
        legacy = bitblast(netlist, opt=False).netlist
        optimised = bitblast(netlist, opt=True).netlist
        _signatures_agree(legacy, optimised, cycles=32, seed=seed)

    def test_rewrite_reduces_nodes_and_levels_on_figure2(self):
        stats = {}
        bitblast(figure2(8), stats=stats)
        assert stats["aig_nodes_post"] <= stats["aig_nodes_pre"]
        assert stats["rewrites_applied"] > 0
        assert stats["cuts_enumerated"] > 0
        assert stats["aig_levels"] > 0

    def test_balancing_reduces_depth_on_the_retimed_figure2(self):
        lowered = netlist_to_aig(figure2_retimed(8))
        before = aig_levels(lowered.aig)
        optimised = optimize_netlist_aig(lowered)
        assert aig_levels(optimised.aig) < before


class TestPatternEmission:
    def test_figure2_8_meets_the_acceptance_bound(self):
        gate = bitblast(figure2(8)).netlist
        assert gate.num_gates() <= 100  # ISSUE-7 acceptance (was 182)

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
    def test_rewriting_a_deep_chain_needs_no_recursion_bump(self):
        """A >2000-AND mux chain through the full optimised pipeline at the
        default interpreter recursion limit (the pass may — correctly —
        collapse it, but must *traverse* it iteratively first)."""
        limit_before = sys.getrecursionlimit()
        depth = 700  # 3 AND nodes per mux: >2000-node AIG
        nl = Netlist("deep_rewrite_chain")
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
        stats = {}
        result = bitblast(nl, stats=stats)
        assert stats["aig_nodes_pre"] > 2000
        assert sys.getrecursionlimit() == limit_before
        _signatures_agree(bitblast(nl, opt=False).netlist, result.netlist)

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
