"""Tests for the fault-injection engine (:mod:`repro.circuits.mutate`).

Covers every mutation operator on a hand-built netlist, determinism of the
seeded draw, the replay path (``apply_mutations`` over a recorded list),
JSON round-trips, and the visibility guarantee of
:func:`inject_visible_faults` — the property the fuzz oracle's ground truth
rests on.
"""

import importlib
import random

import pytest

from repro.circuits.generators import random_sequential_circuit
from repro.circuits.mutate import (
    Mutation,
    MutationError,
    apply_mutation,
    apply_mutations,
    inject_visible_faults,
    random_mutation,
)
from repro.circuits.netlist import Netlist
from repro.circuits.simulate import find_mismatch


def tiny_netlist() -> Netlist:
    """a AND (NOT b) -> register -> output, with a spare OR tap."""
    n = Netlist("tiny")
    n.add_input("a")
    n.add_input("b")
    n.add_output("y")
    n.add_net("nb")
    n.add_net("conj")
    n.add_net("spare")
    n.add_net("q")
    n.add_cell("inv_b", "NOT", ["b"], "nb")
    n.add_cell("g_and", "AND", ["a", "nb"], "conj")
    n.add_cell("g_or", "OR", ["a", "b"], "spare")
    n.add_cell("buf_y", "BUF", ["q"], "y")
    n.add_register("r0", "conj", "q", init=0)
    n.validate()
    return n


class TestOperators:
    def test_stuck_at_replaces_gate_with_const(self):
        net = tiny_netlist()
        out = apply_mutation(net, Mutation("stuck_at", "g_and", value=1))
        cell = out.cells["g_and"]
        assert cell.type == "CONST"
        assert cell.params["value"] == 1
        assert cell.output == "conj"
        # the original is untouched
        assert net.cells["g_and"].type == "AND"

    def test_gate_swap_within_arity_class(self):
        net = tiny_netlist()
        out = apply_mutation(net, Mutation("gate_swap", "g_and", arg="XOR"))
        assert out.cells["g_and"].type == "XOR"
        with pytest.raises(MutationError):
            apply_mutation(net, Mutation("gate_swap", "g_and", arg="AND"))
        with pytest.raises(MutationError):
            apply_mutation(net, Mutation("gate_swap", "g_and", arg="NOT"))

    def test_operand_swap_two_input_gate(self):
        net = tiny_netlist()
        out = apply_mutation(net, Mutation("operand_swap", "g_and"))
        assert out.cells["g_and"].inputs == ("nb", "a")
        with pytest.raises(MutationError):
            apply_mutation(net, Mutation("operand_swap", "inv_b"))

    def test_operand_swap_mux_swaps_data_not_select(self):
        n = Netlist("muxed")
        n.add_input("s")
        n.add_input("d0")
        n.add_input("d1")
        n.add_output("y")
        n.add_cell("m", "MUX", ["s", "d1", "d0"], "y")
        n.validate()
        out = apply_mutation(n, Mutation("operand_swap", "m"))
        assert out.cells["m"].inputs == ("s", "d0", "d1")

    def test_insert_inverter_breaks_one_pin(self):
        net = tiny_netlist()
        out = apply_mutation(net, Mutation("insert_inverter", "g_and", pin=1))
        mutated = out.cells["g_and"]
        assert mutated.inputs[0] == "a"
        inv_net = mutated.inputs[1]
        assert inv_net != "nb"
        added = [c for c in out.cells.values()
                 if c.type == "NOT" and c.output == inv_net]
        assert len(added) == 1 and added[0].inputs == ("nb",)
        out.validate()

    def test_remove_inverter_degrades_to_buf(self):
        net = tiny_netlist()
        out = apply_mutation(net, Mutation("remove_inverter", "inv_b"))
        assert out.cells["inv_b"].type == "BUF"
        with pytest.raises(MutationError):
            apply_mutation(net, Mutation("remove_inverter", "g_and"))

    def test_rewire_moves_a_pin(self):
        net = tiny_netlist()
        out = apply_mutation(net, Mutation("rewire", "g_and", pin=1, arg="spare"))
        assert out.cells["g_and"].inputs == ("a", "spare")
        out.validate()

    def test_rewire_rejects_combinational_cycle(self):
        # g_and <- spare while g_or <- conj would close conj -> spare -> conj
        net = tiny_netlist()
        step1 = apply_mutation(net, Mutation("rewire", "g_or", pin=0, arg="conj"))
        with pytest.raises(MutationError):
            apply_mutation(step1, Mutation("rewire", "g_and", pin=0, arg="spare"))

    def test_rewire_rejects_self_loop_and_unknown_net(self):
        net = tiny_netlist()
        with pytest.raises(MutationError):
            apply_mutation(net, Mutation("rewire", "g_and", pin=0, arg="conj"))
        with pytest.raises(MutationError):
            apply_mutation(net, Mutation("rewire", "g_and", pin=0, arg="ghost"))

    def test_unknown_cell_and_kind_are_errors(self):
        net = tiny_netlist()
        with pytest.raises(MutationError):
            apply_mutation(net, Mutation("stuck_at", "nope"))
        with pytest.raises(MutationError):
            apply_mutation(net, Mutation("bitrot", "g_and"))


class TestMutationRecord:
    def test_json_round_trip(self):
        for mutation in (
            Mutation("stuck_at", "g", value=1),
            Mutation("gate_swap", "g", arg="NOR"),
            Mutation("rewire", "g", pin=2, arg="net_7"),
        ):
            assert Mutation.from_dict(mutation.to_dict()) == mutation

    def test_apply_mutations_replays_in_order(self):
        net = tiny_netlist()
        mutations = [
            Mutation("gate_swap", "g_and", arg="OR"),
            Mutation("remove_inverter", "inv_b"),
        ]
        replayed = apply_mutations(net, mutations)
        assert replayed.cells["g_and"].type == "OR"
        assert replayed.cells["inv_b"].type == "BUF"
        # identical to applying one at a time
        stepped = apply_mutation(apply_mutation(net, mutations[0]), mutations[1])
        assert {c.name: (c.type, c.inputs) for c in replayed.cells.values()} == \
               {c.name: (c.type, c.inputs) for c in stepped.cells.values()}


class TestRandomMutation:
    def test_same_seed_same_draw(self):
        net = random_sequential_circuit(4, 5, 24, seed=7)
        draws_a = [random_mutation(net, random.Random(13)) for _ in range(5)]
        draws_b = [random_mutation(net, random.Random(13)) for _ in range(5)]
        assert draws_a == draws_b
        assert all(m is not None for m in draws_a)

    def test_drawn_mutations_are_applicable(self):
        net = random_sequential_circuit(4, 5, 24, seed=3)
        rng = random.Random(0)
        applied = 0
        for _ in range(32):
            mutation = random_mutation(net, rng)
            assert mutation is not None
            try:
                apply_mutation(net, mutation)
            except MutationError:
                continue  # e.g. a rewire draw that closes a cycle
            applied += 1
        assert applied > 0

    def test_kind_restriction_honoured(self):
        net = tiny_netlist()
        rng = random.Random(1)
        for _ in range(8):
            mutation = random_mutation(net, rng, kinds=("stuck_at",))
            assert mutation.kind == "stuck_at"

    def test_no_candidates_returns_none(self):
        n = Netlist("wires")
        n.add_input("a")
        n.add_output("y")
        n.add_cell("w", "BUF", ["a"], "y")
        n.validate()
        assert random_mutation(n, random.Random(0),
                               kinds=("remove_inverter",)) is None


class TestInjectVisibleFaults:
    def test_faults_are_simulation_visible(self):
        net = random_sequential_circuit(4, 5, 24, seed=11)
        mutant, applied = inject_visible_faults(net, n=2, seed=11)
        assert len(applied) == 2
        assert find_mismatch(net, mutant) is not None

    def test_deterministic_in_seed(self):
        net = random_sequential_circuit(4, 5, 24, seed=5)
        _, applied_a = inject_visible_faults(net, n=2, seed=9)
        _, applied_b = inject_visible_faults(net, n=2, seed=9)
        assert applied_a == applied_b
        _, applied_c = inject_visible_faults(net, n=2, seed=10)
        assert applied_a != applied_c  # different seed, different faults

    def test_replay_of_recorded_faults_matches(self):
        net = random_sequential_circuit(4, 5, 24, seed=2)
        mutant, applied = inject_visible_faults(net, n=2, seed=2)
        replayed = apply_mutations(net, applied)
        assert {c.name: (c.type, c.inputs, tuple(sorted(c.params.items())))
                for c in replayed.cells.values()} == \
               {c.name: (c.type, c.inputs, tuple(sorted(c.params.items())))
                for c in mutant.cells.values()}

    def test_visibility_against_external_reference(self):
        # fuzz retime-fault cells mutate the *retimed* circuit but must be
        # visible against the *original*
        net = random_sequential_circuit(4, 5, 24, seed=4)
        from repro.retiming.apply import apply_forward_retiming
        from repro.retiming.cuts import sized_forward_cut

        cut = sized_forward_cut(net, 2, seed=4)
        retimed = apply_forward_retiming(net, cut)
        mutant, applied = inject_visible_faults(retimed, reference=net,
                                                n=1, seed=4)
        assert applied
        assert find_mismatch(net, mutant) is not None

    def test_reference_is_simulated_once_per_call(self, monkeypatch):
        # seed 8 draws six candidates for two faults: four are masked
        simulate_module = importlib.import_module("repro.circuits.simulate")
        simulated = []
        aig_outputs = simulate_module.aig_outputs

        def counting(netlist, input_sequence):
            simulated.append(netlist)
            return aig_outputs(netlist, input_sequence)

        monkeypatch.setattr(simulate_module, "aig_outputs", counting)
        net = random_sequential_circuit(4, 5, 24, seed=8)
        _, applied = inject_visible_faults(net, n=2, seed=8)
        assert len(applied) == 2
        assert [c is net for c in simulated].count(True) == 1
        assert len(simulated) - 1 == 6

    def test_unmutatable_netlist_raises(self):
        n = Netlist("wires")
        n.add_input("a")
        n.add_output("y")
        n.add_cell("w", "BUF", ["a"], "y")
        n.validate()
        with pytest.raises(MutationError):
            inject_visible_faults(n, n=1, seed=0, kinds=("remove_inverter",))
