"""Tests for step composition (HASH core) and synthesis certificates."""

import pytest

from repro.circuits.generators import figure2, figure2_cut, fractional_multiplier
from repro.circuits.generators.multiplier import multiplier_retiming_cut
from repro.circuits.simulate import outputs_equal
from repro.formal import (
    FormalSynthesisError,
    axioms_used,
    bridge_retiming_result,
    bridge_to_netlist_step,
    certificate_for,
    compose,
    compound_retiming_flow,
    retimed_register_order,
    retiming_step,
    rule_histogram,
    tidy_step,
)
from repro.logic.kernel import proof_size


class TestSteps:
    def test_retiming_step_wraps_result(self):
        step = retiming_step(figure2(3), figure2_cut())
        assert step.theorem.is_equation()
        assert step.before == step.theorem.lhs
        assert step.after == step.theorem.rhs
        assert "result" in step.artifacts

    def test_tidy_step_reduces_or_preserves(self):
        result = retiming_step(figure2(3), figure2_cut()).artifacts["result"]
        tidied = tidy_step(result.retimed_term)
        assert tidied.theorem.is_equation()
        assert tidied.after.size() <= result.retimed_term.size()

    def test_bridge_step_accepts_matching_netlist(self):
        result = retiming_step(figure2(3), figure2_cut()).artifacts["result"]
        bridge = bridge_retiming_result(result)
        assert bridge.theorem.is_equation()

    def test_retimed_register_order(self):
        result = retiming_step(figure2(3), figure2_cut()).artifacts["result"]
        order = retimed_register_order(result)
        assert set(order) == set(result.retimed_netlist.registers)
        # the moved register (driving the incrementer output net) comes first
        first = result.retimed_netlist.registers[order[0]]
        assert first.output == "inc_out"

    def test_bridge_step_rejects_wrong_netlist(self):
        result = retiming_step(figure2(3), figure2_cut()).artifacts["result"]
        with pytest.raises(FormalSynthesisError):
            bridge_to_netlist_step(result.retimed_term, figure2(3))

    def test_bridge_step_size_guard(self):
        result = retiming_step(figure2(3), figure2_cut()).artifacts["result"]
        with pytest.raises(FormalSynthesisError):
            bridge_to_netlist_step(result.retimed_term, result.retimed_netlist,
                                   max_term_size=5,
                                   register_order=retimed_register_order(result))


class TestComposition:
    def test_compose_two_retimings(self):
        circuit = fractional_multiplier(3)
        flow = compound_retiming_flow(circuit, [multiplier_retiming_cut(), ["mult"]])
        assert flow.theorem.is_equation()
        assert not flow.theorem.hyps
        # the compound theorem starts at the embedding of the original circuit
        from repro.formal import embed_netlist

        assert flow.theorem.lhs == embed_netlist(circuit).term

    def test_compose_rejects_mismatched_steps(self):
        step_a = retiming_step(figure2(3), figure2_cut())
        step_b = retiming_step(figure2(4), figure2_cut())
        with pytest.raises(FormalSynthesisError):
            compose([step_a, step_b])

    def test_compose_requires_steps(self):
        with pytest.raises(FormalSynthesisError):
            compose([])

    def test_flow_preserves_behaviour(self):
        circuit = fractional_multiplier(3)
        flow = compound_retiming_flow(circuit, [multiplier_retiming_cut(), ["mult"]])
        # the flow's final netlist is carried by the last retiming step
        last = [s for s in flow.detail.split(" ; ") if s.startswith("retiming")][-1]
        assert last  # descriptive only; behavioural check below
        # recover the final netlist from a fresh run for comparison
        from repro.retiming.apply import apply_forward_retiming

        intermediate = apply_forward_retiming(circuit, multiplier_retiming_cut())
        final = apply_forward_retiming(intermediate, ["mult"])
        assert outputs_equal(circuit, final, cycles=150)


class TestCertificates:
    def test_certificate_contents(self):
        step = retiming_step(figure2(3), figure2_cut())
        cert = certificate_for(step.theorem, seconds=step.seconds, cut=step.name)
        assert "RETIMING_THM" in " ".join(cert.axioms)
        assert cert.proof_size > 0
        assert "TRANS" in cert.rule_histogram
        text = cert.render()
        assert "Formal synthesis certificate" in text
        assert "trusted base" in text.lower() or "Trusted base" in text

    def test_rule_histogram_counts(self):
        step = retiming_step(figure2(2), figure2_cut())
        hist = rule_histogram(step.theorem)
        assert sum(hist.values()) > 100
        assert set(hist) & {"REFL", "TRANS", "MK_COMB"}

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_histogram_and_axioms_walk_one_derivation(self, width):
        theorem = retiming_step(figure2(width), figure2_cut()).theorem
        hist = rule_histogram(theorem)
        # every distinct theorem of the DAG is counted exactly once
        assert sum(hist.values()) == proof_size(theorem)
        used = axioms_used(theorem)
        assert used == sorted(set(used))
        assert all(name.split(":", 1)[0] in hist for name in used)

    def test_axioms_used_subset_of_trusted_base(self):
        step = retiming_step(figure2(2), figure2_cut())
        used = axioms_used(step.theorem)
        assert any("RETIMING_THM" in a for a in used)
        assert any("FST_PAIR" in a for a in used)
