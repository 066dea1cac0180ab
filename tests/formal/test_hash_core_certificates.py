"""Tests for step composition (HASH core) and synthesis certificates."""

import pytest

from repro.circuits.generators import figure2, figure2_cut, fractional_multiplier
from repro.circuits.generators.iwls import iwls_circuit
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
    formal_forward_retiming,
    hash_core,
    retimed_register_order,
    retiming_step,
    rule_histogram,
    tidy_step,
)
from repro.logic import conv, rewriter
from repro.logic.kernel import proof_size
from repro.logic.stdlib import dest_let, is_let
from repro.logic.terms import iter_subterms
from repro.retiming.apply import apply_forward_retiming
from repro.retiming.cuts import maximal_forward_cut


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
        retimed = apply_forward_retiming(figure2(3), result.cut)
        order = retimed_register_order(result, retimed)
        assert set(order) == set(retimed.registers)
        # the moved register (driving the incrementer output net) comes first
        first = retimed.registers[order[0]]
        assert first.output == "inc_out"

    def test_bridge_step_rejects_wrong_netlist(self):
        result = retiming_step(figure2(3), figure2_cut()).artifacts["result"]
        with pytest.raises(FormalSynthesisError):
            bridge_to_netlist_step(result.retimed_term, figure2(3))

    def test_bridge_step_size_guard(self):
        result = retiming_step(figure2(3), figure2_cut()).artifacts["result"]
        retimed = apply_forward_retiming(figure2(3), result.cut)
        with pytest.raises(FormalSynthesisError):
            bridge_to_netlist_step(result.retimed_term, retimed,
                                   max_term_size=5,
                                   register_order=retimed_register_order(result, retimed))


def _quadratic_tidy(description):
    """The reference tidy: one rewrite pass that counts a let's uses by
    walking its body at every let."""

    def single_use_let(t):
        if not is_let(t):
            raise conv.ConvError("not a let")
        var, _value, body = dest_let(t)
        if sum(1 for sub in iter_subterms(body) if sub is var) > 1:
            raise conv.ConvError("bound variable used more than once")
        return conv.LET_CONV(t)

    return rewriter.net_conv(
        rewriter.RewriteNet()
        .add_beta(conv.BETA_CONV)
        .add_conv(conv.FST_CONV, "FST", 1)
        .add_conv(conv.SND_CONV, "SND", 1)
        .add_conv(single_use_let, "LET", 2)
    )(description)


class TestLinearTidy:
    """``tidy_step`` counts uses once per round, not once per ``let``."""

    @pytest.mark.parametrize("netlist", [
        fractional_multiplier(4), iwls_circuit("s1196", 0.25), iwls_circuit("s641", 0.5),
    ], ids=["multiplier", "s1196", "s641"])
    def test_same_tidied_term_as_one_quadratic_pass(self, netlist):
        term = formal_forward_retiming(netlist, maximal_forward_cut(netlist)).retimed_term
        assert tidy_step(term).after is _quadratic_tidy(term).rhs

    @pytest.mark.parametrize("name", ["s1196", "s641"])
    def test_subterms_visited_per_description_node_do_not_grow(self, name, monkeypatch):
        # Counts, not seconds: walking each let's body to count its uses
        # visits about six times as many subterms per node of the
        # description at scale 1 as at scale 0.25
        visited = [0]

        def counting(t):
            for sub in iter_subterms(t):
                visited[0] += 1
                yield sub

        monkeypatch.setattr(hash_core, "iter_subterms", counting)
        per_node = []
        for scale in (0.25, 1.0):
            netlist = iwls_circuit(name, scale)
            term = formal_forward_retiming(netlist, maximal_forward_cut(netlist)).retimed_term
            visited[0] = 0
            tidy_step(term)
            per_node.append(visited[0] / term.size())
        assert per_node[1] <= 1.5 * per_node[0]


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
