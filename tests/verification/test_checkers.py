"""Tests for the post-synthesis verification baselines."""

import time

import pytest

from repro.circuits.generators import counter, figure2, figure2_retimed, fractional_multiplier
from repro.circuits.netlist import Netlist, Register
from repro.eval.workloads import table1_workload
from repro.retiming.apply import apply_forward_retiming
from repro.retiming.cuts import maximal_forward_cut
from repro.retiming.graph import graph_from_netlist
from repro.verification import (
    fsm_compare,
    model_checking,
    retiming_verify,
    tautology,
    van_eijk,
)
from repro.verification.bdd import BddManager
from repro.verification.common import (
    VerificationError,
    compile_fsm,
    ensure_gate_level,
    product_fsm,
)


def _corrupt_init(netlist: Netlist, reg_name: str, new_init: int) -> Netlist:
    out = netlist.copy(netlist.name + "_corrupt")
    reg = out.registers[reg_name]
    out.registers[reg_name] = Register(reg.name, reg.input, reg.output,
                                       init=new_init, width=reg.width)
    return out


@pytest.fixture(scope="module")
def fig_pair():
    return figure2(3), figure2_retimed(3)


#: register-preserving pairs taut-rw decides quickly under either memo
#: discipline: the small strash pairs and the refuting fault cells of
#: ``make_specs(24, seed=0)``
MEMO_CELLS = ["strash figure2_2bit", "strash counter_2bit",
              "strash counter_3bit", "s1 fault", "s4 fault", "s7 fault",
              "s10 fault", "s13 fault", "s16 fault", "s19 fault", "s22 fault"]


@pytest.fixture(scope="module")
def memo_cells():
    from repro.eval.fuzz import build_cell, make_specs
    from repro.eval.scenarios import build_scenario

    workloads = build_scenario("strash", widths=[2])
    workloads.append(build_scenario("strash", widths=[3])[1])
    workloads += [build_cell(spec).workload for spec in make_specs(24, seed=0)
                  if spec.flavour == "fault"]
    return {workload.name: workload for workload in workloads}


class TestCommonInfrastructure:
    def test_compile_fsm_declares_inputs_then_state(self, fig2_small):
        gate = ensure_gate_level(fig2_small)
        fsm = compile_fsm(gate, prefix="A.")
        assert fsm.manager.var_names() == list(gate.inputs) + fsm.state_vars

    def test_compile_fsm_keeps_an_order_declared_before(self, fig2_small):
        gate = ensure_gate_level(fig2_small)
        manager = BddManager()
        order = [f"A.{r.output}" for r in gate.registers.values()] + list(gate.inputs)
        order.reverse()
        for name in order:
            manager.declare(name)
        compile_fsm(gate, manager, prefix="A.")
        assert manager.var_names() == order

    def test_compile_fsm_matches_simulation(self, fig2_small):
        from repro.circuits.simulate import Simulator, random_input_sequence

        gate = ensure_gate_level(fig2_small)
        fsm = compile_fsm(gate)
        sim = Simulator(gate)
        for vec in random_input_sequence(gate, 12, seed=3):
            values = sim.evaluate_combinational(vec)
            assignment = {name: bool(vec[name]) for name in gate.inputs}
            assignment.update({name: bool(sim.state[reg]) for reg, name in
                               zip(gate.registers, fsm.state_vars)})
            for out, fn in fsm.output_fns.items():
                assert fsm.manager.evaluate(fn, assignment) == bool(values[out])
            sim.step(vec)

    def test_product_fsm_interface_mismatch(self, fig2_small):
        with pytest.raises(VerificationError):
            product_fsm(fig2_small, counter(3))

    def test_ensure_gate_level_idempotent(self, fig2_small):
        gate = ensure_gate_level(fig2_small)
        assert ensure_gate_level(gate) is gate


class TestModelChecking:
    def test_equivalent_pair(self, fig_pair):
        result = model_checking.check_equivalence(*fig_pair, time_budget=60)
        assert result.status == "equivalent"
        assert result.iterations > 0

    def test_detects_wrong_initial_value(self, fig_pair):
        original, retimed = fig_pair
        broken = _corrupt_init(retimed, "D1", 0)
        result = model_checking.check_equivalence(original, broken, time_budget=60)
        assert result.status == "not_equivalent"
        assert result.counterexample is not None

    def test_timeout_reported(self):
        original = figure2(16)
        retimed = apply_forward_retiming(original, ["inc"])
        result = model_checking.check_equivalence(original, retimed, time_budget=0.2)
        assert result.status == "timeout"


#: the product-FSM backends, whose budget must also cover compiling the
#: product machine into BDDs
_PRODUCT_FSM_CHECKERS = {
    "smv": model_checking.check_equivalence,
    "sis": fsm_compare.check_equivalence,
    "eijk": van_eijk.check_equivalence,
    "eijk+": lambda a, b, **kw: van_eijk.check_equivalence(
        a, b, exploit_dependencies=True, **kw),
}


@pytest.mark.parametrize("method", sorted(_PRODUCT_FSM_CHECKERS))
def test_time_budget_covers_fsm_compilation(method):
    """figure2(16)'s product machine alone takes many seconds to compile;
    a 0.2 s budget without a node budget still ends the run promptly."""
    original = figure2(16)
    retimed = apply_forward_retiming(original, maximal_forward_cut(original))
    start = time.perf_counter()
    result = _PRODUCT_FSM_CHECKERS[method](original, retimed, time_budget=0.2)
    elapsed = time.perf_counter() - start
    assert result.status == "timeout"
    assert elapsed < 1.5, f"{method} took {elapsed:.2f}s on a 0.2s budget"


class TestFsmCompare:
    def test_equivalent_pair(self, fig_pair):
        result = fsm_compare.check_equivalence(*fig_pair, time_budget=60)
        assert result.status == "equivalent"

    def test_detects_difference(self, fig_pair):
        original, retimed = fig_pair
        broken = _corrupt_init(retimed, "D0", 1)
        result = fsm_compare.check_equivalence(original, broken, time_budget=60)
        assert result.status == "not_equivalent"

    def test_agrees_with_smv(self):
        original = counter(3)
        retimed = apply_forward_retiming(original, maximal_forward_cut(original))
        a = fsm_compare.check_equivalence(original, retimed, time_budget=60)
        b = model_checking.check_equivalence(original, retimed, time_budget=60)
        assert a.status == b.status == "equivalent"


class TestVanEijk:
    def test_equivalent_pair(self, fig_pair):
        result = van_eijk.check_equivalence(*fig_pair, time_budget=60)
        assert result.status == "equivalent"

    def test_plus_variant_merges_registers(self, fig_pair):
        result = van_eijk.check_equivalence(*fig_pair, exploit_dependencies=True,
                                            time_budget=60)
        assert result.status == "equivalent"
        assert "dependent registers eliminated" in result.detail

    def test_detects_wrong_initial_value(self, fig_pair):
        original, retimed = fig_pair
        broken = _corrupt_init(retimed, "D1", 0)
        result = van_eijk.check_equivalence(original, broken, time_budget=60)
        assert result.status != "equivalent"

    def test_multiplier_pair(self):
        original = fractional_multiplier(3)
        retimed = apply_forward_retiming(original, ["shifter"])
        result = van_eijk.check_equivalence(original, retimed, time_budget=60)
        assert result.status == "equivalent"


class TestTautology:
    def test_combinational_equivalence_same_registers(self, fig2_small):
        # identical circuits are equivalent under the cut-point abstraction
        result = tautology.combinational_equivalent(fig2_small, figure2(3))
        assert result.status == "equivalent"

    def test_combinational_equivalence_limitation(self, fig_pair):
        # retimed circuits have a *different* state representation, so the
        # tautology-checking approach cannot decide them (Section II)
        result = tautology.combinational_equivalent(*fig_pair)
        assert result.status == "error"
        assert "the cut points do not correspond" in result.detail


class TestTautologyByRewriting:
    """The kernel-checked variants on the worklist rewrite engine."""

    def _combinational(self, value: bool) -> Netlist:
        nl = Netlist("taut")
        nl.add_input("a", 1)
        nl.add_cell("na", "NOT", ["a"], "na")
        nl.add_cell("orr", "OR" if value else "AND", ["a", "na"], "y")
        nl.add_output("y", 1)
        return nl

    def test_equivalence_agrees_with_bdd_checker(self, fig2_small):
        rw = tautology.combinational_equivalent_by_rewriting(fig2_small, figure2(3))
        bdd = tautology.combinational_equivalent(fig2_small, figure2(3))
        assert rw.status == bdd.status == "equivalent"
        assert "kernel-checked" in rw.detail

    def test_limitation_matches_the_bdd_checker(self, fig_pair):
        # same cut-point discipline, same Section-II limitation
        rw = tautology.combinational_equivalent_by_rewriting(*fig_pair)
        assert rw.status == "error"

    def test_detects_a_real_mismatch_with_counterexample(self):
        good = self._combinational(True)
        bad = self._combinational(False)
        result = tautology.combinational_equivalent_by_rewriting(good, bad)
        assert result.status == "not_equivalent"
        assert result.counterexample is not None

    def test_budget_overrun_reports_timeout(self, fig2_small):
        result = tautology.combinational_equivalent_by_rewriting(
            fig2_small, figure2(3), max_vectors=2
        )
        assert result.status == "timeout"

    def test_one_memo_per_cell_proves_what_eval_conv_proves(self,
                                                             monkeypatch):
        from repro.eval.scenarios import build_scenario
        from repro.logic import conv

        workload = build_scenario("strash", widths=[2])[0]
        assert workload.name == "strash figure2_2bit"
        shared_eval_conv = conv.shared_eval_conv
        proved = []

        def recording():
            evaluate = shared_eval_conv()

            def record(t):
                proved.append(evaluate(t))
                return proved[-1]

            return record

        monkeypatch.setattr(conv, "shared_eval_conv", recording)
        result = tautology.combinational_equivalent_by_rewriting(
            workload.original, workload.retimed)
        assert result.status == "equivalent"
        assert len(proved) == 2 * result.stats["vectors"] == 2 * 256
        for th in proved:
            assert th.concl is conv.EVAL_CONV(th.lhs).concl
        # a fresh memo per vector took 53,646 steps; one per cell 12,716
        assert result.stats["kernel_steps"] < 53_646

    @pytest.mark.parametrize("name", MEMO_CELLS)
    def test_one_memo_per_cell_changes_no_outcome(self, memo_cells, name,
                                                  monkeypatch):
        from repro.logic import conv

        workload = memo_cells[name]
        shared = tautology.combinational_equivalent_by_rewriting(
            workload.original, workload.retimed)
        # a fresh memo for every evaluation, as EVAL_CONV has
        monkeypatch.setattr(conv, "shared_eval_conv", lambda: conv.EVAL_CONV)
        fresh = tautology.combinational_equivalent_by_rewriting(
            workload.original, workload.retimed)
        assert (shared.status, shared.counterexample, shared.detail) == (
            fresh.status, fresh.counterexample, fresh.detail)
        assert shared.stats["vectors"] == fresh.stats["vectors"]
        # even a cell refuted by its first vector evaluates both circuits
        # under it, and the second evaluation reuses the first's subterms
        assert shared.stats["kernel_steps"] < fresh.stats["kernel_steps"]
        # the BDD tautology checker shares no code with the rewrite engine
        bdd = tautology.combinational_equivalent(workload.original,
                                                 workload.retimed)
        assert shared.status == bdd.status

    def _two_output(self, flipped: bool) -> Netlist:
        nl = Netlist("two_out")
        nl.add_input("a", 1)
        nl.add_cell("na", "NOT", ["a"], "y")
        nl.add_cell("bb", "BUF", ["a"], "z")
        for name in (("z", "y") if flipped else ("y", "z")):
            nl.add_output(name, 1)
        return nl

    def test_outputs_matched_by_name_not_declaration_order(self):
        # identical circuits whose outputs are declared in different order
        # must agree with the BDD checker (which compares by name)
        a, b = self._two_output(False), self._two_output(True)
        rw = tautology.combinational_equivalent_by_rewriting(a, b)
        bdd = tautology.combinational_equivalent(a, b)
        assert rw.status == bdd.status == "equivalent"

    def test_missing_output_is_reported(self):
        a = self._two_output(False)
        b = Netlist("one_out")
        b.add_input("a", 1)
        b.add_cell("na", "NOT", ["a"], "y")
        b.add_output("y", 1)
        result = tautology.combinational_equivalent_by_rewriting(a, b)
        assert result.status == "error"
        assert "output z present in only one circuit" in result.detail


class TestRetimingVerify:
    def test_accepts_conventional_retiming(self, fig2_small):
        retimed = apply_forward_retiming(fig2_small, ["inc"])
        result = retiming_verify.check_equivalence(fig2_small, retimed)
        assert result.status == "equivalent"

    def test_rejects_wrong_initial_value(self, fig2_small):
        retimed = apply_forward_retiming(fig2_small, ["inc"])
        broken = _corrupt_init(retimed, "R_inc", 0)
        result = retiming_verify.check_equivalence(fig2_small, broken)
        assert result.status == "not_equivalent"

    def test_inconclusive_on_resynthesis(self, fig2_small):
        # change the logic (not just registers): the specialised verifier
        # must give up, as the paper notes it is limited to pure retiming
        other = figure2(3)
        other.remove_cell("outbuf")
        other.add_cell("outbuf", "OR", ["d0_out", "d0_out"], "y")
        result = retiming_verify.check_equivalence(fig2_small, other)
        assert result.status == "error"

    def test_rejects_structurally_unrelated(self, fig2_small):
        result = retiming_verify.check_equivalence(fig2_small, counter(3))
        assert result.status in ("error", "not_equivalent")

    def test_no_lag_assignment_is_inconclusive(self):
        # a register in front of the only gate and none behind it: no lag
        # relates the two connection graphs, so the pair is not a pure
        # retiming and the matcher gives up instead of refuting it
        plain = Netlist("plain")
        plain.add_input("a", 1)
        plain.add_cell("g", "NOT", ["a"], "y")
        plain.add_output("y", 1)
        delayed = Netlist("delayed")
        delayed.add_input("a", 1)
        delayed.add_net("a_q", 1)
        delayed.add_register("R", "a", "a_q", init=0)
        delayed.add_cell("g", "NOT", ["a_q"], "y")
        delayed.add_output("y", 1)
        result = retiming_verify.check_equivalence(plain, delayed)
        assert result.status == "error"
        assert "no consistent retiming lag assignment" in result.detail

    def test_connection_graph_and_lags(self, fig2_small):
        retimed = apply_forward_retiming(fig2_small, ["inc"])
        edges_a, edges_b = (
            {(e.tail, e.head, e.pin): e.weight for e in graph_from_netlist(nl).edges}
            for nl in (fig2_small, retimed)
        )
        lags = retiming_verify.recover_lags(edges_a, edges_b)
        assert lags is not None
        assert lags["inc"] == -1

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_match_compares_the_connection_graph(self, width):
        workload = table1_workload(width)
        result = retiming_verify.check_equivalence(workload.original, workload.retimed)
        assert result.status == "equivalent"
        assert result.stats["edges"] == len(graph_from_netlist(workload.original).edges)

    def test_register_only_ring_is_inconclusive(self, fig2_small):
        # a ring of registers with no cell on it has no connection graph
        ringed = fig2_small.copy("ringed")
        ringed.add_net("ring_a", 1)
        ringed.add_net("ring_b", 1)
        ringed.add_register("RA", "ring_b", "ring_a", init=1)
        ringed.add_register("RB", "ring_a", "ring_b", init=0)
        ringed.mark_output("ring_a")
        result = retiming_verify.check_equivalence(ringed, ringed.copy("ringed2"))
        assert result.status == "error"
        assert "register-only cycle" in result.detail


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("width", [2, 3])
    def test_all_methods_accept_true_retiming(self, width):
        original = figure2(width)
        retimed = apply_forward_retiming(original, ["inc"])
        for checker in (
            lambda: model_checking.check_equivalence(original, retimed, time_budget=60),
            lambda: fsm_compare.check_equivalence(original, retimed, time_budget=60),
            lambda: van_eijk.check_equivalence(original, retimed, time_budget=60),
            lambda: retiming_verify.check_equivalence(original, retimed),
        ):
            assert checker().status == "equivalent"

    def test_all_methods_reject_corrupted_retiming(self):
        original = figure2(2)
        retimed = apply_forward_retiming(original, ["inc"])
        broken = _corrupt_init(retimed, "R_inc", 3)
        for checker in (
            lambda: model_checking.check_equivalence(original, broken, time_budget=60),
            lambda: fsm_compare.check_equivalence(original, broken, time_budget=60),
            lambda: van_eijk.check_equivalence(original, broken, time_budget=60),
            lambda: retiming_verify.check_equivalence(original, broken),
        ):
            assert checker().status != "equivalent"
