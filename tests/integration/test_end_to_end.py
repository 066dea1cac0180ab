"""Integration tests: the whole flow, cross-checked between all subsystems."""

import pytest

from repro.circuits.generators import figure2, figure2_cut, fractional_multiplier
from repro.circuits.simulate import outputs_equal
from repro.eval import table1, table2
from repro.eval.runner import run_cell, run_rows
from repro.eval.scenarios import build_scenario
from repro.eval.workloads import make_workload, table1_workload, table2_workloads
from repro.formal import certificate_for, formal_forward_retiming
from repro.retiming.apply import apply_forward_retiming
from repro.retiming.cuts import maximal_forward_cut
from repro.verification import fsm_compare, model_checking, retiming_verify, van_eijk


class TestFormalResultAcceptedByAllVerifiers:
    """The output of the formal step is accepted by every post-synthesis verifier.

    This is the strongest cross-validation in the repository: the HASH result
    (derived inside the kernel) and the conventional result are checked
    against each other by four independent verification engines built on a
    different substrate (BDDs / structural matching).
    """

    @pytest.fixture(scope="class")
    def flow(self):
        original = figure2(3)
        result = formal_forward_retiming(original, figure2_cut())
        return original, result, apply_forward_retiming(original, result.cut)

    def test_smv_accepts(self, flow):
        original, _, retimed = flow
        assert model_checking.check_equivalence(
            original, retimed, time_budget=60).status == "equivalent"

    def test_sis_accepts(self, flow):
        original, _, retimed = flow
        assert fsm_compare.check_equivalence(
            original, retimed, time_budget=60).status == "equivalent"

    def test_van_eijk_accepts(self, flow):
        original, _, retimed = flow
        assert van_eijk.check_equivalence(
            original, retimed, time_budget=60).status == "equivalent"

    def test_structural_matcher_accepts(self, flow):
        original, _, retimed = flow
        assert retiming_verify.check_equivalence(
            original, retimed).status == "equivalent"

    def test_certificate_audit(self, flow):
        _, result, _ = flow
        cert = certificate_for(result.theorem)
        assert cert.proof_size == result.stats["proof_size"]
        assert any("RETIMING_THM" in a for a in cert.axioms)


class TestHarness:
    def test_table1_single_row(self):
        workload = table1_workload(2)
        (row,) = run_rows([workload], ["sis", "smv", "hash"], time_budget=30)
        assert row.cells["hash"].verdict == "equivalent"
        assert row.cells["sis"].verdict == "equivalent"
        assert row.cells["smv"].verdict == "equivalent"

    def test_table1_render(self):
        methods = ["sis", "smv", "hash"]
        rows = table1.run_table1(build_scenario("figure2", widths=[1, 2]),
                                 methods, time_budget=20)
        text = table1.render(rows, methods)
        assert "Table I" in text and "HASH" in text

    def test_table2_scaled_row(self):
        workloads = table2_workloads(scale=0.06, names=["s344"])
        (row,) = run_rows(workloads, ["eijk", "sis", "hash"], time_budget=25)
        assert row.cells["hash"].verdict == "equivalent"

    def test_table2_render(self):
        methods = ["eijk", "eijk+", "sis", "hash"]
        workloads = build_scenario("iwls", scale=0.05, names=["s344", "s382"])
        rows = run_rows(workloads, methods, time_budget=20)
        text = table2.render(rows, methods)
        assert "Table II" in text and "EIJK" in text

    def test_hash_measurement_includes_inference_count(self):
        workload = make_workload(figure2(4), cut=figure2_cut())
        m = run_cell(workload, "hash")
        assert m.verdict == "equivalent" and "inference" in m.detail

    def test_full_scale_table2_hash_inferences(self):
        # Table II's HASH `inferences` column: a faster term layer must
        # leave every kernel step count as it is (the split's one INST for
        # all cut values is one step per proof)
        pinned = {"s344": 2762, "s382": 3410, "s526": 195, "s641": 5581,
                  "s713": 5861, "s820": 3004, "s1196": 7181, "s1238": 6852,
                  "s1423": 195, "s5378": 195}
        steps = {}
        for workload in table2_workloads(scale=1.0):
            m = run_cell(workload, "hash")
            assert m.verdict == "equivalent", (workload.name, m.detail)
            steps[workload.name] = int(m.stats["kernel_steps"])
        assert steps == pinned

    def test_timeouts_render_as_dash(self):
        workload = table1_workload(12)
        (row,) = run_rows([workload], ["smv"], time_budget=0.2)
        assert row.cells["smv"].render() == "-"


class TestAblations:
    def test_cut_sweep_runs(self):
        from repro.eval.ablations import run_cut_sweep

        points = run_cut_sweep(figure2(6))
        assert len(points) >= 1
        assert all(p.seconds >= 0 for p in points)

    def test_rtl_vs_gate_runs(self):
        from repro.eval.ablations import run_rtl_vs_gate

        results = run_rtl_vs_gate(4)
        levels = {r.level for r in results}
        assert levels == {"rtl", "gate"}


class TestMultiplierFamily:
    """The Table-II multiplier family: HASH handles what the verifiers cannot."""

    def test_hash_scales_to_wider_multipliers(self):
        for width in (3, 6):
            workload = make_workload(fractional_multiplier(width),
                                     cut=["shifter"])
            assert run_cell(workload, "hash").verdict == "equivalent"

    def test_verifier_budget_exhausted_on_wide_multiplier(self):
        workload = make_workload(fractional_multiplier(10), cut=["shifter"])
        result = model_checking.check_equivalence(
            workload.original, workload.retimed, time_budget=1.0, node_budget=200_000
        )
        assert result.status == "timeout"
        # ... while HASH still completes on the same instance
        assert run_cell(workload, "hash").verdict == "equivalent"


class TestConventionalVsFormalAgreement:
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_same_initial_values(self, width):
        original = figure2(width)
        result = formal_forward_retiming(original, figure2_cut())
        conventional = apply_forward_retiming(original, result.cut)
        formal_inits = result.new_init_value
        conventional_inits = tuple(
            conventional.registers[name].init for name in sorted(conventional.registers)
        )
        # both engines computed f(q) = 1 for the moved register
        assert 1 in conventional_inits
        assert formal_inits[0] == 1

    def test_behavioural_agreement_on_maximal_cut(self):
        original = fractional_multiplier(4)
        cut = maximal_forward_cut(original)
        result = formal_forward_retiming(original, cut)
        assert outputs_equal(original, apply_forward_retiming(original, result.cut),
                             cycles=200, seed=3)
