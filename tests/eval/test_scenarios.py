"""Tests for the named workload-scenario registry."""

import pytest

from repro.eval.scenarios import (
    available_scenarios,
    build_scenario,
    get_scenario,
    register_scenario,
    unregister_scenario,
)
from repro.eval.workloads import Workload, make_workload

BUILTIN_SCENARIOS = ["counters", "figure2", "iwls", "multiplier", "random_seq"]


class TestRegistryContents:
    def test_all_builtin_scenarios_registered(self):
        assert set(BUILTIN_SCENARIOS) <= set(available_scenarios())

    def test_unknown_scenario_raises_with_known_list(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")
        with pytest.raises(KeyError, match="figure2"):
            get_scenario("nope")

    def test_scenarios_declare_default_methods(self):
        assert "hash" in get_scenario("figure2").default_methods
        assert "eijk" in get_scenario("iwls").default_methods


class TestBuilding:
    def test_figure2_widths_param(self):
        workloads = build_scenario("figure2", widths=[2, 4])
        assert [w.name for w in workloads] == ["figure2 n=2", "figure2 n=4"]
        for w in workloads:
            assert isinstance(w, Workload)
            assert w.cut and w.retimed is not w.original

    def test_previously_orphaned_generators_are_first_class(self):
        counters = build_scenario("counters", widths=[2])
        assert {w.name for w in counters} == {"counter_2bit", "gray_2bit",
                                              "shift_2x1"}
        mult = build_scenario("multiplier", widths=[3])
        assert mult[0].name == "fracmul_3bit"
        assert mult[0].cut == ["shifter"]
        rand = build_scenario("random_seq", seeds=[7], n_flipflops=5, n_gates=24)
        assert rand[0].name.endswith("s7")

    def test_scalar_accepted_for_list_params(self):
        assert len(build_scenario("figure2", widths=2)) == 1
        assert len(build_scenario("multiplier", widths=3)) == 1

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError, match="does not accept"):
            build_scenario("figure2", depth=3)

    def test_strash_takes_widths_only(self):
        # the rebuild always runs the DAG-aware rewriter: no opt toggle
        assert dict(get_scenario("strash").defaults) == {"widths": (2, 3, 4)}
        with pytest.raises(TypeError, match="does not accept"):
            build_scenario("strash", opt=0)

    def test_deterministic_rebuild(self):
        first = build_scenario("random_seq", seeds=[1, 2])
        second = build_scenario("random_seq", seeds=[1, 2])
        assert [w.name for w in first] == [w.name for w in second]
        assert [w.cut for w in first] == [w.cut for w in second]


class TestRegistration:
    def test_register_is_a_one_site_change(self, fig2_small):
        @register_scenario("tmp-scenario", description="stub", widths=(2,))
        def stub(widths):
            return [make_workload(fig2_small.copy("tmp"), name="tmp")]

        try:
            assert "tmp-scenario" in available_scenarios()
            workloads = build_scenario("tmp-scenario")
            assert [w.name for w in workloads] == ["tmp"]
        finally:
            unregister_scenario("tmp-scenario")
        assert "tmp-scenario" not in available_scenarios()

    def test_duplicate_registration_rejected(self):
        register_scenario("tmp-dup", lambda: [])
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario("tmp-dup", lambda: [])
            register_scenario("tmp-dup", lambda: [], replace=True)
        finally:
            unregister_scenario("tmp-dup")
