"""Tests for the declarative verification-backend registry."""

import os
import subprocess
import sys

import pytest

import repro
from repro.circuits.generators import figure2, figure2_false_cut, figure2_retimed
from repro.verification.common import VerificationError, VerificationResult
from repro.verification.registry import (
    available_checkers,
    get_checker,
    register_checker,
    run_checker,
    unregister_checker,
)

BUILTIN_BACKENDS = ["eijk", "eijk+", "hash", "match", "sis", "smv", "taut", "taut-rw"]


@pytest.fixture(scope="module")
def fig_pair():
    return figure2(3), figure2_retimed(3)


class TestRegistryContents:
    def test_all_builtin_backends_registered(self):
        assert set(BUILTIN_BACKENDS) <= set(available_checkers())

    def test_unknown_backend_raises_with_known_list(self):
        with pytest.raises(KeyError, match="unknown verification backend"):
            get_checker("nope")
        with pytest.raises(KeyError, match="smv"):
            get_checker("nope")

    def test_hash_is_a_synthesis_backend(self):
        assert get_checker("hash").needs_cut
        assert not get_checker("smv").needs_cut

    def test_verifiers_declare_their_budget_kwargs(self):
        assert "node_budget" in get_checker("smv").accepts
        assert "node_budget" not in get_checker("match").accepts
        assert "time_budget" in get_checker("match").accepts


class TestDispatch:
    def test_run_checker_filters_unsupported_kwargs(self, fig_pair):
        # `match` does not take node_budget; the registry must drop it
        result = run_checker("match", *fig_pair, time_budget=30,
                             node_budget=12345)
        assert result.status == "equivalent"

    def test_smv_reports_structured_stats(self, fig_pair):
        result = run_checker("smv", *fig_pair, time_budget=30)
        assert result.status == "equivalent"
        assert result.stats["iterations"] >= 1
        assert result.stats["peak_nodes"] > 0
        assert result.stats["wall_seconds"] == pytest.approx(result.seconds)

    def test_taut_rw_reports_kernel_steps(self):
        a, b = figure2(2), figure2(2)
        result = run_checker("taut-rw", a, b, time_budget=60)
        assert result.status == "equivalent"
        assert result.stats["kernel_steps"] > 0
        assert result.stats["vectors"] > 0

    def test_hash_through_registry(self, fig_pair):
        original, _ = fig_pair
        result = run_checker("hash", original, original, cut=["inc"])
        assert result.status == "equivalent"
        assert result.stats["kernel_steps"] > 0

    def test_hash_without_cut_raises(self, fig_pair):
        with pytest.raises(VerificationError, match="cut"):
            run_checker("hash", *fig_pair)

    def test_hash_false_cut_is_an_error_result(self):
        original = figure2(4)
        result = run_checker("hash", original, original,
                             cut=figure2_false_cut())
        assert result.status == "error"
        assert "false cut" in result.detail
        assert result.stats["wall_seconds"] == pytest.approx(result.seconds)

    def test_hash_kernel_steps_do_not_depend_on_process_history(self):
        # a fresh process: the first proof in it must not also count the
        # one-time theory setup (stdlib and the universal retiming theorem)
        code = (
            "from repro.eval.runner import run_cell; "
            "from repro.eval.workloads import table1_workload; "
            "w = table1_workload(2); "
            "print(*[run_cell(w, 'hash').stats['kernel_steps'] "
            "for _ in range(2)])"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        first, second = out.stdout.split()
        assert first == second


class TestRegistration:
    def test_register_is_a_one_site_change(self, fig_pair):
        @register_checker("tmp-backend", description="a test stub",
                          accepts=("time_budget",))
        def stub(original, retimed, time_budget=None):
            return VerificationResult(method="tmp-backend", status="equivalent",
                                      seconds=0.01, detail="stubbed")

        try:
            assert "tmp-backend" in available_checkers()
            result = run_checker("tmp-backend", *fig_pair, time_budget=1)
            assert result.status == "equivalent"
        finally:
            unregister_checker("tmp-backend")
        assert "tmp-backend" not in available_checkers()

    def test_duplicate_registration_rejected(self):
        def stub(a, b, **kw):
            raise AssertionError("never called")

        register_checker("tmp-dup", stub)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_checker("tmp-dup", stub)
            register_checker("tmp-dup", stub, replace=True)  # explicit override ok
        finally:
            unregister_checker("tmp-dup")
