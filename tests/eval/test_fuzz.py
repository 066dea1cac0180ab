"""Tests for the fuzzing subsystem (:mod:`repro.eval.fuzz`).

Covers the spec/cell recipes (determinism, ground-truth enforcement), the
method-applicability matrix, the differential oracle's violation taxonomy,
a clean end-to-end sweep, the buggy-checker detection path with shrinking
and replayable repro files, the byte-identity of the rendered table across
execution modes, and the ``repro fuzz`` CLI driver.
"""

import json
import os
import time

import pytest

from repro.circuits.mutate import Mutation
from repro.circuits.simulate import find_mismatch
from repro.cli import main
from repro.eval.fuzz import (
    FLAVOURS,
    REPRO_SCHEMA,
    FuzzError,
    FuzzSpec,
    FuzzViolation,
    build_cell,
    load_repro,
    make_specs,
    method_applies,
    run_fuzz,
    shrink_violation,
    violation_of,
    write_repro,
)
from repro.eval.runner import Measurement, run_cell
from repro.eval.scenarios import available_scenarios, build_scenario
from repro.verification.common import VerificationResult
from repro.verification.registry import (
    get_checker,
    register_checker,
    unregister_checker,
)

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="stub backends only reach isolated workers via fork",
)

#: small-but-real sweep dimensions used throughout (fast to build and check)
SMALL = dict(n_inputs=3, n_flipflops=3, n_gates=12, n_faults=1)

#: the faults ``build_cell`` draws on ``make_specs(24, seed=10000)`` at
#: ``resweep`` size (6 inputs, 8 flip-flops, 48 gates), by spec seed; retime
#: cells carry none
RESWEEP_SIZE_FAULTS = {
    10000: [],
    10001: [
        {"kind": "rewire", "cell": "ob0", "pin": 0, "arg": "pi1", "value": 0},
        {"kind": "remove_inverter", "cell": "g8", "pin": 0, "arg": "", "value": 0},
    ],
    10002: [
        {"kind": "insert_inverter", "cell": "g0", "pin": 1, "arg": "", "value": 0},
        {"kind": "gate_swap", "cell": "g29", "pin": 0, "arg": "NOR", "value": 0},
    ],
    10003: [],
    10004: [
        {"kind": "rewire", "cell": "ob0", "pin": 0, "arg": "n29", "value": 0},
        {"kind": "stuck_at", "cell": "g42", "pin": 0, "arg": "", "value": 1},
    ],
    10005: [
        {"kind": "insert_inverter", "cell": "g36", "pin": 0, "arg": "", "value": 0},
        {"kind": "stuck_at", "cell": "g3", "pin": 0, "arg": "", "value": 0},
    ],
    10006: [],
    10007: [
        {"kind": "insert_inverter", "cell": "ob0", "pin": 0, "arg": "", "value": 0},
        {"kind": "gate_swap", "cell": "g4", "pin": 0, "arg": "BUF", "value": 0},
    ],
    10008: [
        {"kind": "gate_swap", "cell": "g35", "pin": 0, "arg": "NAND", "value": 0},
        {"kind": "insert_inverter", "cell": "g27", "pin": 1, "arg": "", "value": 0},
    ],
    10009: [],
    10010: [
        {"kind": "gate_swap", "cell": "g34", "pin": 0, "arg": "OR", "value": 0},
        {"kind": "stuck_at", "cell": "g1", "pin": 0, "arg": "", "value": 1},
    ],
    10011: [
        {"kind": "remove_inverter", "cell": "g34", "pin": 0, "arg": "", "value": 0},
        {"kind": "rewire", "cell": "ob0", "pin": 0, "arg": "n32", "value": 0},
    ],
    10012: [],
    10013: [
        {"kind": "remove_inverter", "cell": "g13", "pin": 0, "arg": "", "value": 0},
        {"kind": "rewire", "cell": "ob0", "pin": 0, "arg": "pi3", "value": 0},
    ],
    10014: [
        {"kind": "insert_inverter", "cell": "ob3", "pin": 0, "arg": "", "value": 0},
        {"kind": "insert_inverter", "cell": "g8", "pin": 1, "arg": "", "value": 0},
    ],
    10015: [],
    10016: [
        {"kind": "remove_inverter", "cell": "g34", "pin": 0, "arg": "", "value": 0},
        {"kind": "stuck_at", "cell": "g5", "pin": 0, "arg": "", "value": 0},
    ],
    10017: [
        {"kind": "rewire", "cell": "g41", "pin": 1, "arg": "po0", "value": 0},
        {"kind": "rewire", "cell": "g44", "pin": 1, "arg": "n28", "value": 0},
    ],
    10018: [],
    10019: [
        {"kind": "remove_inverter", "cell": "g2", "pin": 0, "arg": "", "value": 0},
        {"kind": "stuck_at", "cell": "g4", "pin": 0, "arg": "", "value": 0},
    ],
    10020: [
        {"kind": "stuck_at", "cell": "g13", "pin": 0, "arg": "", "value": 1},
        {"kind": "gate_swap", "cell": "ob3", "pin": 0, "arg": "NOT", "value": 0},
    ],
    10021: [],
    10022: [
        {"kind": "rewire", "cell": "g3", "pin": 1, "arg": "n14", "value": 0},
        {"kind": "insert_inverter", "cell": "g47", "pin": 0, "arg": "", "value": 0},
    ],
    10023: [
        {"kind": "remove_inverter", "cell": "g5", "pin": 0, "arg": "", "value": 0},
        {"kind": "gate_swap", "cell": "ob1", "pin": 0, "arg": "NOT", "value": 0},
    ],
}


class TestSpecs:
    def test_make_specs_cycles_flavours(self):
        specs = make_specs(6, seed=10)
        assert [s.flavour for s in specs] == list(FLAVOURS) * 2
        assert [s.seed for s in specs] == list(range(10, 16))

    def test_spec_round_trip_with_mutations(self):
        spec = FuzzSpec(seed=3, flavour="fault", n_gates=8,
                        mutations=(Mutation("stuck_at", "g1", value=1),
                                   Mutation("gate_swap", "g2", arg="NOR")))
        assert FuzzSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_flavour_rejected(self):
        with pytest.raises(FuzzError):
            build_cell(FuzzSpec(seed=0, flavour="chaos"))


class TestBuildCell:
    def test_retime_cell_is_expected_equivalent(self):
        cell = build_cell(FuzzSpec(seed=1, flavour="retime", **SMALL))
        assert cell.expected == "equivalent"
        assert not cell.mutations
        assert cell.workload.cut
        assert cell.workload.retimed.registers.keys() != \
            cell.workload.original.registers.keys()

    @pytest.mark.parametrize("flavour", ["fault", "retime-fault"])
    def test_fault_cells_carry_visible_mutations(self, flavour):
        cell = build_cell(FuzzSpec(seed=2, flavour=flavour, **SMALL))
        assert cell.expected == "not_equivalent"
        assert cell.mutations
        assert find_mismatch(cell.workload.original,
                             cell.workload.retimed) is not None

    def test_fault_cell_keeps_register_set(self):
        # the cut-point backends rely on this: a 'fault' cell mutates logic
        # only, never the state elements
        cell = build_cell(FuzzSpec(seed=5, flavour="fault", **SMALL))
        assert cell.workload.original.registers.keys() == \
            cell.workload.retimed.registers.keys()

    def test_deterministic_rebuild(self):
        spec = FuzzSpec(seed=4, flavour="retime-fault", **SMALL)
        a, b = build_cell(spec), build_cell(spec)
        assert a.mutations == b.mutations
        assert find_mismatch(a.workload.retimed, b.workload.retimed,
                             cycles=32) is None

    def test_pinned_spec_replays_identically(self):
        spec = FuzzSpec(seed=6, flavour="fault", **SMALL)
        first = build_cell(spec)
        replay = build_cell(first.pinned_spec)
        assert replay.mutations == first.mutations
        assert find_mismatch(first.workload.retimed,
                             replay.workload.retimed, cycles=32) is None

    def test_pinned_invisible_mutation_rejected(self):
        # a no-op-ish mutation list (swap operands of a commutative AND)
        # is not simulation-visible, so ground truth enforcement fires
        base_cell = build_cell(FuzzSpec(seed=6, flavour="fault", **SMALL))
        target = base_cell.workload.original
        and_cells = sorted(c.name for c in target.cells.values()
                           if c.type == "AND")
        if not and_cells:  # pragma: no cover - seed 6 does have AND gates
            pytest.skip("no commutative gate to pin")
        spec = FuzzSpec(seed=6, flavour="fault",
                        mutations=(Mutation("operand_swap", and_cells[0]),),
                        **SMALL)
        with pytest.raises(FuzzError, match="not simulation-visible"):
            build_cell(spec)

    def test_resweep_size_faults_are_pinned(self):
        # which faults are drawn, and which specs find none, follow only the
        # seed: a simulator that saw a different mismatch would move them
        drawn, failed = {}, []
        for spec in make_specs(24, seed=10000, n_inputs=6, n_flipflops=8,
                               n_gates=48):
            try:
                cell = build_cell(spec)
            except FuzzError:
                failed.append(spec.seed)
                continue
            drawn[spec.seed] = [m.to_dict() for m in cell.mutations]
        assert failed == []
        assert drawn == RESWEEP_SIZE_FAULTS


class TestMethodApplies:
    def test_matrix(self):
        cases = {
            # cut-point checkers need identical register sets: fault only
            "taut": {"fault"},
            "sat": {"fault"},
            "fraig": {"fault"},
            # product-FSM checkers apply everywhere
            "smv": set(FLAVOURS),
            "sis": set(FLAVOURS),
            "eijk": set(FLAVOURS),
            # the formal synthesis step and the matcher: pure retiming only
            "hash": {"retime"},
            "match": {"retime"},
        }
        for name, expected in cases.items():
            checker = get_checker(name)
            got = {f for f in FLAVOURS if method_applies(checker, f)}
            assert got == expected, name


def _measurement(verdict, cex=None, certified=None, detail=""):
    stats = {} if certified is None else {"cex_certified": certified}
    return Measurement(workload="w", method="m", verdict=verdict, seconds=0.0,
                       counterexample=cex, stats=stats, detail=detail)


class TestViolationOf:
    def test_timeout_is_never_a_violation(self):
        checker = get_checker("sis")
        assert violation_of(checker, "equivalent",
                            _measurement("timeout")) is None

    def test_error_only_for_complete_backends(self):
        measurement = _measurement("error", detail="lost")
        assert violation_of(get_checker("sis"), "equivalent",
                            measurement) == ("error", "lost")
        assert violation_of(get_checker("eijk"), "equivalent",
                            measurement) is None

    def test_false_alarm_and_missed_fault(self):
        checker = get_checker("sis")
        kind, _ = violation_of(
            checker, "equivalent",
            _measurement("not_equivalent", cex={"a": True}, certified=1.0))
        assert kind == "false_alarm"
        kind, _ = violation_of(checker, "not_equivalent",
                               _measurement("equivalent"))
        assert kind == "missed_fault"

    def test_uncertified_refutation_is_a_violation(self):
        checker = get_checker("sis")
        assert violation_of(
            checker, "not_equivalent",
            _measurement("not_equivalent", cex=None))[0] == "uncertified_cex"
        assert violation_of(
            checker, "not_equivalent",
            _measurement("not_equivalent", cex={"a": True},
                         certified=0.0))[0] == "uncertified_cex"
        assert violation_of(
            checker, "not_equivalent",
            _measurement("not_equivalent", cex={"a": True},
                         certified=1.0)) is None


class TestCleanSweep:
    def test_small_sweep_is_violation_free(self):
        specs = make_specs(3, seed=0, **SMALL)
        report = run_fuzz(specs, methods=("sis", "smv"), time_budget=30.0,
                          shrink=False)
        assert not report.violations
        assert not report.disagreements
        c = report.counters
        assert c["cells"] == 3.0
        assert c["fault_cells"] == 2.0
        assert c["faults_detected"] == 2.0
        assert c["faults_injected"] >= 2.0
        assert c["cex_certified"] >= 2.0

    def test_table_renders_ground_truth(self):
        specs = make_specs(3, seed=0, **SMALL)
        report = run_fuzz(specs, methods=("sis",), time_budget=30.0,
                          shrink=False)
        out = report.render()
        assert "EQ" in out and "NEQ" in out
        assert "violations: 0" in out
        assert "=" in out and "!=" in out

    @pytest.mark.parametrize("method", ["eijk", "eijk+"])
    def test_van_eijk_never_claims_an_unwitnessed_refutation(self, method):
        # an induction that does not close is inconclusive (error), which
        # the oracle accepts from an incomplete method; a bare
        # not_equivalent would be an uncertified refutation
        checker = get_checker(method)
        assert not checker.complete
        for spec in make_specs(6, seed=0):
            cell = build_cell(spec)
            measurement = run_cell(cell.workload, method, time_budget=30.0)
            assert violation_of(checker, cell.expected, measurement) is None
            if cell.expected == "not_equivalent":
                assert measurement.verdict in ("error", "timeout")

    @needs_fork
    def test_table_is_identical_serial_and_parallel(self):
        specs = make_specs(3, seed=0, **SMALL)
        serial = run_fuzz(specs, methods=("sis",), time_budget=30.0,
                          shrink=False).render()
        parallel = run_fuzz(specs, methods=("sis",), time_budget=30.0,
                            jobs=2, isolate=True, shrink=False).render()
        assert serial == parallel


# ---------------------------------------------------------------------------
# The buggy-checker path: detection, shrinking, repro files
# ---------------------------------------------------------------------------

def _blind(original, retimed, time_budget=None):
    """A broken backend that calls everything equivalent."""
    return VerificationResult(method="blind", status="equivalent",
                              seconds=0.0, detail="stubbed")


@pytest.fixture()
def blind_checker():
    register_checker("blind", _blind, accepts=("time_budget",), replace=True)
    yield get_checker("blind")
    unregister_checker("blind")


class TestBuggyCheckerCaught:
    def test_missed_faults_shrink_to_replayable_repros(self, blind_checker,
                                                       tmp_path):
        specs = make_specs(3, seed=0, **SMALL)
        report = run_fuzz(specs, methods=("sis", "blind"), time_budget=30.0,
                          out_dir=str(tmp_path), max_shrinks=8)
        missed = [v for v in report.violations if v.kind == "missed_fault"]
        assert len(missed) == 2  # both fault cells
        assert report.disagreements  # sis refutes, blind agrees: a conflict
        assert report.counters["faults_detected"] == 0.0
        assert len(report.repro_paths) == 2
        for path in report.repro_paths:
            assert os.path.exists(path)
            spec, method, kind = load_repro(path)
            assert method == "blind" and kind == "missed_fault"
            # the minimised cell still reproduces the violation end to end
            cell = build_cell(spec)
            measurement = run_cell(cell.workload, method, 30.0, 500_000)
            found = violation_of(blind_checker, cell.expected, measurement)
            assert found is not None and found[0] == kind

    def test_shrink_reduces_dimensions(self, blind_checker):
        spec = build_cell(FuzzSpec(seed=1, flavour="fault", n_inputs=4,
                                   n_flipflops=5, n_gates=24,
                                   n_faults=2)).pinned_spec
        violation = FuzzViolation(cell=spec.name, method="blind",
                                  kind="missed_fault", detail="", spec=spec)
        shrunk, tried = shrink_violation(violation, time_budget=30.0,
                                         max_shrinks=12)
        assert 0 < tried <= 12
        assert (len(shrunk.mutations) < len(spec.mutations)
                or shrunk.n_gates < spec.n_gates
                or shrunk.n_flipflops < spec.n_flipflops
                or shrunk.n_inputs < spec.n_inputs)
        # the shrunk spec pins its mutations so the repro replays verbatim
        assert shrunk.flavour != "fault" or shrunk.mutations

    def test_repro_file_shape(self, blind_checker, tmp_path):
        spec = build_cell(FuzzSpec(seed=2, flavour="fault",
                                   **SMALL)).pinned_spec
        violation = FuzzViolation(cell=spec.name, method="blind",
                                  kind="missed_fault", detail="d", spec=spec)
        path = write_repro(str(tmp_path), spec, violation, shrink_steps=0,
                           time_budget=30.0, node_budget=500_000)
        payload = json.loads(open(path).read())
        assert payload["schema"] == REPRO_SCHEMA
        assert payload["method"] == "blind"
        assert payload["violation"] == "missed_fault"
        assert payload["measurement"]["verdict"] == "equivalent"
        assert FuzzSpec.from_dict(payload["spec"]) == spec

    def test_load_repro_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(FuzzError):
            load_repro(str(path))


class TestScenario:
    def test_fuzz_is_a_registered_scenario(self):
        assert "fuzz" in available_scenarios()
        workloads = build_scenario("fuzz", cells=3, **SMALL)
        assert [w.name for w in workloads] == [
            spec.name for spec in make_specs(3, seed=0, **SMALL)]


def _repro_file(directory, method):
    """A repro file for ``method`` on a small fault cell, written unmeasured."""
    spec = build_cell(FuzzSpec(seed=2, flavour="fault", **SMALL)).pinned_spec
    path = directory / "repro.json"
    path.write_text(json.dumps({"schema": REPRO_SCHEMA, "spec": spec.to_dict(),
                                "method": method, "violation": "missed_fault"}))
    return str(path)


class TestCli:
    def test_fuzz_sweep_exits_zero_and_prints_table(self, capsys, tmp_path):
        code = main(["fuzz", "--cells", "3", "--inputs", "3",
                     "--flipflops", "3", "--gates", "12", "--faults", "1",
                     "--methods", "sis", "--budget", "30", "--no-cache",
                     "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "Fuzz sweep: 3 cells" in captured.out
        assert "violations: 0" in captured.out

    @needs_fork
    def test_fuzz_replay_of_a_live_repro_exits_one(self, capsys, tmp_path):
        register_checker("blind", _blind, accepts=("time_budget",),
                         replace=True)
        try:
            code = main(["fuzz", "--cells", "3", "--inputs", "3",
                         "--flipflops", "3", "--gates", "12", "--faults", "1",
                         "--methods", "sis,blind", "--budget", "30",
                         "--no-cache", "--max-shrinks", "4",
                         "--out-dir", str(tmp_path)])
            captured = capsys.readouterr()
            assert code == 1
            assert "VIOLATION" in captured.err
            repros = sorted(os.listdir(tmp_path))
            assert repros
            code = main(["fuzz", "--replay", str(tmp_path / repros[0]),
                         "--budget", "30"])
            captured = capsys.readouterr()
            assert code == 1  # the violation still reproduces
            assert "reproduces" in captured.out
        finally:
            unregister_checker("blind")

    def test_fuzz_replay_missing_file_exits_two(self, capsys, tmp_path):
        code = main(["fuzz", "--replay", str(tmp_path / "absent.json")])
        assert code == 2

    def test_fuzz_replay_of_an_unknown_method_exits_two(self, capsys,
                                                        tmp_path):
        code = main(["fuzz", "--replay", _repro_file(tmp_path, "no-such")])
        assert code == 2
        assert "unknown verification backend" in capsys.readouterr().out

    @needs_fork
    def test_fuzz_replay_is_killed_at_its_budget(self, capsys, tmp_path):
        def sleepy(original, retimed, time_budget=None):
            time.sleep(5.0)  # never polls its budget
            return VerificationResult(method="sleepy", status="equivalent",
                                      seconds=5.0)

        path = _repro_file(tmp_path, "sleepy")
        register_checker("sleepy", sleepy, accepts=("time_budget",),
                         replace=True)
        try:
            start = time.monotonic()
            code = main(["fuzz", "--replay", path, "--budget", "0.3"])
            elapsed = time.monotonic() - start
        finally:
            unregister_checker("sleepy")
        assert "verdict timeout" in capsys.readouterr().out
        assert code == 0  # a dash is never a violation
        assert elapsed < 2.0

    @needs_fork
    @pytest.mark.parametrize("flags, in_process", [([], False),
                                                   (["--no-isolate"], True)],
                             ids=("isolated", "no-isolate"))
    def test_fuzz_replay_runs_where_its_flags_say(self, capsys, tmp_path,
                                                  flags, in_process):
        pids = tmp_path / "pids"

        def where(original, retimed, time_budget=None):
            pids.write_text(str(os.getpid()))
            return VerificationResult(method="where", status="equivalent",
                                      seconds=0.0)

        path = _repro_file(tmp_path, "where")
        register_checker("where", where, accepts=("time_budget",),
                         replace=True)
        try:
            code = main(["fuzz", "--replay", path, *flags])
        finally:
            unregister_checker("where")
        assert code == 1  # the missed fault reproduces in either mode
        assert "violation reproduces: missed_fault" in capsys.readouterr().out
        assert (int(pids.read_text()) == os.getpid()) == in_process
