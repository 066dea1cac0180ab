"""Tests for the content-addressed result cache (:mod:`repro.eval.cache`).

The key property is cache-*key determinism*: a cell's digest must be stable
across processes and interpreter hash seeds, and sensitive to everything
that could change the measurement — backend, budgets, circuit content and
the code.  It must not depend on how a cell was reached.  A golden digest
pins the canonicalisation itself.
"""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import pytest

import repro
from repro.circuits.generators import figure2
from repro.circuits.netlist import Netlist
from repro.eval import cache as cache_mod
from repro.eval.cache import (
    ResultCache,
    cell_key,
    measurement_from_dict,
    measurement_to_dict,
    netlist_fingerprint,
    tree_digest,
)
from repro.eval.fuzz import FuzzSpec, build_cell
from repro.eval.runner import CellSpec, Measurement, run_cells
from repro.eval.scenarios import build_scenario
from repro.eval.workloads import Workload, make_workload, table1_workload
from repro.verification.common import VerificationResult
from repro.verification.registry import register_checker, unregister_checker


def _golden_workload(init: int = 0) -> Workload:
    """A tiny hand-built workload, independent of the circuit generators."""
    original = Netlist("golden")
    original.add_input("d", 1)
    original.add_register("R", "d", "q", init=init, width=1)
    original.add_cell("outbuf", "BUF", ["q"], "y")
    original.add_output("y", 1)
    original.validate()
    retimed = Netlist("golden_retimed")
    retimed.add_input("d", 1)
    retimed.add_cell("outbuf", "BUF", ["d"], "b")
    retimed.add_register("R", "b", "y", init=init, width=1)
    retimed.add_output("y", 1)
    retimed.validate()
    return Workload(
        name="golden",
        original=original,
        cut=["outbuf"],
        retimed=retimed,
    )


def _golden_spec(method: str = "match", time_budget: float = 10.0,
                 node_budget: int = 1000, **kwargs) -> CellSpec:
    return CellSpec(_golden_workload(**kwargs), method, time_budget,
                    node_budget)


#: the code digest the golden tests pin in place of the real one, which
#: changes with every edit to the package
GOLDEN_CODE = "golden-code"

#: pinned digest of _golden_spec() under GOLDEN_CODE; changes only when the
#: canonicalisation itself changes — bump deliberately
GOLDEN_DIGEST = "91e390465daaf1a4f7bafb7f2924bfce447084f4c2409bbd7a894a08f5f7af18"


@pytest.fixture
def golden_code(monkeypatch):
    monkeypatch.setattr(cache_mod, "code_digest", lambda: GOLDEN_CODE)


class TestCellKeyDeterminism:
    def test_golden_digest(self, golden_code):
        assert cell_key(_golden_spec()) == GOLDEN_DIGEST

    def test_stable_across_processes_and_hash_seeds(self):
        code = (
            "import sys; "
            f"sys.path.insert(0, {os.path.dirname(__file__)!r}); "
            "from test_cache import GOLDEN_CODE, _golden_spec; "
            "from repro.eval import cache; "
            "cache.code_digest = lambda: GOLDEN_CODE; "
            "print(cache.cell_key(_golden_spec()))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.strip() == GOLDEN_DIGEST, f"seed {seed}"

    def test_sensitive_to_backend_budgets_and_code(self, monkeypatch):
        base = cell_key(_golden_spec())
        assert cell_key(_golden_spec("hash")) != base
        assert cell_key(_golden_spec(time_budget=20.0)) != base
        assert cell_key(_golden_spec(node_budget=2000)) != base
        monkeypatch.setattr(cache_mod, "code_digest", lambda: "other code")
        assert cell_key(_golden_spec()) != base

    def test_stale_code_entry_misses(self, tmp_path, monkeypatch):
        """An entry stored by other code is never served."""
        spec = _golden_spec()
        cache = ResultCache(str(tmp_path))
        stored = Measurement("golden", "match", "equivalent", 0.5)
        assert cache.store(cache.key_for(spec), stored)
        assert cache.lookup(cache.key_for(spec)) == stored
        monkeypatch.setattr(cache_mod, "code_digest", lambda: "0" * 64)
        assert cache.lookup(cache.key_for(spec)) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_code_digest_covers_sources_and_json(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("X = 1\n")
        (tmp_path / "pkg" / "lib.json").write_text("{}\n")
        (tmp_path / "notes.txt").write_text("ignored\n")
        base = tree_digest(tmp_path)
        (tmp_path / "notes.txt").write_text("still ignored\n")
        assert tree_digest(tmp_path) == base
        (tmp_path / "pkg" / "lib.json").write_text('{"v": 2}\n')
        assert tree_digest(tmp_path) != base
        (tmp_path / "pkg" / "lib.json").write_text("{}\n")
        (tmp_path / "pkg" / "mod.py").rename(tmp_path / "pkg" / "mod2.py")
        assert tree_digest(tmp_path) != base

    def test_sensitive_to_circuit_content(self):
        base = cell_key(_golden_spec(init=0))
        assert cell_key(_golden_spec(init=1)) != base

    def test_two_routes_to_one_cell_share_a_key(self):
        """A Table I row and a hand-made workload of the same circuit."""
        by_table = CellSpec(table1_workload(2), "smv")
        by_hand = CellSpec(make_workload(figure2(2), name="figure2 n=2"), "smv")
        assert cell_key(by_table) == cell_key(by_hand)
        from_scenario = build_scenario("figure2", widths=[2])[0]
        assert cell_key(CellSpec(from_scenario, "smv")) == cell_key(by_table)

    def test_fault_cell_key_sees_its_faults(self):
        """Same seed and recipe, different pinned faults: different keys."""
        spec = FuzzSpec(seed=7, flavour="fault", n_inputs=3, n_flipflops=3,
                        n_gates=12)
        injected = build_cell(spec)
        assert len(injected.mutations) == 2
        cells = [injected] + [build_cell(replace(spec, mutations=(m,)))
                              for m in injected.mutations]
        assert {c.workload.name for c in cells} == {"s7 fault"}
        keys = [cell_key(CellSpec(c.workload, "sis")) for c in cells]
        assert len(set(keys)) == 3
        # replaying the injected faults verbatim reaches the same key
        replay = build_cell(injected.pinned_spec)
        assert cell_key(CellSpec(replay.workload, "sis")) == keys[0]

    def test_workload_holds_content_only(self):
        assert [f.name for f in fields(Workload)] == [
            "name", "original", "cut", "retimed"]

    def test_insensitive_to_measurement_stats_shape(self, tmp_path):
        """Digests key on the *spec*, never on the measured stats.

        The incremental-SAT rework added counters (``solver_calls``,
        ``restarts``, ``learned_kept``, ``learned_deleted``,
        ``vars_encoded``, ``classes_split``) to ``VerificationResult.stats``
        — a payload-shape change: entries of the old stats shape must still
        be served under the same digest, and new-shape entries must
        round-trip unchanged.
        """
        spec = _golden_spec("fraig")
        key = cell_key(spec)
        # the digest is computed before any measurement exists, so nothing
        # about the stats payload can reach it
        assert key == cell_key(spec)

        old = Measurement("w", "fraig", "equivalent", 1.0,
                          stats={"decisions": 3.0, "sat_calls": 2.0})
        new = Measurement("w", "fraig", "equivalent", 1.0,
                          stats={"decisions": 3.0, "sat_calls": 2.0,
                                 "solver_calls": 2.0, "restarts": 0.0,
                                 "learned_kept": 5.0, "learned_deleted": 1.0,
                                 "vars_encoded": 40.0, "classes_split": 1.0})
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.store(key, old)
        served = ResultCache(directory).lookup(key)
        assert served == old  # old-shape entry still hits under the new code
        cache.store("other-key", new)
        again = ResultCache(directory).lookup("other-key")
        assert again == new  # new counters survive the disk round-trip

    def test_netlist_fingerprint_ignores_construction_order(self):
        a = Netlist("x")
        a.add_input("p", 1)
        a.add_input("q", 1)
        a.add_cell("g1", "AND", ["p", "q"], "r")
        a.add_cell("g2", "NOT", ["r"], "s")
        a.add_output("s", 1)
        b = Netlist("x")
        b.add_input("p", 1)
        b.add_input("q", 1)
        b.add_cell("g1", "AND", ["p", "q"], "r")  # declare g2's input first
        b.add_cell("g2", "NOT", ["r"], "s")
        b.add_output("s", 1)
        assert netlist_fingerprint(a) == netlist_fingerprint(b)


class TestMeasurementRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        m = Measurement("w", "m", "timeout", 1.2345678901234567,
                        detail="killed at the wall-clock limit (5.0s)",
                        stats={"kernel_steps": 42.0, "peak_nodes": 7.0})
        again = measurement_from_dict(json.loads(json.dumps(measurement_to_dict(m))))
        assert again == m


class TestResultCache:
    def _m(self, verdict="equivalent", seconds=1.0):
        return Measurement("w", "m", verdict, seconds, stats={"kernel_steps": 3.0})

    def test_round_trip_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.lookup("k") is None
        assert cache.store("k", self._m()) is True
        assert cache.lookup("k") == self._m()
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    @pytest.mark.parametrize("verdict", ["error", "not_equivalent"])
    def test_failed_and_refuted_measurements_are_never_cached(self, tmp_path,
                                                              verdict):
        cache = ResultCache(str(tmp_path))
        assert cache.store("k", self._m(verdict=verdict)) is False
        assert cache.lookup("k") is None
        assert cache.disk_entries() == (0, 0)

    def test_timeout_measurements_are_never_cached(self, tmp_path):
        # a dash is one run's budget on one host, not a fact about the cell
        cache = ResultCache(str(tmp_path))
        assert cache.store("k", self._m(verdict="timeout")) is False
        assert cache.lookup("k") is None
        assert (cache.stores, cache.disk_entries()) == (0, (0, 0))

    def test_disk_store_shared_between_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        first = ResultCache(directory)
        first.store("k", self._m(seconds=2.5))
        second = ResultCache(directory)
        assert second.lookup("k") == self._m(seconds=2.5)
        assert second.hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory=directory)
        (tmp_path / "cache" / ("x" * 8 + ".json")).write_text("{not json")
        assert cache.lookup("x" * 8) is None
        assert cache.misses == 1
        # every stat is a number: a non-numeric one marks a corrupt entry
        entry = {"measurement": measurement_to_dict(self._m())}
        entry["measurement"]["stats"]["winner"] = "sis"
        (tmp_path / "cache" / ("y" * 8 + ".json")).write_text(json.dumps(entry))
        assert cache.lookup("y" * 8) is None
        assert cache.misses == 2

    def test_entries_that_also_carry_a_status_still_hit(self, tmp_path):
        # the on-disk shape written while cells carried both a ``status``
        # and a ``verdict``: the verdict is read, the status ignored
        (tmp_path / "cache").mkdir()
        entries = {
            "k" * 8: ('{"key": "kkkkkkkk", "measurement": {"counterexample": '
                      'null, "detail": "", "method": "sis", "seconds": 0.5, '
                      '"stats": {"ite_calls": 164.0}, "status": "ok", '
                      '"verdict": "equivalent", "workload": "w"}, "salt": "s"}'),
            "t" * 8: ('{"key": "tttttttt", "measurement": {"counterexample": '
                      'null, "detail": "killed", "method": "sis", "seconds": '
                      '20.0, "stats": {}, "status": "timeout", "verdict": '
                      '"timeout", "workload": "w"}, "salt": "s"}'),
        }
        for key, text in entries.items():
            (tmp_path / "cache" / (key + ".json")).write_text(text + "\n")
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.lookup("k" * 8) == Measurement(
            "w", "sis", "equivalent", 0.5, stats={"ite_calls": 164.0})
        assert cache.lookup("t" * 8) == Measurement(
            "w", "sis", "timeout", 20.0, detail="killed")
        assert (cache.hits, cache.misses) == (2, 0)

    def test_verdict_outside_the_vocabulary_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "cache"))
        entry = {"measurement": measurement_to_dict(self._m())}
        entry["measurement"]["verdict"] = "ok"
        (tmp_path / "cache" / ("v" * 8 + ".json")).write_text(json.dumps(entry))
        assert cache.lookup("v" * 8) is None

    @pytest.mark.parametrize("value", ["sis", None, [1.0], {"k": 1.0}],
                             ids=["string", "null", "list", "object"])
    def test_non_numeric_stat_on_disk_is_a_miss(self, tmp_path, value):
        cache = ResultCache(directory=str(tmp_path / "cache"))
        cache.store("k" * 8, self._m())
        entry = {"measurement": measurement_to_dict(self._m())}
        entry["measurement"]["stats"]["kernel_steps"] = value
        (tmp_path / "cache" / ("k" * 8 + ".json")).write_text(
            json.dumps(entry))
        reader = ResultCache(directory=str(tmp_path / "cache"))
        assert reader.lookup("k" * 8) is None
        assert (reader.hits, reader.misses) == (0, 1)

    def test_clear_removes_every_entry(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "cache"))
        cache.store("a", self._m())
        cache.store("b", self._m())
        assert cache.clear() == 2
        assert cache.disk_entries() == (0, 0)
        assert cache.lookup("a") is None

    def test_disk_entries_and_counters(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "cache"))
        cache.store("a", self._m())
        count, nbytes = cache.disk_entries()
        assert count == 1 and nbytes > 0
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 1)


class TestRunCellsWithCache:
    """Cache hits short-circuit before any checker dispatch."""

    @pytest.fixture(autouse=True)
    def counting_stub(self, tmp_path):
        calls_file = tmp_path / "calls"

        def stub(original, retimed, time_budget=None):
            calls_file.write_text(str(int(calls_file.read_text() or 0) + 1)
                                  if calls_file.exists() else "1")
            return VerificationResult(method="stub-count", status="equivalent",
                                      seconds=0.5, detail="counted")

        register_checker("stub-count", stub, accepts=("time_budget",),
                         replace=True)
        self.calls_file = calls_file
        yield
        unregister_checker("stub-count")

    def _calls(self):
        return int(self.calls_file.read_text()) if self.calls_file.exists() else 0

    def test_second_serial_run_never_reaches_the_checker(self, tmp_path):
        specs = [CellSpec(_golden_workload(), "stub-count", time_budget=5.0)]
        cache = ResultCache(str(tmp_path / "cache"))
        cold = run_cells(specs, cache=cache)
        assert self._calls() == 1
        warm = run_cells(specs, cache=cache)
        assert self._calls() == 1  # short-circuited before dispatch
        assert warm == cold
        assert (cache.hits, cache.misses) == (1, 1)

    def test_on_result_streams_cache_hits_too(self, tmp_path):
        specs = [CellSpec(_golden_workload(), "stub-count", time_budget=5.0)]
        cache = ResultCache(str(tmp_path / "cache"))
        run_cells(specs, cache=cache)
        events = []
        run_cells(specs, cache=cache,
                  on_result=lambda i, m: events.append((i, m.verdict)))
        assert events == [(0, "equivalent")]

    def test_no_cache_means_every_run_computes(self):
        specs = [CellSpec(_golden_workload(), "stub-count", time_budget=5.0)]
        run_cells(specs)
        run_cells(specs)
        assert self._calls() == 2
