"""Tests for the content-addressed result cache (:mod:`repro.eval.cache`).

The key property is cache-*key determinism*: a cell's digest must be stable
across processes and interpreter hash seeds, insensitive to parameter dict
ordering, and sensitive to everything that could change the measurement —
backend, budgets, circuit content and the code-version salt.  A golden
digest pins the canonicalisation itself.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.circuits.netlist import Netlist
from repro.eval.cache import (
    CACHEABLE_VERDICTS,
    ResultCache,
    cell_key,
    measurement_from_dict,
    measurement_to_dict,
    netlist_fingerprint,
)
from repro.eval.runner import CellSpec, Measurement, run_cells
from repro.eval.workloads import Workload
from repro.verification.common import VerificationResult
from repro.verification.registry import register_checker, unregister_checker


def _golden_workload(init: int = 0, params=None) -> Workload:
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
        provenance={"scenario": "golden",
                    "params": params or {"n": 1, "mode": "x"}},
    )


#: pinned digest of (_golden_workload(), "match", 10.0, 1000, salt="golden-salt");
#: changes only when the canonicalisation itself changes — bump deliberately.
#: (Bumped when the payload gained the NPN rewrite-library version, and
#: again when it dropped the rewriting toggle: rewriting is always on.)
GOLDEN_DIGEST = "8848fa241f420278594e100d3cd7d28af3533c210ef96107ddebfee0921d7684"


class TestCellKeyDeterminism:
    def test_golden_digest(self):
        key = cell_key(_golden_workload(), "match", 10.0, 1000,
                       salt="golden-salt")
        assert key == GOLDEN_DIGEST

    def test_stable_across_processes_and_hash_seeds(self):
        code = (
            "import sys; "
            f"sys.path.insert(0, {os.path.dirname(__file__)!r}); "
            "from test_cache import _golden_workload; "
            "from repro.eval.cache import cell_key; "
            "print(cell_key(_golden_workload(), 'match', 10.0, 1000, "
            "salt='golden-salt'))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.strip() == GOLDEN_DIGEST, f"seed {seed}"

    def test_param_dict_order_is_irrelevant(self):
        a = _golden_workload(params={"n": 1, "mode": "x"})
        b = _golden_workload(params={"mode": "x", "n": 1})
        assert list(a.provenance["params"]) != list(b.provenance["params"])
        assert cell_key(a, "match", 10.0, 1000) == cell_key(b, "match", 10.0, 1000)

    def test_sensitive_to_backend_budget_and_salt(self):
        w = _golden_workload()
        base = cell_key(w, "match", 10.0, 1000)
        assert cell_key(w, "hash", 10.0, 1000) != base
        assert cell_key(w, "match", 20.0, 1000) != base
        assert cell_key(w, "match", 10.0, 2000) != base
        assert cell_key(w, "match", 10.0, 1000, salt="other") != base

    def test_sensitive_to_rewrite_library_version(self, monkeypatch):
        """Regenerating the NPN structure library invalidates old entries."""
        from repro.eval import cache as cache_mod

        w = _golden_workload()
        base = cell_key(w, "match", 10.0, 1000)
        monkeypatch.setattr(cache_mod, "LIBRARY_VERSION", "npn4-v0-test")
        assert cell_key(w, "match", 10.0, 1000) != base

    def test_sensitive_to_circuit_content(self):
        base = cell_key(_golden_workload(init=0), "match", 10.0, 1000)
        assert cell_key(_golden_workload(init=1), "match", 10.0, 1000) != base

    def test_sensitive_to_params_and_scenario(self):
        base = cell_key(_golden_workload(), "match", 10.0, 1000)
        other = _golden_workload(params={"n": 2, "mode": "x"})
        assert cell_key(other, "match", 10.0, 1000) != base

    def test_insensitive_to_measurement_stats_shape(self, tmp_path):
        """Digests key on the *spec*, never on the measured stats.

        The incremental-SAT rework added counters (``solver_calls``,
        ``restarts``, ``learned_kept``, ``learned_deleted``,
        ``vars_encoded``, ``classes_split``) to ``VerificationResult.stats``
        — a payload-shape change, not a semantic one, so no
        ``CACHE_SCHEMA`` bump: pre-rework disk entries (old stats shape)
        must still be served under the same digest, and new-shape entries
        must round-trip unchanged.
        """
        w = _golden_workload()
        key = cell_key(w, "fraig", 10.0, 1000, salt="golden-salt")
        # the digest is computed before any measurement exists, so nothing
        # about the stats payload can reach it
        assert key == cell_key(w, "fraig", 10.0, 1000, salt="golden-salt")

        old = Measurement("w", "fraig", "equivalent", 1.0,
                          stats={"decisions": 3.0, "sat_calls": 2.0})
        new = Measurement("w", "fraig", "equivalent", 1.0,
                          stats={"decisions": 3.0, "sat_calls": 2.0,
                                 "solver_calls": 2.0, "restarts": 0.0,
                                 "learned_kept": 5.0, "learned_deleted": 1.0,
                                 "vars_encoded": 40.0, "classes_split": 1.0})
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory=directory)
        cache.store(key, old)
        served = ResultCache(directory=directory).lookup(key)
        assert served == old  # old-shape entry still hits under the new code
        cache.store("other-key", new)
        again = ResultCache(directory=directory).lookup("other-key")
        assert again == new  # new counters survive the disk round-trip

    def test_adhoc_workload_keys_on_circuit_content(self):
        w = _golden_workload()
        w.provenance = None
        key = cell_key(w, "match", 10.0, 1000)
        assert key != cell_key(_golden_workload(), "match", 10.0, 1000)
        # and it is still deterministic
        w2 = _golden_workload()
        w2.provenance = None
        assert cell_key(w2, "match", 10.0, 1000) == key

    def test_shard_count_is_absent_from_the_key(self):
        from repro.eval.cache import spec_key

        w = _golden_workload()
        assert (spec_key(CellSpec(w, "fraig", 10.0, 1000, shards=4))
                == spec_key(CellSpec(w, "fraig", 10.0, 1000)))

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

    def test_memory_round_trip_and_counters(self):
        cache = ResultCache()
        assert cache.lookup("k") is None
        assert cache.store("k", self._m()) is True
        assert cache.lookup("k") == self._m()
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_failed_measurements_are_never_cached(self):
        cache = ResultCache()
        assert cache.store("k", self._m(verdict="error")) is False
        assert cache.lookup("k") is None
        assert "error" not in CACHEABLE_VERDICTS

    def test_timeout_measurements_are_cached(self):
        cache = ResultCache()
        assert cache.store("k", self._m(verdict="timeout")) is True
        assert cache.lookup("k").verdict == "timeout"

    def test_lru_eviction_in_memory(self):
        cache = ResultCache(max_memory_entries=2)
        for key in ("a", "b", "c"):
            cache.store(key, self._m())
        assert cache.lookup("a") is None      # evicted
        assert cache.lookup("c") is not None  # newest survives

    def test_disk_store_shared_between_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        first = ResultCache(directory=directory)
        first.store("k", self._m(seconds=2.5))
        second = ResultCache(directory=directory, max_memory_entries=1)
        assert second.lookup("k") == self._m(seconds=2.5)
        assert second.hits == 1

    def test_disk_backs_memory_eviction(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"), max_memory_entries=1)
        cache.store("a", self._m(seconds=1.0))
        cache.store("b", self._m(seconds=2.0))  # evicts "a" from memory
        assert cache.lookup("a").seconds == 1.0  # served from disk

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
        cache = ResultCache(directory=str(tmp_path / "cache"), salt="s")
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

    def test_clear_removes_memory_and_disk(self, tmp_path):
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
        counters = cache.counters()
        assert counters["stores"] == 1
        assert counters["disk_entries"] == 1


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

    def test_second_serial_run_never_reaches_the_checker(self):
        specs = [CellSpec(_golden_workload(), "stub-count", time_budget=5.0)]
        cache = ResultCache()
        cold = run_cells(specs, cache=cache)
        assert self._calls() == 1
        warm = run_cells(specs, cache=cache)
        assert self._calls() == 1  # short-circuited before dispatch
        assert warm == cold
        assert (cache.hits, cache.misses) == (1, 1)

    def test_on_result_streams_cache_hits_too(self):
        specs = [CellSpec(_golden_workload(), "stub-count", time_budget=5.0)]
        cache = ResultCache()
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
