"""Content-addressed result cache for evaluation cells.

Every table cell is a pure function of (workload, backend, budgets, code
version): the same cell re-measured across Table I, Table II, ablations,
examples and CI always produces the same verdict and the same deterministic
cost counters.  This module makes that purity pay: a cell's
:class:`~repro.eval.runner.Measurement` is stored under a **canonical
digest** of

* the scenario name and the workload's own (sorted) parameters,
* a structural fingerprint of the original/retimed netlists and the cut
  (so a stale generator can never serve a wrong answer),
* the backend name and both budgets,
* a code-version salt (bump :data:`CACHE_SCHEMA` on semantic changes).

The digest is plain SHA-256 over canonical JSON — independent of
``PYTHONHASHSEED``, process, machine and dict insertion order, which
``tests/eval/test_cache.py`` pins with a golden digest.

:class:`ResultCache` layers an in-memory LRU over an optional on-disk JSON
store (one file per digest, atomic writes), shared by the serial runner,
the ``--jobs N`` pool and the ``python -m repro serve`` daemon — which is
what makes a cold serial run and a warm ``--via-daemon`` run render
byte-identically.  Only ``equivalent`` and ``timeout`` measurements are
cached: a dash is a deterministic verdict of the budget, an ``error`` cell
(crash, malformed pairing) may be transient and is always re-run, and
refutations are re-run too.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .. import __version__
from ..circuits.aig_rewrite import LIBRARY_VERSION
from .runner import CellSpec, Measurement

#: bump when Measurement semantics / stats meanings change incompatibly
CACHE_SCHEMA = "cache-v1"

#: the code-version salt mixed into every digest; overridable for cache
#: busting without a code change
CODE_SALT = os.environ.get("REPRO_CACHE_SALT", f"repro-{__version__}/{CACHE_SCHEMA}")

#: default on-disk store location (relative to the working directory)
DEFAULT_CACHE_DIR = os.path.join(".benchmarks", "cache")

#: verdicts worth caching — see the module docstring
CACHEABLE_VERDICTS = frozenset({"equivalent", "timeout"})


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def _canonical(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable across runs."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def netlist_fingerprint(netlist) -> str:
    """Structural SHA-256 of a netlist (nets, cells, registers, port order)."""
    payload = {
        "name": netlist.name,
        "inputs": list(netlist.inputs),
        "outputs": list(netlist.outputs),
        "nets": sorted((n.name, n.width) for n in netlist.nets.values()),
        "cells": sorted(
            (c.name, c.type, list(c.inputs), c.output, sorted(c.params.items()))
            for c in netlist.cells.values()
        ),
        "registers": sorted(
            (r.name, r.input, r.output, r.init, r.width)
            for r in netlist.registers.values()
        ),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def cell_key(
    workload,
    method: str,
    time_budget: float,
    node_budget: int,
    salt: str = CODE_SALT,
) -> str:
    """The canonical content-addressed digest of one table cell.

    The rewrite-library version is part of the digest: a cell measured
    against a different NPN structure library must never be served.

    Shard counts are deliberately *absent*: sharding is an execution
    strategy, and the merged measurement is defined to be shard-count
    independent.
    """
    provenance = getattr(workload, "provenance", None) or {}
    payload = {
        "scenario": provenance.get("scenario", "adhoc"),
        "params": provenance.get("params", {}),
        "workload": workload.name,
        "original": netlist_fingerprint(workload.original),
        "retimed": netlist_fingerprint(workload.retimed),
        "cut": list(workload.cut),
        "method": method,
        "time_budget": float(time_budget),
        "node_budget": int(node_budget),
        "rewrite_lib": LIBRARY_VERSION,
        "salt": salt,
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def spec_key(spec: CellSpec, salt: str = CODE_SALT) -> str:
    return cell_key(spec.workload, spec.method, spec.time_budget,
                    spec.node_budget, salt=salt)


def measurement_to_dict(measurement: Measurement) -> Dict[str, Any]:
    return {
        "workload": measurement.workload,
        "method": measurement.method,
        "verdict": measurement.verdict,
        "seconds": measurement.seconds,
        "detail": measurement.detail,
        "stats": dict(measurement.stats),
        "counterexample": measurement.counterexample,
    }


def measurement_from_dict(payload: Dict[str, Any]) -> Measurement:
    cex = payload.get("counterexample")
    return Measurement(
        workload=payload["workload"],
        method=payload["method"],
        verdict=payload["verdict"],
        seconds=float(payload["seconds"]),
        detail=payload.get("detail", ""),
        stats={k: float(v) for k, v in payload.get("stats", {}).items()},
        counterexample=None if cex is None else
        {str(k): bool(v) for k, v in cex.items()},
    )


class ResultCache:
    """In-memory LRU + optional on-disk JSON store of cell measurements.

    ``directory=None`` keeps the cache purely in memory (it dies with the
    process); with a directory every stored measurement is also written to
    ``<directory>/<digest>.json`` atomically, so separate invocations — the
    serial CLI, the daemon, CI jobs — share one store.  ``hits``/``misses``/
    ``stores`` count this instance's traffic.
    """

    def __init__(self, directory: Optional[str] = None,
                 max_memory_entries: int = 4096,
                 salt: str = CODE_SALT):
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.directory = directory
        self.salt = salt
        self.max_memory_entries = max_memory_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._memory: "OrderedDict[str, Measurement]" = OrderedDict()
        if directory:
            os.makedirs(directory, exist_ok=True)

    # -- keys -----------------------------------------------------------------
    def key_for(self, spec: CellSpec) -> str:
        return spec_key(spec, salt=self.salt)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    # -- lookup / store -------------------------------------------------------
    def lookup(self, key: str) -> Optional[Measurement]:
        """Return the cached measurement for ``key`` or None (counted)."""
        measurement = self._memory.get(key)
        if measurement is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return measurement
        if self.directory:
            try:
                with open(self._path(key)) as fh:
                    payload = json.load(fh)
                measurement = measurement_from_dict(payload["measurement"])
            except (OSError, ValueError, KeyError, TypeError):
                measurement = None  # absent, corrupt or non-numeric entry == miss
            if measurement is not None:
                self._remember(key, measurement)
                self.hits += 1
                return measurement
        self.misses += 1
        return None

    def store(self, key: str, measurement: Measurement) -> bool:
        """Cache a measurement; returns False for uncacheable verdicts."""
        if measurement.verdict not in CACHEABLE_VERDICTS:
            return False
        self._remember(key, measurement)
        if self.directory:
            path = self._path(key)
            tmp = f"{path}.{os.getpid()}.tmp"
            payload = {
                "key": key,
                "salt": self.salt,
                "measurement": measurement_to_dict(measurement),
            }
            with open(tmp, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        self.stores += 1
        return True

    def _remember(self, key: str, measurement: Measurement) -> None:
        self._memory[key] = measurement
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # -- management -----------------------------------------------------------
    def clear(self) -> int:
        """Drop every entry; returns how many distinct entries were removed."""
        removed_keys = set(self._memory)
        self._memory.clear()
        if self.directory and os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                if name.endswith(".json"):
                    removed_keys.add(name[:-len(".json")])
                    try:
                        os.unlink(os.path.join(self.directory, name))
                    except OSError:
                        pass
        return len(removed_keys)

    def disk_entries(self) -> Tuple[int, int]:
        """(entry count, total bytes) of the on-disk store."""
        if not self.directory or not os.path.isdir(self.directory):
            return 0, 0
        count = total = 0
        for name in os.listdir(self.directory):
            if not name.endswith(".json"):
                continue
            count += 1
            try:
                total += os.path.getsize(os.path.join(self.directory, name))
            except OSError:
                pass
        return count, total

    def counters(self) -> Dict[str, Any]:
        disk_count, disk_bytes = self.disk_entries()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "memory_entries": len(self._memory),
            "disk_entries": disk_count,
            "disk_bytes": disk_bytes,
            "directory": self.directory,
        }
