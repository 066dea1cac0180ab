"""Content-addressed result cache for evaluation cells.

A decided cell is a fact about its two circuits and the code that checked
them: the same cell re-measured across Table I, Table II, ablations,
examples and CI reaches the same verdict with the same deterministic cost
counters.  This module stores a cell's
:class:`~repro.eval.runner.Measurement` under a **canonical digest** of
exactly that content (:func:`cell_key`):

* the workload name, a structural fingerprint of the original and the
  retimed netlist, and the cut;
* the backend name and both budgets;
* :func:`code_digest`, a SHA-256 over the package's own sources, so a cell
  computed by different code always misses.

How a cell was reached is not part of the key: a ``--table 1`` row and the
same circuit built by ``--scenario figure2`` share one entry, and a fault
cell's injected faults reach the key through the mutant's fingerprint.
The shard count is not part of it either (see :class:`ResultCache`).

The digest is plain SHA-256 over canonical JSON — independent of
``PYTHONHASHSEED``, process, machine and dict insertion order, which
``tests/eval/test_cache.py`` pins with a golden digest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .runner import CellSpec, Measurement

#: default on-disk store location (relative to the working directory)
DEFAULT_CACHE_DIR = os.path.join(".benchmarks", "cache")

#: the root of the ``repro`` package, whose sources :func:`code_digest` hashes
_PACKAGE_DIR = Path(__file__).resolve().parent.parent


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def _canonical(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable across runs."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def tree_digest(root: Path) -> str:
    """SHA-256 over every ``.py`` and ``.json`` file under ``root``.

    Files are taken in order of their ``/``-separated relative path, and
    each contributes its path and its bytes.
    """
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*")
                   if p.suffix in (".py", ".json") and p.is_file())
    digest = hashlib.sha256()
    for name, path in files:
        digest.update(name.encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """The :func:`tree_digest` of the package, once per process: any change
    to the code changes every cell key."""
    return tree_digest(_PACKAGE_DIR)


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


def cell_key(spec: CellSpec) -> str:
    """The canonical content-addressed digest of one table cell."""
    workload = spec.workload
    payload = {
        "workload": workload.name,
        "original": netlist_fingerprint(workload.original),
        "retimed": netlist_fingerprint(workload.retimed),
        "cut": list(workload.cut),
        "method": spec.method,
        "time_budget": float(spec.time_budget),
        "node_budget": int(spec.node_budget),
        "code": code_digest(),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


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
    """On-disk JSON store of ``equivalent`` cell measurements.

    Each entry is ``<directory>/<digest>.json``, written atomically, so the
    serial CLI, the ``--jobs`` pool, the daemon and CI jobs share one store
    and ``repro cache stats|clear`` sees all of it.  ``hits``/``misses``/
    ``stores`` count this instance's traffic.

    Only ``equivalent`` is stored.  A ``timeout`` is a fact about one run's
    budget on one host: it depends on the host's load and, for a sharded
    cell, on ``--shards`` (each shard gets its own node budget).  An
    ``error`` may be transient, and refutations are re-run.  Equivalence
    does not depend on how a check was split, so a stored cell serves every
    shard count.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.stores = 0
        os.makedirs(directory, exist_ok=True)

    def key_for(self, spec: CellSpec) -> str:
        return cell_key(spec)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def lookup(self, key: str) -> Optional[Measurement]:
        """Return the cached measurement for ``key`` or None (counted)."""
        try:
            with open(self._path(key)) as fh:
                measurement = measurement_from_dict(json.load(fh)["measurement"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1  # absent, corrupt or non-numeric entry
            return None
        self.hits += 1
        return measurement

    def store(self, key: str, measurement: Measurement) -> bool:
        """Cache a measurement; returns False unless it is ``equivalent``."""
        if measurement.verdict != "equivalent":
            return False
        path = self._path(key)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump({"key": key,
                       "measurement": measurement_to_dict(measurement)},
                      fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        self.stores += 1
        return True

    def _entries(self):
        if not os.path.isdir(self.directory):
            return []
        return [os.path.join(self.directory, name)
                for name in os.listdir(self.directory) if name.endswith(".json")]

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def disk_entries(self) -> Tuple[int, int]:
        """(entry count, total bytes) of the store."""
        count = total = 0
        for path in self._entries():
            count += 1
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return count, total

    def counters(self) -> Dict[str, Any]:
        disk_count, disk_bytes = self.disk_entries()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_entries": disk_count,
            "disk_bytes": disk_bytes,
            "directory": self.directory,
        }
