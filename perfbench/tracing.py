"""Per-layer tracing from outside the program.

Each layer's public functions are wrapped, for the length of one sweep,
on the name their caller looks up (``repro.eval.runner.run_checker``,
``repro.verification.common.bitblast``, ...), so a span is one call into
a layer.  ``src/`` is not touched.  Compute layers are traced on an
in-process sweep, where the calls happen in this process; the
parent-side layers ``cache`` and ``pool`` are traced on the isolated
sweep.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.eval.cache import ResultCache, netlist_fingerprint
from repro.eval.service import WorkerPool

from measure import Span, Tracer, self_times

#: engine sub-layer of each backend, by the data structure it searches
ENGINE_KIND = {
    "smv": "bdd", "sis": "bdd", "eijk": "bdd", "eijk+": "bdd", "taut": "bdd",
    "sat": "sat", "fraig": "sat",
    "hash": "hol", "taut-rw": "hol",
}

#: compute-layer wrappers: (module, attribute, span name, layer)
COMPUTE_SITES = (
    ("repro.eval.fuzz", "build_cell", "build.cell", "build"),
    ("repro.eval.fuzz", "inject_visible_faults", "build.fault_inject", "build"),
    ("repro.eval.workloads", "make_workload", "build.workload", "build"),
    ("repro.eval.runner", "run_cell", "cell", "runner"),
    ("repro.eval.runner", "run_checker", "engine", "engine"),
    ("repro.verification.common", "bitblast", "lower.bitblast", "lower"),
    ("repro.circuits.aig_rewrite", "optimize_netlist_aig", "lower.rewrite",
     "lower"),
    ("repro.circuits.aig", "netlist_to_aig", "lower.aig", "lower"),
    ("repro.verification.sat", "lower_combinational", "lower.aig", "lower"),
    ("repro.verification.common", "compile_fsm", "fsm.compile", "fsm"),
    ("repro.verification.model_checking", "product_fsm", "fsm.product", "fsm"),
    ("repro.verification.fsm_compare", "product_fsm", "fsm.product", "fsm"),
    ("repro.verification.van_eijk", "product_fsm", "fsm.product", "fsm"),
    ("repro.verification.registry", "certify_result", "certify", "certify"),
)

#: parent-side wrappers on the isolated path: (class, method, span name)
PARENT_SITES = (
    (ResultCache, "key_for", "cache.key"),
    (ResultCache, "lookup", "cache.lookup"),
    (ResultCache, "store", "cache.store"),
    (WorkerPool, "__init__", "pool.spawn"),
)

#: the netlist argument of each lowering entry point
_LOWERED_ARG = {"bitblast": 0, "netlist_to_aig": 0, "lower_combinational": 1}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms_per_cell"):
        return "ms"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def _cell_of(attr: str, args: tuple, kwargs: dict) -> Optional[str]:
    """The cell a span starts, or None to inherit the enclosing one."""
    if attr == "run_cell":
        workload = args[0] if args else kwargs["workload"]
        method = args[1] if len(args) > 1 else kwargs["method"]
        return f"{workload.name} / {method}"
    if attr == "build_cell":
        return (args[0] if args else kwargs["spec"]).name
    if attr == "make_workload":
        return kwargs.get("name") or (args[0] if args else kwargs["netlist"]).name
    if attr == "key_for":
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        return f"{spec.workload.name} / {spec.method}"
    return None


@contextmanager
def _patched(patches: Sequence[Tuple[object, str, Callable]]) -> Iterator[None]:
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerTrace:
    """Spans and counts of the traced sweeps of one run."""

    def __init__(self):
        self.tracer = Tracer()
        #: distinct (entry point, netlist fingerprint, opt) lowered
        self.lowered: set = set()
        self.certified = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: cache key -> the cell it was computed for
        self._key_cells: Dict[str, str] = {}
        # id -> (netlist, fingerprint); holding the netlist keeps its id unique
        self._fingerprints: Dict[int, tuple] = {}

    # -- wrappers ------------------------------------------------------------
    def _fingerprint(self, netlist) -> str:
        entry = self._fingerprints.get(id(netlist))
        if entry is None:
            with self.tracer.span("trace.fingerprint", "trace"):
                entry = (netlist, netlist_fingerprint(netlist))
            self._fingerprints[id(netlist)] = entry
        return entry[1]

    def _wrap(self, fn: Callable, attr: str, name: str, layer: str) -> Callable:
        tracer = self.tracer
        lowered_arg = _LOWERED_ARG.get(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_layer = layer
            if attr == "run_checker":
                method = args[0] if args else kwargs["name"]
                span_layer = "engine." + ENGINE_KIND.get(method, "other")
            if lowered_arg is not None and not tracer.inside("lower"):
                netlist = args[lowered_arg]
                self.lowered.add((attr, self._fingerprint(netlist),
                                  kwargs.get("opt", True)))
            cell = _cell_of(attr, args, kwargs)
            if attr in ("lookup", "store"):  # (cache, key, ...)
                cell = self._key_cells.get(args[1])
            with tracer.span(name, span_layer, cell):
                result = fn(*args, **kwargs)
            if attr == "key_for":
                self._key_cells[result] = cell
            elif attr == "certify_result":
                self.certified += result.stats.get("cex_certified", 0.0) == 1.0
            elif attr == "lookup":
                if result is None:
                    self.cache_misses += 1
                else:
                    self.cache_hits += 1
            return result

        return wrapper

    @contextmanager
    def compute_layers(self) -> Iterator[None]:
        """Trace the compute layers of calls made in this process."""
        patches = []
        for module_name, attr, name, layer in COMPUTE_SITES:
            module = importlib.import_module(module_name)
            patches.append((module, attr,
                            self._wrap(getattr(module, attr), attr, name, layer)))
        with _patched(patches):
            yield

    @contextmanager
    def parent_layers(self) -> Iterator[None]:
        """Trace the cache and pool calls of the isolated path's parent."""
        patches = [(cls, attr, self._wrap(getattr(cls, attr), attr, name,
                                          name.split(".")[0]))
                   for cls, attr, name in PARENT_SITES]
        with _patched(patches):
            yield

    # -- reports -------------------------------------------------------------
    def metrics(self, sweeps: int, labels: Sequence[str],
                measurements: Sequence) -> Dict[str, float]:
        """Per-layer metrics per sweep, from the spans and the cells' stats.

        ``labels``/``measurements`` are the traced sweeps' cells; only the
        cells that ran (not cache hits) count towards the engine counters.
        """
        spans: List[Span] = self.tracer.spans
        own = self_times(spans)

        def inclusive(name: str) -> float:
            return sum(s.seconds for s in spans if s.name == name)

        def count(name: str) -> int:
            return sum(1 for s in spans if s.name == name)

        engine = {kind: own.get(f"engine.{kind}", 0.0)
                  for kind in ("bdd", "sat", "hol", "other")}
        certify_calls = count("certify")
        lookups = self.cache_hits + self.cache_misses
        ran = {s.cell for s in spans if s.name == "cell"}
        stats = [m.stats for label, m in zip(labels, measurements) if label in ran]
        per_sweep = {
            "build.s": own.get("build", 0.0),
            "build.fault_inject_s": inclusive("build.fault_inject"),
            "lower.calls": len(self.tracer.outermost("lower")),
            "lower.s": own.get("lower", 0.0),
            "lower.rewrite_s": inclusive("lower.rewrite"),
            "fsm.calls": len(self.tracer.outermost("fsm")),
            "fsm.s": own.get("fsm", 0.0),
            "engine.s": sum(engine.values()),
            "engine.bdd_s": engine["bdd"],
            "engine.sat_s": engine["sat"],
            "engine.hol_s": engine["hol"],
            "engine.ite_calls": sum(s.get("ite_calls", 0.0) for s in stats),
            "engine.decisions": sum(s.get("decisions", 0.0) for s in stats),
            "engine.kernel_steps": sum(s.get("kernel_steps", 0.0) for s in stats),
            "certify.calls": certify_calls,
            "certify.s": own.get("certify", 0.0),
            "cache.key_s": inclusive("cache.key"),
            "cache.lookup_s": inclusive("cache.lookup"),
            "cache.store_s": inclusive("cache.store"),
            "cache.hits": self.cache_hits,
            "cache.misses": self.cache_misses,
            "pool.spawn_s": inclusive("pool.spawn"),
        }
        out = {k: v / sweeps for k, v in per_sweep.items()}
        # distinct netlists, peaks and ratios do not add up over sweeps
        out["lower.distinct"] = float(len(self.lowered))
        out["engine.peak_nodes"] = max(
            (s.get("peak_nodes", 0.0) for s in stats), default=0.0)
        out["certify.certified_ratio"] = (
            self.certified / certify_calls if certify_calls else 0.0)
        out["cache.hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        return out
