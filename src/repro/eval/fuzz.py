"""Adversarial fuzzing: seeded fault-injection cells and a differential oracle.

The paper's tables only exercise *equivalent* pairs; this module is the
adversarial counterpart.  Each fuzz cell is generated from a tiny
:class:`FuzzSpec` recipe — a seeded random control circuit, optionally a
random *legal* Leiserson-Saxe forward retiming, optionally a list of
simulation-visible injected faults from :mod:`repro.circuits.mutate` — so
cells come in three flavours with known ground truth:

* ``retime``       — (circuit, legally retimed circuit): **equivalent**
* ``fault``        — (circuit, visibly mutated circuit): **not equivalent**
* ``retime-fault`` — (circuit, retimed-then-mutated): **not equivalent**

:func:`run_fuzz` pushes every cell through all requested backends via the
ordinary cell runner (so ``--jobs``, ``--no-isolate`` and the result
cache all apply), then plays oracle:

* each verdict is checked against the cell's injected-fault ground truth
  (an inequivalence claimed on an equivalent pair is a ``false_alarm``, an
  equivalence claimed on a faulty pair is a ``missed_fault``);
* every ``not_equivalent`` verdict must carry a replay-certified
  counterexample (``cex_certified=1`` — the registry demotes bogus
  witnesses before they ever get here; a missing witness is an
  ``uncertified_cex`` violation);
* the *definite* verdicts of all applicable backends must agree
  (``disagreements``), the promoted form of the differential cross-checks
  the test suite runs on a handful of circuits;
* a ``complete`` backend returning ``error`` on an in-scope cell is itself
  a violation — only incomplete methods may be inconclusive.

Any violation is delta-debugged by :func:`shrink_violation` — dropping
injected mutations one at a time, then halving the circuit dimensions and
the cut — down to a minimal cell that still reproduces it, and written to
``.benchmarks/fuzz/`` as a replayable JSON repro (``repro fuzz --replay``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..circuits.generators import random_sequential_circuit
from ..circuits.mutate import (
    Mutation,
    MutationError,
    apply_mutations,
    inject_visible_faults,
)
from ..circuits.netlist import Netlist
from ..circuits.simulate import find_mismatch
from ..retiming.apply import apply_forward_retiming, forward_retimable_cells
from ..retiming.cuts import sized_forward_cut
from ..verification.registry import Checker, get_checker
from .cache import measurement_to_dict
from .runner import (
    DEFINITE_VERDICTS,
    VERDICT_SYMBOL,
    CellSpec,
    Measurement,
    run_cell,
    run_cells,
)
from .scenarios import register_scenario
from .workloads import Workload

#: repro file schema identifier
REPRO_SCHEMA = "fuzz-repro-v1"

#: default output directory for minimised repros
DEFAULT_FUZZ_DIR = os.path.join(".benchmarks", "fuzz")

#: the default differential panel: the two product-FSM checkers (applicable
#: to every flavour) plus the three cut-point checkers (fault cells)
DEFAULT_METHODS = ("smv", "sis", "sat", "fraig", "taut")

FLAVOURS = ("retime", "fault", "retime-fault")


class FuzzError(Exception):
    """Raised when a fuzz cell cannot be built as specified."""


@dataclass(frozen=True)
class FuzzSpec:
    """The full recipe for one fuzz cell — also the repro file format.

    ``mutations`` pins an explicit fault list (the shrunk-repro replay
    path); when empty, ``n_faults`` visible faults are derived from the
    seed, which is how sweep cells are generated.
    """

    seed: int
    flavour: str
    n_inputs: int = 4
    n_flipflops: int = 5
    n_gates: int = 24
    cut_size: int = 2
    n_faults: int = 2
    mutations: Tuple[Mutation, ...] = ()

    @property
    def name(self) -> str:
        return f"s{self.seed} {self.flavour}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "flavour": self.flavour,
            "n_inputs": self.n_inputs,
            "n_flipflops": self.n_flipflops,
            "n_gates": self.n_gates,
            "cut_size": self.cut_size,
            "n_faults": self.n_faults,
            "mutations": [m.to_dict() for m in self.mutations],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FuzzSpec":
        return cls(
            seed=int(payload["seed"]),
            flavour=str(payload["flavour"]),
            n_inputs=int(payload.get("n_inputs", 4)),
            n_flipflops=int(payload.get("n_flipflops", 5)),
            n_gates=int(payload.get("n_gates", 24)),
            cut_size=int(payload.get("cut_size", 2)),
            n_faults=int(payload.get("n_faults", 2)),
            mutations=tuple(
                Mutation.from_dict(m) for m in payload.get("mutations", ())
            ),
        )


@dataclass
class FuzzCell:
    """One built fuzz cell: the workload plus its ground truth."""

    spec: FuzzSpec
    workload: Workload
    expected: str                   # "equivalent" | "not_equivalent"
    mutations: List[Mutation] = field(default_factory=list)

    @property
    def pinned_spec(self) -> FuzzSpec:
        """The spec with the actually-applied mutations pinned (replayable)."""
        return dataclasses.replace(self.spec, mutations=tuple(self.mutations))


def make_specs(
    cells: int,
    seed: int = 0,
    n_inputs: int = 4,
    n_flipflops: int = 5,
    n_gates: int = 24,
    cut_size: int = 2,
    n_faults: int = 2,
) -> List[FuzzSpec]:
    """The sweep recipe: ``cells`` specs cycling through the three flavours."""
    return [
        FuzzSpec(
            seed=seed + i,
            flavour=FLAVOURS[i % len(FLAVOURS)],
            n_inputs=n_inputs,
            n_flipflops=n_flipflops,
            n_gates=n_gates,
            cut_size=cut_size,
            n_faults=n_faults,
        )
        for i in range(cells)
    ]


def build_cell(spec: FuzzSpec) -> FuzzCell:
    """Deterministically build one fuzz cell from its recipe.

    Ground truth is enforced, not assumed: fault flavours must carry a
    simulation-visible mismatch (pinned mutation lists are re-validated),
    so an expected-``not_equivalent`` cell is genuinely inequivalent.
    """
    if spec.flavour not in FLAVOURS:
        raise FuzzError(f"unknown fuzz flavour {spec.flavour!r}")
    base = random_sequential_circuit(
        spec.n_inputs, spec.n_flipflops, spec.n_gates,
        seed=spec.seed, name=f"fuzz_s{spec.seed}",
    )

    cut: List[str] = []
    retimed: Optional[Netlist] = None
    if spec.flavour in ("retime", "retime-fault"):
        retimable = forward_retimable_cells(base)
        if not retimable:
            raise FuzzError(f"{spec.name}: no forward-retimable cells")
        cut = sized_forward_cut(
            base, min(spec.cut_size, len(retimable)), seed=spec.seed
        )
        retimed = apply_forward_retiming(base, cut)

    if spec.flavour == "retime":
        return FuzzCell(
            spec=spec,
            workload=Workload(name=spec.name, original=base, cut=cut,
                              retimed=retimed),
            expected="equivalent",
        )

    target = base if spec.flavour == "fault" else retimed
    if spec.mutations:
        try:
            mutant = apply_mutations(target, spec.mutations)
        except MutationError as exc:
            raise FuzzError(f"{spec.name}: pinned mutation failed: {exc}") from exc
        if find_mismatch(base, mutant) is None:
            raise FuzzError(
                f"{spec.name}: pinned mutations are not simulation-visible"
            )
        mutations = list(spec.mutations)
    else:
        try:
            mutant, mutations = inject_visible_faults(
                target, reference=base, n=spec.n_faults, seed=spec.seed
            )
        except MutationError as exc:
            raise FuzzError(f"{spec.name}: {exc}") from exc
    return FuzzCell(
        spec=spec,
        workload=Workload(name=spec.name, original=base, cut=cut,
                          retimed=mutant),
        expected="not_equivalent",
        mutations=mutations,
    )


def method_applies(checker: Checker, flavour: str) -> bool:
    """Can a backend be held to a verdict on cells of this flavour?

    Cut-point checkers need identical register sets, which retiming breaks
    (registers move and are renamed), so they only see ``fault`` cells.
    Synthesis-style backends and the structural matcher only make sense on
    pure retimings.
    """
    if checker.needs_cut:
        return flavour == "retime"
    if checker.name == "match":  # structural matching: pure retiming only
        return flavour == "retime"
    if checker.cut_points:
        return flavour == "fault"
    return True


@dataclass
class FuzzViolation:
    """One oracle violation: a backend's verdict contradicts ground truth."""

    cell: str
    method: str
    kind: str        # "false_alarm" | "missed_fault" | "uncertified_cex" | "error"
    detail: str
    spec: FuzzSpec   # pinned spec reproducing the cell


def violation_of(
    checker: Checker, expected: str, measurement: Measurement
) -> Optional[Tuple[str, str]]:
    """Classify one measurement against the cell's ground truth."""
    verdict = measurement.verdict
    if verdict == "timeout":
        return None  # the dash is a deterministic budget verdict, not a bug
    if verdict == "error":
        if checker.complete:
            return "error", measurement.detail
        return None  # incomplete methods may be inconclusive
    if expected == "equivalent" and verdict == "not_equivalent":
        return "false_alarm", f"claims inequivalence: {measurement.detail}"
    if expected == "not_equivalent" and verdict == "equivalent":
        return "missed_fault", "claims equivalence despite injected faults"
    if verdict == "not_equivalent":
        certified = measurement.stats.get("cex_certified", 0.0) == 1.0
        if measurement.counterexample is None or not certified:
            return "uncertified_cex", "refutation without a certified witness"
    return None


@dataclass
class FuzzReport:
    """Everything one fuzz sweep produced."""

    cells: List[FuzzCell]
    methods: List[str]
    #: per cell: method -> measurement (only applicable methods present)
    measurements: List[Dict[str, Measurement]]
    violations: List[FuzzViolation]
    disagreements: List[str]
    counters: Dict[str, float]
    #: minimised repro files written by the shrinker
    repro_paths: List[str] = field(default_factory=list)

    def render(self) -> str:
        return render_fuzz_table(self)


def _oracle(
    cells: List[FuzzCell],
    methods: Sequence[str],
    measurements: List[Dict[str, Measurement]],
) -> Tuple[List[FuzzViolation], List[str], Dict[str, float]]:
    """Verdict-vs-ground-truth and cross-backend checks for a whole sweep."""
    violations: List[FuzzViolation] = []
    disagreements: List[str] = []
    counters: Dict[str, float] = {
        "cells": float(len(cells)),
        "faults_injected": 0.0,
        "fault_cells": 0.0,
        "faults_detected": 0.0,
        "cex_certified": 0.0,
        "violations": 0.0,
        "disagreements": 0.0,
        "retries": 0.0,
    }
    for cell, row in zip(cells, measurements):
        counters["faults_injected"] += len(cell.mutations)
        definite: List[str] = []
        refuted = False
        for method in methods:
            measurement = row.get(method)
            if measurement is None:
                continue
            checker = get_checker(method)
            counters["cex_certified"] += measurement.stats.get("cex_certified", 0.0)
            counters["retries"] += measurement.stats.get("retries", 0.0)
            if measurement.verdict in DEFINITE_VERDICTS:
                definite.append(measurement.verdict)
                refuted = refuted or measurement.verdict == "not_equivalent"
            found = violation_of(checker, cell.expected, measurement)
            if found is not None:
                kind, detail = found
                violations.append(FuzzViolation(
                    cell=cell.workload.name, method=method, kind=kind,
                    detail=detail, spec=cell.pinned_spec,
                ))
        if len(set(definite)) > 1:
            disagreements.append(cell.workload.name)
        if cell.expected == "not_equivalent":
            counters["fault_cells"] += 1.0
            # detected = some backend refuted and none claimed equivalence
            if refuted and "equivalent" not in definite:
                counters["faults_detected"] += 1.0
    counters["violations"] = float(len(violations))
    counters["disagreements"] = float(len(disagreements))
    return violations, disagreements, counters


def run_fuzz(
    specs: Sequence[FuzzSpec],
    methods: Sequence[str] = DEFAULT_METHODS,
    time_budget: float = 20.0,
    node_budget: int = 500_000,
    shrink: bool = True,
    max_shrinks: int = 24,
    out_dir: Optional[str] = None,
    **options,
) -> FuzzReport:
    """Run one fuzz sweep end to end: build, measure, judge, shrink.

    The measurement phase goes through :func:`~repro.eval.runner.run_cells`
    with ``options`` (``jobs``, ``isolate``, ``on_result``, ``cache``)
    unchanged, so serial, ``--jobs N`` and cached execution all apply and
    return identical measurements.
    Shrinking (serial, in-process) only runs when the oracle found
    violations.
    """
    for method in methods:
        get_checker(method)  # unknown methods raise before any cell is built
    cells = [build_cell(spec) for spec in specs]

    flat_specs: List[CellSpec] = []
    owners: List[Tuple[int, str]] = []
    for index, cell in enumerate(cells):
        for method in methods:
            if method_applies(get_checker(method), cell.spec.flavour):
                flat_specs.append(CellSpec(
                    cell.workload, method, time_budget, node_budget,
                ))
                owners.append((index, method))

    flat_results = run_cells(flat_specs, **options)
    measurements: List[Dict[str, Measurement]] = [{} for _ in cells]
    for (index, method), measurement in zip(owners, flat_results):
        measurements[index][method] = measurement

    violations, disagreements, counters = _oracle(cells, methods, measurements)

    repro_paths: List[str] = []
    if shrink and violations:
        directory = out_dir or DEFAULT_FUZZ_DIR
        os.makedirs(directory, exist_ok=True)
        seen = set()
        for violation in violations:
            key = (violation.spec.seed, violation.method, violation.kind)
            if key in seen:
                continue
            seen.add(key)
            shrunk, steps = shrink_violation(
                violation, time_budget=time_budget, node_budget=node_budget,
                max_shrinks=max_shrinks,
            )
            repro_paths.append(write_repro(
                directory, shrunk, violation, steps,
                time_budget=time_budget, node_budget=node_budget,
            ))
    return FuzzReport(
        cells=cells,
        methods=list(methods),
        measurements=measurements,
        violations=violations,
        disagreements=disagreements,
        counters=counters,
        repro_paths=repro_paths,
    )


# ---------------------------------------------------------------------------
# Delta-debugging shrinker
# ---------------------------------------------------------------------------

def _measure(spec: FuzzSpec, method: str,
             time_budget: float, node_budget: int) -> Optional[Measurement]:
    try:
        cell = build_cell(spec)
    except FuzzError:
        return None
    if not method_applies(get_checker(method), spec.flavour):
        return None
    return run_cell(cell.workload, method, time_budget, node_budget)


def _still_violates(spec: FuzzSpec, method: str, kind: str,
                    time_budget: float, node_budget: int) -> bool:
    measurement = _measure(spec, method, time_budget, node_budget)
    if measurement is None:
        return False
    expected = "equivalent" if spec.flavour == "retime" else "not_equivalent"
    found = violation_of(get_checker(method), expected, measurement)
    return found is not None and found[0] == kind


def _shrink_candidates(spec: FuzzSpec) -> Iterator[FuzzSpec]:
    """Smaller variants, most promising first.

    Mutation-list reduction keeps the circuit fixed (drop one fault at a
    time); the dimension halvings regenerate the circuit, so any pinned
    mutations are cleared and re-derived from the seed — ``build_cell``
    re-validates visibility either way.
    """
    if len(spec.mutations) > 1:
        for drop in range(len(spec.mutations)):
            kept = tuple(m for i, m in enumerate(spec.mutations) if i != drop)
            yield dataclasses.replace(spec, mutations=kept,
                                      n_faults=len(kept))
    fresh = dataclasses.replace(
        spec, mutations=(), n_faults=max(1, min(spec.n_faults,
                                                len(spec.mutations) or 1)),
    )
    if spec.n_gates > 4:
        yield dataclasses.replace(fresh, n_gates=max(4, spec.n_gates // 2))
    if spec.n_flipflops > 1:
        yield dataclasses.replace(fresh,
                                  n_flipflops=max(1, spec.n_flipflops // 2))
    if spec.n_inputs > 1:
        yield dataclasses.replace(fresh, n_inputs=max(1, spec.n_inputs // 2))
    if spec.flavour != "fault" and spec.cut_size > 1:
        yield dataclasses.replace(fresh, cut_size=max(1, spec.cut_size // 2))


def shrink_violation(
    violation: FuzzViolation,
    time_budget: float = 20.0,
    node_budget: int = 500_000,
    max_shrinks: int = 24,
) -> Tuple[FuzzSpec, int]:
    """Greedily shrink a violating cell; returns (minimal spec, cells tried).

    Classic ddmin-style descent: take the first smaller candidate that still
    reproduces the violation and restart from it, until no candidate does or
    the ``max_shrinks`` re-measurement budget is spent.
    """
    best = violation.spec
    tried = 0
    progressed = True
    while progressed and tried < max_shrinks:
        progressed = False
        for candidate in _shrink_candidates(best):
            if tried >= max_shrinks:
                break
            tried += 1
            if _still_violates(candidate, violation.method, violation.kind,
                               time_budget, node_budget):
                # pin whatever mutations the candidate actually applied so
                # the next round (and the repro file) replays them verbatim
                if candidate.flavour != "retime" and not candidate.mutations:
                    rebuilt = build_cell(candidate)
                    candidate = rebuilt.pinned_spec
                best = candidate
                progressed = True
                break
    return best, tried


def write_repro(
    directory: str,
    spec: FuzzSpec,
    violation: FuzzViolation,
    shrink_steps: int,
    time_budget: float,
    node_budget: int,
) -> str:
    """Write a minimal replayable repro file; returns its path."""
    final = _measure(spec, violation.method, time_budget, node_budget)
    payload = {
        "schema": REPRO_SCHEMA,
        "spec": spec.to_dict(),
        "method": violation.method,
        "violation": violation.kind,
        "detail": violation.detail,
        "origin_cell": violation.cell,
        "shrink_steps": shrink_steps,
        "time_budget": time_budget,
        "node_budget": node_budget,
        "measurement": None if final is None else measurement_to_dict(final),
    }
    path = os.path.join(
        directory,
        f"repro-s{spec.seed}-{spec.flavour}-{violation.method}.json",
    )
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_repro(path: str) -> Tuple[FuzzSpec, str, str]:
    """Load a repro file; returns (spec, method, expected violation kind)."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != REPRO_SCHEMA:
        raise FuzzError(f"{path}: not a {REPRO_SCHEMA} file")
    return (FuzzSpec.from_dict(payload["spec"]), str(payload["method"]),
            str(payload["violation"]))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _cex_cell(row: Dict[str, Measurement], methods: Sequence[str]) -> str:
    """The first certified counterexample in method order, rendered k=v."""
    for method in methods:
        measurement = row.get(method)
        if (measurement is not None
                and measurement.counterexample is not None
                and measurement.stats.get("cex_certified", 0.0) == 1.0):
            return ",".join(f"{k}={int(v)}"
                            for k, v in measurement.counterexample.items())
    return ""


def render_fuzz_table(report: FuzzReport) -> str:
    """Fixed-width fuzz table, deterministic across execution modes.

    Unlike the timing tables, no seconds are rendered: every column is a
    pure function of the seeds, so serial and ``--jobs N`` sweeps stay
    byte-identical without relying on the result cache.
    """
    headers = (["cell", "expect"]
               + [m.upper() for m in report.methods] + ["counterexample"])
    table: List[List[str]] = [headers]
    for cell, row in zip(report.cells, report.measurements):
        expect = "EQ" if cell.expected == "equivalent" else "NEQ"
        line = [cell.workload.name, expect]
        for method in report.methods:
            measurement = row.get(method)
            if measurement is None:
                line.append(".")
            else:
                line.append(VERDICT_SYMBOL[measurement.verdict])
        line.append(_cex_cell(row, report.methods))
        table.append(line)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    title = f"Fuzz sweep: {len(report.cells)} cells"
    lines = [title, "=" * len(title)]
    for i, r in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    c = report.counters
    lines.append("")
    lines.append(
        f"faults: {int(c['faults_detected'])}/{int(c['fault_cells'])} cells "
        f"detected ({int(c['faults_injected'])} mutations injected); "
        f"certified counterexamples: {int(c['cex_certified'])}"
    )
    lines.append(
        f"violations: {int(c['violations'])}; "
        f"disagreements: {int(c['disagreements'])}"
    )
    lines.append("'=' equivalent  '!=' not equivalent  '-' budget exceeded  "
                 "'?' error  '.' not applicable")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The scenario wrapper (fuzz cells as ordinary table rows)
# ---------------------------------------------------------------------------

@register_scenario(
    "fuzz",
    description="seeded fault-injection cells: random circuits x legal "
                "retimings x visible injected faults, in expected-equivalent "
                "and expected-inequivalent flavours (the adversarial "
                "counterpart of strash; `repro fuzz` adds the oracle)",
    default_methods=("sis", "smv"),
    cells=6,
    seed=0,
    n_inputs=4,
    n_flipflops=5,
    n_gates=24,
    cut_size=2,
    n_faults=2,
)
def _fuzz_scenario(cells, seed, n_inputs, n_flipflops, n_gates,
                   cut_size, n_faults) -> List[Workload]:
    specs = make_specs(int(cells), int(seed), n_inputs=int(n_inputs),
                       n_flipflops=int(n_flipflops), n_gates=int(n_gates),
                       cut_size=int(cut_size), n_faults=int(n_faults))
    return [build_cell(spec).workload for spec in specs]
