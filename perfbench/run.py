"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 25 --trace 0

Run from the repository root (any directory works; paths are taken from
this file's location).  ``--trace 0`` measures the end-to-end metrics on
the isolated path ``python -m repro run`` takes by default: one pool
worker, a fresh result cache.  ``--trace 1`` measures the per-layer
metrics instead (see ``tracing.py``).  Sweeps repeat until they add up
to ``--seconds`` (untimed preparation aside) and the verdict-latency p90
has at least ten samples beyond it.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any wrong or undecided verdict makes ``correct`` false and
the exit code 1.  Traces and scratch caches go under
``.benchmarks/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".benchmarks", "perfbench")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"error: no repro sources under {SRC}")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from measure import percentile, samples_needed  # noqa: E402
from sweeps import WORKLOADS, Workload  # noqa: E402

#: fresh interpreters timed for ``setup_s``, after one untimed start that
#: leaves the bytecode cache written
COLD_STARTS = 31

#: what a fresh interpreter runs before it can run a cell: the CLI's
#: imports (backend and scenario registries included) and the NPN library
_READY = ("import sys, time; sys.path.insert(0, {src!r}); import repro.cli; "
          "from repro.circuits.aig_rewrite import load_library; "
          "load_library(); print(time.perf_counter())")

#: printed order and units of the end-to-end metrics
UNITS = {
    "cells_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def cold_start_seconds() -> float:
    """Time from launching an interpreter until ``repro`` can run a cell.

    The child prints its ``perf_counter`` once ready; on Linux that clock
    is ``CLOCK_MONOTONIC``, shared by every process.
    """
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", _READY.format(src=SRC)],
                         check=True, capture_output=True, text=True,
                         cwd=ROOT).stdout
    return float(out.split()[-1]) - start


def peak_rss_mb() -> float:
    """The larger peak RSS of this process and its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def report_problems(labels, problems, out=sys.stderr, limit=20) -> int:
    bad = [(label, p) for label, p in zip(labels, problems) if p is not None]
    for label, problem in bad[:limit]:
        print(f"WRONG {label}: {problem}", file=out)
    if len(bad) > limit:
        print(f"... and {len(bad) - limit} more", file=out)
    return len(bad)


def end_to_end(workload: Workload, seconds: float):
    """Isolated sweeps for ``seconds`` of sweeping (untimed preparation
    aside); returns (attempted, failed, metrics)."""
    need = samples_needed(0.9)
    # every sample of every sweep, at least ten beyond the p90; a sweep's
    # cells are let go once counted, so the peak RSS is one sweep's however
    # many sweeps fit
    gaps_ms: list = []
    sweeps = cells = failed = 0
    wall = 0.0
    while wall < seconds or len(gaps_ms) < need:
        sweep = workload.sweep(sweeps)
        sweeps += 1
        gaps_ms += [g * 1000.0 for g in sweep.gaps]
        cells += sweep.cells
        wall += sweep.wall
        failed += report_problems(sweep.labels, sweep.problems)
        del sweep
    # read before the cold starts, whose interpreters would count as children
    rss_mb = peak_rss_mb()
    cold_starts = [cold_start_seconds() for _ in range(COLD_STARTS + 1)][1:]

    p50, _ = percentile(gaps_ms, 0.5)
    p90, beyond = percentile(gaps_ms, 0.9)
    metrics = {
        "cells_per_s": cells / wall,
        "verdict_ms_p50": p50,
        "verdict_ms_p90": p90,
        "decided_ratio": (cells - failed) / cells,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(cold_starts),
    }
    samples = {
        "cells_per_s": f"{cells} cells in {sweeps} sweeps, {wall:.2f} s",
        "verdict_ms_p50": f"n={len(gaps_ms)}",
        "verdict_ms_p90": f"n={len(gaps_ms)}, {beyond} beyond",
        "decided_ratio": f"{cells - failed}/{cells}",
        "peak_rss_mb": "parent and pool workers",
        "setup_s": f"median of {len(cold_starts)} cold starts",
    }
    for name, unit in UNITS.items():
        print(f"  {name:<16s} {metrics[name]:>10.4f} {unit:<5s} ({samples[name]})")
    return cells, failed, {name: {"value": metrics[name], "unit": unit}
                           for name, unit in UNITS.items()}


def traced(workload: Workload, seconds: float, trace_path: str):
    """Per-layer metrics; returns (attempted, failed, metrics)."""
    layers = tracing.LayerTrace()
    attempted = failed = iterations = 0
    walls = {"plain": 0.0, "traced": 0.0}
    overheads_ms = []
    traced_cells = ([], [])
    start = time.perf_counter()
    while iterations == 0 or time.perf_counter() - start < seconds:
        # the three sweeps of an iteration run the same cells
        index = iterations
        iterations += 1
        caches = {kind: workload.make_cache(index)
                  for kind in ("isolated", "plain", "traced")}
        with layers.parent_layers():
            iso = workload.sweep(index, isolate=True, cache=caches["isolated"])
        # the first in-process sweep of a run pays one-time warm-up, as each
        # isolated sweep's fresh worker does; the traced sweep takes it
        # first (so a one-iteration overhead errs high), then they alternate
        order = ("traced", "plain") if iterations % 2 else ("plain", "traced")
        runs = {}
        for kind in order:
            if kind == "traced":
                with layers.compute_layers():
                    runs[kind] = workload.sweep(index, isolate=False,
                                                cache=caches[kind])
            else:
                runs[kind] = workload.sweep(index, isolate=False,
                                            cache=caches[kind])
            walls[kind] += runs[kind].wall
        plain, inproc = runs["plain"], runs["traced"]
        overheads_ms += [1000.0 * (a - b) for a, b in
                         zip(iso.gap_by_index, plain.gap_by_index)]
        traced_cells[0].extend(inproc.labels)
        traced_cells[1].extend(inproc.measurements)
        disagree = [
            None if a.verdict == b.verdict
            else f"isolated {a.verdict}, in-process {b.verdict}"
            for a, b in zip(iso.measurements, inproc.measurements)
        ]
        for sweep in (iso, plain, inproc):
            attempted += sweep.cells
            failed += report_problems(sweep.labels, sweep.problems)
        failed += report_problems(iso.labels, disagree)

    metrics = layers.metrics(iterations, *traced_cells)
    metrics["pool.overhead_ms_per_cell"] = statistics.median(overheads_ms)
    metrics["trace.overhead_ratio"] = walls["traced"] / walls["plain"] - 1.0
    print(f"  {iterations} iteration(s): isolated sweep with cache/pool spans, "
          f"in-process sweep {walls['plain']:.2f} s untraced and "
          f"{walls['traced']:.2f} s traced "
          f"(tracing overhead {100 * metrics['trace.overhead_ratio']:+.1f}%)")
    for name in sorted(metrics):
        print(f"  {name:<28s} {metrics[name]:>14.4f} {tracing.unit_of(name)}")

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "spans": [s.to_dict() for s in layers.tracer.spans]}, fh)
        fh.write("\n")
    print(f"  {len(layers.tracer.spans)} spans written to "
          f"{os.path.relpath(trace_path, ROOT)}")
    return attempted, failed, {name: {"value": value, "unit": tracing.unit_of(name)}
                               for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep sweeping")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        print(f"{args.workload} seed {args.seed}, "
              f"{'traced' if args.trace else 'end to end'}:", flush=True)
        workload = Workload(args.workload, args.seed, scratch)
        if args.trace:
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-s{args.seed}.json")
            attempted, failed, metrics = traced(workload, args.seconds,
                                                trace_path)
        else:
            attempted, failed, metrics = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
