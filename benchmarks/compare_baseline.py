"""Compare a benchmark run's deterministic counters against the committed baseline.

Usage::

    python benchmarks/compare_baseline.py BENCH_baseline.json BENCH_ci.json

Both files are pytest-benchmark JSON records; the quantities compared are
the deterministic cost counters each benchmark stores in ``extra_info`` —
``kernel_steps`` (kernel inferences), ``peak_nodes`` and ``ite_calls``
(BDD engine work), ``aig_nodes`` (shared-IR size), ``gate_cells``
(pattern-matched emission size), ``decisions`` / ``solver_calls`` /
``restarts`` (SAT search effort and incremental-solver reuse),
``cache_hits`` / ``cache_misses`` (result-cache effectiveness) and
``faults_injected`` / ``faults_detected`` / ``cex_certified`` / ``retries``
(fuzz-oracle coverage and runner resilience) and ``shards`` (intra-cell
sharding accounting).  All are
machine-independent, unlike wall-clock times,
so the comparison is stable across CI runners.  The script exits non-zero
when

* any counter of a benchmark present in both files regresses by more than
  ``--tolerance`` (default 10%), or
* a tracked counter appears in the run but has no baseline entry — a newly
  added counter must be baselined deliberately (``--rebaseline``) rather
  than slip through unguarded; pass ``--allow-new`` to downgrade this to a
  report (e.g. while a baseline refresh is in flight).

Benchmarks missing from the run and benchmarks without tracked counters are
reported but never fail the run.

Regenerate the baseline after an intentional perf change with::

    python -m pytest benchmarks -q --benchmark-json=BENCH_new.json
    python benchmarks/compare_baseline.py --rebaseline BENCH_new.json BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
from typing import Dict

#: the deterministic counters guarded against regressions
TRACKED_COUNTERS = ("kernel_steps", "peak_nodes", "ite_calls",
                    "aig_nodes", "gate_cells", "decisions", "solver_calls",
                    "restarts",
                    "cache_hits", "cache_misses",
                    "faults_injected", "faults_detected", "cex_certified",
                    "retries", "shards")


def load_counters(path: str) -> Dict[str, Dict[str, int]]:
    """``{benchmark name: {counter: value}}`` for every tracked counter."""
    with open(path) as fh:
        record = json.load(fh)
    out: Dict[str, Dict[str, int]] = {}
    for bench in record.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        counters = {
            name: int(extra[name]) for name in TRACKED_COUNTERS if name in extra
        }
        if counters:
            out[bench["name"]] = counters
    return out


def rebaseline(run_path: str, baseline_path: str) -> int:
    """Strip a full benchmark record down to the committed baseline shape."""
    with open(run_path) as fh:
        record = json.load(fh)
    benches = []
    for b in record.get("benchmarks", []):
        extra = b.get("extra_info", {})
        counters = {
            name: int(extra[name]) for name in TRACKED_COUNTERS if name in extra
        }
        if counters:
            benches.append({"name": b["name"], "extra_info": counters})
    benches.sort(key=lambda b: b["name"])
    with open(baseline_path, "w") as fh:
        json.dump({"benchmarks": benches}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {baseline_path} with {len(benches)} counter baselines")
    return 0


def compare(baseline_path: str, run_path: str, tolerance: float,
            allow_new: bool = False) -> int:
    baseline = load_counters(baseline_path)
    current = load_counters(run_path)
    if not baseline:
        print(f"error: no tracked counters in baseline {baseline_path}")
        return 2

    failures = []
    unbaselined = []
    for name in sorted(baseline):
        if name not in current:
            print(f"  [missing ] {name}: in baseline but not in this run")
            continue
        for counter in TRACKED_COUNTERS:
            if counter not in baseline[name]:
                if counter in current[name]:
                    print(f"  [NO BASE  ] {name}/{counter}: "
                          f"{current[name][counter]} has no baseline entry")
                    unbaselined.append((name, counter, current[name][counter]))
                continue
            old = baseline[name][counter]
            if counter not in current[name]:
                print(f"  [missing ] {name}/{counter}: not recorded in this run")
                continue
            new = current[name][counter]
            change = (new - old) / old if old else 0.0
            marker = "ok"
            if new > old * (1.0 + tolerance):
                marker = "REGRESSED"
                failures.append((f"{name}/{counter}", old, new))
            elif new < old:
                marker = "improved"
            print(f"  [{marker:9s}] {name}/{counter}: {old} -> {new} ({change:+.1%})")
    for name in sorted(set(current) - set(baseline)):
        for counter, value in sorted(current[name].items()):
            print(f"  [NO BASE  ] {name}/{counter}: {value} has no baseline entry")
            unbaselined.append((name, counter, value))

    status = 0
    if unbaselined:
        if allow_new:
            print(f"\nnote: {len(unbaselined)} unbaselined counter(s) "
                  f"allowed by --allow-new")
        else:
            print(f"\nFAIL: {len(unbaselined)} tracked counter(s) have no "
                  f"baseline entry; every tracked counter must be baselined "
                  f"deliberately:")
            for name, counter, value in unbaselined:
                print(f"  {name}/{counter} = {value} — regenerate the baseline "
                      f"(compare_baseline.py --rebaseline) or pass --allow-new")
            status = 1
    if failures:
        print(
            f"\nFAIL: {len(failures)} counter(s) exceed the baseline "
            f"by more than {tolerance:.0%}:"
        )
        for name, old, new in failures:
            print(f"  {name}: {old} -> {new}")
        status = 1
    if status == 0:
        print(f"\nOK: deterministic counters within {tolerance:.0%} of the baseline")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (or the run, with --rebaseline)")
    parser.add_argument("run", help="fresh benchmark JSON (or the baseline target, with --rebaseline)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional counter increase (default 0.10)")
    parser.add_argument("--allow-new", action="store_true",
                        help="report (rather than fail on) tracked counters "
                             "that have no baseline entry yet")
    parser.add_argument("--rebaseline", action="store_true",
                        help="write a new baseline from the run instead of comparing")
    args = parser.parse_args(argv)
    if args.rebaseline:
        return rebaseline(args.baseline, args.run)
    return compare(args.baseline, args.run, args.tolerance,
                   allow_new=args.allow_new)


if __name__ == "__main__":
    raise SystemExit(main())
