"""Steadiness check: repeat every workload and compare two sets of runs.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs ``run.py --trace 0`` on each workload ``--runs`` times per set, each
run with its own seed (set ``k`` uses seeds ``first + k*runs ...``;
workloads interleave so drift on the machine spreads over all of them).
For every end-to-end metric it prints each set's first quartile, median
and third quartile and the spread (interquartile distance over the
median), and checks the bounds in ``BENCHMARK.json``:

* ``spread``: each set's spread is within the metric's bound; ``steady``
  marks a spread under a third of the bound;
* ``agree``: no set's median is worse than the first set's by more than
  the bound.

Exits 1 if a check fails or a run fails.  The raw values go to
``.benchmarks/perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from measure import quartiles, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".benchmarks", "perfbench", "steady.json")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def worse_by(metric: dict, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config["workloads"]])
    # values[workload][set][metric] -> list of values
    values = {w: [{} for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            for workload in workloads:
                got = run_once(workload, seed, config["run_seconds"])
                for name, value in got.items():
                    values[workload][k].setdefault(name, []).append(value)
                print(f"set {k} seed {seed} {workload}: " + ", ".join(
                    f"{n}={v:.4g}" for n, v in got.items()), flush=True)

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<16s} {'set':>3s} {'q1':>10s} {'median':>10s} "
              f"{'q3':>10s} {'spread':>7s} {'bound':>6s}  checks")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = quartiles(values[workload][0][name])[1]
            for k in range(args.sets):
                series = values[workload][k][name]
                q1, median, q3 = quartiles(series)
                width = spread(series)
                checks = ["spread ok" if width <= bound else "SPREAD"]
                ok &= width <= bound
                if width < bound / 3:
                    checks.append("steady")
                if k:
                    agree = worse_by(metric, base, median) <= bound
                    checks.append("agree" if agree else "DISAGREE")
                    ok &= agree
                print(f"  {name:<16s} {k:>3d} {q1:>10.4f} {median:>10.4f} "
                      f"{q3:>10.4f} {width:>7.3f} {bound:>6.2f}  "
                      + ", ".join(checks))
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(values, fh, indent=1)
        fh.write("\n")
    print(f"\n{'all checks pass' if ok else 'CHECKS FAILED'}; "
          f"values in {os.path.relpath(OUT, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
