#!/usr/bin/env python3
"""Figure 2 in detail: conventional retiming, formal retiming, verification.

Reproduces the paper's running example at a chosen bit width and shows every
artefact of the flow side by side:

* the Leiserson–Saxe view (retiming graph, clock period before/after, lags),
* the conventional netlist transformation and its new initial values,
* the HASH formal step (the four sub-steps with their timings),
* all four post-synthesis verifiers run on the conventional result, timed —
  a single row of Table I plus the van Eijk columns of Table II.

Run:  python examples/figure2_retiming.py [bit-width] [--budget SECONDS]
"""

import argparse

from repro.circuits.generators import figure2, figure2_cut
from repro.formal import formal_forward_retiming
from repro.retiming import graph_from_netlist, lags_from_cut, min_period_retiming
from repro.retiming.apply import apply_forward_retiming
from repro.verification import get_checker, run_checker


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("width", nargs="?", type=int, default=6)
    parser.add_argument("--budget", type=float, default=30.0)
    args = parser.parse_args()

    circuit = figure2(args.width)
    cut = figure2_cut()
    print(f"Figure-2 example, n = {args.width}")
    print(f"  cells: {sorted(circuit.cells)}")
    print(f"  registers: { {r: circuit.registers[r].init for r in circuit.registers} }")

    graph = graph_from_netlist(circuit)
    period_before = graph.clock_period()
    best_period, best_lags = min_period_retiming(graph)
    print("\nLeiserson-Saxe view:")
    print(f"  clock period before retiming : {period_before}")
    print(f"  minimum achievable period    : {best_period}")
    print(f"  min-period lags              : "
          f"{ {v: l for v, l in best_lags.items() if l} or 'none needed'}")
    print(f"  forward cut as lags          : "
          f"{ {v: l for v, l in lags_from_cut(circuit, cut).items() if l} }")

    retimed = apply_forward_retiming(circuit, cut)
    print("\nConventional retiming:")
    print(f"  registers after retiming: "
          f"{ {r: retimed.registers[r].init for r in retimed.registers} }")
    print(f"  clock period after retiming: {graph_from_netlist(retimed).clock_period()}")

    print("\nHASH formal retiming:")
    result = formal_forward_retiming(circuit, cut)
    for key in ("split_seconds", "apply_theorem_seconds", "join_seconds",
                "init_eval_seconds", "total_seconds"):
        print(f"  {key:22s}: {result.stats[key]:.4f} s")
    print(f"  new initial state f(q)  : {result.new_init_value!r}")

    print("\nPost-synthesis verification of the conventional result")
    print("(every backend dispatched through the registry):")
    for method in ("sis", "smv", "eijk", "eijk+", "match"):
        checker = get_checker(method)
        verdict = run_checker(method, circuit, retimed, time_budget=args.budget)
        kind = "synthesis" if checker.needs_cut else "verifier"
        print(f"  {checker.name:8s} [{kind}]: {verdict.status:14s} "
              f"{verdict.seconds:8.3f} s  "
              f"{ {k: round(v, 3) for k, v in sorted(verdict.stats.items()) if k != 'wall_seconds'} }")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
