#!/usr/bin/env python3
"""The faulty-heuristic experiment (Section IV.C, Figure 4).

The cut that drives the retiming step is pure control information produced
by an *untrusted* heuristic.  The paper's point is that a wrong cut can make
the derivation fail but can never yield an incorrect theorem.  This example
demonstrates both sides:

* the legal cut of Figure 3 (``f`` = incrementer) succeeds;
* the false cut of Figure 4 (``f`` = comparator + multiplexer, which depends
  on the primary inputs) makes the formal procedure raise
  ``FormalSynthesisError`` — and the conventional engine rejects it too;
* a deliberately *corrupted* "retimed" circuit (wrong initial value) is
  shown to be caught by post-synthesis verifiers — ``match`` and ``smv``
  refute it, while ``eijk``'s induction cannot close and reports ``error``
  (inconclusive, with no witness to give) — illustrating what the formal
  approach renders unnecessary.

Run:  python examples/faulty_heuristic.py
"""

from repro.circuits.generators import figure2, figure2_cut, figure2_false_cut, figure2_retimed
from repro.circuits.netlist import Register
from repro.formal import FormalSynthesisError, formal_forward_retiming
from repro.retiming.apply import RetimingApplyError, apply_forward_retiming
from repro.verification import run_checker


def main() -> int:
    circuit = figure2(6)

    print("1) legal cut (Figure 3):", figure2_cut())
    result = formal_forward_retiming(circuit, figure2_cut())
    print(f"   theorem derived, new initial state = {result.new_init_value!r}")

    print("\n2) false cut (Figure 4):", figure2_false_cut())
    try:
        formal_forward_retiming(circuit, figure2_false_cut())
        print("   !!! a theorem was produced — this must never happen")
        return 1
    except FormalSynthesisError as exc:
        print(f"   formal procedure failed as required:\n      {exc}")
    try:
        apply_forward_retiming(circuit, figure2_false_cut())
    except RetimingApplyError as exc:
        print(f"   conventional engine also rejects the cut:\n      {exc}")

    print("\n3) a buggy conventional result (wrong initial value) and what it"
          " takes to catch it:")
    broken = figure2_retimed(6)
    d1 = broken.registers["D1"]
    broken.registers["D1"] = Register(d1.name, d1.input, d1.output, init=0, width=d1.width)
    for method in ("match", "smv", "eijk"):
        verdict = run_checker(method, circuit, broken, time_budget=60)
        print(f"   {method:28s}: {verdict.status}  ({verdict.seconds:.2f} s)")
    print("\n   With HASH this post-synthesis verification step is not needed:")
    print("   the faulty transformation could not have produced a theorem at all.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
