#!/usr/bin/env python3
"""Quickstart: formally retime the paper's Figure-2 example.

This walks through the public API end to end:

1. build the scalable Figure-2 circuit (comparator + incrementer + MUX),
2. pick the cut of Figure 3 (``f`` = the incrementer),
3. run the HASH formal retiming procedure, which returns a *theorem*
   ``|- automaton(original) = automaton(retimed)``,
4. cross-check the result against the conventional retiming engine and the
   cycle simulator, and
5. print the synthesis certificate (proof size, rules used, trusted base).

Run:  python examples/quickstart.py [bit-width]
"""

import sys

from repro.circuits.generators import figure2, figure2_cut
from repro.circuits.simulate import outputs_equal
from repro.formal import certificate_for, formal_forward_retiming
from repro.retiming.apply import apply_forward_retiming
from repro.verification import retiming_verify


def main() -> int:
    width = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    print(f"Building the Figure-2 example with {width}-bit datapath ...")
    circuit = figure2(width)
    print(f"  {circuit.num_gates()} combinational cells, "
          f"{circuit.num_flipflops()} flip-flop bits")

    cut = figure2_cut()
    print(f"Retiming cut (the block f): {cut}")

    print("\nRunning the HASH formal retiming procedure ...")
    result = formal_forward_retiming(circuit, cut)
    print(f"  derived theorem in {result.stats['total_seconds']:.3f} s "
          f"({int(result.stats['kernel_steps'])} kernel inferences)")
    print(f"  new initial state f(q) = {result.new_init_value!r}")

    print("\nThe correctness theorem (truncated):")
    text = str(result.theorem)
    print("  " + (text[:200] + " ..." if len(text) > 200 else text))

    print("\nCross-checks against the conventional engine's output on the same cut:")
    retimed = apply_forward_retiming(circuit, result.cut)
    sim_ok = outputs_equal(circuit, retimed, cycles=256)
    match = retiming_verify.check_equivalence(circuit, retimed)
    print(f"  cycle simulation agrees on random stimuli : {sim_ok}")
    print(f"  structural retiming verifier              : {match.status}")

    print("\nSynthesis certificate:")
    cert = certificate_for(result.theorem, seconds=result.stats["total_seconds"])
    for line in cert.render().splitlines()[:8]:
        print("  " + line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
