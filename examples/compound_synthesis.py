#!/usr/bin/env python3
"""Compound formal synthesis: chaining steps with transitivity (Section III.A).

The paper argues that formal synthesis steps compose at constant cost: if one
step yields ``|- a = b`` and the next ``|- b = c``, a single transitivity
inference yields ``|- a = c``, so specialised steps can be freely combined —
something the specialised *verification* techniques cannot do.

This example runs a two-stage flow on a pipelined multiplier:

1. formally retime the pipeline register across the output shifter,
2. bridge the produced description back to the conventionally retimed
   netlist, retime again across the multiplier itself, and
3. tidy the final description (the stand-in for a follow-up logic
   minimisation step),

then composes all theorems into a single correctness theorem for the whole
flow and prints its certificate.

Run:  python examples/compound_synthesis.py [bit-width]
"""

import sys

from repro.circuits.generators import fractional_multiplier
from repro.circuits.generators.multiplier import multiplier_retiming_cut
from repro.circuits.simulate import outputs_equal
from repro.formal import certificate_for, compose, retiming_step, tidy_step
from repro.formal.hash_core import bridge_retiming_result
from repro.retiming.apply import apply_forward_retiming


def main() -> int:
    width = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    circuit = fractional_multiplier(width)
    print(f"Fractional multiplier, {width} bit "
          f"({circuit.num_gates()} cells, {circuit.num_flipflops()} flip-flop bits)")

    print("\nStep 1: formal retiming across the output shifter")
    step1 = retiming_step(circuit, multiplier_retiming_cut())
    result1 = step1.artifacts["result"]
    print(f"  {step1.name}: {step1.seconds:.3f} s, {step1.detail}")

    print("Step 2: bridge the description to the conventionally retimed netlist")
    bridge = bridge_retiming_result(result1)
    print(f"  {bridge.name}: {bridge.seconds:.3f} s ({bridge.detail})")

    print("Step 3: formal retiming across the multiplier")
    retimed1 = apply_forward_retiming(circuit, result1.cut)
    step2 = retiming_step(retimed1, ["mult"])
    result2 = step2.artifacts["result"]
    print(f"  {step2.name}: {step2.seconds:.3f} s, {step2.detail}")

    print("Step 4: tidy the final description (logic-minimisation stand-in)")
    step3 = tidy_step(result2.retimed_term)
    print(f"  {step3.name}: {step3.seconds:.3f} s ({step3.detail})")

    print("\nComposing all steps with transitivity ...")
    compound = compose([step1, bridge, step2, step3], name="retime+retime+tidy")
    print(f"  compound theorem spans: {compound.detail}")

    final_netlist = apply_forward_retiming(retimed1, result2.cut)
    print("\nCross-check: original vs final netlist on random stimuli:",
          outputs_equal(circuit, final_netlist, cycles=200))

    cert = certificate_for(compound.theorem, seconds=compound.seconds)
    print("\nCertificate of the whole flow:")
    for line in cert.render().splitlines()[:7]:
        print("  " + line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
