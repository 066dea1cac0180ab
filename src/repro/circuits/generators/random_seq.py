"""Reproducible random sequential control circuits.

These act as stand-ins for the IWLS'91 control-dominated benchmarks: 1-bit
registers plus a random, acyclic gate-level combinational cloud.  The
generator is seeded and fully deterministic so that Table II can be
regenerated byte-for-byte.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..netlist import Netlist

_GATE_TYPES = ["AND", "OR", "XOR", "NAND", "NOR", "XNOR"]


def random_sequential_circuit(
    n_inputs: int,
    n_flipflops: int,
    n_gates: int,
    n_outputs: int = 4,
    seed: int = 0,
    name: Optional[str] = None,
    inverter_fraction: float = 0.15,
) -> Netlist:
    """Generate a random gate-level sequential circuit.

    The combinational part is a DAG over the primary inputs and register
    outputs; register inputs and primary outputs are drawn from the deepest
    gate outputs so the state actually depends on the logic.  All registers
    are 1 bit wide with initial value 0 or 1 (seeded).
    """
    if n_inputs < 1 or n_flipflops < 1 or n_gates < 2:
        raise ValueError("random_sequential_circuit: need >=1 input/ff and >=2 gates")
    rng = random.Random(seed)
    nl = Netlist(name or f"rand_i{n_inputs}_f{n_flipflops}_g{n_gates}_s{seed}")

    sources: List[str] = []
    for i in range(n_inputs):
        nl.add_input(f"pi{i}", 1)
        sources.append(f"pi{i}")

    # register output nets exist before the gates; inputs are wired afterwards
    reg_outputs = []
    for i in range(n_flipflops):
        out = f"q{i}"
        nl.add_net(out, 1)
        reg_outputs.append(out)
        sources.append(out)

    gate_outputs: List[str] = []
    available = list(sources)
    # The first few gates draw only from register outputs so that the circuit
    # always contains forward-retimable cells (inputs entirely state-driven).
    state_only_gates = max(1, min(n_flipflops, n_gates // 4))
    for i in range(n_gates):
        out = f"n{i}"
        pool = reg_outputs if i < state_only_gates else available
        if rng.random() < inverter_fraction:
            a = rng.choice(pool)
            nl.add_cell(f"g{i}", "NOT", [a], out)
        else:
            gtype = rng.choice(_GATE_TYPES)
            a = rng.choice(pool)
            b = rng.choice(pool)
            nl.add_cell(f"g{i}", gtype, [a, b], out)
        gate_outputs.append(out)
        available.append(out)

    # register inputs: bias towards late gates so next-state logic is deep
    deep = gate_outputs[len(gate_outputs) // 2:] or gate_outputs
    for i, out in enumerate(reg_outputs):
        src = rng.choice(deep)
        nl.add_register(f"ff{i}", src, out, init=rng.randint(0, 1), width=1)

    # primary outputs
    n_outputs = min(n_outputs, len(gate_outputs))
    chosen = rng.sample(gate_outputs, n_outputs)
    for i, net in enumerate(chosen):
        nl.add_cell(f"ob{i}", "BUF", [net], f"po{i}")
        nl.add_output(f"po{i}", 1)

    nl.validate()
    return nl
