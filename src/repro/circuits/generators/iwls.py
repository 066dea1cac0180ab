"""Synthetic stand-ins for the IWLS'91 sequential benchmark suite (Table II).

The paper evaluates on ten sequential circuits from the IWLS'91 benchmark
set, reporting per-circuit flip-flop and gate counts and noting that three of
them are "fractional multipliers" with bit widths 8, 16 and 32.  The original
netlists are not redistributable, so this module generates *synthetic
stand-ins*:

* the three multiplier rows are real parametric serial multipliers
  (:func:`repro.circuits.generators.multiplier.fractional_multiplier`) at the
  published bit widths;
* every other row is a seeded random control circuit
  (:func:`repro.circuits.generators.random_seq.random_sequential_circuit`)
  sized to the canonical ISCAS'89/IWLS'91 flip-flop and gate counts.

The drivers of verification cost (number of state bits, combinational size,
multiplier structure) therefore match the paper's workloads, which is what
Table II's *shape* depends on; see README.md, "What this reproduction
substitutes".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netlist import Netlist
from .multiplier import fractional_multiplier
from .random_seq import random_sequential_circuit


@dataclass(frozen=True)
class BenchmarkSpec:
    """Size parameters of one Table-II row."""

    name: str
    flipflops: int
    gates: int
    #: non-None for the fractional-multiplier rows: data bit width
    multiplier_width: Optional[int] = None
    #: seed for the random generator (ignored for multipliers)
    seed: int = 0
    inputs: int = 8


#: The ten Table-II benchmarks.  Flip-flop/gate counts follow the canonical
#: ISCAS'89/IWLS'91 figures; the three multiplier rows use the bit widths the
#: paper names (8, 16, 32).
IWLS_BENCHMARKS: List[BenchmarkSpec] = [
    BenchmarkSpec("s344", 15, 160, seed=344, inputs=9),
    BenchmarkSpec("s382", 21, 158, seed=382, inputs=3),
    BenchmarkSpec("s526", 21, 193, multiplier_width=8),
    BenchmarkSpec("s641", 19, 379, seed=641, inputs=35),
    BenchmarkSpec("s713", 19, 393, seed=713, inputs=35),
    BenchmarkSpec("s820", 5, 289, seed=820, inputs=18),
    BenchmarkSpec("s1196", 18, 529, seed=1196, inputs=14),
    BenchmarkSpec("s1238", 18, 508, seed=1238, inputs=14),
    BenchmarkSpec("s1423", 74, 657, multiplier_width=16),
    BenchmarkSpec("s5378", 179, 2779, multiplier_width=32),
]


_SPECS_BY_NAME: Dict[str, BenchmarkSpec] = {spec.name: spec for spec in IWLS_BENCHMARKS}


def benchmark_spec(name: str) -> BenchmarkSpec:
    try:
        return _SPECS_BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown IWLS benchmark {name!r}; known: {sorted(_SPECS_BY_NAME)}"
        ) from None


def iwls_circuit(name: str, scale: float = 1.0) -> Netlist:
    """Build the synthetic stand-in for one Table-II benchmark.

    ``scale`` uniformly scales the flip-flop and gate counts (used by the
    fast test-suite configuration; the benchmark harness uses 1.0).
    """
    spec = benchmark_spec(name)
    if spec.multiplier_width is not None:
        width = max(2, int(round(spec.multiplier_width * scale)))
        nl = fractional_multiplier(width, name=f"{name}_fracmul{width}")
        return nl
    n_ffs = max(2, int(round(spec.flipflops * scale)))
    n_gates = max(4, int(round(spec.gates * scale)))
    n_inputs = max(2, int(round(spec.inputs * min(scale, 1.0))))
    return random_sequential_circuit(
        n_inputs=n_inputs,
        n_flipflops=n_ffs,
        n_gates=n_gates,
        n_outputs=min(6, n_gates),
        seed=spec.seed,
        name=name,
    )
