"""Workload generators.

Each module builds :class:`~repro.circuits.netlist.Netlist` instances used by
the examples, the tests and the benchmark harness:

* :mod:`repro.circuits.generators.figure2` — the scalable n-bit example of
  the paper's Figure 2 (comparator + incrementer + multiplexer, two
  registers), used for Table I;
* :mod:`repro.circuits.generators.counters` — simple counters and shift
  registers used by unit tests;
* :mod:`repro.circuits.generators.multiplier` — sequential (fractional)
  multipliers of parametric bit width, the family behind the hardest rows of
  Table II;
* :mod:`repro.circuits.generators.random_seq` — reproducible random
  control-logic circuits;
* :mod:`repro.circuits.generators.iwls` — synthetic stand-ins for the
  IWLS'91 benchmark suite with the flip-flop/gate counts published in
  Table II (see README.md, "What this reproduction substitutes", for the
  substitution argument).
"""

from .figure2 import figure2, figure2_retimed, figure2_cut, figure2_false_cut
from .counters import counter, shift_register, gray_counter
from .multiplier import fractional_multiplier
from .random_seq import random_sequential_circuit
from .iwls import IWLS_BENCHMARKS, iwls_circuit

__all__ = [
    "figure2",
    "figure2_retimed",
    "figure2_cut",
    "figure2_false_cut",
    "counter",
    "shift_register",
    "gray_counter",
    "fractional_multiplier",
    "random_sequential_circuit",
    "IWLS_BENCHMARKS",
    "iwls_circuit",
]
