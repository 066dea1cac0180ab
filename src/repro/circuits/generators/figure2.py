"""The scalable retiming example of the paper's Figure 2.

The paper's example is an n-bit RT-level circuit with three combinational
components — a comparator, an incrementer and a multiplexer — and two
registers; retiming moves one register across the incrementer, which changes
its initial value from ``q`` to ``q + 1`` (the ``f(q)`` of the universal
retiming theorem).  The circuit is scalable in the data bit-width ``n`` and
is the workload of Table I.

Concrete structure used by this reproduction (the published figure is a
schematic; the exact wiring is documented here, as README.md, "What this
reproduction substitutes" says):

* inputs ``a``, ``b`` (n bit), output ``y`` (n bit);
* registers ``D0`` (output register, init 0) and ``D1`` (counter register,
  init 0);
* combinational part::

      sel = (a == b)            -- comparator
      inc = D1 + 1              -- incrementer (the block f)
      m   = sel ? inc : D0      -- multiplexer
      D0' = m,  D1' = m,  y = D0

  i.e. a conditional counter: when the two inputs agree the circuit counts,
  otherwise it holds.  ``D1`` feeds only the incrementer, so the incrementer
  is a legal forward-retiming block; the registers-only reachable state set
  grows one state per step, which is what makes the model-checking baselines
  blow up exponentially with ``n`` exactly as in Table I.

:func:`figure2_retimed` is the hand-retimed reference (register moved across
the incrementer, initial value 1); the formal and conventional retiming
engines must both reproduce it up to naming.
"""

from __future__ import annotations

from typing import List

from ..netlist import Netlist


def figure2(n: int, name: str = None) -> Netlist:
    """The original (un-retimed) Figure-2 circuit with data width ``n``."""
    if n < 1:
        raise ValueError("figure2: bit width must be >= 1")
    nl = Netlist(name or f"figure2_{n}bit")
    nl.add_input("a", n)
    nl.add_input("b", n)
    # registers (outputs declared first so cells can reference them)
    nl.add_net("m", n)
    nl.add_register("D0", "m", "d0_out", init=0, width=n)
    nl.add_register("D1", "m", "d1_out", init=0, width=n)
    # combinational part
    nl.add_cell("cmp", "EQ", ["a", "b"], "sel")
    nl.add_cell("inc", "INC", ["d1_out"], "inc_out")
    nl.add_cell("mux", "MUX", ["sel", "inc_out", "d0_out"], "m")
    nl.add_cell("outbuf", "BUF", ["d0_out"], "y")
    nl.add_output("y", n)
    nl.validate()
    return nl


def figure2_retimed(n: int, name: str = None) -> Netlist:
    """The Figure-2 circuit after forward retiming across the incrementer.

    Register ``D1`` has been moved from the input of the incrementer to its
    output; its initial value becomes ``f(q) = 0 + 1 = 1`` and the
    incrementer is now recomputed at the register input (``m + 1``).
    """
    if n < 1:
        raise ValueError("figure2_retimed: bit width must be >= 1")
    nl = Netlist(name or f"figure2_{n}bit_retimed")
    nl.add_input("a", n)
    nl.add_input("b", n)
    nl.add_net("m", n)
    nl.add_register("D0", "m", "d0_out", init=0, width=n)
    nl.add_cell("inc", "INC", ["m"], "inc_out")
    nl.add_register("D1", "inc_out", "e_out", init=1, width=n)
    nl.add_cell("cmp", "EQ", ["a", "b"], "sel")
    nl.add_cell("mux", "MUX", ["sel", "e_out", "d0_out"], "m")
    nl.add_cell("outbuf", "BUF", ["d0_out"], "y")
    nl.add_output("y", n)
    nl.validate()
    return nl


def figure2_cut(netlist: Netlist = None) -> List[str]:
    """The legal cut of Figure 3: ``f`` consists of the incrementer only."""
    return ["inc"]


def figure2_false_cut(netlist: Netlist = None) -> List[str]:
    """The false cut of Figure 4: ``f`` = comparator + multiplexer.

    Both cells depend on primary inputs, so they cannot be expressed as a
    function of the state alone; the formal retiming procedure must fail on
    this cut (and the conventional engine must reject it as well).
    """
    return ["cmp", "mux"]
