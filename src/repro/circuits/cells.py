"""The combinational cell library.

Every combinational component that can appear in a :class:`~repro.circuits.netlist.Netlist`
is an instance of a :class:`CellType`.  A cell type knows

* how many inputs it takes and how the output width is derived from the
  input widths (``width_rule``),
* how to *evaluate* the cell on concrete integer values (used by the cycle
  simulator and, indirectly, by the paper's step-4 initial-state
  evaluation),
* which standard-library logic constant realises it in the HOL embedding
  (used by :mod:`repro.formal.embed`), and
* how to decompose into 1-bit gates (used by :mod:`repro.circuits.bitblast`
  for the bit-level verification baselines).

The library covers both the RT-level components of the paper's Figure 2
(incrementer, comparator, multiplexer) and ordinary gate-level cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence


class CellError(Exception):
    """Raised for unknown cells or arity/width violations."""


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class CellType:
    """A combinational cell kind."""

    name: str
    #: number of data inputs (excluding parameters)
    arity: int
    #: "same" (output width = input width), "bit" (1-bit output), or "const"
    width_rule: str
    #: evaluator: (width, [input values], params) -> output value
    evaluate: Callable[[int, Sequence[int], Dict], int]
    #: description for documentation
    doc: str = ""

    def output_width(self, input_widths: Sequence[int], params: Dict) -> int:
        if self.width_rule == "bit":
            return 1
        if self.width_rule == "const":
            return int(params.get("width", 1))
        if self.width_rule == "same":
            widths = [w for w in input_widths]
            if self.name == "MUX":
                widths = widths[1:]
            if not widths:
                raise CellError(f"{self.name}: no inputs to derive width from")
            if len(set(widths)) != 1:
                raise CellError(
                    f"{self.name}: mismatched input widths {input_widths}"
                )
            return widths[0]
        raise CellError(f"unknown width rule {self.width_rule}")


def _bitwise(op: Callable[[int, int], int]):
    def ev(width: int, ins: Sequence[int], params: Dict) -> int:
        out = ins[0]
        for v in ins[1:]:
            out = op(out, v)
        return out & _mask(width)

    return ev


_LIBRARY: Dict[str, CellType] = {}


def _register(ct: CellType) -> CellType:
    _LIBRARY[ct.name] = ct
    return ct


# -- buffers / inverters -------------------------------------------------------
_register(CellType(
    "BUF", 1, "same",
    lambda w, ins, p: ins[0] & _mask(w),
    doc="identity buffer"))
_register(CellType(
    "NOT", 1, "same",
    lambda w, ins, p: (~ins[0]) & _mask(w),
    doc="bitwise complement"))

# -- two-input bitwise gates ---------------------------------------------------
_register(CellType(
    "AND", 2, "same", _bitwise(lambda a, b: a & b),
    doc="bitwise and"))
_register(CellType(
    "OR", 2, "same", _bitwise(lambda a, b: a | b),
    doc="bitwise or"))
_register(CellType(
    "XOR", 2, "same", _bitwise(lambda a, b: a ^ b),
    doc="bitwise xor"))
_register(CellType(
    "NAND", 2, "same",
    lambda w, ins, p: (~(ins[0] & ins[1])) & _mask(w),
    doc="bitwise nand"))
_register(CellType(
    "NOR", 2, "same",
    lambda w, ins, p: (~(ins[0] | ins[1])) & _mask(w),
    doc="bitwise nor"))
_register(CellType(
    "XNOR", 2, "same",
    lambda w, ins, p: (~(ins[0] ^ ins[1])) & _mask(w),
    doc="bitwise xnor"))

# -- arithmetic ---------------------------------------------------------------
_register(CellType(
    "INC", 1, "same",
    lambda w, ins, p: (ins[0] + 1) & _mask(w),
    doc="incrementer (+1 mod 2^w)"))
_register(CellType(
    "DEC", 1, "same",
    lambda w, ins, p: (ins[0] - 1) & _mask(w),
    doc="decrementer (-1 mod 2^w)"))
_register(CellType(
    "ADD", 2, "same",
    lambda w, ins, p: (ins[0] + ins[1]) & _mask(w),
    doc="adder mod 2^w"))
_register(CellType(
    "SUB", 2, "same",
    lambda w, ins, p: (ins[0] - ins[1]) & _mask(w),
    doc="subtractor mod 2^w"))
_register(CellType(
    "MUL", 2, "same",
    lambda w, ins, p: (ins[0] * ins[1]) & _mask(w),
    doc="multiplier mod 2^w"))
_register(CellType(
    "SHL1", 1, "same",
    lambda w, ins, p: (ins[0] << 1) & _mask(w),
    doc="shift left by one"))
_register(CellType(
    "SHR1", 1, "same",
    lambda w, ins, p: (ins[0] >> 1) & _mask(w),
    doc="shift right by one"))

# -- comparators ----------------------------------------------------------------
_register(CellType(
    "EQ", 2, "bit", lambda w, ins, p: int(ins[0] == ins[1]),
    doc="equality comparator"))
_register(CellType(
    "NEQ", 2, "bit", lambda w, ins, p: int(ins[0] != ins[1]),
    doc="inequality comparator"))
_register(CellType(
    "LT", 2, "bit", lambda w, ins, p: int(ins[0] < ins[1]),
    doc="unsigned less-than comparator"))
_register(CellType(
    "GE", 2, "bit", lambda w, ins, p: int(ins[0] >= ins[1]),
    doc="unsigned greater-or-equal comparator"))

# -- multiplexer & constants ------------------------------------------------------
_register(CellType(
    "MUX", 3, "same",
    lambda w, ins, p: ins[1] if ins[0] else ins[2],
    doc="2-way multiplexer: MUX(sel, a, b) = sel ? a : b"))
_register(CellType(
    "CONST", 0, "const",
    lambda w, ins, p: int(p.get("value", 0)) & _mask(w),
    doc="constant driver (params: value, width)"))

# -- reduction cells (multi-bit input, 1-bit output) ------------------------------
_register(CellType(
    "REDAND", 1, "bit",
    lambda w, ins, p: int(ins[0] == _mask(p.get("_in_widths", (w,))[0])),
    doc="and-reduction of all input bits"))
_register(CellType(
    "REDOR", 1, "bit",
    lambda w, ins, p: int(ins[0] != 0),
    doc="or-reduction of all input bits"))
_register(CellType(
    "REDXOR", 1, "bit",
    lambda w, ins, p: bin(ins[0]).count("1") & 1,
    doc="xor-reduction (parity) of all input bits"))


def cell_type(name: str) -> CellType:
    """Look up a cell type by name."""
    try:
        return _LIBRARY[name]
    except KeyError:
        raise CellError(f"unknown cell type: {name}") from None


#: Cell types whose single-bit instances are ordinary logic gates.
GATE_LEVEL_TYPES = ("BUF", "NOT", "AND", "OR", "XOR", "NAND", "NOR", "XNOR", "MUX", "CONST")
