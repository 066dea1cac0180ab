"""Sequential netlists: nets, combinational cells and registers.

A :class:`Netlist` is the common circuit representation used throughout the
reproduction.  It supports both RT-level circuits (multi-bit nets, word-level
cells such as ``INC``/``EQ``/``MUX``) and gate-level circuits (1-bit nets and
gates), and is consumed by

* the cycle simulator (:mod:`repro.circuits.simulate`),
* the bit-blaster (:mod:`repro.circuits.bitblast`),
* the conventional retiming engine (:mod:`repro.retiming`),
* the verification baselines (:mod:`repro.verification`), and
* the HASH embedding (:mod:`repro.formal.embed`).

The model is deliberately simple: every net has exactly one driver (a primary
input, a cell output or a register output) and a combinational cell has
exactly one output net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cells import CellType, cell_type


class NetlistError(Exception):
    """Raised for malformed netlists (missing nets, cycles, width clashes...)."""


@dataclass(frozen=True)
class Net:
    """A named signal with a bit width."""

    name: str
    width: int = 1

    def __post_init__(self):
        if self.width < 1:
            raise NetlistError(f"net {self.name}: width must be >= 1")


@dataclass(frozen=True)
class Cell:
    """An instance of a combinational cell driving a single output net."""

    name: str
    type: str
    inputs: Tuple[str, ...]
    output: str
    params: Dict[str, int] = field(default_factory=dict)

    @property
    def cell_type(self) -> CellType:
        return cell_type(self.type)


@dataclass(frozen=True)
class Register:
    """An edge-triggered register (D flip-flop bank) with an initial value."""

    name: str
    input: str
    output: str
    init: int = 0
    width: int = 1

    def __post_init__(self):
        if not (0 <= self.init < (1 << self.width)):
            raise NetlistError(
                f"register {self.name}: init {self.init} does not fit width {self.width}"
            )


class Netlist:
    """A synchronous sequential circuit."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.nets: Dict[str, Net] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.cells: Dict[str, Cell] = {}
        self.registers: Dict[str, Register] = {}

    # -- construction ---------------------------------------------------------
    def add_net(self, name: str, width: int = 1) -> Net:
        if name in self.nets:
            existing = self.nets[name]
            if existing.width != width:
                raise NetlistError(
                    f"net {name} redeclared with width {width} != {existing.width}"
                )
            return existing
        net = Net(name, width)
        self.nets[name] = net
        return net

    def add_input(self, name: str, width: int = 1) -> Net:
        net = self.add_net(name, width)
        if name not in self.inputs:
            self.inputs.append(name)
        return net

    def add_output(self, name: str, width: int = 1) -> Net:
        net = self.add_net(name, width)
        if name not in self.outputs:
            self.outputs.append(name)
        return net

    def mark_output(self, name: str) -> None:
        if name not in self.nets:
            raise NetlistError(f"mark_output: unknown net {name}")
        if name not in self.outputs:
            self.outputs.append(name)

    def add_cell(
        self,
        name: str,
        type: str,
        inputs: Sequence[str],
        output: str,
        params: Optional[Dict[str, int]] = None,
        output_width: Optional[int] = None,
    ) -> Cell:
        """Add a combinational cell; the output net is created automatically."""
        if name in self.cells or name in self.registers:
            raise NetlistError(f"duplicate cell/register name: {name}")
        ct = cell_type(type)
        params = dict(params or {})
        inputs = tuple(inputs)
        if len(inputs) != ct.arity:
            raise NetlistError(
                f"cell {name} ({type}): expected {ct.arity} inputs, got {len(inputs)}"
            )
        for inp in inputs:
            if inp not in self.nets:
                raise NetlistError(f"cell {name}: unknown input net {inp}")
        in_widths = [self.nets[i].width for i in inputs]
        derived = ct.output_width(in_widths, params) if output_width is None else output_width
        self.add_net(output, derived)
        if self.nets[output].width != derived:
            raise NetlistError(
                f"cell {name}: output net {output} has width {self.nets[output].width},"
                f" expected {derived}"
            )
        cell = Cell(name, type, inputs, output, params)
        self.cells[name] = cell
        return cell

    def add_register(
        self, name: str, input: str, output: str, init: int = 0,
        width: Optional[int] = None,
    ) -> Register:
        if name in self.cells or name in self.registers:
            raise NetlistError(f"duplicate cell/register name: {name}")
        if input not in self.nets:
            raise NetlistError(f"register {name}: unknown input net {input}")
        w = self.nets[input].width if width is None else width
        self.add_net(output, w)
        if self.nets[input].width != w or self.nets[output].width != w:
            raise NetlistError(f"register {name}: width mismatch")
        reg = Register(name, input, output, init, w)
        self.registers[name] = reg
        return reg

    # -- queries ----------------------------------------------------------------
    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"unknown net: {name}") from None

    def width(self, name: str) -> int:
        return self.net(name).width

    def evaluate_cell(self, cell: Cell, input_values: Sequence[int]) -> int:
        """``cell``'s output value on ``input_values``.  Its type also sees
        the input widths, as the ``_in_widths`` parameter (``REDAND`` reads
        it)."""
        params = dict(cell.params)
        params["_in_widths"] = tuple(self.width(i) for i in cell.inputs)
        return cell.cell_type.evaluate(self.width(cell.output), input_values, params)

    def drivers(self) -> Dict[str, object]:
        """Map from net name to its driver (cells and registers)."""
        out: Dict[str, object] = {}
        for cell in self.cells.values():
            if cell.output in out:
                raise NetlistError(f"net {cell.output} has multiple drivers")
            out[cell.output] = cell
        for reg in self.registers.values():
            if reg.output in out:
                raise NetlistError(f"net {reg.output} has multiple drivers")
            out[reg.output] = reg
        return out

    def readers_of(self, net_name: str) -> List[object]:
        """All cells/registers reading a net (plus 'output' markers)."""
        readers: List[object] = []
        for cell in self.cells.values():
            if net_name in cell.inputs:
                readers.append(cell)
        for reg in self.registers.values():
            if reg.input == net_name:
                readers.append(reg)
        return readers

    def num_gates(self) -> int:
        """Number of combinational cells (the paper's "gates" column)."""
        return len(self.cells)

    def num_flipflops(self) -> int:
        """Total number of flip-flop *bits* (the paper's "flipflops" column)."""
        return sum(reg.width for reg in self.registers.values())

    def stats(self) -> Dict[str, int]:
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "nets": len(self.nets),
            "cells": len(self.cells),
            "registers": len(self.registers),
            "flipflop_bits": self.num_flipflops(),
        }

    # -- structural checks ----------------------------------------------------------
    def topological_cells(self) -> List[Cell]:
        """Combinational cells in topological order.

        Register outputs and primary inputs are sources.  Raises
        :class:`NetlistError` if the combinational part contains a cycle.
        """
        produced: Set[str] = set(self.inputs)
        produced.update(reg.output for reg in self.registers.values())
        produced.update(c.output for c in self.cells.values()
                        if c.type == "CONST")
        remaining = {n: c for n, c in self.cells.items() if c.type != "CONST"}
        order: List[Cell] = [c for c in self.cells.values() if c.type == "CONST"]
        progress = True
        while remaining and progress:
            progress = False
            for name in list(remaining):
                cell = remaining[name]
                if all(i in produced for i in cell.inputs):
                    order.append(cell)
                    produced.add(cell.output)
                    del remaining[name]
                    progress = True
        if remaining:
            raise NetlistError(
                "combinational cycle or missing driver involving cells: "
                + ", ".join(sorted(remaining))
            )
        return order

    def validate(self) -> None:
        """Check the netlist invariants; raise :class:`NetlistError` if violated."""
        drivers = self.drivers()
        for name in self.nets:
            if name not in drivers and name not in self.inputs:
                raise NetlistError(f"net {name} has no driver and is not an input")
        for name in self.outputs:
            if name not in self.nets:
                raise NetlistError(f"output {name} is not a net")
        for cell in self.cells.values():
            ct = cell.cell_type
            in_widths = [self.nets[i].width for i in cell.inputs]
            expected = ct.output_width(in_widths, cell.params)
            actual = self.nets[cell.output].width
            if cell.type == "MUX" and self.nets[cell.inputs[0]].width != 1:
                raise NetlistError(f"cell {cell.name}: MUX select must be 1 bit wide")
            if expected != actual:
                raise NetlistError(
                    f"cell {cell.name}: output width {actual}, expected {expected}"
                )
        for reg in self.registers.values():
            if self.nets[reg.input].width != reg.width:
                raise NetlistError(f"register {reg.name}: input width mismatch")
            if self.nets[reg.output].width != reg.width:
                raise NetlistError(f"register {reg.name}: output width mismatch")
        self.topological_cells()

    # -- manipulation -----------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Netlist":
        out = Netlist(name or self.name)
        out.nets = dict(self.nets)
        out.inputs = list(self.inputs)
        out.outputs = list(self.outputs)
        out.cells = dict(self.cells)
        out.registers = dict(self.registers)
        return out

    def remove_cell(self, name: str) -> None:
        if name not in self.cells:
            raise NetlistError(f"remove_cell: unknown cell {name}")
        del self.cells[name]

    def remove_register(self, name: str) -> None:
        if name not in self.registers:
            raise NetlistError(f"remove_register: unknown register {name}")
        del self.registers[name]

    def fresh_net_name(self, base: str) -> str:
        if base not in self.nets:
            return base
        i = 0
        while f"{base}_{i}" in self.nets:
            i += 1
        return f"{base}_{i}"

    def fresh_instance_name(self, base: str) -> str:
        taken = set(self.cells) | set(self.registers)
        if base not in taken:
            return base
        i = 0
        while f"{base}_{i}" in taken:
            i += 1
        return f"{base}_{i}"

    def __repr__(self) -> str:  # pragma: no cover
        s = self.stats()
        return (
            f"Netlist({self.name!r}, cells={s['cells']}, registers={s['registers']},"
            f" ff_bits={s['flipflop_bits']})"
        )
