"""Embedding netlists into the Automata theory.

The paper assumes "that all circuit descriptions are represented within
logic" (Section III.C).  This module performs that representation: a
:class:`~repro.circuits.netlist.Netlist` is translated into an Automata-theory
term ``automaton (step, q)`` where

* the step function is a lambda over a single variable ``p`` of type
  ``input_tuple # state_tuple``,
* every combinational cell becomes a ``let`` binding (in topological order),
  mirroring the ``let x = f s in ...`` style of the paper's Figure 1, and
* the result is the pair ``(output_tuple, next_state_tuple)``.

Nets of width 1 are embedded at type ``bool``; wider nets at type ``num``
with the width-parameterised word operators of the standard library (this is
the RT-level representation whose benefit Section V discusses).  The same
module also provides a *bit-level* embedding (``embed_netlist(bitblast(...))``
works unchanged) used by the RT-vs-gate-level ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..automata.automaton import TupleLayout, mk_automaton
from ..circuits.netlist import Cell, Netlist
from ..logic import stdlib
from ..logic.ground import mk_bool, mk_numeral
from ..logic.hol_types import HolType, bool_ty, mk_prod_ty, num_ty
from ..logic.stdlib import mk_let, word_op
from ..logic.terms import Abs, Term, Var, mk_fst, mk_pair, mk_snd


class EmbeddingError(Exception):
    """Raised when a netlist cannot be embedded (unsupported cell, no state...)."""


def net_type(width: int) -> HolType:
    """The HOL type used for a net of the given width."""
    return bool_ty if width == 1 else num_ty


def literal(value: int, width: int) -> Term:
    """The ground term for a constant of the given width."""
    if width == 1:
        return mk_bool(bool(value))
    return mk_numeral(value)


def cell_term(netlist: Netlist, cell: Cell, inputs: Sequence[Term]) -> Term:
    """The logic term computing one combinational cell from its input terms.

    Dispatches on the cell type and the output width: 1-bit cells use the
    boolean connectives, wider cells the word-level operators (with the width
    passed as a numeral, as in ``INCW 8 x``).
    """
    stdlib.ensure_stdlib()
    t = cell.type
    width = netlist.width(cell.output)
    in_widths = [netlist.width(i) for i in cell.inputs]
    w = mk_numeral(width)

    if t == "CONST":
        return literal(int(cell.params.get("value", 0)), width)
    if t == "BUF":
        return inputs[0]

    if width == 1 and all(iw == 1 for iw in in_widths):
        bool_map = {
            "NOT": "~", "AND": "/\\", "OR": "\\/", "XOR": "XOR",
            "NAND": "NAND", "NOR": "NOR", "XNOR": "XNOR",
        }
        if t in bool_map:
            return word_op(bool_map[t], *inputs)
        if t == "MUX":
            return word_op("MUXB", inputs[0], inputs[1], inputs[2])
        if t == "EQ":
            return word_op("XNOR", inputs[0], inputs[1])
        if t == "NEQ":
            return word_op("XOR", inputs[0], inputs[1])
        if t == "INC":
            return word_op("~", inputs[0])
        if t in ("REDAND", "REDOR"):
            return inputs[0]
        if t == "REDXOR":
            return inputs[0]
        raise EmbeddingError(f"no boolean embedding for 1-bit cell type {t}")

    word_map_width = {
        "NOT": "NOTW", "AND": "ANDW", "OR": "ORW", "XOR": "XORW",
        "INC": "INCW", "DEC": "DECW", "ADD": "ADDW", "SUB": "SUBW",
        "MUL": "MULW", "SHL1": "SHLW", "SHR1": "SHRW",
    }
    if t in ("NAND", "NOR", "XNOR"):
        inner = {"NAND": "ANDW", "NOR": "ORW", "XNOR": "XORW"}[t]
        return word_op("NOTW", w, word_op(inner, w, inputs[0], inputs[1]))
    if t in word_map_width:
        op = word_map_width[t]
        if t in ("SHL1", "SHR1"):
            return word_op(op, w, inputs[0], mk_numeral(1))
        return word_op(op, w, *inputs)
    if t == "MUX":
        return word_op("MUXW", inputs[0], inputs[1], inputs[2])
    if t in ("EQ", "NEQ", "LT", "GE"):
        cmp_map = {"EQ": "EQW", "NEQ": "NEQW", "LT": "LTW", "GE": "GEW"}
        return word_op(cmp_map[t], inputs[0], inputs[1])
    if t == "REDOR":
        return word_op("NEQW", inputs[0], mk_numeral(0))
    if t == "REDAND":
        return word_op("EQW", inputs[0], mk_numeral((1 << in_widths[0]) - 1))
    raise EmbeddingError(f"no word-level embedding for cell type {t}")


@dataclass
class EmbeddedCircuit:
    """A netlist embedded as an Automata-theory term."""

    netlist: Netlist
    #: ``automaton (step, q)``
    term: Term
    #: the bare step function ``\\p. ...``
    step: Term
    #: the initial-state tuple term
    init: Term
    input_layout: TupleLayout
    state_layout: TupleLayout
    output_layout: TupleLayout
    #: register names in state-layout order
    register_order: List[str]


def _layouts(netlist: Netlist, register_order: Optional[Sequence[str]] = None
             ) -> Tuple[TupleLayout, TupleLayout, TupleLayout, List[str]]:
    if not netlist.inputs:
        raise EmbeddingError("embedding requires at least one primary input")
    if not netlist.outputs:
        raise EmbeddingError("embedding requires at least one primary output")
    if not netlist.registers:
        raise EmbeddingError(
            "embedding requires at least one register (purely combinational "
            "circuits are handled by the tautology checker instead)"
        )
    regs = list(register_order) if register_order else sorted(netlist.registers)
    if sorted(regs) != sorted(netlist.registers):
        raise EmbeddingError("register_order must enumerate exactly the registers")
    input_layout = TupleLayout(
        list(netlist.inputs), [net_type(netlist.width(n)) for n in netlist.inputs]
    )
    state_layout = TupleLayout(
        regs, [net_type(netlist.registers[r].width) for r in regs]
    )
    output_layout = TupleLayout(
        list(netlist.outputs), [net_type(netlist.width(n)) for n in netlist.outputs]
    )
    return input_layout, state_layout, output_layout, regs


def embed_netlist(
    netlist: Netlist,
    register_order: Optional[Sequence[str]] = None,
    step_var_name: str = "p",
) -> EmbeddedCircuit:
    """Embed a netlist as ``automaton (step, q)``.

    The step function binds a single pair variable; each combinational cell
    (except ``BUF`` and ``CONST``, which are inlined) contributes one ``let``
    binding named after its output net, in topological order.
    """
    netlist.validate()
    input_layout, state_layout, output_layout, regs = _layouts(netlist, register_order)

    pair_ty = mk_prod_ty(input_layout.type(), state_layout.type())
    p = Var(step_var_name, pair_ty)

    # terms available for every net
    available: Dict[str, Term] = input_layout.projections(mk_fst(p))
    for reg_name, term in state_layout.projections(mk_snd(p)).items():
        available[netlist.registers[reg_name].output] = term

    # let-bindings for the combinational cells, in topological order
    bindings: List[Tuple[Var, Term]] = []
    for cell in netlist.topological_cells():
        in_terms = [available[i] for i in cell.inputs]
        term = cell_term(netlist, cell, in_terms)
        if cell.type in ("BUF", "CONST"):
            # trivial cells are inlined rather than let-bound
            available[cell.output] = term
            continue
        var = Var(cell.output, net_type(netlist.width(cell.output)))
        bindings.append((var, term))
        available[cell.output] = var

    out_tuple = output_layout.mk_value([available[o] for o in netlist.outputs])
    next_tuple = state_layout.mk_value(
        [available[netlist.registers[r].input] for r in regs]
    )
    body: Term = mk_pair(out_tuple, next_tuple)
    for var, term in reversed(bindings):
        body = mk_let(var, term, body)
    step = Abs(p, body)

    init = state_layout.mk_value(
        [literal(netlist.registers[r].init, netlist.registers[r].width) for r in regs]
    )
    term = mk_automaton(step, init)
    return EmbeddedCircuit(
        netlist=netlist,
        term=term,
        step=step,
        init=init,
        input_layout=input_layout,
        state_layout=state_layout,
        output_layout=output_layout,
        register_order=regs,
    )
