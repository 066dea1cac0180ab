"""Applying retimings to netlists (the conventional synthesis transformation).

This module is the *conventional* retiming back end: given control
information (a cut) it rewrites the netlist by moving registers and
computing the new initial values.  The formal HASH step
(:mod:`repro.formal.formal_retiming`) performs the same transformation but
derives a theorem relating the two circuit descriptions; the conventional
back end is used as the baseline whose output the post-synthesis verifiers
of :mod:`repro.verification` have to check.

Forward retiming moves the registers sitting on *all* inputs of a cell to
its output; the new register's initial value is the cell evaluated on the
old initial values — exactly the ``f(q)`` of the universal retiming theorem.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from ..circuits.netlist import Cell, Netlist


class RetimingApplyError(Exception):
    """Raised when a cut cannot be retimed on the given netlist."""


def _evaluate_cell(netlist: Netlist, cell: Cell, input_values: Sequence[int]) -> int:
    width = netlist.width(cell.output)
    params = dict(cell.params)
    params["_in_widths"] = tuple(netlist.width(i) for i in cell.inputs)
    return cell.cell_type.evaluate(width, list(input_values), params)


def _rule_violation(netlist: Netlist, name: str, reg_outputs: Set[str]) -> Optional[str]:
    """Why the forward-cut rule rejects cell ``name``, or ``None``: a cut cell
    exists, has inputs and reads only register outputs (``reg_outputs``), so
    the block ``f`` is a function of the state alone."""
    cell = netlist.cells.get(name)
    if cell is None:
        return f"cut refers to unknown cell {name!r}"
    if not cell.inputs:
        return f"cell {name!r} has no inputs; constants cannot be retimed over"
    for net in cell.inputs:
        if net not in reg_outputs:
            return (f"false cut: input {net!r} of cell {name!r} is not a register "
                    "output, so f would not be a function of the state alone")
    return None


def check_forward_cut(netlist: Netlist, cut: Iterable[str]) -> List[str]:
    """The cut without duplicates, or :class:`RetimingApplyError` naming the
    first cell the forward-cut rule rejects.

    Both engines take their cut through this one check, so each rejects a
    bad cut for the same reason; for the formal engine this is the
    derivation failing on the false cut of Figure 4 (Section IV.C).
    """
    cut = list(dict.fromkeys(cut))
    reg_outputs = {r.output for r in netlist.registers.values()}
    for name in cut:
        reason = _rule_violation(netlist, name, reg_outputs)
        if reason is not None:
            raise RetimingApplyError(reason)
    return cut


def forward_retimable_cells(netlist: Netlist) -> List[str]:
    """The cells the forward-cut rule accepts, sorted by name.

    These are the cells a single forward-retiming step can absorb; the
    maximal such set is the paper's "maximum number of retimable gates".
    """
    reg_outputs = {r.output for r in netlist.registers.values()}
    return sorted(name for name in netlist.cells
                  if _rule_violation(netlist, name, reg_outputs) is None)


def apply_forward_retiming(
    netlist: Netlist,
    cut: Iterable[str],
    name_suffix: str = "_retimed",
) -> Netlist:
    """Move the registers feeding every cell in ``cut`` to the cell's output.

    A cut the forward-cut rule rejects raises :class:`RetimingApplyError`
    (:func:`check_forward_cut`) before the netlist is touched.
    """
    cut = check_forward_cut(netlist, cut)
    out = netlist.copy(netlist.name + name_suffix)
    reg_by_output = {r.output: r for r in out.registers.values()}

    for cell_name in cut:
        cell = out.cells[cell_name]
        source_regs = [reg_by_output[net] for net in cell.inputs]

        # the new initial value is the cell evaluated on the old initial values
        new_init = _evaluate_cell(out, cell, [r.init for r in source_regs])

        # recompute the cell from the registers' inputs (one combinational
        # step earlier) onto a fresh net, and let a new register drive the
        # cell's original output net so all consumers stay untouched.
        pre_net = out.fresh_net_name(cell.output + "_pre")
        out.add_net(pre_net, out.width(cell.output))
        moved = Cell(
            cell.name,
            cell.type,
            tuple(r.input for r in source_regs),
            pre_net,
            dict(cell.params),
        )
        out.cells[cell.name] = moved
        reg_name = out.fresh_instance_name(f"R_{cell.name}")
        out.add_register(
            reg_name, pre_net, cell.output, init=new_init, width=out.width(cell.output)
        )

    # original registers left without readers are removed
    for reg in list(out.registers.values()):
        if reg.output in out.outputs:
            continue
        if not out.readers_of(reg.output):
            out.remove_register(reg.name)
            # the output net stays declared only if something still uses it
            if not out.readers_of(reg.output) and reg.output not in out.outputs:
                del out.nets[reg.output]

    out.validate()
    return out
