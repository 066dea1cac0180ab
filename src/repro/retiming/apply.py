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

from typing import Iterable, List, Sequence

from ..circuits.netlist import Cell, Netlist


class RetimingApplyError(Exception):
    """Raised when a cut cannot be retimed on the given netlist."""


def _evaluate_cell(netlist: Netlist, cell: Cell, input_values: Sequence[int]) -> int:
    width = netlist.width(cell.output)
    params = dict(cell.params)
    params["_in_widths"] = tuple(netlist.width(i) for i in cell.inputs)
    return cell.cell_type.evaluate(width, list(input_values), params)


def forward_retimable_cells(netlist: Netlist) -> List[str]:
    """Cells whose every input net is directly driven by a register.

    These are the cells a single forward-retiming step can absorb; the
    maximal such set is the paper's "maximum number of retimable gates".
    """
    reg_outputs = {r.output for r in netlist.registers.values()}
    out = []
    for cell in netlist.cells.values():
        if cell.inputs and all(i in reg_outputs for i in cell.inputs):
            out.append(cell.name)
    return sorted(out)


def apply_forward_retiming(
    netlist: Netlist,
    cut: Iterable[str],
    name_suffix: str = "_retimed",
) -> Netlist:
    """Move the registers feeding every cell in ``cut`` to the cell's output.

    Every input of every cut cell must be driven directly by a register,
    otherwise the cut is rejected (:class:`RetimingApplyError`) — this is the
    conventional engine's counterpart of the formal procedure failing on a
    false cut.
    """
    cut = list(dict.fromkeys(cut))
    out = netlist.copy(netlist.name + name_suffix)
    reg_by_output = {r.output: r for r in out.registers.values()}

    # validate the cut first so the netlist is never half-transformed
    for cell_name in cut:
        if cell_name not in out.cells:
            raise RetimingApplyError(f"cut refers to unknown cell {cell_name!r}")
        cell = out.cells[cell_name]
        if not cell.inputs:
            raise RetimingApplyError(
                f"cell {cell_name} has no inputs and cannot be retimed over"
            )
        for net in cell.inputs:
            if net not in reg_by_output:
                raise RetimingApplyError(
                    f"false cut: input {net!r} of cell {cell_name!r} is not a "
                    "register output (the cut is not a function of the state alone)"
                )

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
