"""Structural analysis helpers: hashing, cones and register boundaries.

These utilities serve two consumers:

* the retiming-specific verifier (:mod:`repro.verification.retiming_verify`)
  which, in the style of Huang/Cheng/Chen, tries to *match* the original and
  the retimed netlist structurally instead of doing a full state traversal;
* the cut-selection heuristics (:mod:`repro.retiming.cuts`) which need the
  transitive fanin of cells to decide whether a cut is a function of the
  state only.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .netlist import Cell, Netlist


def transitive_fanin_nets(netlist: Netlist, net: str) -> Set[str]:
    """All nets in the combinational transitive fanin of ``net``.

    The traversal stops at primary inputs and register outputs (sequential
    boundaries).
    """
    drivers = netlist.drivers()
    reg_outputs = {r.output for r in netlist.registers.values()}
    seen: Set[str] = set()
    stack = [net]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if n in netlist.inputs or n in reg_outputs:
            continue
        driver = drivers.get(n)
        if isinstance(driver, Cell):
            stack.extend(driver.inputs)
    return seen


def support_of(netlist: Netlist, net: str) -> Tuple[Set[str], Set[str]]:
    """The sequential support of a net: (primary inputs, register outputs)."""
    reg_outputs = {r.output for r in netlist.registers.values()}
    nets = transitive_fanin_nets(netlist, net)
    return (
        {n for n in nets if n in netlist.inputs},
        {n for n in nets if n in reg_outputs},
    )


def state_only_cells(netlist: Netlist) -> List[str]:
    """Cells whose entire transitive fanin is register outputs (no inputs).

    These are exactly the cells that may appear in the block ``f`` of the
    universal retiming theorem: ``f`` is a function of the state ``s`` alone.
    """
    out = []
    for cell in netlist.cells.values():
        pis, _regs = support_of(netlist, cell.output)
        if not pis and cell.inputs:
            out.append(cell.name)
    return sorted(out)


def structural_signature(netlist: Netlist) -> Dict[str, Tuple]:
    """A canonical signature per net describing its driving structure.

    Two nets with the same signature are driven by structurally identical
    logic over the same sequential boundary nets.  Used by the structural
    retiming verifier for matching.
    """
    drivers = netlist.drivers()
    reg_outputs = {r.output: r for r in netlist.registers.values()}
    memo: Dict[str, Tuple] = {}

    def sig(net: str) -> Tuple:
        if net in memo:
            return memo[net]
        if net in netlist.inputs:
            out = ("input", net)
        elif net in reg_outputs:
            reg = reg_outputs[net]
            out = ("register", reg.name, reg.init, reg.width)
        else:
            driver = drivers[net]
            assert isinstance(driver, Cell)
            out = (
                "cell",
                driver.type,
                tuple(sorted(driver.params.items())),
                tuple(sig(i) for i in driver.inputs),
            )
        memo[net] = out
        return out

    return {net: sig(net) for net in netlist.nets}


def same_interface(a: Netlist, b: Netlist) -> bool:
    """Do two netlists have the same primary inputs and outputs (name+width)?"""
    ia = sorted((n, a.width(n)) for n in a.inputs)
    ib = sorted((n, b.width(n)) for n in b.inputs)
    oa = sorted((n, a.width(n)) for n in a.outputs)
    ob = sorted((n, b.width(n)) for n in b.outputs)
    return ia == ib and oa == ob
