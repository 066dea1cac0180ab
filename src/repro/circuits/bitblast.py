"""Bit-blasting: lowering RT-level netlists to gate level via the AIG IR.

The model checkers of the paper (SMV, SIS, van Eijk) operate on flat
bit-level descriptions, whereas HASH retimes the RT-level description
directly — Section V explicitly attributes part of HASH's advantage to this.
:func:`bitblast` performs the lowering in two stages that share one
structurally-hashed IR:

1. :func:`~repro.circuits.aig.netlist_to_aig` decomposes every word-level
   cell (ripple-carry adders, shift-and-add multipliers, comparator chains,
   reduction trees) into the hash-consed and-inverter graph, so structurally
   equal subcircuits — repeated partial products, shared carry chains,
   common subexpressions across cells — collapse onto single nodes; and
2. :func:`~repro.circuits.aig.aig_to_netlist` emits the shared DAG as an
   ordinary gate-level :class:`~repro.circuits.netlist.Netlist` (``AND`` /
   ``NOT`` / ``CONST`` / ``BUF`` cells, all nets one bit wide), each node and
   each complemented edge exactly once.

Every multi-bit net is exposed as 1-bit nets ``name[i]`` in the result's
``bit_map``; primary inputs, outputs and registers keep their external
names, so cycle simulation of the word-level and the gate-level circuit
stay in lock-step.  The result is suitable for building BDDs
(:mod:`repro.verification.common`) or CNF (:mod:`repro.verification.sat`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .aig import AigError, aig_to_netlist, bit_name, netlist_to_aig
from .netlist import Netlist

__all__ = ["BitblastError", "BitblastResult", "bit_name", "bitblast"]


class BitblastError(Exception):
    """Raised when a cell type has no gate-level decomposition."""


@dataclass
class BitblastResult:
    """A gate-level netlist plus the word-to-bit mapping."""

    netlist: Netlist
    #: word-level net name -> list of bit-level net names (LSB first)
    bit_map: Dict[str, List[str]] = field(default_factory=dict)
    #: rewriting counters when the DAG-aware optimiser ran (``opt=True``)
    stats: Dict[str, int] = field(default_factory=dict)


def bitblast(netlist: Netlist, name_suffix: str = "_bits",
             opt: bool = True,
             stats: Optional[Dict[str, int]] = None) -> BitblastResult:
    """Lower an RT-level netlist to a pure gate-level netlist.

    With ``opt=True`` (the default) the lowered AIG is first rewritten and
    balanced by :func:`~repro.circuits.aig_rewrite.optimize_netlist_aig`
    and the emission pattern-matches canonical XOR/MUX structures back
    into single cells; ``opt=False`` reproduces the raw strash emission
    (AND/NOT/CONST/BUF only).  ``stats`` (optional) accumulates the
    rewriting counters, which are also exposed on the result.
    """
    try:
        lowered = netlist_to_aig(netlist)
        counters: Dict[str, int] = {}
        if opt:
            from .aig_rewrite import optimize_netlist_aig

            lowered = optimize_netlist_aig(lowered, stats=counters)
        gate, bit_map = aig_to_netlist(
            lowered, netlist, name=netlist.name + name_suffix, patterns=opt
        )
    except AigError as exc:
        raise BitblastError(str(exc)) from exc
    if stats is not None:
        for key, value in counters.items():
            if key == "aig_levels":
                stats[key] = max(stats.get(key, 0), value)
            else:
                stats[key] = stats.get(key, 0) + value
    return BitblastResult(netlist=gate, bit_map=bit_map, stats=counters)
