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
   ordinary gate-level :class:`~repro.circuits.netlist.Netlist` with pattern
   emission: canonical XOR/MUX AND structures become single ``XOR`` /
   ``XNOR`` / ``MUX`` cells, complement-only ANDs ``NAND`` cells, and only
   logic that a named net or a register needs is emitted.

Every multi-bit net is exposed as 1-bit nets ``name[i]`` in the result's
``bit_map``; primary inputs, outputs and registers keep their external
names, so cycle simulation of the word-level and the gate-level circuit
stay in lock-step.  The result is suitable for building BDDs
(:mod:`repro.verification.common`) or CNF (:mod:`repro.verification.sat`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

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


def bitblast(netlist: Netlist, name_suffix: str = "_bits") -> BitblastResult:
    """Lower an RT-level netlist to a pure gate-level netlist.

    The netlist is structurally hashed into an AIG and emitted with
    XOR/MUX pattern matching (see the module docstring).
    """
    try:
        gate, bit_map = aig_to_netlist(
            netlist_to_aig(netlist), netlist,
            name=netlist.name + name_suffix, patterns=True,
        )
    except AigError as exc:
        raise BitblastError(str(exc)) from exc
    return BitblastResult(netlist=gate, bit_map=bit_map)
