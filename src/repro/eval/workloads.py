"""Workload preparation shared by the Table-I / Table-II harnesses.

A *workload* is a pair (original netlist, cut): the conventional retiming
engine turns it into (original, retimed) for the post-synthesis verifiers,
and the formal engine runs the HASH procedure on (original, cut) directly.
The cut is always the maximal forward-retimable set — the paper's stated
worst case for HASH ("we performed a retiming with f covering a maximum
number of retimable gates").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..circuits.generators import figure2, iwls_circuit
from ..circuits.generators.iwls import IWLS_BENCHMARKS, BenchmarkSpec
from ..circuits.netlist import Netlist
from ..retiming.apply import apply_forward_retiming
from ..retiming.cuts import maximal_forward_cut


@dataclass
class Workload:
    """One benchmark instance: the circuit, its cut and the retimed reference."""

    name: str
    original: Netlist
    cut: List[str]
    retimed: Netlist

    @property
    def flipflops(self) -> int:
        return self.original.num_flipflops()

    @property
    def gates(self) -> int:
        return self.original.num_gates()


def make_workload(netlist: Netlist, cut: Optional[Sequence[str]] = None,
                  name: Optional[str] = None) -> Workload:
    """Bundle a netlist with its (maximal) cut and the conventionally retimed circuit."""
    chosen = list(cut) if cut is not None else maximal_forward_cut(netlist)
    if not chosen:
        raise ValueError(f"{netlist.name}: no forward-retimable cells, nothing to retime")
    retimed = apply_forward_retiming(netlist, chosen)
    return Workload(
        name=name or netlist.name,
        original=netlist,
        cut=chosen,
        retimed=retimed,
    )


#: Bit widths used for the Table-I sweep (the paper scales the Figure-2
#: example in the data bit width n).
TABLE1_WIDTHS: List[int] = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32]


def table1_workload(n: int) -> Workload:
    """The Figure-2 example at bit width ``n`` with its maximal cut."""
    return make_workload(figure2(n), name=f"figure2 n={n}")


def table2_workloads(scale: float = 1.0,
                     names: Optional[Sequence[str]] = None) -> List[Workload]:
    """The IWLS'91 stand-in suite of Table II."""
    selected: List[BenchmarkSpec] = [
        spec for spec in IWLS_BENCHMARKS if names is None or spec.name in names
    ]
    return [make_workload(iwls_circuit(spec.name, scale=scale), name=spec.name)
            for spec in selected]
