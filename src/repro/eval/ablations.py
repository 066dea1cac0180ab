"""Ablation studies for the design choices Section V calls out.

* **Cut-size sweep** (:func:`run_cut_sweep`): "the time consumption depends
  on the size of the circuit but is quite independent from the cut.  Due to
  step 4 it becomes a little slower for large sized functions f."  We time
  the formal step on the Figure-2 example for cuts of increasing size.
* **RT-level vs gate-level** (:func:`run_rtl_vs_gate`): "operating at the
  RT-level reduces the complexity of steps 1-3.  However the complexity of
  the initial state evaluation step (step 4) is not affected."  We run the
  HASH procedure on the same circuit twice — once on the word-level netlist
  and once on its bit-blasted version — and report the per-step timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits.bitblast import bitblast
from ..circuits.generators import figure2
from ..circuits.netlist import Netlist
from ..formal.formal_retiming import formal_forward_retiming
from ..retiming.cuts import maximal_forward_cut, sized_forward_cut


@dataclass
class CutSweepPoint:
    cut_size: int
    cut: List[str]
    seconds: float
    kernel_steps: int


def run_cut_sweep(netlist: Optional[Netlist] = None, seed: int = 0) -> List[CutSweepPoint]:
    """HASH run time as a function of the cut size (Ablation B)."""
    netlist = netlist or figure2(16)
    maximal = maximal_forward_cut(netlist)
    points: List[CutSweepPoint] = []
    for size in range(1, len(maximal) + 1):
        cut = sized_forward_cut(netlist, size, seed=seed)
        result = formal_forward_retiming(netlist, cut)
        points.append(
            CutSweepPoint(
                cut_size=size,
                cut=cut,
                seconds=result.stats["total_seconds"],
                kernel_steps=int(result.stats["kernel_steps"]),
            )
        )
    return points


@dataclass
class LevelComparison:
    level: str
    gates: int
    stats: Dict[str, float]


def run_rtl_vs_gate(n: int = 8) -> List[LevelComparison]:
    """Per-step HASH timings at RT level vs bit level (Ablation A)."""
    word = figure2(n)
    gate = bitblast(word).netlist
    out: List[LevelComparison] = []
    for level, netlist in (("rtl", word), ("gate", gate)):
        cut = maximal_forward_cut(netlist)
        result = formal_forward_retiming(netlist, cut)
        out.append(
            LevelComparison(level=level, gates=netlist.num_gates(), stats=result.stats)
        )
    return out


def render_cut_sweep(points: Sequence[CutSweepPoint]) -> str:
    lines = ["Ablation B — HASH run time vs cut size (Figure-2, 16 bit)",
             "cut size  cells                          seconds  inferences"]
    for p in points:
        lines.append(
            f"{p.cut_size:8d}  {','.join(p.cut):30s} {p.seconds:8.3f}  {p.kernel_steps:10d}"
        )
    return "\n".join(lines)


def render_rtl_vs_gate(results: Sequence[LevelComparison]) -> str:
    lines = ["Ablation A — RT-level vs gate-level formal retiming (Figure-2, 8 bit)"]
    header = f"{'level':6s} {'gates':>6s} " + " ".join(
        f"{k:>14s}" for k in ("split_seconds", "apply_theorem_seconds",
                              "join_seconds", "init_eval_seconds", "total_seconds")
    ) + f" {'inferences':>12s}"
    lines.append(header)
    for r in results:
        lines.append(
            f"{r.level:6s} {r.gates:6d} " + " ".join(
                f"{r.stats[k]:14.4f}" for k in (
                    "split_seconds", "apply_theorem_seconds", "join_seconds",
                    "init_eval_seconds", "total_seconds")
            ) + f" {int(r.stats['kernel_steps']):12d}"
        )
    return "\n".join(lines)
