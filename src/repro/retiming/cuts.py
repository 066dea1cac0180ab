"""Cut selection heuristics.

Step 1 of the paper's retiming procedure splits the combinational part into
``f`` (the block the registers are moved over) and ``g`` (the rest).  The
paper stresses that the choice of this cut is pure *design-space
exploration*: it "can either be performed by hand or by some arbitrary
external program", it never affects correctness, and a bad choice simply
makes the formal derivation fail.

The functions here are such external programs.  They return a list of cell
names to be included in ``f``; the formal and the conventional engines both
accept the same cut format, which demonstrates the clean interface the paper
describes in Section IV.B.
"""

from __future__ import annotations

import random
from typing import List

from ..circuits.netlist import Netlist
from .apply import forward_retimable_cells


def maximal_forward_cut(netlist: Netlist) -> List[str]:
    """All forward-retimable cells — the paper's Table-I/II worst case for HASH."""
    return forward_retimable_cells(netlist)


def sized_forward_cut(netlist: Netlist, size: int, seed: int = 0) -> List[str]:
    """A deterministic pseudo-random subset of the retimable cells of a given size.

    Used by the cut-size ablation (the paper observes that HASH's run time is
    "quite independent from the cut", only growing slightly with the size of
    ``f``).
    """
    candidates = forward_retimable_cells(netlist)
    size = max(0, min(size, len(candidates)))
    rng = random.Random(seed)
    return sorted(rng.sample(candidates, size))
