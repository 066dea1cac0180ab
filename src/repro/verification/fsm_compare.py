"""SIS-style finite-state-machine comparison.

The SIS column of Tables I and II uses the sequential verification command of
the SIS synthesis system ("SIS provides a finite state machine comparison
technique").  Algorithmically that command is the breadth-first traversal of
the product machine with the output-equality invariant checked before every
step — the implicit state enumeration of Touati et al. (ICCAD 1990) — which
is exactly the SMV column's algorithm.  So the two columns run one
traversal, :func:`repro.verification.model_checking.traverse`, kept under
two names for the paper's two columns; their timings differ only by noise.
Budgets turn blow-ups into ``timeout`` results (the dashes of the paper's
tables).
"""

from __future__ import annotations

from typing import Optional

from ..circuits.netlist import Netlist
from .common import VerificationResult, product_fsm, run_engine
from .model_checking import traverse


def check_equivalence(
    original: Netlist,
    retimed: Netlist,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
) -> VerificationResult:
    """Check sequential output-equivalence of two circuits (SIS ``verify_fsm`` style)."""
    return run_engine("sis", time_budget, lambda run: traverse(run, product_fsm(
        original, retimed, run.bdd_manager(node_budget))))
