"""Derived inference rules built on top of the kernel.

Everything in this module is *derived*: each function only calls kernel
rules (or other derived rules), so it cannot enlarge the trusted base.
The most important rule for the paper's methodology is
:func:`trans_chain`, which composes a whole sequence of synthesis-step
theorems ``|- c0 = c1``, ``|- c1 = c2``, ... into a single correctness
theorem ``|- c0 = cn`` — the "compound synthesis step" of Section III.A.
"""

from __future__ import annotations

from typing import Sequence

from .lazyfmt import lazy
from .kernel import (
    ALPHA,
    SYM,
    TRANS,
    Theorem,
)
from .terms import aconv, dest_eq


class RuleError(Exception):
    """Raised when a derived rule is applied to unsuitable theorems."""


def trans_chain(thms: Sequence[Theorem]) -> Theorem:
    """Chain equational theorems ``|- a0 = a1``, ``|- a1 = a2`` ... by TRANS.

    This is the constant-overhead composition of synthesis steps described in
    the paper: the cost is one ``TRANS`` per step regardless of how the
    individual theorems were obtained.
    """
    thms = list(thms)
    if not thms:
        raise RuleError("trans_chain: empty chain")
    out = thms[0]
    for th in thms[1:]:
        out = TRANS(out, th)
    return out


def equal_by_normalisation(norm_lhs: Theorem, norm_rhs: Theorem) -> Theorem:
    """Derive ``|- a = b`` from ``|- a = n`` and ``|- b = n'`` with ``n`` α-eq ``n'``.

    This is how the split (step 1) and join (step 3) equations of the formal
    retiming procedure are established: both sides are normalised and the
    normal forms must coincide, otherwise the derivation fails (the
    "faulty heuristic" behaviour of Section IV.C).
    """
    _, n1 = dest_eq(norm_lhs.concl)
    _, n2 = dest_eq(norm_rhs.concl)
    if not aconv(n1, n2):
        # lazy: this raise is control flow when probing faulty cuts, and the
        # normal forms are full gate-level terms
        raise RuleError(
            lazy("equal_by_normalisation: normal forms differ:\n  {}\n  {}", n1, n2)
        )
    right = SYM(norm_rhs)
    if n1 != n2:
        link = ALPHA(n1, n2)
        return TRANS(TRANS(norm_lhs, link), right)
    return TRANS(norm_lhs, right)
