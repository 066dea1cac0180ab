"""Worklist-based rewrite engine: only revisit changed subterms.

The classic ``TOP_DEPTH_CONV`` strategy re-sweeps the *entire* term on every
outer pass and emits a ``REFL``/``TRANS``/``MK_COMB`` congruence chain over
unchanged subtrees, so gate-level workloads (deep ``let`` chains, one node
per gate) pay millions of kernel inferences for work that touches almost
nothing.  With the hash-consed kernel (identity ``==`` and hashing) we can
do much better; this module provides the engine:

* :class:`RewriteNet` — a head-symbol index (a first-order discrimination
  net) over rewrite-rule left-hand sides.  Each node of the traversal tries
  only the rules whose LHS head symbol and argument count match the node,
  instead of the full ``ORELSEC`` chain.  Structural conversions
  (``BETA_CONV``, ``FST_CONV`` ...) are registered under the same keys.
* :func:`net_conv` — the worklist normaliser.  It visits the term bottom-up
  with an explicit stack and a memo cache keyed on the interned term (sound
  under hash-consing: a term's normal form does not depend on its context),
  so shared subterms normalise once.  The memo is per call, or shared by
  every call of one conversion when the caller supplies it.  After a local
  rewrite only the rewritten subterm is re-examined, and the equality
  theorem is rebuilt via ``MK_COMB``/``ABS`` congruence **only along
  changed spines**:

  - a subterm in normal form contributes **zero** kernel inferences (it is
    recorded as "unchanged", not as a ``REFL`` theorem);
  - a node with one changed child costs one ``REFL`` (the unchanged sibling)
    plus one ``MK_COMB``;
  - a node with no changed child and no applicable rule costs nothing.

  The total inference count is therefore proportional to the number of
  *changed* nodes plus the rewrites themselves — not to (term size) x
  (number of passes) as for ``TOP_DEPTH_CONV``.

The engine is exposed through :func:`repro.logic.conv.NET_REWRITE_CONV`
(theorem lists, ``REWRITE_CONV``-compatible) and
:func:`repro.logic.conv.TOP_SWEEP_CONV` (arbitrary conversions,
``TOP_DEPTH_CONV``-compatible).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .conv import Conv, ConvError, REWR_CONV
from .kernel import ABS, KernelError, MK_COMB, REFL, TRANS, Theorem
from .lazyfmt import lazy
from .match import MatchError
from .terms import Abs, Comb, Const, Term, Var, aconv, dest_eq


class RewriteNet:
    """A head-symbol index over rewrite rules and structural conversions.

    Rules are filed under ``(head constant name, spine arity)`` of their
    left-hand side; looking up a term walks its application spine once and
    returns only the candidates that can possibly match.  Four auxiliary
    buckets cover the non-constant-headed shapes:

    * *beta* conversions fire on ``Comb`` nodes whose operator is an ``Abs``
      (top-level beta redexes);
    * *abs* rules have an abstraction LHS and fire on ``Abs`` nodes;
    * *const fallbacks* fire on any constant-headed node (used for
      ``COMPUTE_CONV``, whose applicability is data-dependent);
    * *wildcard* rules (variable-headed patterns of arity ``k``) fire on any
      node with spine arity >= ``k``.
    """

    __slots__ = ("_const", "_beta", "_abs", "_const_fallback", "_wild")

    def __init__(self) -> None:
        self._const: Dict[Tuple[str, int], List[Conv]] = {}
        self._beta: List[Conv] = []
        self._abs: List[Conv] = []
        self._const_fallback: List[Conv] = []
        self._wild: List[Tuple[int, Conv]] = []

    # -- registration --------------------------------------------------------
    def add_theorem(self, th: Theorem, fixed_vars: Iterable[Var] = ()) -> "RewriteNet":
        """Index an equational theorem (rewritten left to right)."""
        rule = REWR_CONV(th, fixed_vars)
        head = th.lhs
        arity = 0
        while isinstance(head, Comb):
            head = head.rator
            arity += 1
        if isinstance(head, Const):
            self._const.setdefault((head.name, arity), []).append(rule)
        elif isinstance(head, Var):
            self._wild.append((arity, rule))
        elif arity == 0:
            self._abs.append(rule)
        elif arity == 1:
            # an explicit beta-redex pattern ``(\x. b) a``
            self._beta.append(rule)
        else:
            # ``(\x. b) a c ...``: the matching node's rator is a Comb, not an
            # Abs, so the beta bucket would never be consulted — file as a
            # wildcard of the pattern's arity instead
            self._wild.append((arity, rule))
        return self

    def add_theorems(self, thms: Sequence[Theorem]) -> "RewriteNet":
        for th in thms:
            self.add_theorem(th)
        return self

    def add_conv(self, conv: Conv, head: str, arity: int) -> "RewriteNet":
        """Index a conversion that only applies under a known head constant."""
        self._const.setdefault((head, arity), []).append(conv)
        return self

    def add_beta(self, conv: Conv) -> "RewriteNet":
        """Register a conversion for top-level beta redexes."""
        self._beta.append(conv)
        return self

    def add_const_fallback(self, conv: Conv) -> "RewriteNet":
        """Register a conversion tried on every constant-headed node."""
        self._const_fallback.append(conv)
        return self

    def add_sweep(self, conv: Conv) -> "RewriteNet":
        """Register an unindexed conversion tried at every node."""
        self._wild.append((0, conv))
        return self

    # -- lookup --------------------------------------------------------------
    def candidates(self, t: Term) -> List[Conv]:
        """The conversions worth trying at ``t``, cheapest filter first."""
        head = t
        arity = 0
        while isinstance(head, Comb):
            head = head._rator
            arity += 1
        out: List[Conv] = []
        if isinstance(head, Const):
            rules = self._const.get((head.name, arity))
            if rules:
                out.extend(rules)
            if self._const_fallback:
                out.extend(self._const_fallback)
        if arity and self._beta and isinstance(t._rator, Abs):
            out.extend(self._beta)
        if not arity and self._abs and isinstance(t, Abs):
            out.extend(self._abs)
        for min_arity, rule in self._wild:
            if arity >= min_arity:
                out.append(rule)
        return out


# frame opcodes for the worklist below
_VISIT, _COMB_FRAME, _ABS_FRAME, _RETRY_FRAME = 0, 1, 2, 3

#: conversion failures treated as "rule not applicable"
_NOT_APPLICABLE = (ConvError, KernelError, MatchError)


def _step(net: RewriteNet, t: Term) -> Optional[Theorem]:
    """One rewrite at the root of ``t``, or ``None`` if no rule applies.

    A rule whose result does not change the term (alpha-equivalent sides)
    counts as not applicable, mirroring HOL's ``REPEATC`` — this is what
    guarantees termination for rules like ``x = x``.
    """
    for rule in net.candidates(t):
        try:
            th = rule(t)
        except _NOT_APPLICABLE:
            continue
        lhs_tm, rhs_tm = dest_eq(th.concl)
        if rhs_tm is t or aconv(lhs_tm, rhs_tm):
            continue
        return th
    return None


def _normalise(net: RewriteNet, root: Term, limit: int,
               memo: Dict[Term, Optional[Theorem]]) -> Optional[Theorem]:
    """Normalise ``root``; ``None`` means it is already in normal form.

    The memo maps each interned term to its normalisation outcome: ``None``
    for "already normal" (no theorem, no inferences) or the theorem
    ``|- t = t_nf``.  The traversal is iterative so ``let``-chain depth (one
    node per gate in a bit-blasted circuit) is not bounded by the Python
    recursion limit.
    """
    fuel = limit
    stack: List[tuple] = [(_VISIT, root)]
    while stack:
        frame = stack.pop()
        op = frame[0]
        tm = frame[1]
        if op == _VISIT:
            if tm in memo:
                continue
            if isinstance(tm, Comb):
                stack.append((_COMB_FRAME, tm))
                if tm._rand not in memo:
                    stack.append((_VISIT, tm._rand))
                if tm._rator not in memo:
                    stack.append((_VISIT, tm._rator))
                continue
            if isinstance(tm, Abs):
                stack.append((_ABS_FRAME, tm))
                if tm._body not in memo:
                    stack.append((_VISIT, tm._body))
                continue
            pre: Optional[Theorem] = None
            cur = tm
        elif op == _COMB_FRAME:
            th_rator = memo[tm._rator]
            th_rand = memo[tm._rand]
            if th_rator is None and th_rand is None:
                pre, cur = None, tm
            else:
                pre = MK_COMB(
                    th_rator if th_rator is not None else REFL(tm._rator),
                    th_rand if th_rand is not None else REFL(tm._rand),
                )
                cur = dest_eq(pre.concl)[1]
        elif op == _ABS_FRAME:
            th_body = memo[tm._body]
            if th_body is None:
                pre, cur = None, tm
            else:
                pre = ABS(tm._bvar, th_body)
                cur = dest_eq(pre.concl)[1]
        else:  # _RETRY_FRAME: the rewritten subterm has been normalised
            th = frame[2]
            rest = memo[dest_eq(th.concl)[1]]
            memo[tm] = th if rest is None else TRANS(th, rest)
            continue

        if pre is not None and cur in memo:
            # the rebuilt node is itself a shared, already-normalised term
            rest = memo[cur]
            memo[tm] = pre if rest is None else TRANS(pre, rest)
            continue
        step = _step(net, cur)
        if step is None:
            memo[tm] = pre
            continue
        fuel -= 1
        if fuel < 0:
            raise ConvError(
                lazy("net_conv: rewrite limit ({}) exceeded at {}", limit, cur)
            )
        th = step if pre is None else TRANS(pre, step)
        # only the rewritten subterm is revisited; everything already in the
        # memo (its unchanged children included) is reused at zero cost
        stack.append((_RETRY_FRAME, tm, th))
        stack.append((_VISIT, dest_eq(step.concl)[1]))
    return memo[root]


def net_conv(net: RewriteNet, limit: int = 1_000_000,
             memo: Optional[Dict[Term, Optional[Theorem]]] = None) -> Conv:
    """The worklist normaliser for ``net`` as a standard conversion.

    Returns ``|- t = t_nf``; like ``REWRITE_CONV`` it returns ``|- t = t``
    (one ``REFL``) when nothing applies.  ``limit`` bounds the number of
    rule applications per call.

    Each call normalises under a fresh memo, unless ``memo`` is given: then
    every call shares it, and a subterm normalised by one call costs no
    inference in the next.  That is sound for the same reason the per-call
    memo is (keys are interned terms, and a term's normal form does not
    depend on its context), but the memo keeps its terms and theorems alive
    for as long as the conversion is referenced.
    """

    def conv(t: Term) -> Theorem:
        th = _normalise(net, t, limit, {} if memo is None else memo)
        return REFL(t) if th is None else th

    return conv


