"""Conversions: theorem-producing term rewriters.

A *conversion* is a function mapping a term ``t`` to a theorem ``|- t = t'``.
Conversions are the workhorse of the HASH formal synthesis steps: splitting,
joining and evaluating combinational functions (steps 1, 3 and 4 of the
paper's retiming procedure) are all performed by composing the conversions
in this module, so every intermediate circuit description is related to the
previous one by a kernel-checked equation.

The combinators follow HOL: ``ORELSEC``, ``RAND_CONV``/``RATOR_CONV`` and the
``TOP_DEPTH_CONV`` traversal, kept as the reference the worklist engine of
:mod:`repro.logic.rewriter` is tested against.  Every production rewrite
registers the conversions below on a :class:`~repro.logic.rewriter.RewriteNet`
and normalises with :func:`~repro.logic.rewriter.net_conv`:

* :func:`EVAL_CONV` — bottom-up evaluation of ground applications of
  computable constants (plus beta/LET/FST/SND reduction);
* :func:`LET_CONV`, :func:`FST_CONV`, :func:`SND_CONV` — the let/pair
  unfoldings used when flattening combinational bodies.  The pair laws
  instantiate the ``FST_PAIR``/``SND_PAIR`` axioms directly; no step of the
  library matches a pattern.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import stdlib
from .kernel import (
    ABS,
    AP_THM,
    BETA_CONV,
    COMPUTE,
    INST,
    INST_TYPE,
    KernelError,
    MK_COMB,
    REFL,
    TRANS,
    Theorem,
)
from .lazyfmt import lazy
from .terms import Abs, Comb, Term, aconv, dest_eq, dest_pair, is_pair, strip_comb

#: The type of conversions.
Conv = Callable[[Term], Theorem]


class ConvError(Exception):
    """Raised when a conversion is not applicable to a term."""


# ---------------------------------------------------------------------------
# Basic conversions and combinators
# ---------------------------------------------------------------------------

def ORELSEC(*convs: Conv) -> Conv:
    """Try conversions in order, returning the first that applies."""

    def conv(t: Term) -> Theorem:
        last: Optional[Exception] = None
        for c in convs:
            try:
                return c(t)
            except (ConvError, KernelError) as exc:
                last = exc
        raise ConvError(lazy("ORELSEC: no conversion applied to {}: {}", t, last))

    return conv


# ---------------------------------------------------------------------------
# Structural traversal
# ---------------------------------------------------------------------------

def RAND_CONV(c: Conv) -> Conv:
    """Apply ``c`` to the operand of an application."""

    def conv(t: Term) -> Theorem:
        if not isinstance(t, Comb):
            raise ConvError(lazy("RAND_CONV: not an application: {}", t))
        return MK_COMB(REFL(t.rator), c(t.rand))

    return conv


def RATOR_CONV(c: Conv) -> Conv:
    """Apply ``c`` to the operator of an application."""

    def conv(t: Term) -> Theorem:
        if not isinstance(t, Comb):
            raise ConvError(lazy("RATOR_CONV: not an application: {}", t))
        return MK_COMB(c(t.rator), REFL(t.rand))

    return conv


#: frame opcodes for the explicit-stack traversal engine below
_VISIT, _COMB_FRAME, _ABS_FRAME = 0, 1, 2


def _repeatc_apply(c: Conv, limit: int, t: Term) -> Theorem:
    """Apply ``c`` repeatedly until it fails or stops changing the term (HOL's
    ``REPEATC``)."""
    th = REFL(t)
    current = t
    for _ in range(limit):
        try:
            step = c(current)
        except (ConvError, KernelError):
            return th
        if aconv(*dest_eq(step.concl)):
            return th
        th = TRANS(th, step)
        current = dest_eq(step.concl)[1]
    raise ConvError("REPEATC: iteration limit exceeded")


def TOP_DEPTH_CONV(c: Conv, limit: int = 100_000) -> Conv:
    """Repeatedly apply ``c`` anywhere until no further change occurs.

    Each single pass applies ``REPEATC(c)`` at a node and then descends into
    the *result*'s subterms (the classic ``THENC(REPEATC(c),
    SUB_CONV(single_pass))``); passes repeat at the top until the term stops
    changing.  The traversal is iterative so ``let``-chain depth (one node
    per gate in a bit-blasted circuit) is not bounded by the Python recursion
    limit.
    """

    def single_pass(t: Term) -> Theorem:
        out: list = []
        stack: list = [(_VISIT, t, None)]
        while stack:
            frame = stack.pop()
            op = frame[0]
            if op == _VISIT:
                tm = frame[1]
                rep = _repeatc_apply(c, limit, tm)
                pre = TRANS(REFL(tm), rep)
                mid = dest_eq(rep.concl)[1]
                if isinstance(mid, Comb):
                    stack.append((_COMB_FRAME, pre, mid))
                    stack.append((_VISIT, mid.rand, None))
                    stack.append((_VISIT, mid.rator, None))
                elif isinstance(mid, Abs):
                    stack.append((_ABS_FRAME, pre, mid))
                    stack.append((_VISIT, mid.body, None))
                else:
                    out.append(TRANS(pre, REFL(mid)))
                continue
            if op == _COMB_FRAME:
                _, pre, mid = frame
                th_rand = out.pop()
                th_rator = out.pop()
                out.append(TRANS(pre, MK_COMB(th_rator, th_rand)))
                continue
            _, pre, mid = frame
            out.append(TRANS(pre, ABS(mid.bvar, out.pop())))
        return out[0]

    def conv(t: Term) -> Theorem:
        th = single_pass(t)
        current = dest_eq(th.concl)[1]
        for _ in range(limit):
            step = single_pass(current)
            new = dest_eq(step.concl)[1]
            if aconv(new, current):
                return th
            th = TRANS(th, step)
            current = new
        raise ConvError("TOP_DEPTH_CONV: iteration limit exceeded")

    return conv


# ---------------------------------------------------------------------------
# Beta / let / pair reductions and ground evaluation
# ---------------------------------------------------------------------------

def LET_CONV(t: Term) -> Theorem:
    """Unfold ``LET (\\x. b) e`` to ``b[e/x]``.

    Uses the definitional theorem ``LET_DEF`` from the standard library and a
    beta step, so the result is fully kernel-checked.
    """
    if not (
        isinstance(t, Comb)
        and isinstance(t.rator, Comb)
        and t.rator.rator.is_const("LET")
    ):
        raise ConvError(lazy("LET_CONV: not a LET redex: {}", t))
    let_def = stdlib.let_def_instance(t.rator.rator.ty)
    # |- LET f e = f e  specialised to this type; rewrite then beta-reduce.
    step1 = AP_THM(AP_THM(let_def, t.rator.rand), t.rand)
    # step1 : |- LET (\x. b) e = (\x. b) e, modulo the definition's rhs shape.
    rhs = dest_eq(step1.concl)[1]
    step2 = _reduce_applied_lambda(rhs)
    return TRANS(step1, step2)


def _reduce_applied_lambda(t: Term) -> Theorem:
    """Normalise ``((\\f x. f x) g) e``-like spines down to ``g e`` plus beta."""
    th = REFL(t)
    current = t
    for _ in range(64):
        changed = False
        # innermost-leftmost beta on the application spine
        head, args = strip_comb(current)
        if isinstance(head, Abs) and args:
            step = _beta_head_once(current)
            th = TRANS(th, step)
            current = dest_eq(step.concl)[1]
            changed = True
        if not changed:
            return th
    raise ConvError("_reduce_applied_lambda: did not terminate")


def _beta_head_once(t: Term) -> Theorem:
    """Beta-reduce the innermost redex on the application spine of ``t``."""
    rands = []
    cur = t
    while isinstance(cur, Comb) and not isinstance(cur.rator, Abs):
        rands.append(cur.rand)
        cur = cur.rator
    if not (isinstance(cur, Comb) and isinstance(cur.rator, Abs)):
        raise ConvError(lazy("_beta_head_once: no redex in {}", cur))
    th = BETA_CONV(cur)
    for rand in reversed(rands):
        th = MK_COMB(th, REFL(rand))
    return th


def _pair_law(name: str, law: Theorem, t: Term) -> Theorem:
    """Prove ``t = ...`` by ``law`` (``|- FST (a, b) = a`` or
    ``|- SND (a, b) = b``) when ``t`` applies the projection ``name`` to a
    pair literal: one ``INST_TYPE`` for the component types, then one ``INST``
    for the components, so the result's lhs is ``t``."""
    if not (isinstance(t, Comb) and t.rator.is_const(name)):
        raise ConvError(lazy("{}_CONV: not a {} application: {}", name, name, t))
    if not is_pair(t.rand):
        raise ConvError(lazy("{}_CONV: argument is not a pair literal: {}", name, t.rand))
    a, b = dest_pair(t.rand)
    a_var, b_var = dest_pair(law.lhs.rand)
    typed = INST_TYPE({a_var.ty: a.ty, b_var.ty: b.ty}, law)
    a_var, b_var = dest_pair(typed.lhs.rand)
    th = INST({a_var: a, b_var: b}, typed)
    if th.lhs is not t:  # the projection constant is not at the law's type
        raise ConvError(lazy("{} is not an instance of {}", t, law))
    return th


def FST_CONV(t: Term) -> Theorem:
    """``|- FST (a, b) = a``."""
    return _pair_law("FST", stdlib.fst_pair_theorem(), t)


def SND_CONV(t: Term) -> Theorem:
    """``|- SND (a, b) = b``."""
    return _pair_law("SND", stdlib.snd_pair_theorem(), t)


#: lazily built ``(net, conversion)`` pairs for the standard normalisations
#: (the rewriter module imports from this one, so the nets cannot be built
#: at import time)
_std_nets: dict = {}


def _std_net(name: str) -> tuple:
    """The beta/LET/pair net, plus ``COMPUTE`` for ``"eval"``, and its
    conversion (a fresh memo per call)."""
    entry = _std_nets.get(name)
    if entry is None:
        from .rewriter import beta_pair_net, net_conv

        net = beta_pair_net().add_conv(LET_CONV, "LET", 2)
        if name == "eval":
            net.add_const_fallback(COMPUTE_CONV)
        entry = _std_nets[name] = (net, net_conv(net))
    return entry


def BETA_NORM_CONV(t: Term) -> Theorem:
    """Full beta/LET/pair normalisation of ``t`` (worklist engine)."""
    return _std_net("beta_norm")[1](t)


def COMPUTE_CONV(t: Term) -> Theorem:
    """Evaluate one ground application of a computable constant."""
    try:
        return COMPUTE(t)
    except KernelError as exc:
        raise ConvError(lazy("{}", exc)) from exc


def EVAL_CONV(t: Term) -> Theorem:
    """Evaluate a term to a ground value where possible.

    Performs a bottom-up sweep of beta/LET/pair reduction plus computation
    rules on the worklist engine (:mod:`repro.logic.rewriter`): shared ground
    subterms evaluate once and unchanged subtrees cost no inferences.  This
    is the conversion used for step 4 of the retiming procedure (computing
    the retimed initial state ``f(q)``).
    """
    return _std_net("eval")[1](t)


def shared_eval_conv() -> Conv:
    """``EVAL_CONV`` with one memo shared by every call of the result.

    A subterm evaluated by one call costs no inference in a later one, so
    evaluating many terms that share structure (one circuit under every
    input vector) pays for each distinct subterm once.  The memo, and so
    every theorem it holds, lives as long as the returned conversion.
    """
    from .rewriter import net_conv

    return net_conv(_std_net("eval")[0], memo={})


# ---------------------------------------------------------------------------
# Conversion/rule glue
# ---------------------------------------------------------------------------

def RHS_CONV_RULE(c: Conv, th: Theorem) -> Theorem:
    """Apply a conversion to the right-hand side of an equational theorem."""
    if not th.is_equation():
        raise ConvError("RHS_CONV_RULE: theorem is not an equation")
    step = c(th.rhs)
    return TRANS(th, step)
