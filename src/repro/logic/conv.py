"""Conversions: theorem-producing term rewriters.

A *conversion* is a function mapping a term ``t`` to a theorem ``|- t = t'``.
Conversions are the workhorse of the HASH formal synthesis steps: splitting,
joining and evaluating combinational functions (steps 1, 3 and 4 of the
paper's retiming procedure) are all performed by composing the conversions
in this module, so every intermediate circuit description is related to the
previous one by a kernel-checked equation.

The combinators follow HOL: ``ORELSEC``, ``RAND_CONV``/``RATOR_CONV``, the
``TOP_DEPTH_CONV`` traversal (kept as the reference the worklist engine of
:mod:`repro.logic.rewriter` is tested against) and its worklist counterparts
``NET_REWRITE_CONV``/``TOP_SWEEP_CONV``, plus:

* :func:`REWR_CONV` — rewrite with an equational theorem, via first-order
  matching and kernel instantiation;
* :func:`EVAL_CONV` — bottom-up evaluation of ground applications of
  computable constants (plus beta/LET/FST/SND reduction);
* :func:`LET_CONV`, :func:`FST_CONV`, :func:`SND_CONV` — the let/pair
  unfoldings used when flattening combinational bodies.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from . import stdlib
from .kernel import (
    ABS,
    ALPHA,
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
from .match import MatchError, term_match
from .terms import Abs, Comb, Term, Var, aconv, dest_eq, strip_comb

#: The type of conversions.
Conv = Callable[[Term], Theorem]


class ConvError(Exception):
    """Raised when a conversion is not applicable to a term."""


# ---------------------------------------------------------------------------
# Basic conversions and combinators
# ---------------------------------------------------------------------------

def NO_CONV(t: Term) -> Theorem:
    """The conversion that always fails."""
    raise ConvError(lazy("NO_CONV applied to {}", t))


def ORELSEC(*convs: Conv) -> Conv:
    """Try conversions in order, returning the first that applies."""

    def conv(t: Term) -> Theorem:
        last: Optional[Exception] = None
        for c in convs:
            try:
                return c(t)
            except (ConvError, KernelError, MatchError) as exc:
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
        except (ConvError, KernelError, MatchError):
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
# Rewriting with theorems
# ---------------------------------------------------------------------------

def REWR_CONV(th: Theorem, fixed_vars: Iterable[Var] = ()) -> Conv:
    """Rewrite with the equational theorem ``th`` (left to right).

    The conversion matches the left-hand side of ``th`` against the input
    term, instantiates ``th`` through the kernel and returns the resulting
    equation.  Hypotheses of ``th`` are carried over unchanged.
    """
    if not th.is_equation():
        raise ConvError(lazy("REWR_CONV: theorem is not an equation: {}", th))
    pattern = th.lhs
    fixed = tuple(fixed_vars)

    def conv(t: Term) -> Theorem:
        try:
            term_env, type_env = term_match(pattern, t, avoid=fixed)
        except MatchError as exc:
            raise ConvError(lazy("REWR_CONV: {}", exc)) from exc
        out = th
        if type_env:
            out = INST_TYPE(type_env, out)
            # Re-key the term environment with instantiated variable types.
            from .terms import inst_type as _it

            term_env = { _it(type_env, v): tm for v, tm in term_env.items() }  # type: ignore[misc]
        if term_env:
            out = INST(term_env, out)
        # The instantiated lhs may differ from t only up to alpha.
        if not aconv(out.lhs, t):
            raise ConvError(
                lazy("REWR_CONV: instantiated lhs {} is not the target {}", out.lhs, t)
            )
        if out.lhs != t:
            out = TRANS(ALPHA(t, out.lhs), out)
        return out

    return conv


def GEN_REWRITE_CONV(traversal: Callable[[Conv], Conv], thms: Sequence[Theorem]) -> Conv:
    """Rewrite with any of ``thms`` using the given traversal strategy."""
    base = ORELSEC(*[REWR_CONV(th) for th in thms]) if thms else NO_CONV
    return traversal(base)


def REWRITE_CONV(thms: Sequence[Theorem]) -> Conv:
    """Normalise with the given equations using a top-down repeated sweep."""
    return GEN_REWRITE_CONV(TOP_DEPTH_CONV, thms)


def NET_REWRITE_CONV(rules, limit: int = 1_000_000) -> Conv:
    """``REWRITE_CONV``-compatible normalisation on the worklist engine.

    ``rules`` is a sequence of equational theorems (or a prebuilt
    :class:`repro.logic.rewriter.RewriteNet`).  The result proves a theorem
    alpha-equivalent to ``REWRITE_CONV(rules)``'s, but rule candidates are
    found through a head-symbol index and unchanged subterms contribute no
    kernel inferences (see :mod:`repro.logic.rewriter`).
    """
    from .rewriter import RewriteNet, net_conv

    if isinstance(rules, RewriteNet):
        return net_conv(rules, limit=limit)
    return net_conv(RewriteNet().add_theorems(list(rules)), limit=limit)


def TOP_SWEEP_CONV(c: Conv, limit: int = 1_000_000) -> Conv:
    """``TOP_DEPTH_CONV``-compatible normalisation on the worklist engine.

    Applies ``c`` at every node until no further change occurs, like
    ``TOP_DEPTH_CONV(c)``, but revisits only changed spines instead of
    re-sweeping the whole term per pass.  ``c`` is tried unindexed at every
    node; when the rewrite set has known head symbols, build a
    :class:`repro.logic.rewriter.RewriteNet` instead for candidate filtering.
    """
    from .rewriter import RewriteNet, net_conv

    return net_conv(RewriteNet().add_sweep(c), limit=limit)


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


def FST_CONV(t: Term) -> Theorem:
    """``|- FST (a, b) = a``."""
    if not (isinstance(t, Comb) and t.rator.is_const("FST")):
        raise ConvError(lazy("FST_CONV: not a FST application: {}", t))
    pair = t.rand
    from .terms import dest_pair, is_pair

    if not is_pair(pair):
        raise ConvError(lazy("FST_CONV: argument is not a pair literal: {}", pair))
    a, b = dest_pair(pair)
    return REWR_CONV(stdlib.fst_pair_theorem())(t)


def SND_CONV(t: Term) -> Theorem:
    """``|- SND (a, b) = b``."""
    if not (isinstance(t, Comb) and t.rator.is_const("SND")):
        raise ConvError(lazy("SND_CONV: not a SND application: {}", t))
    from .terms import is_pair

    if not is_pair(t.rand):
        raise ConvError(lazy("SND_CONV: argument is not a pair literal: {}", t.rand))
    return REWR_CONV(stdlib.snd_pair_theorem())(t)


#: lazily built ``(net, conversion)`` pairs for the standard normalisations
#: (the rewriter module imports from this one, so the nets cannot be built
#: at import time)
_std_nets: dict = {}


def _std_net(name: str) -> tuple:
    """The beta/LET/pair net, plus ``COMPUTE`` for ``"eval"``, and its
    conversion (a fresh memo per call)."""
    entry = _std_nets.get(name)
    if entry is None:
        from .rewriter import RewriteNet, net_conv

        net = RewriteNet()
        net.add_beta(BETA_CONV)
        net.add_conv(LET_CONV, "LET", 2)
        net.add_conv(FST_CONV, "FST", 1)
        net.add_conv(SND_CONV, "SND", 1)
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
