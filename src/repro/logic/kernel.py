"""The LCF-style kernel: theorems and primitive inference rules.

This is the trusted core of the reproduction, playing the role that the HOL
kernel plays in the paper.  A :class:`Theorem` consists of a set of
hypotheses and a conclusion, and — crucially — **can only be constructed by
the functions in this module**.  Derived rules, conversions, the Automata
theory and the whole HASH formal-synthesis layer manufacture theorems
exclusively by calling kernel rules, so any bug in those layers can make a
derivation *fail* but can never produce a false theorem (relative to the
recorded trusted base).

Primitive rules (close to HOL Light's kernel):

========================  =====================================================
``REFL t``                ``|- t = t``
``TRANS th1 th2``         from ``|- a = b`` and ``|- b = c`` infer ``|- a = c``
``MK_COMB th1 th2``       congruence of application
``ABS v th``              congruence of abstraction
``BETA_CONV tm``          ``|- (\\x. b) a = b[a/x]``
``ASSUME t``              ``{t} |- t``
``EQ_MP th1 th2``         from ``|- a = b`` and ``|- a`` infer ``|- b``
``DEDUCT_ANTISYM th1 th2`` equality of deductively equivalent propositions
``INST env th``           instantiate free term variables
``INST_TYPE env th``      instantiate type variables
``ALPHA t1 t2``           ``|- t1 = t2`` when alpha-equivalent
========================  =====================================================

Theory extensions (``new_axiom``, ``new_definition``,
``new_computable_constant`` + ``COMPUTE``) enlarge the trusted base and are
recorded in the current :class:`~repro.logic.theory.Theory` so the base can
always be audited (see :func:`trusted_base_report`).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from .ground import GroundError, term_of_value, value_of_term
from .lazyfmt import lazy
from .hol_types import HolType, TyVar, TypeMatchError, bool_ty, type_match
from .printer import theorem_to_string
from .terms import (
    Abs,
    Comb,
    Const,
    Term,
    TermError,
    Var,
    aconv,
    beta_reduce_step,
    dest_eq,
    inst_type,
    mk_eq,
    strip_comb,
    var_subst,
)
from .theory import Theory, TheoryError, bootstrap_theory


class KernelError(Exception):
    """Raised when a primitive rule is applied to unsuitable arguments."""


# A private token that gates theorem construction.
_KERNEL_TOKEN = object()


class Theorem:
    """A sequent ``hyps |- concl`` derivable in the current theory.

    Instances can only be created by the kernel functions in this module.
    Each theorem records the name of the rule that produced it and its
    premises, which lets the :mod:`repro.formal.certificates` module print a
    full derivation tree without weakening the LCF discipline.
    """

    __slots__ = ("_hyps", "_concl", "_rule", "_deps")

    def __init__(self, token, hyps: FrozenSet[Term], concl: Term, rule: str, deps: Tuple):
        if token is not _KERNEL_TOKEN:
            raise KernelError(
                "Theorem() can only be constructed by kernel inference rules"
            )
        object.__setattr__(self, "_hyps", hyps)
        object.__setattr__(self, "_concl", concl)
        object.__setattr__(self, "_rule", rule)
        object.__setattr__(self, "_deps", deps)

    def __setattr__(self, key, value):  # pragma: no cover - immutability
        raise AttributeError("Theorem instances are immutable")

    @property
    def hyps(self) -> FrozenSet[Term]:
        return self._hyps

    @property
    def concl(self) -> Term:
        return self._concl

    @property
    def rule(self) -> str:
        return self._rule

    @property
    def deps(self) -> Tuple:
        return self._deps

    def is_equation(self) -> bool:
        return self.concl.is_eq()

    @property
    def lhs(self) -> Term:
        return dest_eq(self.concl)[0]

    @property
    def rhs(self) -> Term:
        return dest_eq(self.concl)[1]

    def __str__(self) -> str:
        return theorem_to_string(self._hyps, self._concl)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Theorem<{self}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Theorem)
            and other._concl == self._concl
            and other._hyps == self._hyps
        )

    def __hash__(self) -> int:
        return hash((self._hyps, self._concl))


def _mk_thm(hyps: Iterable[Term], concl: Term, rule: str, deps: Tuple = ()) -> Theorem:
    return Theorem(_KERNEL_TOKEN, frozenset(hyps), concl, rule, deps)


# ---------------------------------------------------------------------------
# Kernel state: the current theory and proof-step counter
# ---------------------------------------------------------------------------

_state = threading.local()


def current_theory() -> Theory:
    """The theory against which constants/axioms are currently checked."""
    thy = getattr(_state, "theory", None)
    if thy is None:
        thy = bootstrap_theory()
        _state.theory = thy
    return thy


def reset_kernel() -> Theory:
    """Reset the kernel to a fresh bootstrap theory (used by tests)."""
    _state.theory = bootstrap_theory()
    _state.steps = 0
    return _state.theory


def inference_steps() -> int:
    """Number of primitive inferences performed so far (cost metric)."""
    return getattr(_state, "steps", 0)


def _count_step() -> None:
    _state.steps = getattr(_state, "steps", 0) + 1


# ---------------------------------------------------------------------------
# Primitive inference rules
# ---------------------------------------------------------------------------

def REFL(t: Term) -> Theorem:
    """``|- t = t``."""
    _count_step()
    return _mk_thm((), mk_eq(t, t), "REFL")


def ALPHA(t1: Term, t2: Term) -> Theorem:
    """``|- t1 = t2`` provided the terms are alpha-equivalent."""
    _count_step()
    if not aconv(t1, t2):
        raise KernelError(
            lazy("ALPHA: terms are not alpha-equivalent:\n  {}\n  {}", t1, t2)
        )
    return _mk_thm((), mk_eq(t1, t2), "ALPHA")


def TRANS(th1: Theorem, th2: Theorem) -> Theorem:
    """From ``|- a = b`` and ``|- b = c`` infer ``|- a = c``.

    The middle terms may differ up to alpha-equivalence.  This is the rule
    the paper uses to chain synthesis steps at constant cost.
    """
    _count_step()
    a, b1 = dest_eq(th1.concl)
    b2, c = dest_eq(th2.concl)
    if not aconv(b1, b2):
        # lazy: conversion combinators catch KernelError as control flow, and
        # the middle terms can be full gate-level descriptions
        raise KernelError(
            lazy("TRANS: middle terms do not agree:\n  {}\n  {}", b1, b2)
        )
    return _mk_thm(th1.hyps | th2.hyps, mk_eq(a, c), "TRANS", (th1, th2))


def MK_COMB(th_fun: Theorem, th_arg: Theorem) -> Theorem:
    """From ``|- f = g`` and ``|- x = y`` infer ``|- f x = g y``."""
    _count_step()
    f, g = dest_eq(th_fun.concl)
    x, y = dest_eq(th_arg.concl)
    try:
        lhs_tm = Comb(f, x)
        rhs_tm = Comb(g, y)
    except TermError as exc:
        raise KernelError(f"MK_COMB: ill-typed combination: {exc}") from exc
    return _mk_thm(th_fun.hyps | th_arg.hyps, mk_eq(lhs_tm, rhs_tm), "MK_COMB", (th_fun, th_arg))


def AP_TERM(f: Term, th: Theorem) -> Theorem:
    """From ``|- x = y`` infer ``|- f x = f y`` (congruence on the argument)."""
    return MK_COMB(REFL(f), th)


def AP_THM(th: Theorem, x: Term) -> Theorem:
    """From ``|- f = g`` infer ``|- f x = g x`` (congruence on the function)."""
    return MK_COMB(th, REFL(x))


def ABS(v: Var, th: Theorem) -> Theorem:
    """From ``|- a = b`` infer ``|- (\\v. a) = (\\v. b)``.

    ``v`` must not occur free in any hypothesis of ``th``.
    """
    _count_step()
    if not isinstance(v, Var):
        raise KernelError("ABS: first argument must be a variable")
    for h in th.hyps:
        if v in h.free_vars():
            raise KernelError(f"ABS: variable {v.name} is free in a hypothesis")
    a, b = dest_eq(th.concl)
    return _mk_thm(th.hyps, mk_eq(Abs(v, a), Abs(v, b)), "ABS", (th,))


def BETA_CONV(t: Term) -> Theorem:
    """``|- (\\x. b) a = b[a/x]`` for a top-level beta redex ``t``."""
    _count_step()
    if not (isinstance(t, Comb) and isinstance(t.rator, Abs)):
        raise KernelError(lazy("BETA_CONV: not a beta redex: {}", t))
    reduced = beta_reduce_step(t)
    return _mk_thm((), mk_eq(t, reduced), "BETA_CONV")


def ASSUME(t: Term) -> Theorem:
    """``{t} |- t`` for a boolean term ``t``."""
    _count_step()
    if t.ty != bool_ty:
        raise KernelError(lazy("ASSUME: term must be boolean, has type {}", t.ty))
    return _mk_thm((t,), t, "ASSUME")


def EQ_MP(th_eq: Theorem, th: Theorem) -> Theorem:
    """From ``|- a = b`` and ``|- a`` infer ``|- b``."""
    _count_step()
    a, b = dest_eq(th_eq.concl)
    if not aconv(a, th.concl):
        raise KernelError(
            lazy("EQ_MP: conclusion does not match equation lhs:\n  {}\n  {}",
                 a, th.concl)
        )
    return _mk_thm(th_eq.hyps | th.hyps, b, "EQ_MP", (th_eq, th))


def DEDUCT_ANTISYM(th1: Theorem, th2: Theorem) -> Theorem:
    """Derive ``|- c1 = c2`` from mutual deducibility.

    The hypotheses of the result are ``(hyps1 - {c2}) ∪ (hyps2 - {c1})``.
    """
    _count_step()
    h1 = frozenset(h for h in th1.hyps if not aconv(h, th2.concl))
    h2 = frozenset(h for h in th2.hyps if not aconv(h, th1.concl))
    return _mk_thm(h1 | h2, mk_eq(th1.concl, th2.concl), "DEDUCT_ANTISYM", (th1, th2))


def INST(env: Dict[Var, Term], th: Theorem) -> Theorem:
    """Instantiate free term variables in hypotheses and conclusion."""
    _count_step()
    for v, tm in env.items():
        if not isinstance(v, Var):
            raise KernelError(f"INST: key is not a variable: {v!r}")
        if v.ty != tm.ty:
            raise KernelError(f"INST: type mismatch for {v.name}: {v.ty} vs {tm.ty}")
    new_hyps = frozenset(var_subst(env, h) for h in th.hyps)
    new_concl = var_subst(env, th.concl)
    return _mk_thm(new_hyps, new_concl, "INST", (th,))


def INST_TYPE(env: Dict[TyVar, HolType], th: Theorem) -> Theorem:
    """Instantiate type variables in hypotheses and conclusion."""
    _count_step()
    for tv in env:
        if not isinstance(tv, TyVar):
            raise KernelError(f"INST_TYPE: key is not a type variable: {tv!r}")
    new_hyps = frozenset(inst_type(env, h) for h in th.hyps)
    new_concl = inst_type(env, th.concl)
    return _mk_thm(new_hyps, new_concl, "INST_TYPE", (th,))


def SYM(th: Theorem) -> Theorem:
    """From ``|- a = b`` infer ``|- b = a`` (derived, but used everywhere)."""
    a, _b = dest_eq(th.concl)
    eq_refl = REFL(a)
    # |- (a =) = (a =)  is not needed; use MK_COMB on the equality operator.
    eq_op = th.concl.rator.rator  # the instantiated "=" constant
    th_op = AP_TERM(eq_op, th)  # |- (= a) = (= b)
    th_ab = MK_COMB(th_op, eq_refl)  # |- (a = a) = (b = a)
    return EQ_MP(th_ab, eq_refl)


# ---------------------------------------------------------------------------
# Theory extension (trusted)
# ---------------------------------------------------------------------------

def new_axiom(t: Term, name: str = "<axiom>", theory: Optional[Theory] = None) -> Theorem:
    """Introduce ``|- t`` as an axiom of the current theory.

    The axiom is recorded in the theory's trusted base.  HASH itself only
    uses this for the once-and-for-all Automata-theory lemmas (see
    README.md, "What this reproduction substitutes"); all synthesis-time
    reasoning goes through the inference rules above.
    """
    _count_step()
    if t.ty != bool_ty:
        raise KernelError(f"new_axiom: axiom must be boolean, has type {t.ty}")
    thy = theory or current_theory()
    thy.record_axiom(name, "axiom", str(t))
    return _mk_thm((), t, f"AXIOM:{name}")


def new_definition(name: str, rhs: Term, theory: Optional[Theory] = None) -> Theorem:
    """Define a new constant ``name`` as ``rhs`` and return ``|- name = rhs``.

    ``rhs`` must be closed (no free term variables).
    """
    _count_step()
    thy = theory or current_theory()
    if rhs.free_vars():
        free = ", ".join(sorted(v.name for v in rhs.free_vars()))
        raise KernelError(f"new_definition: rhs has free variables: {free}")
    if thy.has_constant(name):
        raise TheoryError(f"new_definition: constant {name} already defined")
    thy.new_constant(name, rhs.ty, origin="definition")
    const = Const(name, rhs.ty)
    eq = mk_eq(const, rhs)
    thy.record_axiom(name, "definition", str(eq))
    return _mk_thm((), eq, f"DEFINITION:{name}")


def new_computable_constant(
    name: str,
    generic_type: HolType,
    arity: int,
    compute: Callable,
    theory: Optional[Theory] = None,
) -> Const:
    """Declare a constant together with a ground-evaluation rule.

    The Python function ``compute`` receives the decoded ground values of the
    constant's ``arity`` arguments and must return a ground value; the kernel
    rule :func:`COMPUTE` turns such evaluations into theorems
    ``|- c a1 ... an = result``.  This mirrors HOL's ``EVAL`` conversions
    compiled from defining equations and enlarges the trusted base by exactly
    the registered semantic function, which is recorded in the theory.
    """
    thy = theory or current_theory()
    thy.new_constant(
        name, generic_type, compute=compute, compute_arity=arity, origin="computation"
    )
    thy.record_axiom(name, "computation", f"{name} evaluated by registered rule (arity {arity})")
    return Const(name, generic_type)


def COMPUTE(t: Term, theory: Optional[Theory] = None) -> Theorem:
    """Evaluate a ground application of a computable constant.

    ``t`` must have the shape ``c a1 ... an`` where ``c`` carries a
    registered computation rule of arity ``n``, at an instance of its
    declared type, and every ``ai`` is a ground value term.  Returns
    ``|- t = result``.
    """
    _count_step()
    thy = theory or current_theory()
    head, args = strip_comb(t)
    if not isinstance(head, Const):
        raise KernelError(lazy("COMPUTE: head is not a constant: {}", t))
    try:
        info = thy.constant_info(head.name)
    except TheoryError as exc:
        raise KernelError(str(exc)) from exc
    if info.compute is None:
        raise KernelError(lazy("COMPUTE: constant {} has no computation rule", head.name))
    if head.ty is not info.generic_type:
        try:
            type_match(info.generic_type, head.ty)
        except TypeMatchError as exc:
            raise KernelError(lazy("COMPUTE: {} : {} is not an instance of its declared "
                                   "type {}", head.name, head.ty, info.generic_type)) from exc
    if len(args) != info.compute_arity:
        raise KernelError(
            lazy("COMPUTE: {} expects {} arguments, got {}",
                 head.name, info.compute_arity, len(args))
        )
    try:
        values = [value_of_term(a) for a in args]
    except GroundError as exc:
        raise KernelError(lazy("COMPUTE: argument is not ground: {}", exc)) from exc
    result = info.compute(*values)
    try:
        result_term = term_of_value(result)
    except GroundError as exc:
        raise KernelError(
            f"COMPUTE: {head.name} returned a non-encodable value {result!r}"
        ) from exc
    if result_term.ty != t.ty:
        raise KernelError(
            f"COMPUTE: {head.name} returned a value of type {result_term.ty}, "
            f"expected {t.ty}"
        )
    return _mk_thm((), mk_eq(t, result_term), f"COMPUTE:{head.name}")


# ---------------------------------------------------------------------------
# Auditing
# ---------------------------------------------------------------------------

def trusted_base_report(theory: Optional[Theory] = None) -> str:
    """Human-readable report of everything the current theory trusts."""
    thy = theory or current_theory()
    records = thy.trusted_base()
    lines = [f"Trusted base of theory '{thy.name}' ({len(records)} records):"]
    for rec in records:
        lines.append(f"  [{rec.kind:11s}] {rec.name}: {rec.statement}")
    return "\n".join(lines)


def derivation(th: Theorem) -> Iterator[Theorem]:
    """Each distinct theorem of the derivation DAG of ``th``, once.

    Iterative: derivation DAGs of long ``TRANS`` chains (one link per
    synthesis step) are far deeper than the Python recursion limit.
    """
    seen = set()
    stack = [th]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        yield t
        stack.extend(dep for dep in t.deps if isinstance(dep, Theorem))


def proof_size(th: Theorem) -> int:
    """Number of distinct theorems in the derivation DAG of ``th``."""
    return sum(1 for _ in derivation(th))
