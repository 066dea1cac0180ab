"""The standard library installed on top of the bare kernel.

This module extends the current theory with

* the boolean literals ``T`` / ``F`` and the usual connectives,
* the ``LET`` combinator and its defining theorem ``LET_DEF``,
* the pair projection laws ``FST (a, b) = a`` and ``SND (a, b) = b``,
* natural-number arithmetic (``ADD``, ``SUB``, ``MUL``), and
* the word-level hardware operators used by the circuit embedding
  (``ADDW``, ``INCW``, ``EQW``, ``MUXW`` ... all parameterised by a width and
  computing modulo ``2**width``).

All connectives and operators are *computable constants*
(:func:`repro.logic.kernel.new_computable_constant`), so ground applications
can be evaluated by ``EVAL_CONV`` producing kernel theorems.  The only
non-computational extensions are ``LET_DEF`` (a definition) and the two pair
projection laws (theory axioms, see README.md, "What this reproduction
substitutes").

Everything here is installed *idempotently per theory*: the first call to
:func:`ensure_stdlib` (or any accessor) performs the installation and caches
the produced theorems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .hol_types import HolType, TyVar, bool_ty, mk_fun_ty, mk_prod_ty, num_ty
from .kernel import (
    INST_TYPE,
    Theorem,
    current_theory,
    new_axiom,
    new_computable_constant,
    new_definition,
)
from .terms import Abs, Comb, Const, Term, Var, mk_eq, mk_pair
from .theory import Theory

_A = TyVar("a")
_B = TyVar("b")


def _fun(*tys: HolType) -> HolType:
    """Right-associated function type ``t1 -> t2 -> ... -> tn``."""
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = mk_fun_ty(ty, out)
    return out


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass
class StdlibTheorems:
    """Theorems and constants produced when installing the standard library."""

    let_def: Theorem
    fst_pair: Theorem
    snd_pair: Theorem
    constants: Dict[str, Const] = field(default_factory=dict)


_installed: Dict[int, StdlibTheorems] = {}


def ensure_stdlib(theory: Optional[Theory] = None) -> StdlibTheorems:
    """Install the standard library into ``theory`` (idempotent)."""
    thy = theory or current_theory()
    key = id(thy)
    if key in _installed:
        return _installed[key]

    constants: Dict[str, Const] = {}

    # -- booleans ------------------------------------------------------------
    thy.new_constant("T", bool_ty, origin="primitive")
    thy.new_constant("F", bool_ty, origin="primitive")

    def comp(name: str, ty: HolType, arity: int, fn) -> None:
        constants[name] = new_computable_constant(name, ty, arity, fn, theory=thy)

    b3 = _fun(bool_ty, bool_ty, bool_ty)
    comp("~", _fun(bool_ty, bool_ty), 1, lambda a: not a)
    comp("/\\", b3, 2, lambda a, b: bool(a and b))
    comp("\\/", b3, 2, lambda a, b: bool(a or b))
    comp("XOR", b3, 2, lambda a, b: bool(a) != bool(b))
    comp("NAND", b3, 2, lambda a, b: not (a and b))
    comp("NOR", b3, 2, lambda a, b: not (a or b))
    comp("XNOR", b3, 2, lambda a, b: bool(a) == bool(b))
    comp("MUXB", _fun(bool_ty, bool_ty, bool_ty, bool_ty), 3,
         lambda s, a, b: bool(a) if s else bool(b))

    # -- natural-number arithmetic --------------------------------------------
    n2 = _fun(num_ty, num_ty, num_ty)
    comp("ADD", n2, 2, lambda a, b: a + b)
    comp("SUB", n2, 2, lambda a, b: max(a - b, 0))
    comp("MUL", n2, 2, lambda a, b: a * b)

    # -- word-level hardware operators (width-parameterised, modulo 2**w) -----
    w2 = _fun(num_ty, num_ty, num_ty)            # width, operand -> result
    w3 = _fun(num_ty, num_ty, num_ty, num_ty)    # width, a, b -> result
    wb = _fun(num_ty, num_ty, bool_ty)           # a, b -> bool
    comp("INCW", w2, 2, lambda w, a: (a + 1) & _mask(w))
    comp("DECW", w2, 2, lambda w, a: (a - 1) & _mask(w))
    comp("NOTW", w2, 2, lambda w, a: (~a) & _mask(w))
    comp("ADDW", w3, 3, lambda w, a, b: (a + b) & _mask(w))
    comp("SUBW", w3, 3, lambda w, a, b: (a - b) & _mask(w))
    comp("MULW", w3, 3, lambda w, a, b: (a * b) & _mask(w))
    comp("ANDW", w3, 3, lambda w, a, b: (a & b) & _mask(w))
    comp("ORW", w3, 3, lambda w, a, b: (a | b) & _mask(w))
    comp("XORW", w3, 3, lambda w, a, b: (a ^ b) & _mask(w))
    comp("SHLW", w3, 3, lambda w, a, b: (a << b) & _mask(w))
    comp("SHRW", w3, 3, lambda w, a, b: (a >> b) & _mask(w))
    comp("EQW", wb, 2, lambda a, b: a == b)
    comp("NEQW", wb, 2, lambda a, b: a != b)
    comp("LTW", wb, 2, lambda a, b: a < b)
    comp("GEW", wb, 2, lambda a, b: a >= b)
    comp("MUXW", _fun(bool_ty, num_ty, num_ty, num_ty), 3,
         lambda s, a, b: a if s else b)

    # -- LET ------------------------------------------------------------------
    f_var = Var("f", mk_fun_ty(_A, _B))
    x_var = Var("x", _A)
    let_rhs = Abs(f_var, Abs(x_var, Comb(f_var, x_var)))
    let_def = new_definition("LET", let_rhs, theory=thy)

    # -- pair projection laws --------------------------------------------------
    a_var = Var("a", _A)
    b_var = Var("b", _B)
    pair_ab = mk_pair(a_var, b_var)
    fst_tm = Comb(Const("FST", mk_fun_ty(mk_prod_ty(_A, _B), _A)), pair_ab)
    snd_tm = Comb(Const("SND", mk_fun_ty(mk_prod_ty(_A, _B), _B)), pair_ab)
    fst_pair = new_axiom(mk_eq(fst_tm, a_var), name="FST_PAIR", theory=thy)
    snd_pair = new_axiom(mk_eq(snd_tm, b_var), name="SND_PAIR", theory=thy)

    record = StdlibTheorems(
        let_def=let_def, fst_pair=fst_pair, snd_pair=snd_pair, constants=constants
    )
    _installed[key] = record
    return record


# ---------------------------------------------------------------------------
# Accessors
# ---------------------------------------------------------------------------

def let_def() -> Theorem:
    """``|- LET = \\f x. f x`` (generic)."""
    return ensure_stdlib().let_def


def let_def_instance(let_ty: HolType) -> Theorem:
    """The LET definition instantiated so the defined constant has ``let_ty``.

    ``let_ty`` is the full type of the LET constant occurrence, i.e.
    ``(a -> b) -> a -> b`` for the concrete ``a``/``b`` at the use site.
    """
    from .hol_types import type_match

    generic = ensure_stdlib().let_def.lhs.ty
    env = type_match(generic, let_ty)
    return INST_TYPE(env, ensure_stdlib().let_def)


def fst_pair_theorem() -> Theorem:
    """``|- FST (a, b) = a`` (generic)."""
    return ensure_stdlib().fst_pair


def snd_pair_theorem() -> Theorem:
    """``|- SND (a, b) = b`` (generic)."""
    return ensure_stdlib().snd_pair


def mk_let(var: Var, value: Term, body: Term) -> Term:
    """Build ``let var = value in body`` as ``LET (\\var. body) value``."""
    ensure_stdlib()
    let_ty = mk_fun_ty(mk_fun_ty(var.ty, body.ty), mk_fun_ty(var.ty, body.ty))
    return Comb(Comb(Const("LET", let_ty), Abs(var, body)), value)


def dest_let(t: Term):
    """Destruct ``LET (\\var. body) value`` into ``(var, value, body)``."""
    from .lazyfmt import lazy
    from .terms import TermError

    if is_let(t):
        ab = t.rator.rand
        return ab.bvar, t.rand, ab.body
    raise TermError(lazy("dest_let: not a let term: {}", t))


def is_let(t: Term) -> bool:
    return (
        isinstance(t, Comb)
        and isinstance(t.rator, Comb)
        and t.rator.rator.is_const("LET")
        and isinstance(t.rator.rand, Abs)
    )


def word_op(name: str, *args: Term) -> Term:
    """Apply a (monomorphic) standard-library operator constant to arguments."""
    ensure_stdlib()
    out: Term = Const(name, current_theory().constant_info(name).generic_type)
    for a in args:
        out = Comb(out, a)
    return out
