"""First-order term matching (with type matching).

:func:`term_match` finds substitutions ``(term_env, type_env)`` such that
instantiating the pattern with ``type_env`` (types) and then ``term_env``
(free variables) yields the target term, up to alpha-equivalence.  This is
the engine behind ``REWR_CONV`` and behind matching a circuit description
against the left-hand side of the universal retiming theorem (step 2 of the
paper's procedure).

Only *first-order* patterns are supported: a pattern variable may not be
applied to arguments that contain bound variables of the pattern.  That is
sufficient for the whole library; higher-order instantiations of the
retiming theorem are produced directly (the theorem is stored with free
function variables ``f`` and ``g`` which are first-order positions).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from .hol_types import HolType, TyVar, TypeMatchError, type_match
from .lazyfmt import lazy
from .terms import Abs, Comb, Const, Term, Var, aconv


class MatchError(Exception):
    """Raised when a pattern does not match a target term."""


Substitution = Tuple[Dict[Var, Term], Dict[TyVar, HolType]]


def term_match(
    pattern: Term,
    target: Term,
    avoid: Optional[Iterable[Var]] = None,
    term_env: Optional[Dict[Var, Term]] = None,
    type_env: Optional[Dict[TyVar, HolType]] = None,
) -> Substitution:
    """Match ``pattern`` against ``target``.

    ``avoid`` lists pattern variables that must *not* be instantiated (they
    are treated as local constants).  Returns ``(term_env, type_env)``;
    raises :class:`MatchError` when no match exists.
    """
    tenv: Dict[Var, Term] = dict(term_env or {})
    tyenv: Dict[TyVar, HolType] = dict(type_env or {})
    fixed: Set[Var] = set(avoid or ())
    _match(pattern, target, tenv, tyenv, fixed, {}, {})
    return tenv, tyenv


def _match(
    pattern: Term,
    target: Term,
    tenv: Dict[Var, Term],
    tyenv: Dict[TyVar, HolType],
    fixed: Set[Var],
    pbound: Dict[Var, int],
    tbound: Dict[Var, int],
) -> None:
    # Iterative worklist traversal (left-to-right, like the natural
    # recursion); binder maps are copied per abstraction only.
    stack = [(pattern, target, pbound, tbound)]
    while stack:
        p, t, pb, tb = stack.pop()
        if isinstance(p, Var):
            if p in pb:
                # A bound variable of the pattern must map to the
                # corresponding bound variable of the target.
                if not (isinstance(t, Var) and tb.get(t) == pb[p]):
                    raise MatchError(
                        lazy("bound variable {} does not correspond to {}", p.name, t)
                    )
                continue
            if p in fixed:
                if not (isinstance(t, Var) and t is p):
                    raise MatchError(
                        f"fixed variable {p.name} cannot be instantiated"
                    )
                continue
            # Pattern variable: bind (or check) it.  First make the types agree.
            try:
                tyenv.update(type_match(p.ty, t.ty, tyenv))
            except TypeMatchError as exc:
                raise MatchError(lazy("{}", exc)) from exc
            # The instantiation must not capture bound variables of the target.
            for fv in t.free_vars():
                if fv in tb:
                    raise MatchError(
                        f"instantiation of {p.name} would capture bound "
                        f"variable {fv.name}"
                    )
            existing = tenv.get(p)
            if existing is None:
                tenv[p] = t
            elif not aconv(existing, t):
                raise MatchError(
                    f"pattern variable {p.name} matched against two different terms"
                )
            continue

        if isinstance(p, Const):
            if not (isinstance(t, Const) and t.name == p.name):
                raise MatchError(lazy("constant {} does not match {}", p.name, t))
            try:
                tyenv.update(type_match(p.ty, t.ty, tyenv))
            except TypeMatchError as exc:
                raise MatchError(lazy("{}", exc)) from exc
            continue

        if isinstance(p, Comb):
            if not isinstance(t, Comb):
                raise MatchError(lazy("application pattern does not match {}", t))
            stack.append((p.rand, t.rand, pb, tb))
            stack.append((p.rator, t.rator, pb, tb))
            continue

        assert isinstance(p, Abs)
        if not isinstance(t, Abs):
            raise MatchError(lazy("abstraction pattern does not match {}", t))
        try:
            tyenv.update(type_match(p.bvar.ty, t.bvar.ty, tyenv))
        except TypeMatchError as exc:
            raise MatchError(lazy("{}", exc)) from exc
        depth = len(pb)
        new_pbound = dict(pb)
        new_tbound = dict(tb)
        new_pbound[p.bvar] = depth
        new_tbound[t.bvar] = depth
        stack.append((p.body, t.body, new_pbound, new_tbound))
