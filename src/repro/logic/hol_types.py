"""Simple types for the higher-order logic kernel.

The type language follows classical HOL: a type is either a *type variable*
(written ``'a``, ``'b`` ...) or the application of a *type operator* to a
(possibly empty) list of argument types.  The kernel ships with the standard
operators ``bool``, ``fun`` (written ``a -> b``), ``prod`` (written
``a # b``) and ``num``; theories may register further operators through
:class:`repro.logic.theory.Theory`.

Types are immutable and **hash-consed**: the constructors intern every type
in a global weak table, so structurally equal types are pointer-identical.
The classes therefore keep the interpreter's identity equality and hashing —
both O(1) regardless of how deeply nested the type is.
Every traversal in this module (substitution, matching, rendering) uses an
explicit work stack, so arbitrarily deep types (the nested product types of
large bit-blasted state tuples) never hit the Python recursion limit.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple
from weakref import WeakValueDictionary

from .lazyfmt import lazy

#: Global intern table mapping structural keys to the unique live instance.
_intern_table: "WeakValueDictionary" = WeakValueDictionary()

_EMPTY_TVS: frozenset = frozenset()


class HolType:
    """Base class of HOL types.  Instances are immutable and interned."""

    __slots__ = ("__weakref__",)

    # -- structure ---------------------------------------------------------
    def is_vartype(self) -> bool:
        return isinstance(self, TyVar)

    def is_type(self) -> bool:
        return isinstance(self, TyApp)

    def is_fun(self) -> bool:
        return isinstance(self, TyApp) and self.op == "fun"

    def is_prod(self) -> bool:
        return isinstance(self, TyApp) and self.op == "prod"

    # -- accessors ---------------------------------------------------------
    @property
    def domain(self) -> "HolType":
        """Argument type of a function type ``a -> b`` (returns ``a``)."""
        if not self.is_fun():
            raise TypeError(f"domain: not a function type: {self}")
        return self.args[0]  # type: ignore[attr-defined]

    @property
    def codomain(self) -> "HolType":
        """Result type of a function type ``a -> b`` (returns ``b``)."""
        if not self.is_fun():
            raise TypeError(f"codomain: not a function type: {self}")
        return self.args[1]  # type: ignore[attr-defined]

    @property
    def fst_type(self) -> "HolType":
        if not self.is_prod():
            raise TypeError(f"fst_type: not a product type: {self}")
        return self.args[0]  # type: ignore[attr-defined]

    @property
    def snd_type(self) -> "HolType":
        if not self.is_prod():
            raise TypeError(f"snd_type: not a product type: {self}")
        return self.args[1]  # type: ignore[attr-defined]

    # -- traversal ---------------------------------------------------------
    def type_vars(self) -> Set["TyVar"]:
        """The set of type variables occurring in this type."""
        return set(self._tvs)  # type: ignore[attr-defined]

    def subst(self, env: Dict["TyVar", "HolType"]) -> "HolType":
        """Apply a type-variable substitution to this type."""
        return _type_subst(self, env)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"HolType({self})"


class TyVar(HolType):
    """A type variable, e.g. ``'a``."""

    __slots__ = ("name", "_tvs")

    def __new__(cls, name: str):
        if not name:
            raise ValueError("type variable needs a non-empty name")
        key = ("TyVar", name)
        cached = _intern_table.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_tvs", frozenset((self,)))
        return _intern_table.setdefault(key, self)

    def __setattr__(self, key, value):  # pragma: no cover - immutability
        raise AttributeError("HolType instances are immutable")

    def __str__(self) -> str:
        return f"'{self.name}" if not self.name.startswith("'") else self.name


class TyApp(HolType):
    """Application of a type operator, e.g. ``bool`` or ``num -> bool``."""

    __slots__ = ("op", "args", "_tvs")

    def __new__(cls, op: str, args: Sequence[HolType] = ()):
        if not op:
            raise ValueError("type operator needs a non-empty name")
        args = tuple(args)
        key = ("TyApp", op, args)
        cached = _intern_table.get(key)
        if cached is not None:
            return cached
        for a in args:
            if not isinstance(a, HolType):
                raise TypeError(f"type argument is not a HolType: {a!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        if args:
            tvs = args[0]._tvs
            for a in args[1:]:
                if a._tvs:
                    tvs = tvs | a._tvs
        else:
            tvs = _EMPTY_TVS
        object.__setattr__(self, "_tvs", tvs)
        return _intern_table.setdefault(key, self)

    def __setattr__(self, key, value):  # pragma: no cover - immutability
        raise AttributeError("HolType instances are immutable")

    def __str__(self) -> str:
        return _type_to_str(self)


def _type_to_str(ty: HolType) -> str:
    """Render a type with an explicit stack (deep types never recurse)."""
    memo: Dict[HolType, str] = {}
    stack = [ty]
    while stack:
        t = stack[-1]
        if t in memo:
            stack.pop()
            continue
        if isinstance(t, TyVar):
            memo[t] = str(t)
            stack.pop()
            continue
        assert isinstance(t, TyApp)
        pending = [a for a in t.args if a not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if t.op == "fun":
            dom, cod = t.args
            dom_s = f"({memo[dom]})" if dom.is_fun() else memo[dom]
            memo[t] = f"{dom_s} -> {memo[cod]}"
        elif t.op == "prod":
            fst, snd = t.args
            fst_s = f"({memo[fst]})" if fst.is_fun() or fst.is_prod() else memo[fst]
            snd_s = f"({memo[snd]})" if snd.is_fun() else memo[snd]
            memo[t] = f"{fst_s} # {snd_s}"
        elif not t.args:
            memo[t] = t.op
        else:
            inner = ", ".join(memo[a] for a in t.args)
            memo[t] = f"({inner}){t.op}"
    return memo[ty]


# ---------------------------------------------------------------------------
# Ground types and constructors
# ---------------------------------------------------------------------------

#: The type of booleans.
bool_ty = TyApp("bool")

#: The type of natural numbers (used for word values and widths).
num_ty = TyApp("num")


def mk_fun_ty(dom: HolType, cod: HolType) -> HolType:
    """Build (or fetch the interned) function type ``dom -> cod``."""
    return TyApp("fun", (dom, cod))


#: Short alias used by the interning tests: ``mk_fun(a, b) is mk_fun(a, b)``.
mk_fun = mk_fun_ty


def mk_prod_ty(fst: HolType, snd: HolType) -> HolType:
    """Build the product type ``fst # snd``."""
    return TyApp("prod", (fst, snd))


def dest_fun_ty(ty: HolType) -> Tuple[HolType, HolType]:
    """Destruct a function type into ``(domain, codomain)``."""
    if not ty.is_fun():
        raise TypeError(f"dest_fun_ty: not a function type: {ty}")
    return ty.args[0], ty.args[1]  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def _type_subst(ty: HolType, env: Dict[TyVar, HolType]) -> HolType:
    if not env or ty._tvs.isdisjoint(env):  # type: ignore[attr-defined]
        return ty
    memo: Dict[HolType, HolType] = {}
    stack = [ty]
    while stack:
        t = stack[-1]
        if t in memo:
            stack.pop()
            continue
        if isinstance(t, TyVar):
            memo[t] = env.get(t, t)
            stack.pop()
            continue
        assert isinstance(t, TyApp)
        if t._tvs.isdisjoint(env):
            memo[t] = t
            stack.pop()
            continue
        pending = [a for a in t.args if a not in memo]
        if pending:
            stack.extend(pending)
            continue
        new_args = tuple(memo[a] for a in t.args)
        memo[t] = t if new_args == t.args else TyApp(t.op, new_args)
        stack.pop()
    return memo[ty]


def type_subst(env: Dict[TyVar, HolType], ty: HolType) -> HolType:
    """Apply the type substitution ``env`` to ``ty``."""
    return _type_subst(ty, env)


def type_match(
    pattern: HolType, target: HolType, env: Dict[TyVar, HolType] = None
) -> Dict[TyVar, HolType]:
    """Match ``pattern`` against ``target``.

    Returns a substitution ``env`` over the pattern's type variables such that
    ``pattern.subst(env) == target``.  Raises :class:`TypeMatchError` if no
    such substitution exists (or if it conflicts with the incoming ``env``).
    """
    env = dict(env or {})
    _type_match(pattern, target, env)
    return env


class TypeMatchError(Exception):
    """Raised when two types cannot be matched."""


def _type_match(pattern: HolType, target: HolType, env: Dict[TyVar, HolType]) -> None:
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if p is t and not p._tvs:  # type: ignore[attr-defined]
            continue
        if isinstance(p, TyVar):
            bound = env.get(p)
            if bound is None:
                env[p] = t
            elif bound is not t:
                raise TypeMatchError(
                    lazy("type variable {} matched against both {} and {}", p, bound, t)
                )
            continue
        assert isinstance(p, TyApp)
        if not isinstance(t, TyApp) or t.op != p.op or len(t.args) != len(p.args):
            raise TypeMatchError(lazy("cannot match {} against {}", p, t))
        stack.extend(reversed(list(zip(p.args, t.args))))
