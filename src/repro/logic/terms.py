"""Terms of the higher-order logic kernel.

The term language is the simply-typed lambda calculus with constants:

* :class:`Var` — a variable with a name and a type,
* :class:`Const` — a constant with a name and a type (an instance of the
  constant's generic type registered in the :class:`~repro.logic.theory.Theory`),
* :class:`Comb` — application ``f x``,
* :class:`Abs` — abstraction ``\\x. t``.

Terms are immutable and **hash-consed**: each constructor interns its result
in a global weak table keyed on the (already interned) children, so
structurally equal terms are pointer-identical.  The classes therefore keep
the interpreter's identity ``==`` and ``hash`` — both O(1) and without a
Python-level call — which is what makes the kernel's hot path (``TRANS``,
``aconv``, dictionary lookups in substitution environments) cheap on the
deep ``let`` chains produced by gate-level circuit embeddings.  ``==`` is
*not* alpha-equivalence; use :func:`aconv` for that.

Every traversal (free variables, capture-avoiding substitution, type
instantiation, alpha-conversion, beta-normalisation) uses an explicit work
stack with memoisation keyed on interned identity, so terms of arbitrary
depth never hit the Python recursion limit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple
from weakref import WeakValueDictionary

from .hol_types import (
    HolType,
    TyVar,
    bool_ty,
    dest_fun_ty,
    mk_fun_ty,
    mk_prod_ty,
    type_subst,
)


class TermError(Exception):
    """Raised for ill-formed term constructions."""


#: Global intern table mapping structural keys to the unique live instance.
_intern_table: "WeakValueDictionary" = WeakValueDictionary()

_intern_hits = 0
_intern_misses = 0


def term_intern_stats() -> Dict[str, int]:
    """Counters of the term intern table: hits, misses and live entries."""
    return {
        "hits": _intern_hits,
        "misses": _intern_misses,
        "live": len(_intern_table),
    }


_EMPTY_FVS: frozenset = frozenset()


class Term:
    """Base class of HOL terms.  Instances are immutable and interned."""

    __slots__ = ("__weakref__",)

    # -- typing ------------------------------------------------------------
    @property
    def ty(self) -> HolType:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- structure predicates ------------------------------------------------
    def is_var(self) -> bool:
        return isinstance(self, Var)

    def is_const(self, name: Optional[str] = None) -> bool:
        return isinstance(self, Const) and (name is None or self.name == name)

    def is_eq(self) -> bool:
        """Is this term an equality ``a = b``?"""
        return (
            isinstance(self, Comb)
            and isinstance(self.rator, Comb)
            and self.rator.rator.is_const("=")
        )

    # -- common accessors ----------------------------------------------------
    @property
    def rator(self) -> "Term":
        raise TermError(f"rator: not a combination: {self}")

    @property
    def rand(self) -> "Term":
        raise TermError(f"rand: not a combination: {self}")

    @property
    def bvar(self) -> "Var":
        raise TermError(f"bvar: not an abstraction: {self}")

    @property
    def body(self) -> "Term":
        raise TermError(f"body: not an abstraction: {self}")

    # -- traversal -----------------------------------------------------------
    def free_vars(self) -> Set["Var"]:
        return set(free_vars_set(self))

    def constants(self) -> Set["Const"]:
        out: Set[Const] = set()
        seen: Set[Term] = set()
        stack: List[Term] = [self]
        while stack:
            tm = stack.pop()
            if tm in seen:
                continue
            seen.add(tm)
            if isinstance(tm, Const):
                out.add(tm)
            elif isinstance(tm, Comb):
                stack.append(tm._rator)
                stack.append(tm._rand)
            elif isinstance(tm, Abs):
                stack.append(tm._body)
        return out

    def type_vars(self) -> Set[TyVar]:
        out: Set[TyVar] = set()
        seen: Set[Term] = set()
        stack: List[Term] = [self]
        while stack:
            tm = stack.pop()
            if tm in seen:
                continue
            seen.add(tm)
            if isinstance(tm, (Var, Const)):
                out.update(tm.ty._tvs)  # type: ignore[attr-defined]
            elif isinstance(tm, Comb):
                stack.append(tm._rator)
                stack.append(tm._rand)
            elif isinstance(tm, Abs):
                out.update(tm._bvar.ty._tvs)  # type: ignore[attr-defined]
                stack.append(tm._body)
        return out

    def size(self) -> int:
        """Number of term nodes, counting shared subterms once per occurrence
        (a rough complexity measure)."""
        return _term_size(self)

    # -- operations ----------------------------------------------------------
    def subst(self, env: Dict["Var", "Term"]) -> "Term":
        """Capture-avoiding substitution of free variables."""
        return var_subst(env, self)

    def inst_type(self, env: Dict[TyVar, HolType]) -> "Term":
        """Instantiate type variables throughout the term."""
        return inst_type(env, self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Term<{self}>"

    def __str__(self) -> str:
        from .printer import term_to_string

        return term_to_string(self)


class Var(Term):
    """A term variable ``name : ty``."""

    __slots__ = ("name", "_ty", "_fvs")

    def __new__(cls, name: str, ty: HolType):
        global _intern_hits, _intern_misses
        if not isinstance(ty, HolType):
            raise TermError(f"Var: type must be a HolType, got {ty!r}")
        if not name:
            raise TermError("Var: empty name")
        key = ("Var", name, ty)
        cached = _intern_table.get(key)
        if cached is not None:
            _intern_hits += 1
            return cached
        _intern_misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_ty", ty)
        object.__setattr__(self, "_fvs", frozenset((self,)))
        return _intern_table.setdefault(key, self)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Term instances are immutable")

    @property
    def ty(self) -> HolType:
        return self._ty


class Const(Term):
    """A constant ``name : ty``.

    The constructor is syntactic only: it does not check that the type is
    an instance of the constant's declared generic type.  The one kernel
    rule that reads a constant's declaration, :func:`repro.logic.kernel.COMPUTE`,
    checks it.
    """

    __slots__ = ("name", "_ty", "_fvs")

    def __new__(cls, name: str, ty: HolType):
        global _intern_hits, _intern_misses
        if not isinstance(ty, HolType):
            raise TermError(f"Const: type must be a HolType, got {ty!r}")
        if not name:
            raise TermError("Const: empty name")
        key = ("Const", name, ty)
        cached = _intern_table.get(key)
        if cached is not None:
            _intern_hits += 1
            return cached
        _intern_misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_ty", ty)
        object.__setattr__(self, "_fvs", _EMPTY_FVS)
        return _intern_table.setdefault(key, self)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Term instances are immutable")

    @property
    def ty(self) -> HolType:
        return self._ty


class Comb(Term):
    """An application ``rator rand``."""

    __slots__ = ("_rator", "_rand", "_ty", "_fvs")

    def __new__(cls, rator: Term, rand: Term):
        global _intern_hits, _intern_misses
        if not isinstance(rator, Term) or not isinstance(rand, Term):
            raise TermError("Comb: operands must be terms")
        key = ("Comb", rator, rand)
        cached = _intern_table.get(key)
        if cached is not None:
            _intern_hits += 1
            return cached
        rty = rator.ty
        if not rty.is_fun():
            raise TermError(
                f"Comb: operator has non-function type {rty} (term: {rator!s})"
            )
        dom, cod = dest_fun_ty(rty)
        if dom is not rand.ty:
            raise TermError(
                f"Comb: type mismatch, operator expects {dom} but operand has "
                f"type {rand.ty}"
            )
        _intern_misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "_rator", rator)
        object.__setattr__(self, "_rand", rand)
        object.__setattr__(self, "_ty", cod)
        object.__setattr__(self, "_fvs", None)
        return _intern_table.setdefault(key, self)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Term instances are immutable")

    @property
    def ty(self) -> HolType:
        return self._ty

    @property
    def rator(self) -> Term:
        return self._rator

    @property
    def rand(self) -> Term:
        return self._rand


class Abs(Term):
    """An abstraction ``\\bvar. body``."""

    __slots__ = ("_bvar", "_body", "_ty", "_fvs")

    def __new__(cls, bvar: Var, body: Term):
        global _intern_hits, _intern_misses
        if not isinstance(bvar, Var):
            raise TermError("Abs: bound variable must be a Var")
        if not isinstance(body, Term):
            raise TermError("Abs: body must be a term")
        key = ("Abs", bvar, body)
        cached = _intern_table.get(key)
        if cached is not None:
            _intern_hits += 1
            return cached
        _intern_misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "_bvar", bvar)
        object.__setattr__(self, "_body", body)
        object.__setattr__(self, "_ty", mk_fun_ty(bvar.ty, body.ty))
        object.__setattr__(self, "_fvs", None)
        return _intern_table.setdefault(key, self)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Term instances are immutable")

    @property
    def ty(self) -> HolType:
        return self._ty

    @property
    def bvar(self) -> Var:
        return self._bvar

    @property
    def body(self) -> Term:
        return self._body


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def free_vars_set(t: Term) -> frozenset:
    """The free variables of ``t`` as a frozenset, cached per interned node.

    Computed bottom-up with an explicit stack; because terms are interned,
    each distinct subterm pays for its free-variable set exactly once for the
    lifetime of the node.
    """
    cached = t._fvs  # type: ignore[attr-defined]
    if cached is not None:
        return cached
    stack = [t]
    while stack:
        tm = stack[-1]
        if tm._fvs is not None:  # type: ignore[attr-defined]
            stack.pop()
            continue
        if isinstance(tm, Comb):
            r, d = tm._rator, tm._rand
            rf, df = r._fvs, d._fvs
            if rf is None or df is None:
                if df is None:
                    stack.append(d)
                if rf is None:
                    stack.append(r)
                continue
            fvs = rf | df if rf else df
            object.__setattr__(tm, "_fvs", fvs)
            stack.pop()
            continue
        assert isinstance(tm, Abs)
        b = tm._body
        bf = b._fvs
        if bf is None:
            stack.append(b)
            continue
        object.__setattr__(tm, "_fvs", bf - {tm._bvar} if tm._bvar in bf else bf)
        stack.pop()
    return t._fvs  # type: ignore[attr-defined]


def _term_size(t: Term) -> int:
    memo: Dict[Term, int] = {}
    stack = [t]
    while stack:
        tm = stack[-1]
        if tm in memo:
            stack.pop()
            continue
        if isinstance(tm, Comb):
            r, d = tm._rator, tm._rand
            pending = [c for c in (r, d) if c not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[tm] = 1 + memo[r] + memo[d]
            stack.pop()
            continue
        if isinstance(tm, Abs):
            b = tm._body
            if b not in memo:
                stack.append(b)
                continue
            memo[tm] = 1 + memo[b]
            stack.pop()
            continue
        memo[tm] = 1
        stack.pop()
    return memo[t]


def variant(avoid: Iterable[Var], v: Var) -> Var:
    """Rename ``v`` (if necessary) so its name clashes with none of ``avoid``."""
    used = {a.name for a in avoid}
    if v.name not in used:
        return v
    candidate = v.name + "'"
    while candidate in used:
        candidate += "'"
    return Var(candidate, v.ty)


# ---------------------------------------------------------------------------
# Substitution and instantiation
# ---------------------------------------------------------------------------

def var_subst(env: Dict[Var, Term], t: Term) -> Term:
    """Capture-avoiding substitution of free variables.

    ``env`` maps variables to replacement terms; each replacement must have
    the same type as the variable it replaces.
    """
    if not env:
        return t
    for v, tm in env.items():
        if not isinstance(v, Var):
            raise TermError(f"var_subst: key is not a variable: {v!r}")
        if v.ty is not tm.ty:
            raise TermError(
                f"var_subst: type mismatch for {v.name}: {v.ty} vs {tm.ty}"
            )
    return _subst(t, env)


# frame opcodes for the explicit-stack engines below
_VISIT, _BUILD_COMB, _BUILD_ABS, _ALIAS = 0, 1, 2, 3


def _env_frees(env: Dict[Var, Term]) -> frozenset:
    """The free variables of all the replacements in ``env``."""
    return frozenset().union(*(free_vars_set(rep) for rep in env.values()))


def _subst(t: Term, env: Dict[Var, Term]) -> Term:
    """Iterative capture-avoiding substitution.

    Substitution environments change only under binders, so each distinct
    environment gets an integer id and results are memoised per
    ``(env_id, node)``; the memo makes shared (interned) subterms pay once.
    A binder that is neither in the environment nor free in a replacement
    can neither shadow nor capture, so its body keeps the environment id:
    a whole ``let`` chain is then one environment, and each interned
    subterm is built once however many binders enclose its occurrences.
    """
    envs: List[Dict[Var, Term]] = [env]
    frees: List[frozenset] = [_env_frees(env)]
    child_env: Dict[Tuple[int, Var], int] = {}
    memo: Dict[Tuple[int, Term], Term] = {}
    stack: List[tuple] = [(_VISIT, t, 0)]
    while stack:
        frame = stack.pop()
        op = frame[0]
        if op == _VISIT:
            tm, e = frame[1], frame[2]
            key = (e, tm)
            if key in memo:
                continue
            cur = envs[e]
            if isinstance(tm, Var):
                memo[key] = cur.get(tm, tm)
                continue
            if isinstance(tm, Const) or cur.keys().isdisjoint(free_vars_set(tm)):
                memo[key] = tm
                continue
            if isinstance(tm, Comb):
                stack.append((_BUILD_COMB, tm, e))
                stack.append((_VISIT, tm._rand, e))
                stack.append((_VISIT, tm._rator, e))
                continue
            assert isinstance(tm, Abs)
            bv = tm._bvar
            if bv not in cur and bv not in frees[e]:
                stack.append((_BUILD_ABS, tm, e, bv, e))
                stack.append((_VISIT, tm._body, e))
                continue
            env2 = {v: rep for v, rep in cur.items() if v is not bv}
            if not env2:
                memo[key] = tm
                continue
            body_frees = free_vars_set(tm._body)
            relevant_free: Set[Var] = set()
            used = False
            for v, rep in env2.items():
                if v in body_frees:
                    used = True
                    relevant_free |= free_vars_set(rep)
            if not used:
                memo[key] = tm
                continue
            if bv in relevant_free:
                new_bv = variant(relevant_free | body_frees, bv)
                env3 = dict(env2)
                env3[bv] = new_bv
                e3 = len(envs)
                envs.append(env3)
                frees.append(_env_frees(env3))
                stack.append((_BUILD_ABS, tm, e, new_bv, e3))
                stack.append((_VISIT, tm._body, e3))
            else:
                ckey = (e, bv)
                e2 = child_env.get(ckey)
                if e2 is None:
                    e2 = len(envs)
                    envs.append(env2)
                    frees.append(_env_frees(env2))
                    child_env[ckey] = e2
                stack.append((_BUILD_ABS, tm, e, bv, e2))
                stack.append((_VISIT, tm._body, e2))
            continue
        if op == _BUILD_COMB:
            tm, e = frame[1], frame[2]
            nr = memo[(e, tm._rator)]
            nd = memo[(e, tm._rand)]
            memo[(e, tm)] = (
                tm if nr is tm._rator and nd is tm._rand else Comb(nr, nd)
            )
            continue
        # _BUILD_ABS
        tm, e, bv, eb = frame[1], frame[2], frame[3], frame[4]
        nb = memo[(eb, tm._body)]
        if bv is tm._bvar and nb is tm._body:
            memo[(e, tm)] = tm
        else:
            memo[(e, tm)] = Abs(bv, nb)
    return memo[(0, t)]


def inst_type(env: Dict[TyVar, HolType], t: Term) -> Term:
    """Instantiate type variables throughout a term.

    Bound variables are renamed where the instantiation would cause variable
    capture (two distinct variables becoming equal).
    """
    if not env:
        return t
    return _inst_type(t, env)


def _inst_var(v: Term, env: Dict[TyVar, HolType]) -> Term:
    new_ty = type_subst(env, v.ty)
    if new_ty is v.ty:
        return v
    return Var(v.name, new_ty) if isinstance(v, Var) else Const(v.name, new_ty)


def _inst_type(t: Term, env: Dict[TyVar, HolType]) -> Term:
    memo: Dict[Term, Term] = {}
    stack: List[tuple] = [(_VISIT, t)]
    while stack:
        frame = stack.pop()
        op = frame[0]
        tm = frame[1]
        if op == _VISIT:
            if tm in memo:
                continue
            if isinstance(tm, (Var, Const)):
                memo[tm] = _inst_var(tm, env)
                continue
            if isinstance(tm, Comb):
                stack.append((_BUILD_COMB, tm))
                stack.append((_VISIT, tm._rand))
                stack.append((_VISIT, tm._rator))
                continue
            assert isinstance(tm, Abs)
            stack.append((_BUILD_ABS, tm))
            stack.append((_VISIT, tm._body))
            stack.append((_VISIT, tm._bvar))
            continue
        if op == _BUILD_COMB:
            nr = memo[tm._rator]
            nd = memo[tm._rand]
            memo[tm] = tm if nr is tm._rator and nd is tm._rand else Comb(nr, nd)
            continue
        if op == _BUILD_ABS:
            new_bv = memo[tm._bvar]
            new_body = memo[tm._body]
            assert isinstance(new_bv, Var)
            # Capture check: a free variable of the body that becomes equal to
            # the instantiated bound variable must not be captured.  Rename the
            # bound variable at the un-instantiated level and re-instantiate.
            old_frees = free_vars_set(tm._body) - {tm._bvar}
            clash = False
            for fv in old_frees:
                if _inst_var(fv, env) is new_bv:
                    clash = True
                    break
            if not clash:
                memo[tm] = (
                    tm
                    if new_bv is tm._bvar and new_body is tm._body
                    else Abs(new_bv, new_body)
                )
                continue
            fresh = variant(old_frees | {tm._bvar}, tm._bvar)
            renamed = Abs(fresh, var_subst({tm._bvar: fresh}, tm._body))
            stack.append((_ALIAS, tm, renamed))
            stack.append((_VISIT, renamed))
            continue
        # _ALIAS
        memo[tm] = memo[frame[2]]
    return memo[t]


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def aconv(t1: Term, t2: Term) -> bool:
    """Alpha-equivalence of two terms (iterative; identical terms are O(1)).

    Each side keeps one map from its bound variables to the number of the
    binder pair that binds them.  A binder pair updates both maps in place
    and pushes an unbind frame (``None`` first) that restores what it
    shadowed once the bodies are done, so the walk is linear in the terms
    however deeply their binders nest.
    """
    if t1 is t2:
        return True
    m1: Dict[Var, int] = {}
    m2: Dict[Var, int] = {}
    binders = 0
    stack: List[tuple] = [(t1, t2)]
    while stack:
        frame = stack.pop()
        a = frame[0]
        if a is None:
            _, v1, old1, v2, old2 = frame
            if old1 is None:
                del m1[v1]
            else:
                m1[v1] = old1
            if old2 is None:
                del m2[v2]
            else:
                m2[v2] = old2
            continue
        b = frame[1]
        if a is b:
            # Identical interned subterms are alpha-equal as long as none of
            # their free variables is captured by an enclosing binder map.
            if not m1 and not m2:
                continue
            fa = free_vars_set(a)
            if m1.keys().isdisjoint(fa) and m2.keys().isdisjoint(fa):
                continue
        if isinstance(a, Var):
            # bound by the same binder pair (whose types agree), or both free
            # and identical
            if not isinstance(b, Var):
                return False
            d1 = m1.get(a)
            if d1 != m2.get(b) or (d1 is None and a is not b):
                return False
            continue
        if isinstance(a, Const):
            if a is not b:
                return False
            continue
        if isinstance(a, Comb):
            if not isinstance(b, Comb):
                return False
            # Operands first: in a ``let`` chain the operand is the bound
            # value and the operator holds the rest of the chain.
            stack.append((a._rator, b._rator))
            stack.append((a._rand, b._rand))
            continue
        assert isinstance(a, Abs)
        if not isinstance(b, Abs) or a._bvar._ty is not b._bvar._ty:
            return False
        v1, v2 = a._bvar, b._bvar
        stack.append((None, v1, m1.get(v1), v2, m2.get(v2)))
        stack.append((a._body, b._body))
        m1[v1] = m2[v2] = binders
        binders += 1
    return True


# ---------------------------------------------------------------------------
# Beta reduction
# ---------------------------------------------------------------------------

def beta_reduce_step(t: Term) -> Term:
    """Contract the top-level beta redex ``(\\x. b) a`` to ``b[a/x]``.

    A redex applied to its own bound variable, ``(\\x. b) x``, contracts to
    ``b`` itself without a substitution.
    """
    if not (isinstance(t, Comb) and isinstance(t.rator, Abs)):
        raise TermError(f"beta_reduce_step: not a beta redex: {t}")
    abs_ = t._rator
    if t._rand is abs_._bvar:
        return abs_._body
    return var_subst({abs_._bvar: t._rand}, abs_._body)


# ---------------------------------------------------------------------------
# Constructors / destructors for the built-in syntax
# ---------------------------------------------------------------------------

#: Cache of the instantiated ``=`` constant per operand type.  ``mk_eq`` is
#: called once per kernel inference (every theorem's conclusion is built with
#: it), so skipping the two function-type interning lookups matters.  Weak
#: values keep the cache from pinning types of discarded workloads: the entry
#: lives exactly as long as some equation over the type does.
_eq_const_cache: "WeakValueDictionary" = WeakValueDictionary()


def mk_eq(lhs: Term, rhs: Term) -> Term:
    """Build the equation ``lhs = rhs``."""
    lty = lhs.ty
    if lty is not rhs.ty:
        raise TermError(f"mk_eq: type mismatch {lty} vs {rhs.ty}")
    eq_const = _eq_const_cache.get(lty)
    if eq_const is None:
        eq_ty = mk_fun_ty(lty, mk_fun_ty(lty, bool_ty))
        eq_const = Const("=", eq_ty)
        _eq_const_cache[lty] = eq_const
    return Comb(Comb(eq_const, lhs), rhs)


def dest_eq(t: Term) -> Tuple[Term, Term]:
    """Destruct an equation into ``(lhs, rhs)``."""
    if not t.is_eq():
        from .lazyfmt import lazy

        raise TermError(lazy("dest_eq: not an equation: {}", t))
    return t.rator.rand, t.rand


def lhs(t: Term) -> Term:
    return dest_eq(t)[0]


def rhs(t: Term) -> Term:
    return dest_eq(t)[1]


def dest_binop(t: Term) -> Tuple[Term, Term, Term]:
    """Destruct ``op a b`` into ``(op, a, b)``."""
    if not (isinstance(t, Comb) and isinstance(t.rator, Comb)):
        from .lazyfmt import lazy

        raise TermError(lazy("dest_binop: not a binary application: {}", t))
    return t.rator.rator, t.rator.rand, t.rand


def strip_comb(t: Term) -> Tuple[Term, List[Term]]:
    """Split ``f a1 ... an`` into ``(f, [a1, ..., an])``."""
    args: List[Term] = []
    while isinstance(t, Comb):
        args.append(t.rand)
        t = t.rator
    args.reverse()
    return t, args


def strip_abs(t: Term) -> Tuple[List[Var], Term]:
    """Split ``\\v1 ... vn. body`` into ``([v1, ..., vn], body)``."""
    vars_: List[Var] = []
    while isinstance(t, Abs):
        vars_.append(t.bvar)
        t = t.body
    return vars_, t


# -- pairs -------------------------------------------------------------------

def mk_pair(a: Term, b: Term) -> Term:
    """Build the pair ``(a, b)`` using the ``,`` constant."""
    pair_ty = mk_fun_ty(a.ty, mk_fun_ty(b.ty, mk_prod_ty(a.ty, b.ty)))
    return Comb(Comb(Const(",", pair_ty), a), b)


def is_pair(t: Term) -> bool:
    return (
        isinstance(t, Comb)
        and isinstance(t._rator, Comb)
        and t._rator._rator.is_const(",")
    )


def dest_pair(t: Term) -> Tuple[Term, Term]:
    op, a, b = dest_binop(t)
    if not op.is_const(","):
        raise TermError(f"dest_pair: not a pair: {t}")
    return a, b


def mk_tuple(terms: Sequence[Term]) -> Term:
    """Right-nested tuple of one or more terms."""
    terms = list(terms)
    if not terms:
        raise TermError("mk_tuple: need at least one term")
    out = terms[-1]
    for tm in reversed(terms[:-1]):
        out = mk_pair(tm, out)
    return out


def mk_fst(t: Term) -> Term:
    """``FST t`` for a term of product type."""
    fst_t, snd_t = t.ty.fst_type, t.ty.snd_type
    return Comb(Const("FST", mk_fun_ty(mk_prod_ty(fst_t, snd_t), fst_t)), t)


def mk_snd(t: Term) -> Term:
    """``SND t`` for a term of product type."""
    fst_t, snd_t = t.ty.fst_type, t.ty.snd_type
    return Comb(Const("SND", mk_fun_ty(mk_prod_ty(fst_t, snd_t), snd_t)), t)


def iter_subterms(t: Term) -> Iterator[Term]:
    """Iterate over all subterms (including ``t``), outside-in.

    Shared subterms are yielded once per *occurrence* (tree semantics), so
    occurrence counts over the result are unaffected by interning.
    """
    stack = [t]
    while stack:
        tm = stack.pop()
        yield tm
        if isinstance(tm, Comb):
            stack.append(tm.rand)
            stack.append(tm.rator)
        elif isinstance(tm, Abs):
            stack.append(tm.body)
