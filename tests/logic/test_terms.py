"""Unit tests for the term language."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.hol_types import bool_ty, mk_fun_ty, mk_prod_ty, num_ty
from repro.logic.terms import (
    Abs,
    Comb,
    Const,
    TermError,
    Var,
    aconv,
    beta_reduce_step,
    dest_binop,
    dest_eq,
    dest_pair,
    is_pair,
    iter_subterms,
    mk_eq,
    mk_fst,
    mk_pair,
    mk_snd,
    mk_tuple,
    strip_abs,
    strip_comb,
    term_intern_stats,
    var_subst,
    variant,
)

x = Var("x", num_ty)
y = Var("y", num_ty)
b = Var("b", bool_ty)
f = Var("f", mk_fun_ty(num_ty, num_ty))
_add = Var("add", mk_fun_ty(num_ty, mk_fun_ty(num_ty, num_ty)))
_g = Var("g", mk_fun_ty(bool_ty, num_ty))
#: binder operators, one per bound-variable type, so that the two sides of a
#: pair can bind the same name at different types under the same operator
_binders = {
    num_ty: Var("k", mk_fun_ty(mk_fun_ty(num_ty, num_ty), num_ty)),
    bool_ty: Var("k", mk_fun_ty(mk_fun_ty(bool_ty, num_ty), num_ty)),
}


class TestConstruction:
    def test_var_and_const(self):
        assert x.is_var() and not x.is_const()
        c = Const("0", num_ty)
        assert c.is_const() and c.is_const("0") and not c.is_const("1")

    def test_comb_typing(self):
        app = Comb(f, x)
        assert app.ty == num_ty
        assert app.rator == f and app.rand == x

    def test_comb_type_errors(self):
        with pytest.raises(TermError):
            Comb(x, y)  # x is not a function
        with pytest.raises(TermError):
            Comb(f, b)  # wrong argument type

    def test_abs_typing(self):
        lam = Abs(x, Comb(f, x))
        assert lam.ty == mk_fun_ty(num_ty, num_ty)
        assert lam.bvar == x

    def test_abs_requires_var(self):
        with pytest.raises(TermError):
            Abs(Comb(f, x), x)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            x.name = "z"

    def test_accessors_raise_on_wrong_shape(self):
        with pytest.raises(TermError):
            _ = x.rator
        with pytest.raises(TermError):
            _ = x.body

    def test_structural_equality(self):
        assert Comb(f, x) == Comb(f, x)
        assert Comb(f, x) != Comb(f, y)
        assert Var("x", num_ty) != Var("x", bool_ty)


class TestEquationsAndBinops:
    def test_mk_dest_eq(self):
        eq = mk_eq(x, y)
        assert eq.is_eq()
        assert dest_eq(eq) == (x, y)
        assert eq.ty == bool_ty

    def test_mk_eq_type_mismatch(self):
        with pytest.raises(TermError):
            mk_eq(x, b)

    def test_dest_eq_on_non_equation(self):
        with pytest.raises(TermError):
            dest_eq(x)

    def test_dest_binop(self):
        eq = mk_eq(x, y)
        op, lhs, rhs = dest_binop(eq)
        assert op.is_const("=") and lhs == x and rhs == y


class TestListOperations:
    def test_list_mk_comb_and_strip(self):
        g = Var("g", mk_fun_ty(num_ty, mk_fun_ty(num_ty, num_ty)))
        t = Comb(Comb(g, x), y)
        head, args = strip_comb(t)
        assert head == g and args == [x, y]

    def test_list_mk_abs_and_strip(self):
        t = Abs(x, Abs(y, mk_eq(x, y)))
        vars_, body = strip_abs(t)
        assert vars_ == [x, y] and body == mk_eq(x, y)

    def test_iter_subterms_counts(self):
        t = Comb(f, Comb(f, x))
        subs = list(iter_subterms(t))
        assert t in subs and x in subs and f in subs
        assert t.size() == len(subs)


class TestPairsAndTuples:
    def test_pair_roundtrip(self):
        p = mk_pair(x, b)
        assert is_pair(p)
        assert dest_pair(p) == (x, b)
        assert p.ty == mk_prod_ty(num_ty, bool_ty)

    def test_tuple_right_nested(self):
        t = mk_tuple([x, y, b])
        assert dest_pair(t) == (x, mk_pair(y, b))

    def test_fst_snd_types(self):
        p = mk_pair(x, b)
        assert mk_fst(p).ty == num_ty
        assert mk_snd(p).ty == bool_ty

    def test_tuple_needs_elements(self):
        with pytest.raises(TermError):
            mk_tuple([])


class TestFreeVarsAndSubstitution:
    def test_free_vars(self):
        t = Abs(x, Comb(f, Comb(f, y)))
        assert t.free_vars() == {f, y}

    def test_subst_simple(self):
        t = Comb(f, x)
        assert var_subst({x: y}, t) == Comb(f, y)

    def test_subst_respects_binding(self):
        t = Abs(x, Comb(f, x))
        assert var_subst({x: y}, t) == t

    def test_subst_capture_avoidance(self):
        # (\y. x + y)[x := y] must rename the bound y
        g = Var("g", mk_fun_ty(num_ty, mk_fun_ty(num_ty, num_ty)))
        t = Abs(y, Comb(Comb(g, x), y))
        out = var_subst({x: y}, t)
        assert out.bvar != y
        z = Var("z", num_ty)
        assert aconv(out, Abs(z, Comb(Comb(g, y), z)))

    def test_subst_type_mismatch(self):
        with pytest.raises(TermError):
            var_subst({x: b}, Comb(f, x))

    def test_variant_renames(self):
        v = variant([x, Var("x'", num_ty)], x)
        assert v.name not in ("x", "x'")


class TestAlphaAndBeta:
    def test_alpha_equivalent(self):
        t1 = Abs(x, Comb(f, x))
        t2 = Abs(y, Comb(f, y))
        assert aconv(t1, t2)
        assert t1 != t2

    def test_alpha_distinguishes_free(self):
        t1 = Abs(x, Comb(f, y))
        t2 = Abs(x, Comb(f, x))
        assert not aconv(t1, t2)

    def test_alpha_requires_same_binder_type(self):
        t1 = Abs(x, mk_eq(x, x))
        t2 = Abs(b, mk_eq(b, b))
        assert not aconv(t1, t2)

    def test_alpha_free_variable_captured_on_one_side(self):
        t1 = Abs(x, Comb(f, y))
        t2 = Abs(y, Comb(f, y))
        assert not aconv(t1, t2) and not aconv(t2, t1)
        assert not aconv(Comb(f, x), Comb(f, y))

    def test_alpha_unused_binders_of_different_types(self):
        body = Comb(f, y)
        bool_x = Var("x", bool_ty)
        assert not aconv(Comb(_binders[num_ty], Abs(x, body)),
                         Comb(_binders[bool_ty], Abs(bool_x, body)))
        assert not aconv(Abs(x, body), Abs(bool_x, body))

    def test_alpha_restores_a_shadowed_binder(self):
        # \x. add x (k (\x. x)): the operand's inner x shadows the outer x,
        # which the operator uses once the operand is done
        k, z = _binders[num_ty], Var("z", num_ty)
        t1 = Abs(x, Comb(Comb(_add, x), Comb(k, Abs(x, x))))
        t2 = Abs(y, Comb(Comb(_add, y), Comb(k, Abs(z, z))))
        t3 = Abs(y, Comb(Comb(_add, x), Comb(k, Abs(z, z))))  # x is free here
        assert aconv(t1, t2) and aconv(t2, t1)
        assert not aconv(t1, t3) and not aconv(t3, t1)

    def test_alpha_identical_subterm_under_binders(self):
        shared = Comb(f, Var("z", num_ty))
        assert aconv(Abs(x, Comb(Comb(_add, x), shared)),
                     Abs(y, Comb(Comb(_add, y), shared)))
        # the identical subterm mentions the bound variable on one side only
        assert not aconv(Abs(x, Comb(Comb(_add, x), Comb(f, x))),
                         Abs(y, Comb(Comb(_add, y), Comb(f, x))))

    def test_beta_step(self):
        redex = Comb(Abs(x, Comb(f, x)), y)
        assert beta_reduce_step(redex) == Comb(f, y)

    def test_beta_step_requires_redex(self):
        with pytest.raises(TermError):
            beta_reduce_step(Comb(f, x))

    def test_beta_step_on_its_own_bound_variable_returns_the_body(self, monkeypatch):
        import repro.logic.terms as terms

        def no_substitution(env, t):
            raise AssertionError("(\\x. b) x needs no substitution")

        monkeypatch.setattr(terms, "var_subst", no_substitution)
        body = Comb(Comb(_add, x), Comb(f, y))
        assert beta_reduce_step(Comb(Abs(x, body), x)) is body

    def test_substitution_builds_each_subterm_once_under_many_binders(self):
        # ``shared`` occurs under every one of 50 nested binders that neither
        # shadow nor capture, like a cell's input under a let chain
        shared = y
        for _ in range(20):
            shared = Comb(f, shared)
        t = x
        for i in range(50):
            v = Var(f"v{i}", num_ty)
            t = Comb(_binders[num_ty], Abs(v, Comb(Comb(_add, shared), t)))
        env = {y: Var("z", num_ty)}
        before = term_intern_stats()
        result = var_subst(env, t)
        after = term_intern_stats()
        built = after["hits"] + after["misses"] - before["hits"] - before["misses"]
        distinct = {sub for sub in iter_subterms(result) if not isinstance(sub, Var)}
        assert built <= len(distinct)

# -- property-based -----------------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "w"])


@st.composite
def _num_terms(draw, depth=0):
    choice = draw(st.integers(0, 3 if depth < 3 else 1))
    if choice <= 1:
        return Var(draw(_names), num_ty)
    if choice == 2:
        return Comb(f, draw(_num_terms(depth + 1)))
    bound = Var(draw(_names), num_ty)
    body = draw(_num_terms(depth + 1))
    return Comb(Abs(bound, body), draw(_num_terms(depth + 1)))


@given(_num_terms())
def test_property_aconv_reflexive(t):
    assert aconv(t, t)


@given(_num_terms())
def test_property_subst_identity(t):
    assert var_subst({}, t) is t


@given(_num_terms())
def test_property_free_vars_preserved_by_alpha_normalisation(t):
    # substituting a fresh variable for itself never changes the term
    fresh = Var("fresh", num_ty)
    assert var_subst({fresh: fresh}, t) is t


# -- aconv against a de Bruijn reference --------------------------------------

_ACONV_NAMES = ["x", "y", "z"]


def _de_bruijn(t, bound=()):
    """``t`` with bound variables replaced by their binder distance."""
    if isinstance(t, Var):
        for distance, v in enumerate(reversed(bound)):
            if v is t:
                return ("bound", distance)
        return ("free", t)
    if isinstance(t, Const):
        return ("const", t)
    if isinstance(t, Comb):
        return ("comb", _de_bruijn(t.rator, bound), _de_bruijn(t.rand, bound))
    return ("abs", t.bvar.ty, _de_bruijn(t.body, bound + (t.bvar,)))


@st.composite
def _aconv_terms(draw, depth=0):
    """A ``num`` term over a few shared names, with binders of two types."""
    choice = draw(st.integers(0, 5 if depth < 4 else 1))
    if choice == 0:
        return Var(draw(st.sampled_from(_ACONV_NAMES)), num_ty)
    if choice == 1:
        return Comb(_g, Var(draw(st.sampled_from(_ACONV_NAMES)), bool_ty))
    if choice == 2:
        return Comb(f, draw(_aconv_terms(depth + 1)))
    if choice == 3:
        return Comb(Comb(_add, draw(_aconv_terms(depth + 1))),
                    draw(_aconv_terms(depth + 1)))
    if choice == 4:  # a let-style redex
        v = Var(draw(st.sampled_from(_ACONV_NAMES)), num_ty)
        return Comb(Abs(v, draw(_aconv_terms(depth + 1))),
                    draw(_aconv_terms(depth + 1)))
    ty = draw(st.sampled_from([num_ty, bool_ty]))
    v = Var(draw(st.sampled_from(_ACONV_NAMES)), ty)
    return Comb(_binders[ty], Abs(v, draw(_aconv_terms(depth + 1))))


@st.composite
def _renamed(draw, t, renames=None):
    """``t`` with bound variables renamed at random, captures and all.

    Each binder keeps or changes its name (to one of the shared names, so a
    free variable of its body may be captured), and now and then a subterm
    of type ``num`` is replaced by a freshly drawn one.
    """
    renames = renames or {}
    if t.ty is num_ty and draw(st.integers(0, 9)) == 0:
        return draw(_aconv_terms(3))
    if isinstance(t, Var):
        return renames.get(t, t)
    if isinstance(t, Const):
        return t
    if isinstance(t, Comb):
        return Comb(draw(_renamed(t.rator, renames)), draw(_renamed(t.rand, renames)))
    new_bv = Var(draw(st.sampled_from(_ACONV_NAMES)), t.bvar.ty)
    return Abs(new_bv, draw(_renamed(t.body, {**renames, t.bvar: new_bv})))


@st.composite
def _aconv_pairs(draw):
    t1 = draw(_aconv_terms())
    t2 = draw(_renamed(t1))
    if draw(st.booleans()):
        # outermost binders, whose types may differ between the sides
        names, types = st.sampled_from(_ACONV_NAMES), st.sampled_from([num_ty, bool_ty])
        t1 = Abs(Var(draw(names), draw(types)), t1)
        t2 = Abs(Var(draw(names), draw(types)), t2)
    return t1, t2


@settings(max_examples=400, deadline=None)
@given(_aconv_pairs())
def test_property_aconv_agrees_with_de_bruijn(pair):
    t1, t2 = pair
    expected = _de_bruijn(t1) == _de_bruijn(t2)
    assert aconv(t1, t2) is expected
    assert aconv(t2, t1) is expected


# -- substitution against a naive reference ------------------------------------

_h = Var("h", mk_fun_ty(num_ty, bool_ty))


def _naive_subst(env, t):
    """Textbook capture-avoiding substitution: rename a binder whenever it is
    free in any replacement, to a name free nowhere nearby."""
    if isinstance(t, Var):
        return env.get(t, t)
    if isinstance(t, Const):
        return t
    if isinstance(t, Comb):
        return Comb(_naive_subst(env, t.rator), _naive_subst(env, t.rand))
    bv = t.bvar
    inner = {v: rep for v, rep in env.items() if v is not bv}
    replacement_frees = set().union(*(rep.free_vars() for rep in inner.values()))
    if bv in replacement_frees:
        used = {v.name for v in replacement_frees | t.body.free_vars() | set(inner)}
        name = bv.name
        while name in used:
            name += "_"
        fresh = Var(name, bv.ty)
        inner[bv] = fresh
        bv = fresh
    return Abs(bv, _naive_subst(inner, t.body))


@st.composite
def _subst_cases(draw):
    """A term, and a 1-3 entry environment over the names its binders use.

    Replacements are drawn from the same few names, so they are free in
    terms whose binders bind them (a capture to avoid), and the term's
    binders shadow environment variables of the same name and type.
    """
    t = draw(_aconv_terms())
    keys = draw(st.lists(
        st.sampled_from([Var(n, ty) for n in _ACONV_NAMES for ty in (num_ty, bool_ty)]),
        min_size=1, max_size=3, unique=True,
    ))
    env = {}
    for key in keys:
        if key.ty is num_ty:
            env[key] = draw(_aconv_terms(2))
        elif draw(st.booleans()):
            env[key] = Var(draw(st.sampled_from(_ACONV_NAMES)), bool_ty)
        else:
            env[key] = Comb(_h, draw(_aconv_terms(2)))
    return env, t


@settings(max_examples=400, deadline=None)
@given(_subst_cases())
def test_property_var_subst_agrees_with_naive_reference(case):
    env, t = case
    assert _de_bruijn(var_subst(env, t)) == _de_bruijn(_naive_subst(env, t))
