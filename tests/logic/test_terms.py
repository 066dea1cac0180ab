"""Unit tests for the term language."""

import pytest
from hypothesis import given, strategies as st

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
    var_subst,
    variant,
)

x = Var("x", num_ty)
y = Var("y", num_ty)
b = Var("b", bool_ty)
f = Var("f", mk_fun_ty(num_ty, num_ty))


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

    def test_beta_step(self):
        redex = Comb(Abs(x, Comb(f, x)), y)
        assert beta_reduce_step(redex) == Comb(f, y)

    def test_beta_step_requires_redex(self):
        with pytest.raises(TermError):
            beta_reduce_step(Comb(f, x))

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
