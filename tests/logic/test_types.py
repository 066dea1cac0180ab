"""Unit tests for the HOL type language."""

import pytest
from hypothesis import given, strategies as st

from repro.logic.hol_types import (
    TyApp,
    TyVar,
    TypeMatchError,
    bool_ty,
    dest_fun_ty,
    mk_fun_ty,
    mk_prod_ty,
    num_ty,
    type_match,
    type_subst,
)


class TestConstruction:
    def test_bool_is_nullary_operator(self):
        assert bool_ty.is_type()
        assert not bool_ty.is_vartype()
        assert bool_ty.op == "bool"
        assert bool_ty.args == ()

    def test_vartype(self):
        a = TyVar("a")
        assert a.is_vartype()
        assert str(a) == "'a"

    def test_empty_names_rejected(self):
        with pytest.raises(ValueError):
            TyVar("")
        with pytest.raises(ValueError):
            TyApp("")

    def test_fun_type_accessors(self):
        f = mk_fun_ty(bool_ty, num_ty)
        assert f.is_fun()
        assert f.domain == bool_ty
        assert f.codomain == num_ty
        assert dest_fun_ty(f) == (bool_ty, num_ty)

    def test_prod_type_accessors(self):
        p = mk_prod_ty(bool_ty, num_ty)
        assert p.is_prod()
        assert p.fst_type == bool_ty
        assert p.snd_type == num_ty

    def test_domain_of_non_function_raises(self):
        with pytest.raises(TypeError):
            _ = bool_ty.domain
        with pytest.raises(TypeError):
            _ = bool_ty.fst_type

    def test_equality_and_hash(self):
        assert mk_fun_ty(bool_ty, num_ty) == mk_fun_ty(bool_ty, num_ty)
        assert hash(mk_fun_ty(bool_ty, num_ty)) == hash(mk_fun_ty(bool_ty, num_ty))
        assert mk_fun_ty(bool_ty, num_ty) != mk_fun_ty(num_ty, bool_ty)
        assert TyVar("a") != TyApp("a")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            bool_ty.op = "nat"
        with pytest.raises(AttributeError):
            TyVar("a").name = "b"

    def test_bad_argument_type(self):
        with pytest.raises(TypeError):
            TyApp("fun", (bool_ty, "not a type"))


class TestSubstitutionAndVars:
    def test_type_vars(self):
        a, b = TyVar("a"), TyVar("b")
        ty = mk_fun_ty(a, mk_prod_ty(b, bool_ty))
        assert ty.type_vars() == {a, b}

    def test_subst(self):
        a = TyVar("a")
        ty = mk_fun_ty(a, a)
        assert type_subst({a: num_ty}, ty) == mk_fun_ty(num_ty, num_ty)

    def test_subst_untouched_shares(self):
        ty = mk_fun_ty(bool_ty, num_ty)
        assert type_subst({TyVar("a"): num_ty}, ty) is ty

class TestMatching:
    def test_match_variable(self):
        a = TyVar("a")
        env = type_match(a, mk_fun_ty(bool_ty, num_ty))
        assert env[a] == mk_fun_ty(bool_ty, num_ty)

    def test_match_structure(self):
        a, b = TyVar("a"), TyVar("b")
        env = type_match(mk_fun_ty(a, b), mk_fun_ty(num_ty, bool_ty))
        assert env == {a: num_ty, b: bool_ty}

    def test_match_conflict(self):
        a = TyVar("a")
        with pytest.raises(TypeMatchError):
            type_match(mk_fun_ty(a, a), mk_fun_ty(num_ty, bool_ty))

    def test_match_operator_mismatch(self):
        with pytest.raises(TypeMatchError):
            type_match(bool_ty, num_ty)

    def test_match_instantiates_pattern(self):
        a, b = TyVar("a"), TyVar("b")
        pattern = mk_prod_ty(a, mk_fun_ty(b, a))
        target = mk_prod_ty(num_ty, mk_fun_ty(bool_ty, num_ty))
        env = type_match(pattern, target)
        assert type_subst(env, pattern) == target


# -- property-based -----------------------------------------------------------

_base_types = st.sampled_from([bool_ty, num_ty, TyVar("a"), TyVar("b")])


def _types(depth=2):
    return st.recursive(
        _base_types,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: mk_fun_ty(*p)),
            st.tuples(children, children).map(lambda p: mk_prod_ty(*p)),
        ),
        max_leaves=6,
    )


@given(_types())
def test_property_subst_identity(ty):
    assert type_subst({}, ty) == ty


@given(_types(), _types())
def test_property_subst_removes_variable(ty, replacement):
    a = TyVar("a")
    if a in replacement.type_vars():
        return
    out = type_subst({a: replacement}, ty)
    assert a not in out.type_vars()


@given(_types())
def test_property_match_self(ty):
    env = type_match(ty, ty)
    assert type_subst(env, ty) == ty
