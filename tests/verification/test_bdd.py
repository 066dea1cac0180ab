"""Tests for the ROBDD package."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.verification.bdd import (
    FALSE,
    TRUE,
    BddBudgetExceeded,
    BddError,
    BddManager,
    build_from_table,
)

NAMES = ["a", "b", "c", "d"]


@pytest.fixture
def manager():
    m = BddManager()
    for name in NAMES:
        m.declare(name)
    return m


class TestBasics:
    def test_terminals(self, manager):
        assert manager.apply_not(TRUE) == FALSE

    def test_variable_canonical(self, manager):
        assert manager.var("a") == manager.var("a")
        assert manager.var("a") != manager.var("b")

    def test_boolean_identities(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert manager.apply_and(a, TRUE) == a
        assert manager.apply_or(a, FALSE) == a
        assert manager.apply_and(a, manager.apply_not(a)) == FALSE
        assert manager.apply_or(a, manager.apply_not(a)) == TRUE
        assert manager.apply_xor(a, a) == FALSE
        assert manager.apply_xnor(a, b) == manager.apply_not(manager.apply_xor(a, b))
        assert manager.apply_implies(FALSE, a) == TRUE

    def test_commutativity_canonical(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert manager.apply_and(a, b) == manager.apply_and(b, a)
        assert manager.apply_or(a, b) == manager.apply_or(b, a)

    def test_conjoin_disjoin(self, manager):
        vs = [manager.var(n) for n in NAMES]
        allv = manager.conjoin(vs)
        assert manager.evaluate(allv, {n: True for n in NAMES})
        assert not manager.evaluate(allv, {"a": True, "b": True, "c": True, "d": False})
        anyv = manager.disjoin(vs)
        assert manager.evaluate(anyv, {"a": False, "b": False, "c": False, "d": True})

    def test_level_conflict(self):
        m = BddManager()
        m.declare("x", level=0)
        with pytest.raises(BddError):
            m.declare("y", level=0)


class TestOperations:
    def test_exists_forall(self, manager):
        a, b = manager.var("a"), manager.var("b")
        f = manager.apply_and(a, b)
        assert manager.exists(["a"], f) == b
        assert manager.forall(["a"], f) == FALSE
        assert manager.forall(["a"], manager.apply_or(a, manager.apply_not(a))) == TRUE

    def test_compose(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = manager.apply_xor(a, b)
        g = manager.compose(f, {"b": manager.apply_and(b, c)})
        expected = manager.apply_xor(a, manager.apply_and(b, c))
        assert g == expected

    def test_rename(self, manager):
        a, c = manager.var("a"), manager.var("c")
        f = manager.apply_and(a, manager.var("b"))
        renamed = manager.rename(f, {"a": "c"})
        assert renamed == manager.apply_and(c, manager.var("b"))

    def test_support(self, manager):
        f = manager.apply_or(manager.var("a"), manager.var("c"))
        assert manager.support(f) == {"a", "c"}

    def test_size_and_evaluate(self, manager):
        f = manager.apply_xor(manager.var("a"), manager.var("b"))
        assert manager.size(f) >= 2
        assert manager.evaluate(f, {"a": True, "b": False})
        assert not manager.evaluate(f, {"a": True, "b": True})

    def test_any_sat(self, manager):
        f = manager.apply_and(manager.var("a"), manager.apply_not(manager.var("b")))
        model = manager.any_sat(f)
        assert model["a"] is True and model["b"] is False
        assert manager.any_sat(FALSE) is None

    def test_count_sat(self, manager):
        a, b = manager.var("a"), manager.var("b")
        f = manager.apply_or(a, b)
        assert manager.count_sat(f, over=["a", "b"]) == 3
        assert manager.count_sat(TRUE, over=["a", "b"]) == 4
        with pytest.raises(BddError):
            manager.count_sat(f, over=["a"])

    def test_and_exists(self, manager):
        a, b = manager.var("a"), manager.var("b")
        rel = manager.apply_and(a, b)
        assert manager.and_exists(["a"], a, rel) == b

    def test_node_budget(self):
        m = BddManager(node_budget=8)
        with pytest.raises(BddBudgetExceeded):
            f = TRUE
            for i in range(6):
                f = m.apply_xor(f, m.declare(f"v{i}"))

    def test_deadline(self):
        import random
        import time

        m = BddManager()
        names = [f"w{i}" for i in range(12)]
        for name in names:
            m.declare(name)
        m.deadline = time.perf_counter() - 1.0
        rng = random.Random(0)
        with pytest.raises(BddBudgetExceeded):
            # a random 12-variable function has hundreds of BDD nodes, enough
            # to trigger the periodic deadline check during construction
            build_from_table(m, names, lambda bits: rng.random() < 0.5)


# -- property-based: agreement with truth tables -------------------------------

@st.composite
def _formulas(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return ("var", draw(st.sampled_from(NAMES)))
    op = draw(st.sampled_from(["and", "or", "xor", "not", "ite"]))
    if op == "not":
        return ("not", draw(_formulas(depth + 1)))
    if op == "ite":
        return ("ite", draw(_formulas(depth + 1)), draw(_formulas(depth + 1)),
                draw(_formulas(depth + 1)))
    return (op, draw(_formulas(depth + 1)), draw(_formulas(depth + 1)))


def _eval_formula(formula, env):
    tag = formula[0]
    if tag == "var":
        return env[formula[1]]
    if tag == "not":
        return not _eval_formula(formula[1], env)
    if tag == "and":
        return _eval_formula(formula[1], env) and _eval_formula(formula[2], env)
    if tag == "or":
        return _eval_formula(formula[1], env) or _eval_formula(formula[2], env)
    if tag == "xor":
        return _eval_formula(formula[1], env) != _eval_formula(formula[2], env)
    if tag == "ite":
        return _eval_formula(formula[2] if _eval_formula(formula[1], env) else formula[3], env)
    raise AssertionError(tag)


def _build(manager, formula):
    tag = formula[0]
    if tag == "var":
        return manager.var(formula[1])
    if tag == "not":
        return manager.apply_not(_build(manager, formula[1]))
    if tag == "and":
        return manager.apply_and(_build(manager, formula[1]), _build(manager, formula[2]))
    if tag == "or":
        return manager.apply_or(_build(manager, formula[1]), _build(manager, formula[2]))
    if tag == "xor":
        return manager.apply_xor(_build(manager, formula[1]), _build(manager, formula[2]))
    if tag == "ite":
        return manager.ite(_build(manager, formula[1]), _build(manager, formula[2]),
                           _build(manager, formula[3]))
    raise AssertionError(tag)


@given(_formulas())
@settings(max_examples=80, deadline=None)
def test_property_bdd_matches_truth_table(formula):
    manager = BddManager()
    for name in NAMES:
        manager.declare(name)
    f = _build(manager, formula)
    reference = build_from_table(
        manager, NAMES, lambda bits: _eval_formula(formula, dict(zip(NAMES, bits)))
    )
    assert f == reference


@given(_formulas(), _formulas())
@settings(max_examples=40, deadline=None)
def test_property_canonicity(f1, f2):
    """Two formulas denote the same function iff their BDDs are identical."""
    manager = BddManager()
    for name in NAMES:
        manager.declare(name)
    b1, b2 = _build(manager, f1), _build(manager, f2)
    same_function = all(
        _eval_formula(f1, dict(zip(NAMES, bits))) == _eval_formula(f2, dict(zip(NAMES, bits)))
        for bits in __import__("itertools").product([False, True], repeat=len(NAMES))
    )
    assert (b1 == b2) == same_function
