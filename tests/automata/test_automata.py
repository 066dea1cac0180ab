"""Tests for the Automata theory: representation, semantics and the retiming theorem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import (
    TermEvaluator,
    TupleLayout,
    check_retiming_law,
    dest_automaton,
    mk_automaton,
    prove_retiming_law_by_induction,
    retiming_theorem,
    run_automaton,
)
from repro.automata.retiming_theorem import instantiate_retiming
from repro.logic.ground import mk_numeral
from repro.logic.hol_types import bool_ty, mk_fun_ty, mk_prod_ty, num_ty
from repro.logic.kernel import current_theory
from repro.logic.stdlib import ensure_stdlib, word_op
from repro.logic.terms import Abs, Var, mk_fst, mk_pair, mk_snd

ensure_stdlib()


def _identity_step():
    """A 1-register pass-through automaton: output = state, next state = input."""
    p = Var("p", mk_prod_ty(num_ty, num_ty))
    body = mk_pair(mk_snd(p), mk_fst(p))
    return Abs(p, body)


class TestAutomatonRepresentation:
    def test_mk_dest_roundtrip(self):
        step = _identity_step()
        auto = mk_automaton(step, mk_numeral(5))
        s, q = dest_automaton(auto)
        assert s == step and q == mk_numeral(5)

    def test_mk_automaton_checks_types(self):
        step = _identity_step()
        with pytest.raises(ValueError):
            mk_automaton(step, Var("q", bool_ty))
        with pytest.raises(ValueError):
            mk_automaton(Var("f", mk_fun_ty(num_ty, num_ty)), mk_numeral(0))

    def test_automaton_constant_registered(self):
        mk_automaton(_identity_step(), mk_numeral(0))
        assert current_theory().has_constant("automaton")


class TestTupleLayout:
    def test_single_component(self):
        layout = TupleLayout(["x"], [num_ty])
        base = Var("b", num_ty)
        assert layout.type() == num_ty
        assert layout.projections(base) == {"x": base}
        assert layout.mk_value([mk_numeral(4)]) == mk_numeral(4)

    def test_three_components(self):
        layout = TupleLayout(["x", "y", "z"], [num_ty, bool_ty, num_ty])
        assert layout.type() == mk_prod_ty(num_ty, mk_prod_ty(bool_ty, num_ty))
        base = Var("b", layout.type())
        assert layout.projections(base) == {
            "x": mk_fst(base),
            "y": mk_fst(mk_snd(base)),
            "z": mk_snd(mk_snd(base)),
        }

    def test_mk_value_type_checks(self):
        layout = TupleLayout(["x", "y"], [num_ty, bool_ty])
        with pytest.raises(ValueError):
            layout.mk_value([mk_numeral(1), mk_numeral(2)])
        with pytest.raises(ValueError):
            layout.mk_value([mk_numeral(1)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TupleLayout(["x", "x"], [num_ty, num_ty])
        with pytest.raises(ValueError):
            TupleLayout([], [])


class TestSemantics:
    def test_evaluator_on_word_ops(self):
        ev = TermEvaluator()
        t = word_op("ADDW", mk_numeral(4), mk_numeral(9), mk_numeral(9))
        assert ev.evaluate(t) == (9 + 9) % 16

    def test_evaluator_unbound_variable(self):
        from repro.automata.semantics import EvaluationError

        ev = TermEvaluator()
        with pytest.raises(EvaluationError):
            ev.evaluate(Var("x", num_ty))

    def test_run_identity_automaton(self):
        auto = mk_automaton(_identity_step(), mk_numeral(7))
        outputs = run_automaton(auto, [1, 2, 3, 4])
        # output at time t is the state, which is the previous input
        assert outputs == [7, 1, 2, 3]

    def test_run_counter_automaton(self):
        # next state = state + 1 mod 8, output = state; input ignored
        p = Var("p", mk_prod_ty(bool_ty, num_ty))
        body = mk_pair(mk_snd(p), word_op("INCW", mk_numeral(3), mk_snd(p)))
        auto = mk_automaton(Abs(p, body), mk_numeral(6))
        outputs = run_automaton(auto, [True] * 5)
        assert outputs == [6, 7, 0, 1, 2]


class TestRetimingTheorem:
    def test_theorem_shape(self):
        thm = retiming_theorem()
        assert thm.is_equation()
        assert not thm.hyps
        assert "automaton" in str(thm)
        free_names = {v.name for v in thm.concl.free_vars()}
        assert free_names == {"f", "g", "q"}

    def test_theorem_cached(self):
        assert retiming_theorem() is retiming_theorem()

    def test_instantiation_type_checks(self):
        f = Abs(Var("s", num_ty), word_op("INCW", mk_numeral(4), Var("s", num_ty)))
        bad_g = Abs(Var("x", num_ty), Var("x", num_ty))
        with pytest.raises(TypeError):
            instantiate_retiming(f, bad_g, mk_numeral(0))

    def test_instantiation_produces_ground_statement(self):
        # f : num -> num (incrementer), g : (bool # num) -> (num # num)
        s = Var("s", num_ty)
        f = Abs(s, word_op("INCW", mk_numeral(4), s))
        gp = Var("gp", mk_prod_ty(bool_ty, num_ty))
        g_body = mk_pair(mk_snd(gp), word_op("MUXW", mk_fst(gp), mk_snd(gp), mk_numeral(0)))
        g = Abs(gp, g_body)
        thm = instantiate_retiming(f, g, mk_numeral(0))
        assert thm.is_equation()
        assert not thm.concl.free_vars()

    def test_instantiated_law_holds_semantically(self):
        s = Var("s", num_ty)
        f = Abs(s, word_op("INCW", mk_numeral(4), s))
        gp = Var("gp", mk_prod_ty(bool_ty, num_ty))
        g_body = mk_pair(mk_snd(gp), word_op("MUXW", mk_fst(gp), mk_snd(gp), mk_numeral(3)))
        g = Abs(gp, g_body)
        assert check_retiming_law(
            f, g, 0, [bool(i % 2) for i in range(40)], steps=40
        )

    def test_induction_obligations_exhaustive(self):
        s = Var("s", num_ty)
        f = Abs(s, word_op("INCW", mk_numeral(3), s))
        gp = Var("gp", mk_prod_ty(bool_ty, num_ty))
        g_body = mk_pair(mk_snd(gp), word_op("MUXW", mk_fst(gp), mk_snd(gp), mk_numeral(0)))
        g = Abs(gp, g_body)
        assert prove_retiming_law_by_induction(
            f, g, 0, state_values=range(8), input_values=[True, False]
        )

    def test_axiom_recorded_in_trusted_base(self):
        retiming_theorem()
        from repro.logic.kernel import trusted_base_report

        assert "RETIMING_THM" in trusted_base_report()

    @given(st.integers(0, 7), st.lists(st.booleans(), min_size=1, max_size=24))
    @settings(max_examples=30, deadline=None)
    def test_property_law_holds_for_any_initial_state(self, q, stream):
        s = Var("s", num_ty)
        f = Abs(s, word_op("INCW", mk_numeral(3), s))
        gp = Var("gp", mk_prod_ty(bool_ty, num_ty))
        g_body = mk_pair(mk_snd(gp), word_op("MUXW", mk_fst(gp), mk_snd(gp), mk_numeral(5)))
        g = Abs(gp, g_body)
        assert check_retiming_law(f, g, q, stream, steps=len(stream))
