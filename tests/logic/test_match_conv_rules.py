"""Tests for conversions, the pair laws, derived rules and the standard library."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import conv
from repro.logic.conv import ConvError
from repro.logic.ground import (
    GroundError,
    dest_numeral,
    mk_bool,
    mk_numeral,
    term_of_value,
    value_of_term,
)
from repro.logic.hol_types import TyVar, bool_ty, mk_fun_ty, mk_prod_ty, num_ty
from repro.logic.kernel import ASSUME, REFL, inference_steps
from repro.logic.rules import (
    RuleError,
    equal_by_normalisation,
    trans_chain,
)
from repro.logic.stdlib import dest_let, ensure_stdlib, is_let, mk_let, word_op
from repro.logic.terms import Comb, Const, Var, dest_eq, mk_eq, mk_fst, mk_pair, mk_snd

ensure_stdlib()

x = Var("x", num_ty)
y = Var("y", num_ty)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

class TestConversions:
    def test_orelsec_falls_through(self):
        # FST_CONV raises on a variable, so ORELSEC falls through to REFL
        c = conv.ORELSEC(conv.FST_CONV, REFL)
        assert c(x).concl == mk_eq(x, x)

    def test_rand_rator_conv(self):
        t = word_op("ADD", mk_numeral(1), word_op("ADD", mk_numeral(2), mk_numeral(3)))
        th = conv.RAND_CONV(conv.EVAL_CONV)(t)
        assert dest_eq(th.concl)[1] == word_op("ADD", mk_numeral(1), mk_numeral(5))

    def test_beta_let_fst_snd(self):
        lt = mk_let(x, mk_numeral(3), word_op("ADD", x, mk_numeral(4)))
        th = conv.LET_CONV(lt)
        assert dest_eq(th.concl)[1] == word_op("ADD", mk_numeral(3), mk_numeral(4))
        p = mk_pair(mk_numeral(1), mk_numeral(2))
        assert dest_eq(conv.FST_CONV(mk_fst(p)).concl)[1] == mk_numeral(1)
        assert dest_eq(conv.SND_CONV(mk_snd(p)).concl)[1] == mk_numeral(2)

    def test_eval_conv_nested(self):
        t = word_op(
            "MUXW",
            word_op("EQW", mk_numeral(3), mk_numeral(3)),
            word_op("INCW", mk_numeral(4), mk_numeral(7)),
            mk_numeral(0),
        )
        th = conv.EVAL_CONV(t)
        assert dest_eq(th.concl)[1] == mk_numeral(8)

    def test_top_depth_conv_fixpoint(self):
        t = word_op("ADD", word_op("MUL", mk_numeral(2), mk_numeral(3)),
                    word_op("SUB", mk_numeral(9), mk_numeral(4)))
        th = conv.TOP_DEPTH_CONV(conv.COMPUTE_CONV)(t)
        assert dest_eq(th.concl)[1] == mk_numeral(11)

    def test_conv_rule_and_rhs_rule(self):
        eq = conv.EVAL_CONV(word_op("ADD", mk_numeral(2), mk_numeral(2)))
        out = conv.RHS_CONV_RULE(REFL, eq)
        assert out.concl == eq.concl


# ---------------------------------------------------------------------------
# pair laws
# ---------------------------------------------------------------------------

_a, _b = TyVar("a"), TyVar("b")

#: pair components: bool, num, a nested pair, the axioms' own type variables,
#: and those swapped, which a non-simultaneous INST_TYPE gets wrong
PAIRS = [
    pytest.param(mk_bool(True), mk_bool(False), id="bool"),
    pytest.param(mk_numeral(3), mk_bool(True), id="num-bool"),
    pytest.param(mk_pair(mk_numeral(1), mk_bool(False)), mk_numeral(2), id="nested-fst"),
    pytest.param(mk_numeral(4), mk_pair(mk_pair(x, y), mk_bool(True)), id="nested-snd"),
    pytest.param(Var("x", _a), Var("y", _b), id="tyvars"),
    pytest.param(Var("x", _b), Var("y", _a), id="swapped-tyvars"),
    pytest.param(Var("a", _b), Var("b", _a), id="swapped-tyvars-law-names"),
    pytest.param(Var("b", num_ty), Var("a", num_ty), id="swapped-law-names"),
]


class TestPairLaws:
    @pytest.mark.parametrize("a, b", PAIRS)
    @pytest.mark.parametrize("law, mk, pick", [
        (conv.FST_CONV, mk_fst, 0),
        (conv.SND_CONV, mk_snd, 1),
    ], ids=["FST", "SND"])
    def test_two_kernel_steps_prove_the_projection(self, law, mk, pick, a, b):
        t = mk(mk_pair(a, b))
        before = inference_steps()
        th = law(t)
        assert inference_steps() - before == 2  # INST_TYPE, then INST
        assert th.lhs is t
        assert th.rhs is (a, b)[pick]
        assert not th.hyps

    @pytest.mark.parametrize("law, mk", [(conv.FST_CONV, mk_fst),
                                         (conv.SND_CONV, mk_snd)],
                             ids=["FST", "SND"])
    def test_non_pair_argument_raises(self, law, mk):
        p = Var("p", mk_prod_ty(num_ty, bool_ty))
        with pytest.raises(ConvError):
            law(mk(p))
        with pytest.raises(ConvError):
            law(x)

    def test_wrong_projection_raises(self):
        p = mk_pair(mk_numeral(1), mk_numeral(2))
        with pytest.raises(ConvError):
            conv.FST_CONV(mk_snd(p))
        with pytest.raises(ConvError):
            conv.SND_CONV(mk_fst(p))

    def test_projection_constant_at_a_foreign_type_raises(self):
        # Const is syntactic only: FST at num # num -> bool is a well-typed
        # term, but no instance of |- FST (a, b) = a
        bogus = Const("FST", mk_fun_ty(mk_prod_ty(num_ty, num_ty), bool_ty))
        with pytest.raises(ConvError):
            conv.FST_CONV(Comb(bogus, mk_pair(mk_numeral(1), mk_numeral(2))))


# ---------------------------------------------------------------------------
# derived rules
# ---------------------------------------------------------------------------

class TestDerivedRules:
    def test_trans_chain(self):
        a = conv.EVAL_CONV(word_op("ADD", mk_numeral(1), mk_numeral(1)))
        b = ASSUME(mk_eq(mk_numeral(2), mk_numeral(2)))
        th = trans_chain([a, b])
        assert dest_eq(th.concl) == (word_op("ADD", mk_numeral(1), mk_numeral(1)),
                                     mk_numeral(2))

    def test_trans_chain_empty(self):
        with pytest.raises(RuleError):
            trans_chain([])

    def test_equal_by_normalisation(self):
        lhs = word_op("ADD", mk_numeral(2), mk_numeral(3))
        rhs = word_op("ADD", mk_numeral(4), mk_numeral(1))
        th = equal_by_normalisation(conv.EVAL_CONV(lhs), conv.EVAL_CONV(rhs))
        assert th.concl == mk_eq(lhs, rhs)

    def test_equal_by_normalisation_rejects_mismatch(self):
        lhs = word_op("ADD", mk_numeral(2), mk_numeral(3))
        rhs = word_op("ADD", mk_numeral(4), mk_numeral(2))
        with pytest.raises(RuleError):
            equal_by_normalisation(conv.EVAL_CONV(lhs), conv.EVAL_CONV(rhs))


# ---------------------------------------------------------------------------
# standard library and ground values
# ---------------------------------------------------------------------------

class TestStdlibAndGround:
    def test_let_roundtrip(self):
        lt = mk_let(x, mk_numeral(1), word_op("ADD", x, x))
        assert is_let(lt)
        var, value, body = dest_let(lt)
        assert var == x and value == mk_numeral(1)

    def test_ground_roundtrip_simple(self):
        for value in (True, False, 0, 7, (1, 2), (True, 3, 4)):
            assert value_of_term(term_of_value(value)) == value

    def test_non_ground_detection(self):
        assert value_of_term(mk_pair(mk_numeral(1), mk_bool(False))) == (1, False)
        with pytest.raises(GroundError):
            value_of_term(x)

    def test_numeral_bounds(self):
        with pytest.raises(GroundError):
            mk_numeral(-1)
        assert dest_numeral(mk_numeral(12)) == 12

    @given(st.integers(0, 2**16), st.integers(0, 2**16), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_word_ops_match_python_semantics(self, a, b, w):
        mask = (1 << w) - 1
        cases = {
            "ADDW": (a + b) & mask,
            "SUBW": (a - b) & mask,
            "MULW": (a * b) & mask,
            "ANDW": (a & b) & mask,
            "ORW": (a | b) & mask,
            "XORW": (a ^ b) & mask,
        }
        for op, expected in cases.items():
            t = word_op(op, mk_numeral(w), mk_numeral(a), mk_numeral(b))
            th = conv.EVAL_CONV(t)
            assert dest_numeral(dest_eq(th.concl)[1]) == expected

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_comparators_match_python_semantics(self, a, b):
        from repro.logic.ground import dest_bool_literal

        for op, expected in (("EQW", a == b), ("NEQW", a != b),
                             ("LTW", a < b), ("GEW", a >= b)):
            th = conv.EVAL_CONV(word_op(op, mk_numeral(a), mk_numeral(b)))
            assert dest_bool_literal(dest_eq(th.concl)[1]) == expected
