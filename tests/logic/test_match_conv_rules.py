"""Tests for matching, conversions, derived rules and the standard library."""

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
from repro.logic.hol_types import TyVar, bool_ty, mk_fun_ty, num_ty
from repro.logic.kernel import ASSUME, REFL
from repro.logic.match import MatchError, term_match
from repro.logic.rules import (
    RuleError,
    equal_by_normalisation,
    prove_hyp,
    trans_chain,
)
from repro.logic.stdlib import dest_let, ensure_stdlib, is_let, mk_let, word_op
from repro.logic.terms import Abs, Var, dest_eq, mk_eq, mk_fst, mk_pair, mk_snd

ensure_stdlib()

x = Var("x", num_ty)
y = Var("y", num_ty)
n = Var("n", num_ty)
f = Var("f", mk_fun_ty(num_ty, num_ty))


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

class TestMatching:
    def test_match_variable_pattern(self):
        env, tyenv = term_match(x, word_op("ADD", y, mk_numeral(1)))
        assert env[x] == word_op("ADD", y, mk_numeral(1))
        assert not tyenv

    def test_match_structure(self):
        pattern = word_op("ADD", x, y)
        target = word_op("ADD", mk_numeral(1), mk_numeral(2))
        env, _ = term_match(pattern, target)
        assert env == {x: mk_numeral(1), y: mk_numeral(2)}

    def test_match_nonlinear_pattern(self):
        pattern = word_op("ADD", x, x)
        env, _ = term_match(pattern, word_op("ADD", y, y))
        assert env == {x: y}
        with pytest.raises(MatchError):
            term_match(pattern, word_op("ADD", y, mk_numeral(1)))

    def test_match_with_types(self):
        a = TyVar("a")
        v = Var("v", a)
        env, tyenv = term_match(v, mk_numeral(3))
        assert tyenv[a] == num_ty

    def test_match_respects_fixed_vars(self):
        with pytest.raises(MatchError):
            term_match(x, y, avoid=[x])

    def test_match_under_binders(self):
        pattern = Abs(n, word_op("ADD", n, x))
        target = Abs(y, word_op("ADD", y, mk_numeral(7)))
        env, _ = term_match(pattern, target)
        assert env[x] == mk_numeral(7)

    def test_match_refuses_capture(self):
        pattern = Abs(n, x)
        target = Abs(y, y)
        with pytest.raises(MatchError):
            term_match(pattern, target)

    def test_constant_mismatch(self):
        with pytest.raises(MatchError):
            term_match(word_op("ADD", x, y), word_op("SUB", x, y))


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

class TestConversions:
    def test_no_conv(self):
        with pytest.raises(ConvError):
            conv.NO_CONV(x)

    def test_orelsec_falls_through(self):
        c = conv.ORELSEC(conv.NO_CONV, REFL)
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

    def test_fst_conv_requires_pair_literal(self):
        from repro.logic.hol_types import mk_prod_ty

        v = Var("pair", mk_prod_ty(num_ty, num_ty))
        with pytest.raises(ConvError):
            conv.FST_CONV(mk_fst(v))

    def test_eval_conv_nested(self):
        t = word_op(
            "MUXW",
            word_op("EQW", mk_numeral(3), mk_numeral(3)),
            word_op("INCW", mk_numeral(4), mk_numeral(7)),
            mk_numeral(0),
        )
        th = conv.EVAL_CONV(t)
        assert dest_eq(th.concl)[1] == mk_numeral(8)

    def test_rewr_conv(self):
        # rewrite with |- x + 0 = x  (established by evaluation on a schematic
        # instance is not possible; use an assumption instead)
        eq = ASSUME(mk_eq(word_op("ADD", x, mk_numeral(0)), x))
        c = conv.REWR_CONV(eq)
        target = word_op("ADD", mk_numeral(9), mk_numeral(0))
        th = c(target)
        assert dest_eq(th.concl)[1] == mk_numeral(9)

    def test_rewr_conv_fails_on_mismatch(self):
        eq = ASSUME(mk_eq(word_op("ADD", x, mk_numeral(0)), x))
        with pytest.raises(ConvError):
            conv.REWR_CONV(eq)(word_op("SUB", mk_numeral(9), mk_numeral(0)))

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

    def test_prove_hyp(self):
        p = Var("p", bool_ty)
        lemma = ASSUME(p)
        # {p} |- p with lemma {p} |- p gives {p} |- p (hyp retained from lemma)
        out = prove_hyp(lemma, ASSUME(p))
        assert out.concl == p

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
