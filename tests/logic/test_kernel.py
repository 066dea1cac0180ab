"""Unit tests for the LCF kernel: rules, theory extension, soundness discipline."""

import pytest

from repro.logic.hol_types import TyVar, bool_ty, mk_fun_ty, num_ty
from repro.logic.kernel import (
    ABS,
    ALPHA,
    AP_TERM,
    AP_THM,
    ASSUME,
    BETA_CONV,
    COMPUTE,
    DEDUCT_ANTISYM,
    EQ_MP,
    INST,
    INST_TYPE,
    KernelError,
    MK_COMB,
    REFL,
    SYM,
    TRANS,
    Theorem,
    current_theory,
    derivation,
    inference_steps,
    new_axiom,
    new_computable_constant,
    new_definition,
    proof_size,
    trusted_base_report,
)
from repro.logic.ground import mk_bool, mk_numeral
from repro.logic.stdlib import ensure_stdlib, word_op
from repro.logic.terms import Abs, Comb, Const, Var, mk_eq
from repro.logic.theory import TheoryError

ensure_stdlib()

x = Var("x", num_ty)
y = Var("y", num_ty)
p = Var("p", bool_ty)
q = Var("q", bool_ty)
f = Var("f", mk_fun_ty(num_ty, num_ty))
g = Var("g", mk_fun_ty(num_ty, num_ty))


class TestSoundnessDiscipline:
    def test_theorem_cannot_be_constructed_directly(self):
        with pytest.raises(KernelError):
            Theorem(object(), frozenset(), mk_eq(x, x), "FORGED", ())

    def test_theorem_is_immutable(self):
        th = REFL(x)
        with pytest.raises(AttributeError):
            th._concl = mk_eq(x, y)

    def test_inference_steps_increase(self):
        before = inference_steps()
        REFL(x)
        assert inference_steps() > before

    def test_trusted_base_report_lists_axioms(self):
        report = trusted_base_report()
        assert "FST_PAIR" in report
        assert "LET" in report


class TestPrimitiveRules:
    def test_refl(self):
        th = REFL(x)
        assert th.concl == mk_eq(x, x)
        assert not th.hyps

    def test_alpha_rule(self):
        t1 = Abs(x, x)
        t2 = Abs(y, y)
        th = ALPHA(t1, t2)
        assert th.concl == mk_eq(t1, t2)

    def test_alpha_rejects_different_terms(self):
        with pytest.raises(KernelError):
            ALPHA(x, y)

    def test_trans(self):
        thm = TRANS(ASSUME(mk_eq(p, q)), ASSUME(mk_eq(q, p)))
        assert thm.concl == mk_eq(p, p)
        assert len(thm.hyps) == 2

    def test_trans_checks_middle(self):
        with pytest.raises(KernelError):
            TRANS(REFL(x), REFL(y))

    def test_mk_comb(self):
        th = MK_COMB(REFL(f), REFL(x))
        assert th.concl == mk_eq(Comb(f, x), Comb(f, x))

    def test_mk_comb_type_check(self):
        with pytest.raises(KernelError):
            MK_COMB(REFL(x), REFL(y))

    def test_ap_term_and_ap_thm(self):
        eq = ASSUME(mk_eq(x, y))
        assert AP_TERM(f, eq).concl == mk_eq(Comb(f, x), Comb(f, y))
        feq = ASSUME(mk_eq(f, g))
        assert AP_THM(feq, x).concl == mk_eq(Comb(f, x), Comb(g, x))

    def test_abs(self):
        eq = REFL(Comb(f, x))
        th = ABS(x, eq)
        assert th.concl == mk_eq(Abs(x, Comb(f, x)), Abs(x, Comb(f, x)))

    def test_abs_rejects_free_hypothesis_variable(self):
        hyp = ASSUME(mk_eq(x, y))
        with pytest.raises(KernelError):
            ABS(x, hyp)

    def test_beta_conv(self):
        redex = Comb(Abs(x, Comb(f, x)), y)
        th = BETA_CONV(redex)
        assert th.concl == mk_eq(redex, Comb(f, y))

    def test_beta_conv_requires_redex(self):
        with pytest.raises(KernelError):
            BETA_CONV(Comb(f, x))

    def test_assume_requires_bool(self):
        with pytest.raises(KernelError):
            ASSUME(x)
        th = ASSUME(p)
        assert th.hyps == frozenset({p}) and th.concl == p

    def test_eq_mp(self):
        eq = ASSUME(mk_eq(p, q))
        th = EQ_MP(eq, ASSUME(p))
        assert th.concl == q

    def test_eq_mp_mismatch(self):
        eq = ASSUME(mk_eq(p, q))
        with pytest.raises(KernelError):
            EQ_MP(eq, ASSUME(q))

    def test_deduct_antisym(self):
        th = DEDUCT_ANTISYM(ASSUME(p), ASSUME(q))
        assert th.concl == mk_eq(p, q)
        # each side keeps the other's conclusion removed from its hypotheses
        assert th.hyps == frozenset({p, q})

    def test_deduct_antisym_discharges(self):
        # {p} |- p and {p} |- p  gives  |- p = p with p discharged on both sides
        th = DEDUCT_ANTISYM(ASSUME(p), ASSUME(p))
        assert th.concl == mk_eq(p, p)
        assert th.hyps == frozenset()

    def test_inst(self):
        th = REFL(Comb(f, x))
        out = INST({x: y}, th)
        assert out.concl == mk_eq(Comb(f, y), Comb(f, y))

    def test_inst_type_mismatch(self):
        with pytest.raises(KernelError):
            INST({x: p}, REFL(x))

    def test_inst_type(self):
        a = TyVar("a")
        v = Var("v", a)
        th = REFL(v)
        out = INST_TYPE({a: num_ty}, th)
        assert out.concl == mk_eq(Var("v", num_ty), Var("v", num_ty))

    def test_inst_type_rejects_bad_keys(self):
        with pytest.raises(KernelError):
            INST_TYPE({num_ty: bool_ty}, REFL(x))

    def test_sym(self):
        th = ASSUME(mk_eq(p, q))
        assert SYM(th).concl == mk_eq(q, p)

    def test_proof_size_counts_dag(self):
        th = TRANS(REFL(x), REFL(x))
        assert proof_size(th) >= 2

    def test_derivation_visits_each_theorem_once(self):
        shared = REFL(x)
        th = TRANS(TRANS(shared, shared), shared)
        walked = list(derivation(th))
        assert walked[0] is th
        assert len({id(t) for t in walked}) == len(walked) == proof_size(th) == 3


class TestTheoryExtension:
    def test_new_axiom_requires_bool(self):
        with pytest.raises(KernelError):
            new_axiom(x)

    def test_new_axiom_recorded(self):
        before = len(current_theory().trusted_base())
        th = new_axiom(mk_eq(p, p), name="TEST_AXIOM_RECORD")
        assert th.concl == mk_eq(p, p)
        assert len(current_theory().trusted_base()) == before + 1

    def test_new_definition_rejects_free_vars(self):
        with pytest.raises(KernelError):
            new_definition("BAD_DEF", Comb(f, x))

    def test_new_definition_creates_constant(self):
        thm = new_definition("ID_NUM_TEST", Abs(x, x))
        assert thm.concl.is_eq()
        assert current_theory().has_constant("ID_NUM_TEST")
        with pytest.raises(TheoryError):
            new_definition("ID_NUM_TEST", Abs(x, x))

    def test_compute_rule(self):
        t = word_op("ADD", mk_numeral(20), mk_numeral(22))
        th = COMPUTE(t)
        assert th.concl == mk_eq(t, mk_numeral(42))

    def test_compute_requires_ground_arguments(self):
        t = word_op("ADD", x, mk_numeral(1))
        with pytest.raises(KernelError):
            COMPUTE(t)

    def test_compute_requires_computable_constant(self):
        with pytest.raises(KernelError):
            COMPUTE(Comb(Const("FST", mk_fun_ty(mk_fun_ty(num_ty, num_ty), num_ty)), f))

    def test_compute_checks_the_constant_against_its_declared_type(self):
        # EQW is declared num -> num -> bool; at bool -> bool -> bool its
        # rule would still evaluate EQW T T to T
        eqw = Const("EQW", mk_fun_ty(bool_ty, mk_fun_ty(bool_ty, bool_ty)))
        with pytest.raises(KernelError, match="declared type"):
            COMPUTE(Comb(Comb(eqw, mk_bool(True)), mk_bool(True)))

    def test_compute_accepts_an_instance_of_a_generic_type(self):
        a = TyVar("a")
        new_computable_constant("ID_POLY_TEST", mk_fun_ty(a, a), 1, lambda v: v)
        th = COMPUTE(Comb(Const("ID_POLY_TEST", mk_fun_ty(num_ty, num_ty)), mk_numeral(7)))
        assert th.concl.rand == mk_numeral(7)

    def test_new_computable_constant_roundtrip(self):
        const = new_computable_constant(
            "TRIPLE_TEST", mk_fun_ty(num_ty, num_ty), 1, lambda a: 3 * a
        )
        th = COMPUTE(Comb(const, mk_numeral(5)))
        assert th.concl.rand == mk_numeral(15)
