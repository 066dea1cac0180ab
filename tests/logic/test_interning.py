"""Invariants of the hash-consed (interned) kernel representation.

Structurally equal types and terms must be pointer-identical, the intern
tables must report cache hits for repeated construction, and interning must
be *observationally invisible* to the kernel: inference-step counts of a
derivation are the same whether the intern caches are cold or warm.
"""

from repro.logic.hol_types import (
    TyApp,
    TyVar,
    bool_ty,
    mk_fun,
    mk_fun_ty,
    mk_prod_ty,
    num_ty,
)
from repro.logic.kernel import REFL, TRANS, inference_steps
from repro.logic.terms import (
    Abs,
    Comb,
    Const,
    Var,
    aconv,
    mk_eq,
    mk_pair,
    term_intern_stats,
)


class TestTypeInterning:
    def test_mk_fun_is_identical(self):
        a, b = TyVar("a"), TyVar("b")
        assert mk_fun(a, b) is mk_fun(a, b)
        assert mk_fun_ty(a, b) is mk_fun(a, b)

    def test_tyvar_and_tyapp_identity(self):
        assert TyVar("a") is TyVar("a")
        assert TyApp("bool") is bool_ty
        assert mk_prod_ty(bool_ty, num_ty) is mk_prod_ty(bool_ty, num_ty)

    def test_distinct_types_are_distinct(self):
        assert mk_fun_ty(bool_ty, num_ty) is not mk_fun_ty(num_ty, bool_ty)
        assert TyVar("a") is not TyVar("b")

class TestTermInterning:
    def test_var_const_identity(self):
        assert Var("x", bool_ty) is Var("x", bool_ty)
        assert Const("T", bool_ty) is Const("T", bool_ty)
        # same name at a different type is a different object
        assert Var("x", bool_ty) is not Var("x", num_ty)

    def test_comb_abs_identity(self):
        x = Var("x", bool_ty)
        f = Var("f", mk_fun_ty(bool_ty, bool_ty))
        assert Comb(f, x) is Comb(f, x)
        assert Abs(x, Comb(f, x)) is Abs(x, Comb(f, x))
        assert mk_pair(x, x) is mk_pair(x, x)
        assert mk_eq(x, x) is mk_eq(x, x)

    def test_equality_is_identity(self):
        x = Var("x", bool_ty)
        t1 = mk_pair(x, x)
        t2 = mk_pair(x, x)
        assert t1 == t2 and t1 is t2
        assert hash(t1) == hash(t2)

    def test_hit_counter_increases(self):
        x = Var("x", bool_ty)
        keep = mk_pair(x, x)
        before = term_intern_stats()
        again = mk_pair(x, x)
        after = term_intern_stats()
        assert again is keep
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_aconv_fast_path(self):
        x, y = Var("x", bool_ty), Var("y", bool_ty)
        assert aconv(mk_pair(x, y), mk_pair(x, y))
        assert aconv(Abs(x, x), Abs(y, y))
        assert not aconv(Abs(x, y), Abs(y, y))


class TestInterningIsObservationallyInvisible:
    def _derive(self):
        """A small derivation; returns the number of kernel steps it takes."""
        x = Var("x", bool_ty)
        y = Var("y", mk_prod_ty(bool_ty, num_ty))
        before = inference_steps()
        th1 = REFL(mk_pair(x, y))
        th2 = REFL(mk_pair(x, y))
        TRANS(th1, th2)
        return inference_steps() - before

    def test_kernel_step_counts_unchanged_by_cache_state(self):
        # First run populates the intern tables (cold), the second run hits
        # them (warm); the kernel must count exactly the same inferences.
        cold = self._derive()
        warm = self._derive()
        assert cold == warm == 3

    def test_formal_retiming_step_counts_are_reproducible(self):
        from repro.circuits.generators import figure2
        from repro.formal import formal_forward_retiming
        from repro.retiming.cuts import maximal_forward_cut

        circuit = figure2(4)
        cut = maximal_forward_cut(circuit)
        # prime the once-per-theory setup (stdlib, the universal retiming
        # theorem) so the comparison isolates the effect of interning
        formal_forward_retiming(circuit, cut)
        r1 = formal_forward_retiming(circuit, cut)
        r2 = formal_forward_retiming(circuit, cut)
        # Theory/kernel inference-step counts are unchanged by interning:
        # the warm-cache run performs exactly the same kernel inferences.
        assert r1.stats["kernel_steps"] == r2.stats["kernel_steps"]
        assert r1.stats["proof_size"] == r2.stats["proof_size"]
        # the second run is served mostly from the intern table
        assert r2.stats["term_intern_hits"] > 0
        assert r2.stats["term_intern_misses"] < r2.stats["term_intern_hits"]
        # and both produce the *identical* theorem object content
        assert r1.theorem.concl is r2.theorem.concl