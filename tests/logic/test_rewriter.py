"""Tests for the worklist rewrite engine (``repro.logic.rewriter``).

The contract: the net-based normalisers prove theorems *alpha-equivalent*
to the classic ``TOP_DEPTH_CONV`` engine's, while performing strictly fewer
kernel inferences on gate-level terms (only changed spines emit congruence
steps).  Rules reach the engine only as conversions, through ``add_conv``,
``add_beta`` and ``add_const_fallback``.
"""

import random

import pytest

from repro.circuits.bitblast import bitblast
from repro.circuits.generators import figure2
from repro.formal import formal_retiming
from repro.formal.embed import embed_netlist
from repro.logic import conv
from repro.logic.ground import mk_numeral
from repro.logic.hol_types import num_ty
from repro.logic.kernel import INST, inference_steps, new_axiom, reset_kernel
from repro.logic.rewriter import RewriteNet, net_conv
from repro.logic.stdlib import ensure_stdlib, word_op
from repro.logic.terms import Var, aconv, mk_eq, strip_comb


@pytest.fixture(autouse=True)
def fresh_theory():
    reset_kernel()
    ensure_stdlib()


def _law(name, op, args, rhs):
    """``|- op args = rhs`` as a conversion, with ``args`` one variable ``x``
    and one fixed numeral: it checks the head and the numeral, then puts the
    other argument in for ``x`` with one ``INST``, as ``FST_CONV`` does."""
    x = Var("x", num_ty)
    th = new_axiom(mk_eq(word_op(op, *args), rhs), name=name)
    fixed = 1 if args[0] is x else 0

    def law_conv(t):
        head, targs = strip_comb(t)
        if not (head.is_const(op) and len(targs) == 2
                and targs[fixed] is args[fixed]):
            raise conv.ConvError(f"not an instance of {name}")
        return INST({x: targs[1 - fixed]}, th)

    return op, law_conv


def _arith_laws():
    """A confluent, terminating demo rule set: unit/zero laws of ADD/MUL,
    as ``(head, conversion)`` pairs."""
    x = Var("x", num_ty)
    zero, one = mk_numeral(0), mk_numeral(1)
    return [
        _law("ADD_0", "ADD", (x, zero), x),
        _law("0_ADD", "ADD", (zero, x), x),
        _law("MUL_1", "MUL", (x, one), x),
        _law("MUL_0", "MUL", (x, zero), zero),
    ]


def _net(laws):
    net = RewriteNet()
    for head, law_conv in laws:
        net.add_conv(law_conv, head, 2)
    return net


def _top_depth(laws):
    return conv.TOP_DEPTH_CONV(conv.ORELSEC(*[c for _, c in laws]))


def _axiom_conv(th):
    """A conversion that rewrites exactly ``th``'s left-hand side."""
    def axiom_conv(t):
        if t is not th.lhs:
            raise conv.ConvError("not the axiom's left-hand side")
        return th

    return axiom_conv


def _random_term(rng, depth, leaves="abc"):
    if depth == 0 or rng.random() < 0.25:
        if not leaves or rng.random() < 0.4:
            return mk_numeral(rng.choice([0, 1, rng.randrange(2, 9)]))
        return Var(rng.choice(leaves), num_ty)
    op = rng.choice(["ADD", "MUL"])
    return word_op(op, _random_term(rng, depth - 1, leaves),
                   _random_term(rng, depth - 1, leaves))


class TestNetRewriteEquivalence:
    def test_randomized_terms_match_top_depth_conv(self):
        laws = _arith_laws()
        old_conv, new_conv = _top_depth(laws), net_conv(_net(laws))
        rng = random.Random(7)
        for _ in range(40):
            t = _random_term(rng, 4)
            th_old = old_conv(t)
            th_new = new_conv(t)
            assert aconv(th_old.concl, th_new.concl), (
                f"engines disagree on {t}: {th_old} vs {th_new}"
            )

    def test_randomized_ground_arithmetic_matches_top_depth_conv(self):
        old_conv = conv.TOP_DEPTH_CONV(conv.COMPUTE_CONV)
        rng = random.Random(11)
        for _ in range(40):
            t = _random_term(rng, 4, leaves="")
            th_old = old_conv(t)
            th_new = conv.EVAL_CONV(t)
            assert th_new.concl is th_old.concl, (
                f"engines disagree on {t}: {th_old} vs {th_new}"
            )

    def test_leaf_redexes_strictly_fewer_steps(self):
        """A wide tree with redexes at the leaves: the classic engine pays a
        full REFL re-sweep per pass, the worklist engine only the changed
        spines."""
        laws = _arith_laws()
        old_conv, new_conv = _top_depth(laws), net_conv(_net(laws))
        leaves = [
            word_op("ADD", Var(f"v{k}", num_ty), mk_numeral(0)) for k in range(32)
        ]
        level = leaves
        while len(level) > 1:
            level = [
                word_op("MUL", level[i], level[i + 1])
                for i in range(0, len(level), 2)
            ]
        t = level[0]
        before = inference_steps()
        th_old = old_conv(t)
        old_steps = inference_steps() - before
        before = inference_steps()
        th_new = new_conv(t)
        new_steps = inference_steps() - before
        assert aconv(th_old.concl, th_new.concl)
        assert new_steps < old_steps

    def test_eval_conv_matches_top_depth_conv_on_a_circuit_step(self):
        one = conv.ORELSEC(conv.BETA_CONV, conv.LET_CONV, conv.FST_CONV,
                           conv.SND_CONV, conv.COMPUTE_CONV)
        embedded = embed_netlist(figure2(3))
        th_old = conv.TOP_DEPTH_CONV(one)(embedded.step)
        th_new = conv.EVAL_CONV(embedded.step)
        assert aconv(th_old.concl, th_new.concl)


class TestGateLevelStepCounts:
    def test_gate_level_split_strictly_fewer_inferences(self):
        """The gate-level ablation circuit: figure2(8) bitblasted, 45 cells
        with XOR/MUX pattern emission (the raw AND/NOT/CONST emission has
        182)."""
        from repro.logic.stdlib import dest_let, is_let
        from repro.logic.terms import Abs, Comb, Var as TVar, mk_fst, mk_pair, mk_snd
        from repro.retiming.cuts import maximal_forward_cut

        gate = bitblast(figure2(8)).netlist
        cut = maximal_forward_cut(gate)
        embedded = embed_netlist(gate)
        cut_nets = [gate.cells[c].output for c in cut]
        assert gate.num_gates() == 45
        assert gate.num_gates() <= 100  # ISSUE-7 acceptance bound

        analysis = formal_retiming.analyse_cut(gate, cut, embedded)
        f_term = formal_retiming.build_f_term(gate, embedded, analysis)
        g_term = formal_retiming.build_g_term(gate, embedded, analysis)
        p = TVar("p", embedded.step.bvar.ty)
        split_term = Abs(
            p, Comb(g_term, mk_pair(mk_fst(p), Comb(f_term, mk_snd(p))))
        )

        name_set = set(cut_nets)

        def targeted_let(t):
            if is_let(t):
                var, _value, _body = dest_let(t)
                if var.name in name_set:
                    return conv.LET_CONV(t)
            raise conv.ConvError("not a targeted let binding")

        old_unfold = conv.TOP_DEPTH_CONV(targeted_let)
        old_reduce = conv.TOP_DEPTH_CONV(
            conv.ORELSEC(conv.BETA_CONV, conv.FST_CONV, conv.SND_CONV)
        )

        before = inference_steps()
        th_old = old_unfold(embedded.step)
        th_old_split = old_reduce(split_term)
        old_steps = inference_steps() - before

        before = inference_steps()
        th_new = formal_retiming.unfold_named_lets_conv(cut_nets)(embedded.step)
        th_new_split = formal_retiming.reduce_split_conv(split_term)
        new_steps = inference_steps() - before

        assert aconv(th_old.concl, th_new.concl)
        assert aconv(th_old_split.concl, th_new_split.concl)
        assert new_steps < old_steps
        # the dirty-spine engine beats the whole-term resweep by >= 10x here
        assert new_steps * 10 <= old_steps

    def test_full_retiming_theorem_alpha_equivalent_to_old_engine(self, monkeypatch):
        """The four-step pipeline proves the same theorem under both engines."""
        from repro.retiming.cuts import maximal_forward_cut

        gate = bitblast(figure2(3)).netlist
        cut = maximal_forward_cut(gate)

        new_result = formal_retiming.formal_forward_retiming(gate, cut)
        new_steps = int(new_result.stats["kernel_steps"])

        # reinstate the PR-1 TOP_DEPTH_CONV engines and rerun
        old_reduce = conv.TOP_DEPTH_CONV(
            conv.ORELSEC(conv.BETA_CONV, conv.FST_CONV, conv.SND_CONV)
        )

        def old_unfold(names):
            name_set = set(names)
            from repro.logic.stdlib import dest_let, is_let

            def single(t):
                if is_let(t):
                    var, _value, _body = dest_let(t)
                    if var.name in name_set:
                        return conv.LET_CONV(t)
                raise conv.ConvError("not a targeted let binding")

            return conv.TOP_DEPTH_CONV(single)

        def old_eval(t):
            one = conv.ORELSEC(conv.BETA_CONV, conv.LET_CONV, conv.FST_CONV,
                               conv.SND_CONV, conv.COMPUTE_CONV)
            return conv.TOP_DEPTH_CONV(one)(t)

        monkeypatch.setattr(formal_retiming, "reduce_split_conv", old_reduce)
        monkeypatch.setattr(formal_retiming, "unfold_named_lets_conv", old_unfold)
        monkeypatch.setattr(conv, "EVAL_CONV", old_eval)
        old_result = formal_retiming.formal_forward_retiming(gate, cut)
        old_steps = int(old_result.stats["kernel_steps"])

        assert aconv(old_result.theorem.concl, new_result.theorem.concl)
        assert not old_result.theorem.hyps and not new_result.theorem.hyps
        assert new_steps < old_steps


class TestRewriteNetIndexing:
    def test_candidates_filter_by_head_and_arity(self):
        net = _net(_arith_laws())
        x = Var("a", num_ty)
        add_term = word_op("ADD", x, mk_numeral(0))
        mul_term = word_op("MUL", x, mk_numeral(1))
        assert len(net.candidates(add_term)) == 2  # the two ADD laws
        assert len(net.candidates(mul_term)) == 2  # the two MUL laws
        assert net.candidates(add_term.rator) == []  # ADD at arity 1
        assert net.candidates(x) == []
        assert net.candidates(mk_numeral(5)) == []
        net.add_const_fallback(conv.COMPUTE_CONV)
        assert net.candidates(mk_numeral(5)) == [conv.COMPUTE_CONV]
        assert net.candidates(x) == []

    def test_unchanged_term_costs_one_refl(self):
        engine = net_conv(_net(_arith_laws()))
        x = Var("a", num_ty)
        t = word_op("ADD", x, mk_numeral(2))  # no rule applies anywhere
        for _ in range(3):
            t = word_op("MUL", t, t)
        before = inference_steps()
        th = engine(t)
        assert inference_steps() - before == 1  # just the top-level REFL
        assert th.rhs is t

    def test_shared_subterms_normalise_once(self):
        x = Var("a", num_ty)
        redex = word_op("ADD", x, mk_numeral(0))
        # a balanced tree of 2^6 pointer-identical redex leaves
        t = redex
        for _ in range(6):
            t = word_op("MUL", t, t)
        net = _net(_arith_laws())
        before = inference_steps()
        th = net_conv(net)(t)
        steps = inference_steps() - before
        expected = x
        for _ in range(6):
            expected = word_op("MUL", expected, expected)
        assert th.rhs is expected
        # each tree level costs O(1) (one MK_COMB over two shared children),
        # far below the 2^6 leaves a tree-walk would pay
        assert steps < 60

    def test_limit_raises(self):
        # a looping rule set under one key: ADD 1 2 = ADD 2 1, ADD 2 1 = ADD 1 2
        one_two = word_op("ADD", mk_numeral(1), mk_numeral(2))
        two_one = word_op("ADD", mk_numeral(2), mk_numeral(1))
        net = (RewriteNet()
               .add_conv(_axiom_conv(new_axiom(mk_eq(one_two, two_one), name="AB")),
                         "ADD", 2)
               .add_conv(_axiom_conv(new_axiom(mk_eq(two_one, one_two), name="BA")),
                         "ADD", 2))
        with pytest.raises(conv.ConvError):
            net_conv(net, limit=50)(one_two)


class TestSharedMemo:
    def test_calls_sharing_one_memo_reuse_each_other(self):
        net = _net(_arith_laws())
        zero, one = mk_numeral(0), mk_numeral(1)
        shared = word_op("ADD", Var("a", num_ty), zero)
        for _ in range(5):
            shared = word_op("MUL", word_op("ADD", shared, zero),
                             word_op("MUL", shared, one))
        # two overlapping terms: both contain ``shared``
        terms = (word_op("ADD", shared, zero), word_op("MUL", shared, one))

        def proofs(engine):
            out = []
            for t in terms:
                before = inference_steps()
                th = engine(t)
                out.append((th.concl, inference_steps() - before))
            return out

        fresh = proofs(net_conv(net))
        reused = proofs(net_conv(net, memo={}))
        assert [concl for concl, _ in reused] == [concl for concl, _ in fresh]
        assert reused[0][1] == fresh[0][1]
        # the second call finds ``shared`` normalised by the first
        assert reused[1][1] < fresh[1][1]
