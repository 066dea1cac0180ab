"""Engine-level tests for the complement-edge iterative BDD package.

Pins the PR-4 rebuild of :mod:`repro.verification.bdd`:

* randomized differential tests against :func:`build_from_table` ground
  truth and brute-force truth sets;
* semantics-preserving invariants — negation involution, quantifier
  duality, ``count_sat`` totals, ``and_exists`` vs conjoin-then-quantify;
* O(1) negation verified through the deterministic operation counters
  (``apply_not`` must expand no subproblems and allocate no nodes);
* a >2000-level deep-BDD regression at the *default* recursion limit,
  mirroring ``tests/automata/test_deep_eval.py`` for the logic kernel;
* the clustered early-quantification image against the monolithic one;
* the variable order of the product machine and of ``taut``: bit by bit,
  least significant bit first, and unchanged for circuits without words.
"""

import itertools
import random
import sys

import pytest

from repro.circuits.generators import counter, random_sequential_circuit
from repro.eval.fuzz import build_cell, make_specs
from repro.eval.scenarios import build_scenario
from repro.eval.workloads import table1_workload
from repro.retiming.apply import apply_forward_retiming
from repro.retiming.cuts import maximal_forward_cut
from repro.verification import fsm_compare, model_checking
from repro.verification.bdd import (
    FALSE,
    TRUE,
    BddBudgetExceeded,
    BddManager,
    build_from_table,
)
from repro.verification.common import (
    EngineRun,
    cut_point_vars,
    declare_bit_by_bit,
    declare_next_state_vars,
    ensure_gate_level,
    product_fsm,
)
from repro.verification.registry import run_checker

NAMES = ["a", "b", "c", "d", "e", "f"]


def _random_function(manager, rng, names=NAMES):
    bits = [rng.random() < 0.5 for _ in range(1 << len(names))]

    def truth(assignment):
        idx = 0
        for value in assignment:
            idx = (idx << 1) | int(value)
        return bits[idx]

    return build_from_table(manager, names, truth), truth


def _truth_set(manager, f, names=NAMES):
    return {
        bits
        for bits in itertools.product([False, True], repeat=len(names))
        if manager.evaluate(f, dict(zip(names, bits)))
    }


@pytest.fixture
def manager():
    m = BddManager()
    for name in NAMES:
        m.declare(name)
    return m


class TestDifferential:
    """Randomized agreement with truth-table ground truth."""

    def test_binary_ops_match_truth_sets(self, manager):
        rng = random.Random(1)
        for _ in range(25):
            f, _ = _random_function(manager, rng)
            g, _ = _random_function(manager, rng)
            sf, sg = _truth_set(manager, f), _truth_set(manager, g)
            assert _truth_set(manager, manager.apply_and(f, g)) == sf & sg
            assert _truth_set(manager, manager.apply_or(f, g)) == sf | sg
            assert _truth_set(manager, manager.apply_xor(f, g)) == sf ^ sg
            assert _truth_set(manager, manager.apply_xnor(f, g)) == (
                set(itertools.product([False, True], repeat=len(NAMES))) - (sf ^ sg)
            )

    def test_ite_matches_truth_sets(self, manager):
        rng = random.Random(2)
        universe = set(itertools.product([False, True], repeat=len(NAMES)))
        for _ in range(25):
            f, _ = _random_function(manager, rng)
            g, _ = _random_function(manager, rng)
            h, _ = _random_function(manager, rng)
            sf, sg, sh = (_truth_set(manager, x) for x in (f, g, h))
            expected = (sf & sg) | ((universe - sf) & sh)
            assert _truth_set(manager, manager.ite(f, g, h)) == expected

    def test_canonicity_same_function_same_edge(self, manager):
        rng = random.Random(3)
        for _ in range(10):
            f, truth = _random_function(manager, rng)
            rebuilt = build_from_table(manager, NAMES, truth)
            assert rebuilt == f

    def test_restrict_compose_match_semantics(self, manager):
        rng = random.Random(4)
        for _ in range(15):
            f, _ = _random_function(manager, rng)
            g, _ = _random_function(manager, rng)
            sf, sg = _truth_set(manager, f), _truth_set(manager, g)
            name = rng.choice(NAMES)
            ti = NAMES.index(name)
            composed = manager.compose(f, {name: g})
            expected = set()
            for bits in itertools.product([False, True], repeat=len(NAMES)):
                sub = list(bits)
                sub[ti] = bits in sg
                if tuple(sub) in sf:
                    expected.add(bits)
            assert _truth_set(manager, composed) == expected


class TestInvariants:
    """Algebraic invariants of the complement-edge representation."""

    def test_negation_involution(self, manager):
        rng = random.Random(5)
        for _ in range(20):
            f, _ = _random_function(manager, rng)
            assert manager.apply_not(manager.apply_not(f)) == f
            assert manager.apply_xnor(f, FALSE) == manager.apply_not(f)

    def test_apply_not_is_constant_time(self, manager):
        """O(1) negation: no subproblem expansions, no new nodes."""
        rng = random.Random(6)
        f, _ = _random_function(manager, rng)
        nodes_before = manager.num_nodes
        calls_before = manager.ite_calls
        hits_before = manager.cache_hits
        g = manager.apply_not(f)
        assert g == f ^ 1
        assert manager.apply_not(g) == f
        assert manager.num_nodes == nodes_before
        assert manager.ite_calls == calls_before
        assert manager.cache_hits == hits_before

    def test_negation_shares_nodes(self, manager):
        rng = random.Random(7)
        f, _ = _random_function(manager, rng)
        assert manager.size(manager.apply_not(f)) == manager.size(f)

    def test_quantifier_duality(self, manager):
        rng = random.Random(8)
        for _ in range(15):
            f, _ = _random_function(manager, rng)
            qs = rng.sample(NAMES, rng.randint(1, 4))
            assert manager.forall(qs, f) == manager.apply_not(
                manager.exists(qs, manager.apply_not(f))
            )
            # exists is monotone: f implies exists(f)
            assert manager.apply_implies(f, manager.exists(qs, f)) == TRUE

    def test_count_sat_totals(self, manager):
        rng = random.Random(9)
        total = 1 << len(NAMES)
        for _ in range(15):
            f, _ = _random_function(manager, rng)
            assert manager.count_sat(f) == len(_truth_set(manager, f))
            assert manager.count_sat(f) + manager.count_sat(manager.apply_not(f)) == total

    def test_and_exists_equals_exists_of_and(self, manager):
        rng = random.Random(10)
        for _ in range(20):
            f, _ = _random_function(manager, rng)
            g, _ = _random_function(manager, rng)
            qs = rng.sample(NAMES, rng.randint(1, 4))
            assert manager.and_exists(qs, f, g) == manager.exists(
                qs, manager.apply_and(f, g)
            )

    def test_operation_counters_deterministic(self):
        def run():
            m = BddManager()
            for name in NAMES:
                m.declare(name)
            rng = random.Random(11)
            f, _ = _random_function(m, rng)
            g, _ = _random_function(m, rng)
            m.apply_and(f, g)
            m.apply_xor(f, g)
            m.exists(NAMES[:3], f)
            return m.ite_calls, m.cache_hits, m.num_nodes

        assert run() == run()


class TestDeepBdd:
    """>2000-level BDDs at the default recursion limit (iterative core)."""

    WIDTH = 2500

    def test_deep_chain_operations(self):
        assert sys.getrecursionlimit() <= 3000, (
            "test must run at (or near) the default limit to be meaningful"
        )
        m = BddManager()
        names = [f"x{i}" for i in range(self.WIDTH)]
        for name in names:
            m.declare(name)
        # conjunction chain: one node per level, WIDTH levels deep
        f = m.conjoin(m.var(n) for n in names)
        assert m.size(f) == self.WIDTH
        # O(1) negation of a deep BDD, then a full traversal through it
        nf = m.apply_not(f)
        assert m.size(nf) == self.WIDTH
        assert m.evaluate(f, {n: True for n in names})
        assert not m.evaluate(f, {**{n: True for n in names}, names[-1]: False})
        # iterative ite/and: conjoin two deep chains shifted against each other
        g = m.conjoin(m.var(n) for n in names[1:])
        assert m.apply_and(f, g) == f
        assert m.apply_implies(f, g) == TRUE
        # iterative xor builds a deep result too
        x = m.apply_xor(f, m.var(names[0]))
        assert m.evaluate(x, {**{n: True for n in names}, names[1]: False})
        # iterative quantification across every second level
        half = names[0::2]
        ex = m.exists(half, f)
        assert ex == m.conjoin(m.var(n) for n in names[1::2])
        assert m.forall(half, ex) == ex
        # iterative compose: substitute TRUE into the deepest variable
        composed = m.compose(f, {names[-1]: TRUE})
        assert composed == m.conjoin(m.var(n) for n in names[:-1])
        # iterative count_sat on the full chain
        assert m.count_sat(f, over=names) == 1
        # and_exists through the whole chain
        assert m.and_exists(half, f, g) == ex

    def test_deep_restrict_and_support(self):
        m = BddManager()
        names = [f"y{i}" for i in range(self.WIDTH)]
        for name in names:
            m.declare(name)
        f = m.disjoin(m.nvar(n) for n in names)
        assert len(m.support(f)) == self.WIDTH

    def test_deep_build_from_table(self):
        # parity over many variables exercises the iterative table reduction
        m = BddManager()
        names = [f"p{i}" for i in range(14)]
        f = build_from_table(m, names, lambda bits: sum(bits) % 2 == 1)
        assert m.size(f) == len(names)  # parity is linear-sized with ⊕ sharing
        assert m.count_sat(f, over=names) == 1 << (len(names) - 1)


class TestBudgets:
    def test_deadline_checked_on_cache_hits(self):
        """A cache-hit-heavy loop must still honour the wall-clock budget."""
        import time

        m = BddManager()
        names = [f"w{i}" for i in range(14)]
        for name in names:
            m.declare(name)
        rng = random.Random(12)
        f = build_from_table(m, names, lambda bits: rng.random() < 0.5)
        g = build_from_table(m, names, lambda bits: rng.random() < 0.5)
        m.apply_and(f, g)  # warm the cache
        m.deadline = time.perf_counter() - 1.0
        with pytest.raises(BddBudgetExceeded):
            # every subproblem is now a cache hit; the tick-based deadline
            # check must fire anyway within a bounded number of operations
            for _ in range(10_000):
                m.apply_and(f, g)
                m.clear_caches()

    def test_timeout_result_carries_stats(self):
        from repro.verification import van_eijk

        nl = random_sequential_circuit(seed=0, n_inputs=4, n_flipflops=8, n_gates=60)
        result = van_eijk.check_equivalence(nl, nl, time_budget=0.0)
        assert result.status == "timeout"
        assert result.stats.get("peak_nodes", 0) > 0
        assert "ite_calls" in result.stats

    def test_smv_timeout_result_carries_stats(self):
        nl = counter(12)
        result = model_checking.check_equivalence(nl, nl, time_budget=0.01)
        assert result.status == "timeout"
        assert result.stats.get("peak_nodes", 0) > 0


class TestPartitionedImage:
    """The clustered early-quantification image against ground truth."""

    def _reach(self, netlist, cluster_size):
        product = product_fsm(netlist, netlist)
        m = product.manager
        primed = declare_next_state_vars(product)
        relation = model_checking.build_transition_relation(
            product, primed, cluster_size=cluster_size
        )
        reached, iterations, _ = model_checking.forward_reachability(
            product, relation, primed
        )
        states = m.count_sat(reached, over=product.all_state_vars())
        return states, iterations, m.num_nodes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clustered_image_matches_monolithic(self, seed):
        nl = random_sequential_circuit(
            seed=seed, n_inputs=3, n_flipflops=5, n_gates=20
        )
        mono_states, mono_iters, _ = self._reach(nl, cluster_size=None)
        clus_states, clus_iters, _ = self._reach(nl, cluster_size=150)
        assert (mono_states, mono_iters) == (clus_states, clus_iters)

    def test_counter_reachable_states(self):
        states, _, _ = self._reach(counter(6), cluster_size=1000)
        assert states == 1 << 6  # the 6-bit counter visits every state (paired)

    def test_schedule_covers_quantify_set_once(self):
        nl = counter(5)
        product = product_fsm(nl, nl)
        m = product.manager
        primed = declare_next_state_vars(product)
        relation = model_checking.build_transition_relation(product, primed,
                                                            cluster_size=50)
        scheduled = [v for step in relation.schedule for v in step]
        assert sorted(scheduled + relation.pre_quantified) == sorted(relation.quantify)
        assert len(set(scheduled)) == len(scheduled)
        # a scheduled variable never appears in a *later* cluster's support
        for i, step in enumerate(relation.schedule):
            for later in relation.clusters[i + 1:]:
                assert not (set(step) & m.support(later))


class TestProductOrder:
    """The product machine declares its variables bit by bit, LSB first."""

    def test_figure2_is_declared_bit_by_bit(self):
        w = table1_workload(2)
        product = product_fsm(w.original, w.retimed)
        assert product.manager.var_names() == [
            "a[0]", "b[0]",
            "A.d0_out[0]", "A.d0_out[0]'", "B.d0_out[0]", "B.d0_out[0]'",
            "A.d1_out[0]", "A.d1_out[0]'", "B.inc_out[0]", "B.inc_out[0]'",
            "B.y[0]", "B.y[0]'",
            "a[1]", "b[1]",
            "A.d0_out[1]", "A.d0_out[1]'", "B.d0_out[1]", "B.d0_out[1]'",
            "A.d1_out[1]", "A.d1_out[1]'", "B.inc_out[1]", "B.inc_out[1]'",
            "B.y[1]", "B.y[1]'",
        ]
        primed = declare_next_state_vars(product)
        assert primed == {v: v + "'" for v in product.all_state_vars()}

    @pytest.mark.parametrize("retime", [False, True])
    def test_a_word_free_pair_keeps_the_index_order(self, retime):
        a = random_sequential_circuit(seed=3, n_inputs=3, n_flipflops=5,
                                      n_gates=20)
        b = apply_forward_retiming(a, maximal_forward_cut(a)) if retime else a
        regs_a = [f"A.{r.output}" for r in a.registers.values()]
        regs_b = [f"B.{r.output}" for r in b.registers.values()]
        if retime:
            assert [r.name for r in b.registers.values()] != \
                [r.name for r in a.registers.values()]
        expected = list(a.inputs)
        for i in range(max(len(regs_a), len(regs_b))):
            for regs in (regs_a, regs_b):
                if i < len(regs):
                    expected += [regs[i], regs[i] + "'"]
        assert not any("[" in name for name in expected)
        assert product_fsm(a, b).manager.var_names() == expected

    @pytest.mark.parametrize("module", [model_checking, fsm_compare],
                             ids=["smv", "sis"])
    def test_figure2_n8_fits_in_fifty_thousand_nodes(self, module):
        w = table1_workload(8)
        result = module.check_equivalence(w.original, w.retimed,
                                          time_budget=60.0)
        assert result.status == "equivalent"
        assert result.iterations == 256
        assert result.stats["peak_nodes"] <= 50_000  # 464,268 by index order


class TestTautologyOrder:
    """taut declares its inputs and cut points through the same order."""

    def test_names_are_sorted_by_word_bit_stably(self):
        m = BddManager()
        m.declare("z[1]'")
        declare_bit_by_bit(m, ["x[1]", "y", "x[0]", "z[1]'", "w[0]", "y"])
        # a declared name keeps its level; ties keep the given order
        assert m.var_names() == ["z[1]'", "y", "x[0]", "w[0]", "x[1]"]

    def test_strash_figure2_12bit_fits_in_five_thousand_nodes(self):
        w = build_scenario("strash", widths=[12])[0]
        result = run_checker("taut", w.original, w.retimed, time_budget=60.0,
                             node_budget=2_000_000)
        assert result.status == "equivalent"
        assert result.stats["peak_nodes"] < 5_000  # 467,107 by index order

    def test_a_fuzz_named_pair_keeps_its_declaration_order(self,
                                                          monkeypatch):
        managers = []
        make_manager = EngineRun.bdd_manager

        def spy(run, node_budget):
            managers.append(make_manager(run, node_budget))
            return managers[-1]

        monkeypatch.setattr(EngineRun, "bdd_manager", spy)
        spec = make_specs(12, seed=0, n_inputs=3, n_flipflops=4,
                          n_gates=16)[4]
        w = build_cell(spec).workload
        result = run_checker("taut", w.original, w.retimed, time_budget=60.0)
        assert result.status == "not_equivalent"
        names = [*cut_point_vars(ensure_gate_level(w.original)).values(),
                 *cut_point_vars(ensure_gate_level(w.retimed)).values()]
        assert not any("[" in name for name in names)
        assert managers[0].var_names() == list(dict.fromkeys(names))
