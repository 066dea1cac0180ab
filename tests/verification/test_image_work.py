"""The smv/sis traversal builds no BDD it throws away.

* ``and_exists`` keeps its memo per quantified set for the manager's life;
  reused across calls, across interleaved sets and after ``clear_caches``
  it still computes ``∃V. f ∧ g``;
* a trial merge in ``partition_relation`` stops at the cluster bound, with
  the clusters and schedule of the greedy that built every merge whole and
  then measured it, while a node budget or deadline hit inside a merge
  still raises;
* a cluster that joins two or more conjuncts holds at most
  ``CLUSTER_GROWTH`` times their summed node counts, so a merge that blows
  up is split even when it fits ``cluster_size``; Figure 2's relations
  never grow that much and keep the size-only greedy's clusters, and
  ``cluster_size=None`` is still one monolithic cluster;
* a pair whose reset outputs differ is refuted before any transition
  relation is built;
* ``_compose_levels`` builds a node with ``_mk`` where its new level lies
  above both children, with the result composition through ``ite`` gives.
"""

import dataclasses
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.generators import figure2, random_sequential_circuit
from repro.eval.workloads import table1_workload
from repro.retiming.apply import apply_forward_retiming
from repro.retiming.cuts import maximal_forward_cut
from repro.verification import model_checking
from repro.verification.bdd import (
    FALSE,
    TRUE,
    BddBudgetExceeded,
    BddManager,
    build_from_table,
)
from repro.verification.common import (
    EngineRun,
    declare_next_state_vars,
    product_fsm,
)

NAMES = ["a", "b", "c", "d", "e"]


def _manager(names=NAMES):
    m = BddManager()
    for name in names:
        m.declare(name)
    return m


def _from_bits(m, bits, names=NAMES):
    """The function whose truth table, row ``i`` at bit ``i``, is ``bits``."""
    def truth(assignment):
        row = 0
        for value in assignment:
            row = (row << 1) | int(value)
        return bool((bits >> row) & 1)

    return build_from_table(m, names, truth)


# -- and_exists keeps its memo ----------------------------------------------------

_TABLE = st.integers(0, (1 << (1 << len(NAMES))) - 1)
_QUANTIFIED = st.sets(st.sampled_from(NAMES), min_size=1).map(sorted)


@given(st.lists(_TABLE, min_size=2, max_size=4),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), _QUANTIFIED,
                          st.booleans()),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_property_and_exists_with_a_reused_memo_is_exists_of_and(tables, calls):
    """One manager answers a sequence of calls over a small pool of
    functions (and their negations), interleaving quantified sets and
    clearing its caches now and then; every answer is the conjunction
    quantified afterwards."""
    m = _manager()
    pool = [_from_bits(m, bits) for bits in tables]
    pool += [f ^ 1 for f in pool] + [TRUE, FALSE]
    for i, j, quantified, clear in calls:
        if clear:
            m.clear_caches()
        f, g = pool[i % len(pool)], pool[j % len(pool)]
        assert m.and_exists(quantified, f, g) == m.exists(
            quantified, m.apply_and(f, g))


def test_every_pair_of_a_pool_through_one_memo():
    """Deterministic companion of the property: every ordered pair of a
    pool of functions, under three interleaved sets, in one manager."""
    m = _manager()
    pool = [_from_bits(m, bits) for bits in
            (0x9A3C_5E71, 0x36C9_A5F0, 0x0FF0_1EE1, 0xC3A5_5A3C)]
    pool += [f ^ 1 for f in pool] + [m.var("c"), m.apply_and(pool[0], pool[1])]
    for quantified in (["a", "c"], ["b", "d", "e"], ["a", "c"], ["e"]):
        for f, g in itertools.product(pool, repeat=2):
            assert m.and_exists(quantified, f, g) == m.exists(
                quantified, m.apply_and(f, g))


def _and_exists_pair(m):
    f = _from_bits(m, 0x9A3C_5E71)
    g = _from_bits(m, 0x36C9_A5F0)
    return f, g


def test_a_repeated_and_exists_is_one_memo_hit():
    m = _manager()
    f, g = _and_exists_pair(m)
    first = m.and_exists(["a", "c"], f, g)
    m.and_exists(["b"], f, g)                # another set in between
    calls, hits = m.ite_calls, m.cache_hits
    assert m.and_exists(["c", "a"], f, g) == first
    assert (m.ite_calls, m.cache_hits) == (calls, hits + 1)


def test_clear_caches_drops_the_and_exists_memos():
    m = _manager()
    f, g = _and_exists_pair(m)
    first = m.and_exists(["a", "c"], f, g)
    m.clear_caches()
    calls = m.ite_calls
    assert m.and_exists(["a", "c"], f, g) == first
    assert m.ite_calls > calls


# -- trial merges stop at the bound ---------------------------------------------

def _old_and_bounded(manager):
    """The merge before the bound: build the conjunction whole, then walk it."""
    def and_bounded(f, g, bound):
        merged = manager.apply_and(f, g)
        return merged if manager.size(merged) <= bound else None
    return and_bounded


def _random_pair(seed):
    a = random_sequential_circuit(seed=seed, n_inputs=4, n_flipflops=8,
                                  n_gates=40)
    return a, apply_forward_retiming(a, maximal_forward_cut(a))


def _figure2_pair(width):
    w = table1_workload(width)
    return w.original, w.retimed


def _relation_inputs(a, b):
    product = product_fsm(a, b)
    m = product.manager
    primed = declare_next_state_vars(product)
    conjuncts = [m.apply_xnor(m.var(primed[var]), fn)
                 for var, fn in product.next_fns().items()]
    quantify = list(product.left.inputs) + product.all_state_vars()
    return m, conjuncts, quantify


PAIRS = {
    **{f"random{seed}": (lambda seed=seed: _random_pair(seed))
       for seed in range(4)},
    "figure2_6": lambda: _figure2_pair(6),
}


@pytest.mark.parametrize("cluster_size", [50, 200, 1000])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_bounded_merge_gives_the_whole_merge_greedys_clusters(
        pair, cluster_size, monkeypatch):
    m, conjuncts, quantify = _relation_inputs(*PAIRS[pair]())
    bounded = model_checking.partition_relation(m, conjuncts, quantify,
                                                cluster_size)
    # the same manager, so equal functions are equal edges
    monkeypatch.setattr(m, "and_bounded", _old_and_bounded(m))
    whole = model_checking.partition_relation(m, conjuncts, quantify,
                                              cluster_size)
    assert bounded == whole
    assert all(m.size(c) <= cluster_size for c in bounded.clusters
               if c not in conjuncts)


def test_some_trial_merges_stop_early():
    """The comparison above covers merges the bound stops, not only whole
    ones: figure2(6) at 50 nodes stops several."""
    m, conjuncts, quantify = _relation_inputs(*_figure2_pair(6))
    stopped = []
    run = m._run

    def spy(*args, **kwargs):
        result = run(*args, **kwargs)
        stopped.append(result is None)
        return result

    m._run = spy
    relation = model_checking.partition_relation(m, conjuncts, quantify, 50)
    assert 0 < sum(stopped) < len(relation.clusters) - 1


def test_a_stopped_merge_creates_at_most_one_node_past_the_bound():
    m, conjuncts, _ = _relation_inputs(*_figure2_pair(6))
    f = m.conjoin(conjuncts[:len(conjuncts) // 2])
    g = m.conjoin(conjuncts[len(conjuncts) // 2:])
    before = m.num_nodes
    assert m.and_bounded(f, g, 100) is None
    assert m.num_nodes - before == 101
    assert m.size(m.apply_and(f, g)) > 100


def test_a_node_budget_hit_during_a_merge_raises():
    m, conjuncts, quantify = _relation_inputs(*_figure2_pair(6))
    m.node_budget = m.num_nodes + 50
    with pytest.raises(BddBudgetExceeded, match="node budget"):
        model_checking.partition_relation(m, conjuncts, quantify, 1000)


def test_a_node_budget_below_the_bound_raises_not_stops():
    m, conjuncts, _ = _relation_inputs(*_figure2_pair(6))
    f = m.conjoin(conjuncts[:len(conjuncts) // 2])
    g = m.conjoin(conjuncts[len(conjuncts) // 2:])
    m.node_budget = m.num_nodes + 50
    with pytest.raises(BddBudgetExceeded):
        m.and_bounded(f, g, 100)


def test_a_deadline_hit_during_a_merge_raises():
    m, conjuncts, quantify = _relation_inputs(*_figure2_pair(6))
    m.deadline = time.perf_counter() - 1.0
    with pytest.raises(BddBudgetExceeded, match="wall-clock"):
        model_checking.partition_relation(m, conjuncts, quantify, 100_000)


# -- a cluster does not blow up -------------------------------------------------

def _members(m, cluster, conjuncts, quantify):
    """The conjuncts joined into ``cluster``.

    Each conjunct ``s' ≡ f(i, s)`` is the only one that mentions its
    primed variable, and a conjunction of such conjuncts depends on every
    primed variable among them.
    """
    quantified = set(quantify)
    return [c for c in conjuncts
            if m.support(c) - quantified <= m.support(cluster)]


def _size_only(monkeypatch):
    """Make ``partition_relation`` bound a merge by ``cluster_size`` alone."""
    monkeypatch.setattr(model_checking, "CLUSTER_GROWTH", 10**9)


@pytest.mark.parametrize("cluster_size", [50, 200, 1000])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_a_cluster_holds_at_most_growth_times_its_conjuncts(pair, cluster_size):
    m, conjuncts, quantify = _relation_inputs(*PAIRS[pair]())
    relation = model_checking.partition_relation(m, conjuncts, quantify,
                                                 cluster_size)
    joined = [_members(m, c, conjuncts, quantify) for c in relation.clusters]
    assert sorted(c for members in joined for c in members) == sorted(conjuncts)
    for cluster, members in zip(relation.clusters, joined):
        if len(members) > 1:
            weight = sum(m.size(c) for c in members)
            assert m.size(cluster) <= min(
                cluster_size, model_checking.CLUSTER_GROWTH * weight)


def _blow_up(m, conjuncts, cluster_size):
    """Two conjuncts whose conjunction blows up, yet fits ``cluster_size``."""
    for f, g in itertools.combinations(conjuncts, 2):
        merged = m.size(m.apply_and(f, g))
        weight = m.size(f) + m.size(g)
        if model_checking.CLUSTER_GROWTH * weight < merged <= cluster_size:
            return [f, g]
    raise AssertionError("no pair of conjuncts blows up")


def test_a_merge_that_blows_up_is_split(monkeypatch):
    m, conjuncts, quantify = _relation_inputs(*PAIRS["random1"]())
    pair = _blow_up(m, conjuncts, 1000)
    relation = model_checking.partition_relation(m, pair, quantify, 1000)
    assert sorted(relation.clusters) == sorted(pair)
    _size_only(monkeypatch)
    relation = model_checking.partition_relation(m, pair, quantify, 1000)
    assert relation.clusters == [m.apply_and(*pair)]


@pytest.mark.parametrize("width", range(1, 9))
def test_figure2_clusters_are_the_size_only_greedys(width, monkeypatch):
    m, conjuncts, quantify = _relation_inputs(*_figure2_pair(width))
    relation = model_checking.partition_relation(m, conjuncts, quantify)
    _size_only(monkeypatch)
    assert relation == model_checking.partition_relation(m, conjuncts,
                                                         quantify)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_no_cluster_size_is_one_monolithic_cluster(pair):
    m, conjuncts, quantify = _relation_inputs(*PAIRS[pair]())
    relation = model_checking.partition_relation(m, conjuncts, quantify, None)
    assert relation.clusters == [m.conjoin(conjuncts)]


# -- reset first ----------------------------------------------------------------

def _reset_differs():
    """figure2(3) against itself with register D0 reset to 1 instead of 0."""
    a = figure2(3)
    b = a.copy()
    b.registers["D0"] = dataclasses.replace(a.registers["D0"], init=1)
    return a, b


#: what the traversal answered when it clustered the relation first
RESET_COUNTEREXAMPLE = {
    **{f"A.{reg}[{k}]": False for reg in ("d0_out", "d1_out") for k in range(3)},
    **{f"B.{reg}[{k}]": False for reg in ("d0_out", "d1_out") for k in range(3)},
    "B.d0_out[0]": True,
}


def test_a_pair_refuted_at_reset_never_builds_its_relation(monkeypatch):
    def no_relation(*args, **kwargs):
        raise AssertionError("the relation was built")

    monkeypatch.setattr(model_checking, "build_transition_relation",
                        no_relation)
    a, b = _reset_differs()
    run = EngineRun("smv")
    result = model_checking.traverse(run, product_fsm(a, b, run.bdd_manager(None)))
    assert result.status == "not_equivalent"
    assert result.iterations == 0
    assert result.detail == "bad state reached after 0 traversal steps"
    assert result.counterexample == RESET_COUNTEREXAMPLE


def test_reset_check_matches_the_first_reachability_step():
    a, b = _reset_differs()
    product = product_fsm(a, b)
    primed = declare_next_state_vars(product)
    relation = model_checking.build_transition_relation(product, primed)
    m = product.manager
    bad = m.exists(product.left.inputs,
                   m.apply_not(product.outputs_equal_bdd()))
    reached, iterations, hit_bad = model_checking.forward_reachability(
        product, relation, primed, bad_states=bad)
    assert (iterations, hit_bad) == (0, True)
    cex = m.any_sat(m.apply_and(reached, m.apply_not(product.outputs_equal_bdd())))
    assert cex == RESET_COUNTEREXAMPLE


# -- rename through _mk ---------------------------------------------------------

def _compose_by_ite(m, f, pairs):
    """Composition that builds every node through ``ite`` (the reference)."""
    memo = {}

    def go(e):
        if e in (TRUE, FALSE):
            return e
        if e not in memo:
            node = m.node(e)
            rep = pairs.get(node.level, m._mk(node.level, FALSE, TRUE))
            memo[e] = m.ite(rep, go(node.high), go(node.low))
        return memo[e]

    return go(f)


RENAME_NAMES = ["x0", "y0", "x1", "y1", "x2", "y2", "z"]

RENAMES = {
    # each x_k to the y_k just below it: the order of the renamed
    # variables is kept, as in the product machine's primed-to-unprimed swap
    "order_preserving": {"x0": "y0", "x1": "y1", "x2": "y2"},
    # x0 and x2 swap places and z moves up to y0: the order is not kept
    "order_changing": {"x0": "x2", "x2": "x0", "z": "y0"},
}


@pytest.mark.parametrize("rename", sorted(RENAMES))
@pytest.mark.parametrize("bits", [0x6978, 0x29F4, 0xF0F0, 0x6996])
def test_rename_with_mk_equals_composition_through_ite(rename, bits):
    m = _manager(RENAME_NAMES)
    # a function of the x's and z only, so a rename onto the y's is a
    # function over the same universe
    support = ["x0", "x1", "x2", "z"]
    f = _from_bits(m, bits, support)
    mapping = RENAMES[rename]
    pairs = {m.level_of(a): m.var(b) for a, b in mapping.items()}
    expected = _compose_by_ite(m, f, pairs)
    assert m.rename(f, mapping) == expected
    # and the semantics: f read at the renamed values
    for values in itertools.product([False, True], repeat=len(RENAME_NAMES)):
        env = dict(zip(RENAME_NAMES, values))
        renamed_env = {**env, **{a: env[b] for a, b in mapping.items()}}
        assert m.evaluate(expected, env) == m.evaluate(f, renamed_env)


def test_an_order_preserving_rename_needs_no_ite():
    m = _manager(RENAME_NAMES)
    f = _from_bits(m, 0x6978, ["x0", "x1", "x2", "z"])
    calls, hits = m.ite_calls, m.cache_hits
    m.rename(f, RENAMES["order_preserving"])
    assert (m.ite_calls, m.cache_hits) == (calls, hits)
