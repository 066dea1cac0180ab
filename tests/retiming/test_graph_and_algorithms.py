"""Tests for the retiming graph and the Leiserson-Saxe algorithms."""

import random
import sys

import pytest

from repro.circuits.generators import (
    counter,
    figure2,
    fractional_multiplier,
    random_sequential_circuit,
)
from repro.circuits.netlist import Netlist
from repro.retiming.apply import apply_forward_retiming
from repro.retiming.cuts import maximal_forward_cut
from repro.retiming.graph import (
    HOST,
    RetimingGraph,
    RetimingGraphError,
    Edge,
    graph_from_netlist,
    lags_from_cut,
)
from repro.retiming.leiserson_saxe import feasible_clock_period, min_period_retiming


@pytest.fixture
def correlator_graph():
    """The classic Leiserson-Saxe correlator-style example.

    host -> a -> b -> c -> host with a register on the feedback edge c -> a;
    delays chosen so retiming can shorten the critical path.
    """
    g = RetimingGraph()
    g.vertices = [HOST, "a", "b", "c"]
    g.delay = {HOST: 0, "a": 3, "b": 3, "c": 7}
    g.edges = [
        Edge(HOST, "a", 1),
        Edge("a", "b", 0),
        Edge("b", "c", 0),
        Edge("c", HOST, 0),
    ]
    return g


class TestGraphModel:
    def test_graph_from_netlist_counts_registers(self, fig2_small):
        g = graph_from_netlist(fig2_small)
        assert sum(e.weight for e in g.edges) >= 2
        assert HOST in g.vertices
        assert set(g.delay) == set(g.vertices)

    def test_clock_period_of_figure2(self, fig2_small):
        g = graph_from_netlist(fig2_small)
        # longest register-to-register path: inc -> mux (2 cells)
        assert g.clock_period() == 2

    def test_clock_period_detects_combinational_cycle(self):
        g = RetimingGraph()
        g.vertices = [HOST, "a", "b"]
        g.delay = {HOST: 0, "a": 1, "b": 1}
        g.edges = [Edge("a", "b", 0), Edge("b", "a", 0)]
        with pytest.raises(RetimingGraphError):
            g.clock_period()

    def test_clock_period_of_a_deep_chain_at_default_recursion_limit(self):
        # 2,500 NOT gates in a row, a register after the 1,000th: the
        # longest zero-weight path runs through the last 1,500 gates
        limit = sys.getrecursionlimit()
        nl = Netlist("chain")
        nl.add_input("x")
        prev = "x"
        for i in range(2500):
            nl.add_net(f"n{i}")
            nl.add_cell(f"g{i}", "NOT", [prev], f"n{i}")
            prev = f"n{i}"
            if i == 999:
                nl.add_net("q")
                nl.add_register("R", prev, "q")
                prev = "q"
        nl.mark_output(prev)
        assert graph_from_netlist(nl).clock_period() == 1500
        assert sys.getrecursionlimit() == limit

    def test_legality_and_apply(self, correlator_graph):
        lags = {HOST: 0, "a": 0, "b": 0, "c": 1}
        # c -> host would get weight 0 + 0 - 1 = -1: illegal
        assert not correlator_graph.is_legal(lags)
        lags_ok = {HOST: 0, "a": -1, "b": 0, "c": 0}
        # a's input edge host->a: 1 + (-1) - 0 = 0; a->b: 0 + 0 + 1 = 1: legal
        assert correlator_graph.is_legal(lags_ok)
        retimed = correlator_graph.apply(lags_ok)
        assert sum(e.weight for e in retimed.edges) == \
            sum(e.weight for e in correlator_graph.edges)

    def test_apply_rejects_illegal(self, correlator_graph):
        with pytest.raises(RetimingGraphError):
            correlator_graph.apply({HOST: 0, "a": 0, "b": 0, "c": 1})

    def test_path_matrices(self, correlator_graph):
        W, D = correlator_graph.path_weight_matrices()
        assert W[("a", "c")] == 0
        assert D[("a", "c")] == 13  # 3 + 3 + 7
        assert W[(HOST, "a")] == 1

    def test_lags_from_cut(self, fig2_small):
        lags = lags_from_cut(fig2_small, ["inc"])
        assert lags["inc"] == -1
        assert lags[HOST] == 0
        with pytest.raises(RetimingGraphError):
            lags_from_cut(fig2_small, ["ghost"])


class TestAlgorithms:
    def test_min_period_improves_correlator(self, correlator_graph):
        before = correlator_graph.clock_period()
        period, lags = min_period_retiming(correlator_graph)
        assert period <= before
        assert correlator_graph.is_legal(lags)
        assert correlator_graph.apply(lags).clock_period() == period

    def test_feasible_period_none_when_impossible(self, correlator_graph):
        assert feasible_clock_period(correlator_graph, 1) is None

    def test_min_period_on_netlists(self):
        for netlist in (figure2(4), counter(4), fractional_multiplier(3)):
            g = graph_from_netlist(netlist)
            period, lags = min_period_retiming(g)
            assert period <= g.clock_period()
            assert g.is_legal(lags)

    def test_forward_retiming_lags(self, fig2_small):
        # a cut's lags are a legal retiming of the netlist's graph
        g = graph_from_netlist(fig2_small)
        assert g.is_legal(lags_from_cut(fig2_small, ["inc"]))

    def test_forward_retiming_lags_illegal(self, fig2_small):
        # cmp reads a primary input: moving it forward is no retiming
        g = graph_from_netlist(fig2_small)
        assert not g.is_legal(lags_from_cut(fig2_small, ["cmp"]))


def _random_graph(seed):
    """A small random graph whose zero-weight edges only run forward."""
    rng = random.Random(seed)
    cells = [f"v{i}" for i in range(rng.randint(3, 8))]
    g = RetimingGraph()
    g.vertices = [HOST] + cells
    g.delay = {HOST: 0, **{c: rng.randint(1, 5) for c in cells}}
    for i, head in enumerate(cells):
        tails = rng.sample([HOST] + cells, rng.randint(1, 3))
        for pin, tail in enumerate(tails):
            forward = tail == HOST or cells.index(tail) < i
            weight = rng.randint(0, 1) if forward else rng.randint(1, 2)
            g.edges.append(Edge(tail, head, weight, pin))
    for pin, tail in enumerate(rng.sample(cells, 2)):
        g.edges.append(Edge(tail, HOST, rng.randint(0, 1), pin))
    return g


def _recursive_period(g):
    """The textbook recursive longest zero-weight path (small graphs only)."""
    zero = {}
    for e in g.edges:
        if e.weight == 0:
            zero.setdefault(e.tail, []).append(e.head)

    def longest(v):
        if v == HOST:  # paths end at the environment, never pass through it
            return g.delay[HOST]
        return g.delay[v] + max((longest(h) for h in zero.get(v, [])), default=0)

    starts = [v for v in g.vertices if v != HOST] + zero.get(HOST, [])
    return max(longest(v) for v in starts)


@pytest.mark.parametrize("seed", range(10))
def test_clock_period_matches_the_recursive_definition(seed):
    g = _random_graph(seed)
    assert g.clock_period() == _recursive_period(g)


@pytest.mark.parametrize("seed", range(8))
def test_cut_lags_relate_the_graphs_of_a_forward_retiming(seed):
    # the lag convention of lags_from_cut is what apply_forward_retiming
    # does to the register weights, and what the match backend recovers
    netlist = random_sequential_circuit(4, 6, 30, seed=seed)
    cut = maximal_forward_cut(netlist)
    assert cut
    g = graph_from_netlist(netlist)
    lags = lags_from_cut(netlist, cut)
    assert g.is_legal(lags)
    after = graph_from_netlist(apply_forward_retiming(netlist, cut))
    assert {(e.tail, e.head, e.pin): g.retimed_weight(e, lags) for e in g.edges} == \
        {(e.tail, e.head, e.pin): e.weight for e in after.edges}
