"""The Leiserson–Saxe retiming graph.

Conventional retiming (the "existing synthesis techniques" the paper reuses
as heuristics, references [11] and [12]) is formulated on a weighted directed
graph ``G = (V, E, d, w)``:

* vertices are the combinational cells plus a distinguished *host* vertex
  representing the environment (primary inputs and outputs),
* an edge ``u -e-> v`` means the output of ``u`` feeds an input of ``v``;
  its weight ``w(e)`` is the number of registers on that connection,
* ``d(v)`` is the propagation delay of vertex ``v``.

A *retiming* is an integer lag ``r : V -> Z`` with ``r(host) = 0``; it moves
registers so the new weight of an edge is ``w_r(e) = w(e) + r(v) - r(u)``,
which must stay non-negative.  The classic algorithms (OPT/FEAS, implemented
in :mod:`repro.retiming.leiserson_saxe`) search for lags minimising the clock
period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..circuits.netlist import Cell, Netlist, Register

#: Name of the host vertex (the environment).
HOST = "<host>"


class RetimingGraphError(Exception):
    """Raised for malformed graphs or illegal retimings."""


@dataclass(frozen=True)
class Edge:
    """A connection ``tail -> head`` carrying ``weight`` registers."""

    tail: str
    head: str
    weight: int
    #: input pin position on the head vertex (for reconstruction)
    pin: int = 0


@dataclass
class RetimingGraph:
    """The Leiserson–Saxe graph of a netlist."""

    vertices: List[str] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    delay: Dict[str, int] = field(default_factory=dict)

    def retimed_weight(self, edge: Edge, lags: Dict[str, int]) -> int:
        return edge.weight + lags.get(edge.head, 0) - lags.get(edge.tail, 0)

    def is_legal(self, lags: Dict[str, int]) -> bool:
        """Is the lag assignment a legal retiming (non-negative weights, host fixed)?"""
        if lags.get(HOST, 0) != 0:
            return False
        return all(self.retimed_weight(e, lags) >= 0 for e in self.edges)

    def apply(self, lags: Dict[str, int]) -> "RetimingGraph":
        """The graph after retiming with the given lags."""
        if not self.is_legal(lags):
            raise RetimingGraphError("illegal retiming: negative edge weight or host lag")
        new_edges = [
            Edge(e.tail, e.head, self.retimed_weight(e, lags), e.pin) for e in self.edges
        ]
        return RetimingGraph(list(self.vertices), new_edges, dict(self.delay))

    # -- timing -----------------------------------------------------------------
    def clock_period(self) -> int:
        """The maximum combinational delay along zero-weight paths.

        Paths may start at the host (primary inputs) and end at the host
        (primary outputs) but never pass *through* it: the environment is
        sequential.
        """
        # longest path in the DAG formed by zero-weight edges, by an
        # explicit-stack postorder (combinational chains can be thousands
        # of cells deep)
        zero_adj: Dict[str, List[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.weight == 0:
                zero_adj[e.tail].append(e.head)
        longest: Dict[str, int] = {}  # delay of the longest path from v
        on_path: Set[str] = set()
        roots = [v for v in self.vertices if v != HOST] + zero_adj.get(HOST, [])
        for root in roots:
            stack = [root]
            while stack:
                v = stack[-1]
                if v in longest:
                    stack.pop()
                    continue
                # do not continue a path through the environment
                heads = zero_adj[v] if v != HOST else []
                if v not in on_path:
                    on_path.add(v)
                    for head in heads:
                        if head in on_path:
                            raise RetimingGraphError(
                                "combinational cycle (zero-weight cycle)")
                        if head not in longest:
                            stack.append(head)
                    continue
                on_path.discard(v)
                longest[v] = self.delay.get(v, 0) + max(
                    (longest[head] for head in heads), default=0)
                stack.pop()
        return max((longest[v] for v in roots), default=0)

    def path_weight_matrices(self) -> Tuple[Dict[Tuple[str, str], int], Dict[Tuple[str, str], int]]:
        """The W and D matrices of Leiserson–Saxe.

        ``W[u, v]`` is the minimum register count over all paths ``u -> v``;
        ``D[u, v]`` is the maximum total delay over the paths achieving it.
        Only pairs connected by some path are present.
        """
        W: Dict[Tuple[str, str], float] = {}
        D: Dict[Tuple[str, str], float] = {}
        for u in self.vertices:
            # Bellman-Ford style relaxation on (weight, -delay) lexicographic
            # cost.  Paths never continue *through* the host vertex: the
            # environment is sequential (see clock_period), so out-edges of
            # the host are only used as the first step of a path starting at
            # the host itself.
            dist: Dict[str, Tuple[float, float]] = {u: (0, -self.delay.get(u, 0))}
            if u == HOST:
                for e in self.edges:
                    if e.tail != HOST:
                        continue
                    cand = (e.weight, -self.delay.get(e.head, 0))
                    if e.head not in dist or cand < dist[e.head]:
                        dist[e.head] = cand
            for _ in range(len(self.vertices)):
                changed = False
                for e in self.edges:
                    if e.tail == HOST or e.tail not in dist:
                        continue
                    w0, negd0 = dist[e.tail]
                    cand = (w0 + e.weight, negd0 - self.delay.get(e.head, 0))
                    if e.head not in dist or cand < dist[e.head]:
                        dist[e.head] = cand
                        changed = True
                if not changed:
                    break
            for v, (w0, negd0) in dist.items():
                W[(u, v)] = int(w0)
                D[(u, v)] = int(-negd0)
        return W, D  # type: ignore[return-value]


def graph_from_netlist(
    netlist: Netlist, delays: Optional[Dict[str, int]] = None, default_delay: int = 1
) -> RetimingGraph:
    """Build the Leiserson–Saxe graph of a netlist.

    ``delays`` optionally maps cell *types* to propagation delays; by default
    every combinational cell has delay 1 and the host has delay 0.
    """
    drivers = netlist.drivers()
    delays = delays or {}

    def comb_source(net: str) -> Tuple[str, int]:
        weight = 0
        current = net
        seen = set()
        while True:
            if current in netlist.inputs:
                return HOST, weight
            driver = drivers[current]
            if isinstance(driver, Register):
                if current in seen:
                    raise RetimingGraphError(
                        f"register-only cycle through {driver.name}"
                    )
                seen.add(current)
                weight += 1
                current = driver.input
                continue
            assert isinstance(driver, Cell)
            return driver.name, weight

    graph = RetimingGraph()
    graph.vertices.append(HOST)
    graph.delay[HOST] = 0
    for cell in netlist.cells.values():
        graph.vertices.append(cell.name)
        graph.delay[cell.name] = delays.get(cell.type, default_delay)

    for cell in netlist.cells.values():
        for pin, net in enumerate(cell.inputs):
            tail, weight = comb_source(net)
            graph.edges.append(Edge(tail, cell.name, weight, pin))
    for pin, out in enumerate(sorted(netlist.outputs)):
        tail, weight = comb_source(out)
        graph.edges.append(Edge(tail, HOST, weight, pin))
    return graph


def lags_from_cut(netlist: Netlist, cut: Iterable[str]) -> Dict[str, int]:
    """The lag assignment corresponding to a forward-retiming cut.

    Forward retiming of the cells in ``cut`` (moving the registers from their
    inputs to their outputs) is the retiming with lag ``-1`` on exactly those
    cells... in the Leiserson–Saxe sign convention used here (``w_r(e) =
    w(e) + r(head) - r(tail)``), moving registers from the inputs of ``v`` to
    its outputs corresponds to ``r(v) = -1``.
    """
    lags = {name: 0 for name in netlist.cells}
    lags[HOST] = 0
    for name in cut:
        if name not in netlist.cells:
            raise RetimingGraphError(f"cut refers to unknown cell {name}")
        lags[name] = -1
    return lags
