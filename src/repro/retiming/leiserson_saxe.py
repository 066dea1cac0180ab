"""Classic retiming algorithms (Leiserson–Saxe).

These are the *conventional synthesis heuristics* that the paper's formal
approach deliberately reuses: "It is possible to do it by hand and it is also
possible to invoke some program.  This allows us to reuse existing
techniques [11, 12]."  The algorithms operate purely on the
:class:`~repro.retiming.graph.RetimingGraph`; they know nothing about logic
or theorem proving, and their output (a lag assignment / a cut) is handed to
either the conventional netlist transformer (:mod:`repro.retiming.apply`) or
the formal HASH step (:mod:`repro.formal.formal_retiming`) as *control
information*.

Implemented: :func:`feasible_clock_period` / :func:`min_period_retiming` —
binary search over candidate periods with a Bellman–Ford feasibility check
(the OPT1/FEAS algorithm).  The maximal forward retiming that Tables I and II
use ("f covering a maximum number of retimable gates, i.e. the worst case for
our approach") is a cut, not a lag search: see
:func:`repro.retiming.cuts.maximal_forward_cut`, and
:func:`repro.retiming.graph.lags_from_cut` for its lags.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .graph import HOST, RetimingGraph


class RetimingInfeasible(Exception):
    """Raised when no legal retiming achieves the requested objective."""


# ---------------------------------------------------------------------------
# Feasibility of a target clock period (FEAS / Bellman-Ford formulation)
# ---------------------------------------------------------------------------

def _feasibility_constraints(
    graph: RetimingGraph, period: int
) -> List[Tuple[str, str, int]]:
    """Difference constraints ``r(u) - r(v) <= c`` encoding legality and period.

    * legality: for every edge ``u -> v``: ``r(u) - r(v) <= w(e)``
    * period:   for every pair with ``D[u, v] > period``:
      ``r(u) - r(v) <= W[u, v] - 1``
    """
    constraints: List[Tuple[str, str, int]] = []
    for e in graph.edges:
        constraints.append((e.tail, e.head, e.weight))
    W, D = graph.path_weight_matrices()
    for (u, v), delay in D.items():
        if delay > period:
            constraints.append((u, v, W[(u, v)] - 1))
    return constraints


def _solve_difference_constraints(
    vertices: List[str], constraints: List[Tuple[str, str, int]]
) -> Optional[Dict[str, int]]:
    """Solve ``r(u) - r(v) <= c`` by Bellman–Ford; ``None`` if infeasible."""
    # Graph with an edge v -> u of weight c for each constraint r(u) - r(v) <= c,
    # plus a virtual source connected to every vertex with weight 0.
    dist = {v: 0 for v in vertices}
    for _ in range(len(vertices)):
        changed = False
        for u, v, c in constraints:
            if dist[v] + c < dist[u]:
                dist[u] = dist[v] + c
                changed = True
        if not changed:
            break
    else:
        # one more pass to detect a negative cycle
        for u, v, c in constraints:
            if dist[v] + c < dist[u]:
                return None
    # normalise the host lag to zero
    offset = dist.get(HOST, 0)
    return {v: dist[v] - offset for v in vertices}


def feasible_clock_period(graph: RetimingGraph, period: int) -> Optional[Dict[str, int]]:
    """A legal retiming achieving clock period ``period``, or ``None``."""
    constraints = _feasibility_constraints(graph, period)
    lags = _solve_difference_constraints(list(graph.vertices), constraints)
    if lags is None:
        return None
    if not graph.is_legal(lags):
        return None
    if graph.apply(lags).clock_period() > period:
        return None
    return lags


def min_period_retiming(graph: RetimingGraph) -> Tuple[int, Dict[str, int]]:
    """Minimum achievable clock period and a retiming achieving it (OPT1)."""
    _, D = graph.path_weight_matrices()
    candidate_periods = sorted({int(d) for d in D.values()} | {graph.clock_period()})
    if not candidate_periods:
        return 0, {v: 0 for v in graph.vertices}
    lo, hi = 0, len(candidate_periods) - 1
    best: Optional[Tuple[int, Dict[str, int]]] = None
    while lo <= hi:
        mid = (lo + hi) // 2
        period = candidate_periods[mid]
        lags = feasible_clock_period(graph, period)
        if lags is not None:
            best = (period, lags)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise RetimingInfeasible("no feasible clock period found")
    return best
