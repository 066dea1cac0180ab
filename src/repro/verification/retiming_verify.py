"""Retiming-specific structural verification (Huang/Cheng/Chen style).

Reference [8] of the paper is a verifier specialised to *pure retiming*:
"During retiming the overall shape of the structure is not changed entirely.
It is only the registers that have been shifted.  The program tries to match
the former and the retimed circuit description.  This can be performed pretty
fast.  In contrast to [7] this approach is limited to pure retiming."

This module reproduces that idea: it attempts to establish a *retiming
correspondence* between the two netlists without any state traversal, using
the Leiserson–Saxe characterisation of retiming.

Algorithm
---------

1. Both netlists must have the same primary inputs/outputs and the same
   combinational cell instances (matched by name and type) — retiming moves
   registers, it does not change the logic.  If the logic differs the
   verifier gives up (``status = "error"``: inconclusive, as the backend is
   registered incomplete), exactly like the original tool would on a
   compound retiming+resynthesis step.
2. Build, for both circuits, the *connection graph* — the Leiserson–Saxe
   graph of :func:`repro.retiming.graph.graph_from_netlist`: nodes are
   combinational cells plus a host node for the primary inputs/outputs; each
   consumer pin contributes an edge from the combinational driver of the
   signal it reads, weighted by the number of registers passed on the way.
   A ring of registers with no cell on it has no such driver, and the
   verifier gives up (``error``).  A legal retiming is exactly an integer
   lag ``r(v)`` per cell with ``r(host) = 0`` such that
   ``w_retimed(e) = w_original(e) + r(head) - r(tail)`` on every edge.  The
   lags are recovered by propagation and checked for consistency; when no
   consistent assignment exists the pair is not a pure retiming, and the
   verifier gives up (``error``) rather than refute it without a witness.
3. Initial values cannot be validated purely structurally; they are checked
   by short directed simulations (all-zeros plus seeded random stimuli).  A
   forward-retimed register must carry ``f(q)``, and a wrong initial value
   shows up within a few cycles on these stimuli.

The method is fast (linear in the netlist) but, as the paper stresses,
*limited to pure retiming*: any other transformation makes it bail out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..circuits.netlist import Netlist
from ..circuits.simulate import random_input_sequence, simulate
from ..retiming.graph import HOST, RetimingGraphError, graph_from_netlist
from .common import EngineRun, VerificationResult, run_engine


def _edge_weights(netlist: Netlist) -> Dict[Tuple[str, str, int], int]:
    """The register weight of each edge ``(tail, head, pin)`` of the
    netlist's connection graph."""
    return {(e.tail, e.head, e.pin): e.weight
            for e in graph_from_netlist(netlist).edges}


def recover_lags(
    original_edges: Dict[Tuple[str, str, int], int],
    retimed_edges: Dict[Tuple[str, str, int], int],
) -> Optional[Dict[str, int]]:
    """Recover the per-cell lag ``r`` relating the two connection graphs.

    Returns ``None`` if the edge sets differ or no consistent lag assignment
    with ``r(HOST) = 0`` exists.
    """
    if set(original_edges) != set(retimed_edges):
        return None
    # difference constraints: r(head) - r(tail) = w_retimed - w_original
    adjacency: Dict[str, List[Tuple[str, int]]] = {}
    for (tail, head, pin), w_orig in original_edges.items():
        delta = retimed_edges[(tail, head, pin)] - w_orig
        adjacency.setdefault(tail, []).append((head, delta))
        adjacency.setdefault(head, []).append((tail, -delta))

    lags: Dict[str, int] = {HOST: 0}
    stack = [HOST]
    while stack:
        node = stack.pop()
        for neighbour, delta in adjacency.get(node, ()):
            expected = lags[node] + delta
            if neighbour in lags:
                if lags[neighbour] != expected:
                    return None
            else:
                lags[neighbour] = expected
                stack.append(neighbour)
    # nodes never reached from the host (isolated logic) get lag 0
    for node in adjacency:
        lags.setdefault(node, 0)
    return lags


def check_equivalence(
    original: Netlist,
    retimed: Netlist,
    time_budget: Optional[float] = None,
    check_cycles: int = 64,
) -> VerificationResult:
    """Structural verification that ``retimed`` is a retiming of ``original``.

    The budget is polled before each of the three directed simulations.
    """

    def body(run: EngineRun) -> VerificationResult:
        # 1. interface and combinational structure must match
        if sorted(original.inputs) != sorted(retimed.inputs) or sorted(
            original.outputs
        ) != sorted(retimed.outputs):
            return run.result("error", "inconclusive: primary interface differs; "
                                       "not a pure retiming")

        types_a = {c.name: c.type for c in original.cells.values()}
        types_b = {c.name: c.type for c in retimed.cells.values()}
        if types_a != types_b:
            return run.result(
                "error",
                "inconclusive: combinational cells differ; not a pure retiming "
                "(a general verifier is required)",
            )

        # 2. a consistent lag assignment must relate the two connection graphs
        try:
            edges_a = _edge_weights(original)
            edges_b = _edge_weights(retimed)
        except RetimingGraphError as exc:
            return run.result("error", f"inconclusive: {exc}; no connection graph")
        lags = recover_lags(edges_a, edges_b)
        if lags is None:
            return run.result(
                "error",
                "inconclusive: no consistent retiming lag assignment relates the "
                "two netlists",
            )

        # 3. initial values: directed simulations
        for seed, label in ((None, "all-zero"), (1, "random-1"), (2, "random-2")):
            run.budget.check()
            if seed is None:
                seq = [{name: 0 for name in original.inputs}
                       for _ in range(check_cycles)]
            else:
                seq = random_input_sequence(original, check_cycles, seed=seed)
            trace_a = simulate(original, seq)
            trace_b = simulate(retimed, seq)
            for t, (oa, ob) in enumerate(zip(trace_a.outputs, trace_b.outputs)):
                if oa != ob:
                    return run.result(
                        "not_equivalent",
                        f"outputs differ at cycle {t} on the {label} stimulus "
                        "(initial values not consistent with the retiming)",
                    )

        moved = sorted(name for name, lag in lags.items() if lag and name != HOST)
        run.counters = lambda: {"moved_cells": float(len(moved)),
                                "edges": float(len(edges_a))}
        return run.result(
            "equivalent",
            "structure matches with lags "
            + (f"on {len(moved)} cells ({', '.join(moved[:6])}...)" if len(moved) > 6
               else f"{ {name: lags[name] for name in moved} }")
            + "; initial values consistent",
        )

    return run_engine("match", time_budget, body)
