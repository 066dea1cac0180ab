"""SMV-style symbolic model checking of sequential equivalence.

This is the reproduction's stand-in for the SMV column of Tables I and II,
and — under its own name in :mod:`repro.verification.fsm_compare` — for the
SIS column too.  Equivalence of the original and the retimed circuit is
phrased as an invariant of the synchronous product machine:

    AG (outputs of machine A = outputs of machine B)

and checked by a breadth-first forward state traversal — exactly the
algorithm the paper describes in Section II: "Model checkers perform a
breadth first state traversal on the product circuit.  The set of states
that have been reached so far are represented by BDDs. […] Both the number
of traversal steps and the size of the BDD grow exponentially with the
number of state variables."

The transition relation is *partitioned*, not monolithic: each latch
contributes one conjunct ``s' ≡ f(i, s)``, the conjuncts are clustered
greedily by the quantifiable variables in their support, and the image of
the frontier is computed with the combined
:meth:`~repro.verification.bdd.BddManager.and_exists` relational product,
quantifying every input/current-state variable as soon as the last cluster
mentioning it has been conjoined (the classic IWLS'95 early-quantification
schedule).  This shrinks the peak intermediate BDD by orders of magnitude
on counter-like state spaces; pass ``cluster_size=None`` to
:func:`build_transition_relation` to fall back to one monolithic cluster
(the PR-3-era behaviour, kept for the benchmark ablation).

Budgets (wall-clock seconds and/or BDD nodes) make the exponential blow-up
observable without hanging the benchmark harness: a run that exceeds its
budget is reported as ``timeout`` which the tables render as the paper's
dash ("could not be processed in reasonable time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.netlist import Netlist
from .bdd import FALSE, BddManager
from .common import (
    Budget,
    EngineRun,
    ProductFSM,
    VerificationResult,
    declare_next_state_vars,
    product_fsm,
    run_engine,
)

#: default bound on the BDD size (nodes) of one transition-relation cluster
DEFAULT_CLUSTER_SIZE = 1000


@dataclass
class PartitionedRelation:
    """A clustered transition relation with an early-quantification schedule.

    ``clusters[i]`` is the conjunction of one greedy support-cluster of
    per-latch conjuncts; ``schedule[i]`` lists the quantifiable variables
    whose *last* occurrence is in ``clusters[i]`` — they are quantified out
    immediately after that cluster is conjoined.  ``pre_quantified`` are
    quantifiable variables appearing in no cluster at all (quantified from
    the frontier before the walk starts).
    """

    clusters: List[int]
    schedule: List[List[str]]
    pre_quantified: List[str]
    #: the full quantification set (inputs + current-state variables)
    quantify: List[str]


def partition_relation(
    manager: BddManager,
    conjuncts: Sequence[int],
    quantify: Sequence[str],
    cluster_size: Optional[int] = DEFAULT_CLUSTER_SIZE,
) -> PartitionedRelation:
    """Cluster per-latch conjuncts and derive the quantification schedule.

    Conjuncts are ordered by the deepest quantifiable variable in their
    support, descending, so that clusters near the front of the conjunction
    order "retire" variables early; they are then merged greedily while the
    conjunction stays within ``cluster_size`` BDD nodes (``None`` = one
    monolithic cluster).  Compact relations (counters, shifters) therefore
    collapse into a single combined ``and_exists`` pass, while wide ones
    (the Figure-2 incrementers) stay partitioned.
    """
    quantify_set = set(quantify)
    level_of = manager.level_of

    def qsupport(f: int) -> frozenset:
        return frozenset(manager.support(f) & quantify_set)

    annotated = [(f, qsupport(f)) for f in conjuncts]
    # deepest quantifiable variable first; empty-support conjuncts last.
    # Tie-break on the full sorted support for determinism.
    annotated.sort(
        key=lambda fs: (
            max((level_of(v) for v in fs[1]), default=-1),
            sorted(fs[1]),
        ),
        reverse=True,
    )

    clusters: List[int] = []
    cluster_supports: List[set] = []
    cur: Optional[int] = None
    cur_support: set = set()
    for f, support in annotated:
        if cur is None:
            cur, cur_support = f, set(support)
            continue
        merged = manager.apply_and(cur, f)
        if cluster_size is None or manager.size(merged) <= cluster_size:
            cur = merged
            cur_support |= support
        else:
            clusters.append(cur)
            cluster_supports.append(cur_support)
            cur, cur_support = f, set(support)
    if cur is not None:
        clusters.append(cur)
        cluster_supports.append(cur_support)

    # quantify each variable right after the last cluster whose support
    # mentions it; variables in no cluster are quantified up front
    last_cluster: Dict[str, int] = {}
    for i, support in enumerate(cluster_supports):
        for v in support:
            last_cluster[v] = i
    schedule: List[List[str]] = [[] for _ in clusters]
    pre_quantified: List[str] = []
    for v in sorted(quantify_set, key=level_of):
        if v in last_cluster:
            schedule[last_cluster[v]].append(v)
        else:
            pre_quantified.append(v)
    return PartitionedRelation(
        clusters=clusters,
        schedule=schedule,
        pre_quantified=pre_quantified,
        quantify=sorted(quantify_set, key=level_of),
    )


def build_transition_relation(
    product: ProductFSM,
    primed: Dict[str, str],
    cluster_size: Optional[int] = DEFAULT_CLUSTER_SIZE,
) -> PartitionedRelation:
    """The partitioned transition relation ``T(i, s, s')`` of the product machine.

    One conjunct ``s' ≡ f(i, s)`` per latch, clustered by support with an
    early-quantification schedule over the primary inputs and current-state
    variables (``cluster_size=None`` collapses everything into a single
    monolithic cluster).
    """
    m = product.manager
    conjuncts = [
        m.apply_xnor(m.var(primed[var]), fn)
        for var, fn in product.next_fns().items()
    ]
    quantify = list(product.left.inputs) + product.all_state_vars()
    return partition_relation(m, conjuncts, quantify, cluster_size)


def image(
    manager: BddManager,
    frontier: int,
    relation: PartitionedRelation,
    budget: Optional[Budget] = None,
) -> int:
    """Image of ``frontier`` under the clustered relation (primed support).

    Conjoins cluster after cluster with the combined
    :meth:`~repro.verification.bdd.BddManager.and_exists` relational
    product, quantifying every variable at its scheduled point — the peak
    intermediate BDD never carries a variable past the last cluster that
    constrains it.
    """
    cur = frontier
    if relation.pre_quantified:
        cur = manager.exists(relation.pre_quantified, cur)
    for cluster, qvars in zip(relation.clusters, relation.schedule):
        if budget is not None:
            budget.check()
        cur = manager.and_exists(qvars, cur, cluster)
        if cur == FALSE:
            return FALSE
    return cur


def forward_reachability(
    product: ProductFSM,
    relation: PartitionedRelation,
    primed: Dict[str, str],
    run: Optional[EngineRun] = None,
    bad_states: Optional[int] = None,
) -> Tuple[int, int, bool]:
    """Breadth-first reachability; returns (reached, iterations, hit_bad).

    When ``bad_states`` is given the traversal stops as soon as a bad state
    is reached (on-the-fly invariant checking).  ``run`` (if given) is the
    engine run whose budget is polled and whose ``iterations`` count the
    steps, so a budget overrun still reports how far the traversal got.
    """
    run = run if run is not None else EngineRun("reachability")
    m = product.manager
    state_vars = product.all_state_vars()
    unprime = {primed[v]: v for v in state_vars}

    reached = product.initial_state_bdd()
    frontier = reached
    while frontier != FALSE:
        run.budget.check()
        if bad_states is not None and m.apply_and(reached, bad_states) != FALSE:
            return reached, run.iterations, True
        image_primed = image(m, frontier, relation, budget=run.budget)
        new_states = m.rename(image_primed, unprime)
        frontier = m.apply_and(new_states, m.apply_not(reached))
        reached = m.apply_or(reached, new_states)
        run.iterations += 1
    hit_bad = bad_states is not None and m.apply_and(reached, bad_states) != FALSE
    return reached, run.iterations, hit_bad


def traverse(run: EngineRun, product: ProductFSM) -> VerificationResult:
    """Decide ``AG (outputs of A = outputs of B)`` on a compiled product.

    The one traversal behind the ``smv`` and ``sis`` columns: each entry
    point compiles its product machine into ``run``'s BDD manager and hands
    it here.
    """
    m = product.manager
    primed = declare_next_state_vars(product)
    relation = build_transition_relation(product, primed)
    run.budget.check()
    good = product.outputs_equal_bdd()
    # The invariant must hold for every input in every reached state, so a
    # "bad" state is one for which *some* input violates output equality.
    bad = m.exists(product.left.inputs, m.apply_not(good))
    reached, iterations, hit_bad = forward_reachability(
        product, relation, primed, run, bad_states=bad
    )
    if hit_bad:
        # `bad` has the inputs quantified away, so its models say nothing
        # about which input vector breaks equality.  reached ∧ bad ≠ ⊥
        # implies reached ∧ ¬good ≠ ⊥, and a model of the latter carries
        # both the state pair and the violating inputs.
        cex = m.any_sat(m.apply_and(reached, m.apply_not(good)))
        return run.result(
            "not_equivalent",
            f"bad state reached after {iterations} traversal steps", cex,
        )
    return run.result(
        "equivalent",
        f"fixpoint after {iterations} traversal steps, {m.num_nodes} BDD nodes",
    )


def check_equivalence(
    original: Netlist,
    retimed: Netlist,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
) -> VerificationResult:
    """Check sequential output-equivalence of two circuits (SMV style)."""
    return run_engine("smv", time_budget, lambda run: traverse(run, product_fsm(
        original, retimed, run.bdd_manager(node_budget))))
