"""FRAIG-style combinational equivalence: simulation-guided SAT sweeping.

The ``fraig`` backend (functionally-reduced and-inverter graphs, after
Mishchenko et al.) decides the same cut-point equivalence question as the
``taut`` / ``sat`` backends, but incrementally:

1. both circuits are lowered into one shared, structurally-hashed
   :class:`~repro.circuits.aig.Aig` (structural matches are free);
2. random word-parallel simulation partitions the nodes into candidate
   equivalence classes — keyed by the **phase-canonical** signature, so a
   function and its complement land in one class with explicit phase bits
   (inverted edges make complement candidates first-class instead of
   conflating them);
3. each candidate pair is decided through one **persistent incremental
   solver** (:class:`repro.verification.sat.IncrementalMiter`): miters are
   posted under activation literals over lazily encoded cones, so each
   query is cone-priced and every learned clause survives the whole sweep;
   a refuting model becomes a new simulation pattern that *splits the
   candidate classes in place* (no rebuild from scratch), so one
   counterexample prunes many candidates, and every *proved* pair stays in
   the solver as a permanent biconditional, so later miters cut across
   shared substructure instead of re-deriving the whole fan-in;
4. the compared outputs / next-state functions are equivalent iff the sweep
   proves their literals equal (up to phase), with any residual pair decided
   by a direct miter call that also yields the counterexample vector.

The sweep is exactly van Eijk's "simulate, then prove" discipline applied
combinationally, with SAT in place of BDD-based induction — the method
diversification the paper's tables are about.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..circuits.netlist import Netlist
from .common import (
    EngineRun,
    VerificationResult,
    cut_points_differ,
    ensure_gate_level,
    run_engine,
)
from .sat import IncrementalMiter, miter_setup


class _ParityUnionFind:
    """Union-find over AIG nodes with an equal/complement parity per edge."""

    def __init__(self):
        self.parent: Dict[int, int] = {}
        self.parity: Dict[int, int] = {}  # parity vs parent

    def find(self, node: int) -> Tuple[int, int]:
        """(root, parity of node vs root), with iterative path compression."""
        root, root_parity = node, 0
        while self.parent.get(root, root) != root:
            root_parity ^= self.parity[root]
            root = self.parent[root]
        # second pass: point every path node straight at the root
        cur, cur_parity = node, root_parity
        while self.parent.get(cur, cur) != cur:
            nxt = self.parent[cur]
            nxt_parity = cur_parity ^ self.parity[cur]
            self.parent[cur] = root
            self.parity[cur] = cur_parity
            cur, cur_parity = nxt, nxt_parity
        return root, root_parity

    def union(self, a: int, b: int, parity: int) -> None:
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return
        if ra > rb:  # keep the lowest node index as the root
            ra, rb, pa, pb = rb, ra, pb, pa
        self.parent[rb] = ra
        self.parity[rb] = pa ^ pb ^ parity

    def same(self, a: int, b: int) -> Optional[int]:
        """Parity between a and b if they are in one set, else ``None``."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra != rb:
            return None
        return pa ^ pb


class _ClassPartition:
    """Indexed partition of (node, phase) members, split in place.

    Candidate classes are stored as an indexed list; each new 1-bit
    simulation pattern :meth:`split`\\ s every class against the new bit —
    stayers keep their class index, movers are appended as a fresh class —
    instead of rebuilding the whole partition from the packed signatures.
    Relative phases are preserved unchanged: a pattern refines *which nodes
    agree*, never the phase relation inside a surviving class.
    """

    def __init__(self, classes: List[List[Tuple[int, int]]]):
        self.classes = classes
        #: classes that gained a new sibling class across all splits
        self.classes_split = 0

    @classmethod
    def from_signatures(
        cls, cone_nodes: List[int], sig: Dict[int, int], nbits: int,
    ) -> "_ClassPartition":
        """Initial phase-canonical partition (classes of >= 2 members)."""
        mask = (1 << nbits) - 1
        buckets: Dict[int, List[Tuple[int, int]]] = {}
        for n in cone_nodes:
            word = sig[n]
            phase = word & 1
            canonical = word ^ mask if phase else word
            buckets.setdefault(canonical, []).append((n, phase))
        classes = sorted(
            (grp for grp in buckets.values() if len(grp) >= 2),
            key=lambda g: g[0][0],
        )
        return cls(classes)

    def split(self, vals: List[int]) -> None:
        """Refine every class in place against a new 1-bit pattern.

        ``vals`` holds the pattern's value per AIG node (bit 0).  Classes
        appended *by* this split are uniform in the new bit by
        construction, so the loop snapshot over the pre-split length is
        exhaustive.
        """
        classes = self.classes
        for idx in range(len(classes)):
            members = classes[idx]
            if len(members) < 2:
                continue
            n0, p0 = members[0]
            bit0 = (vals[n0] & 1) ^ p0
            keep: List[Tuple[int, int]] = []
            moved: List[Tuple[int, int]] = []
            for member in members:
                n, p = member
                if (vals[n] & 1) ^ p == bit0:
                    keep.append(member)
                else:
                    moved.append(member)
            if not moved:
                continue
            classes[idx] = keep
            classes.append(moved)
            self.classes_split += 1


def check_equivalence_fraig(
    a: Netlist,
    b: Netlist,
    time_budget: Optional[float] = None,
    seed: int = 0,
    patterns: int = 64,
    shard: Optional[Tuple[int, int]] = None,
) -> VerificationResult:
    """FRAIG combinational equivalence with registers as cut points.

    ``patterns`` sets the width of the initial random simulation words;
    every refuting SAT model is appended as an extra pattern that splits
    the candidate classes in place.  One persistent assumption-based
    solver serves the entire sweep.  Verdicts match the BDD ``taut``
    backend on every cell.

    ``shard=(k, n)`` restricts the sweep to the ``k``-th of ``n`` index
    ranges of the *initial* candidate classes (the simulation phase is
    deterministic in ``seed``, so every shard computes the same initial
    partition and takes a disjoint slice).  A compared pair with equal
    initial signatures lives in exactly one initial class and is decided
    by the shard owning that class; initially sig-refuted pairs are
    decided identically by every shard.  The merged verdict over all
    ``n`` shards therefore equals the unsharded one: equivalent iff every
    shard proves its owned pairs, refuted as soon as any shard refutes.
    """
    if shard is not None:
        shard_index, shard_count = shard
        if not 0 <= shard_index < shard_count:
            raise ValueError(f"invalid shard {shard!r}")
        if shard_count == 1:
            shard = None

    def body(run: EngineRun) -> VerificationResult:
        budget = run.budget
        gate_a = ensure_gate_level(a)
        gate_b = ensure_gate_level(b)
        aig, mismatches, compared = miter_setup(gate_a, gate_b)
        merges = 0
        miter: Optional[IncrementalMiter] = None
        partition: Optional[_ClassPartition] = None

        def counters() -> Dict[str, float]:
            # dash cells carry the structured cost record too
            if miter is None:
                stats = dict.fromkeys(
                    ("decisions", "propagations", "conflicts", "solver_calls",
                     "restarts", "learned_kept", "learned_deleted",
                     "vars_encoded"), 0.0)
            else:
                stats = miter.stats()
                stats.pop("learned_clauses", None)
            stats.update({
                "aig_nodes": float(aig.num_ands),
                "sat_calls": stats["solver_calls"],
                "merges": float(merges),
                "classes_split": float(
                    partition.classes_split if partition is not None else 0
                ),
            })
            return stats

        run.counters = counters
        budget.check()

        if mismatches:
            return cut_points_differ(run, mismatches)

        roots = [la for _, la, _ in compared] + [lb for _, _, lb in compared]
        unresolved = [(label, la, lb) for label, la, lb in compared if la != lb]
        if not unresolved:
            return run.result(
                "equivalent",
                f"structurally equivalent after hashing "
                f"({aig.num_ands} AIG nodes, no SAT sweep needed)",
            )

        # -- 1. random simulation over the shared DAG ------------------------
        rng = random.Random(seed)
        cone_nodes = aig.cone(roots)
        free_nodes = [n for n in cone_nodes if not aig.is_and(n) and n != 0]
        vectors: List[Dict[int, int]] = [
            {n: rng.getrandbits(1) for n in free_nodes} for _ in range(patterns)
        ]

        mask = (1 << len(vectors)) - 1
        words = {
            n: sum(vec[n] << t for t, vec in enumerate(vectors))
            for n in free_nodes
        }
        init_vals = aig.eval_words(words, mask)
        sig = {n: init_vals[n] for n in cone_nodes}

        def add_pattern(vec: Dict[int, int]) -> List[int]:
            """Append one refuting pattern: a single 1-bit evaluation pass
            ORed into the packed signatures; returns the per-node values so
            the caller can split the live partition against them."""
            t = len(vectors)
            vectors.append(vec)
            vals = aig.eval_words(vec, 1)
            for n in cone_nodes:
                sig[n] |= (vals[n] & 1) << t
            return vals

        # -- 2/3. refine candidate classes by incremental SAT ----------------
        # One persistent solver serves every miter of the sweep: proved
        # pairs stay asserted as biconditionals, learned clauses carry
        # over, and each refuting model splits the partition in place — no
        # ``refuted`` bookkeeping is needed, because the model that refutes
        # a pair provably separates it into two different classes.
        proved = _ParityUnionFind()
        miter = IncrementalMiter(aig)
        partition = _ClassPartition.from_signatures(
            cone_nodes, sig, len(vectors)
        )

        # Intra-cell sharding: snapshot the initial (pre-split) partition —
        # identical in every shard since the simulation is seed-determined —
        # then keep only this shard's slice of the class list.  The
        # snapshot decides *pair ownership* in the verdict phase below.
        initial_mask = (1 << len(vectors)) - 1
        initial_sig = dict(sig)
        initial_class_of: Dict[int, int] = {}
        for class_index, class_members in enumerate(partition.classes):
            for member_node, _phase in class_members:
                initial_class_of[member_node] = class_index
        if shard is not None:
            total = len(partition.classes)
            lo = (shard_index * total) // shard_count
            hi = ((shard_index + 1) * total) // shard_count
            owned_classes = range(lo, hi)
            partition.classes = partition.classes[lo:hi]

        def pair_owned(la: int, lb: int) -> bool:
            """Is this shard responsible for deciding the pair (la, lb)?

            Initially sig-refuted pairs are everyone's (each shard holds
            the refuting vector); equal-initial-signature pairs belong to
            the single shard whose slice contains their shared class.
            """
            if shard is None:
                return True
            na, nb = la >> 1, lb >> 1
            word_a = initial_sig[na] ^ (initial_mask if la & 1 else 0)
            word_b = initial_sig[nb] ^ (initial_mask if lb & 1 else 0)
            if word_a != word_b:
                return True
            return initial_class_of.get(na, -1) in owned_classes

        idx = 0
        while idx < len(partition.classes):
            members = partition.classes[idx]
            j = 1
            while j < len(members):
                budget.check()
                rep, rep_phase = members[0]
                node, phase = members[j]
                # hypothesis: node ^ phase == rep ^ rep_phase
                parity = rep_phase ^ phase
                if proved.same(rep, node) is not None:
                    j += 1
                    continue
                la = (rep << 1) | rep_phase
                lb = (node << 1) | phase
                model = miter.prove_equal(la, lb, deadline=budget.deadline)
                if model is None:
                    proved.union(rep, node, parity)
                    merges += 1
                    j += 1
                    continue
                # the refuting model becomes a fresh pattern that splits
                # every class it distinguishes — including this pair, so
                # the inner scan restarts on a strictly smaller class
                vals = add_pattern({
                    n: int(model.get(n, False)) for n in free_nodes
                })
                partition.split(vals)
                members = partition.classes[idx]
                j = 1
            idx += 1

        # -- 4. the verdict ---------------------------------------------------
        failing: List[str] = []
        counterexample: Optional[Dict[str, bool]] = None
        mask = (1 << len(vectors)) - 1

        def vector_counterexample(t: int) -> Dict[str, bool]:
            return {
                aig.name_of(n): bool(vectors[t][n])
                for n in free_nodes if aig.name_of(n) is not None
            }

        for label, la, lb in unresolved:
            if not pair_owned(la, lb):
                continue  # decided by the sibling shard that owns its class
            parity = proved.same(la >> 1, lb >> 1)
            if parity is not None and parity == ((la ^ lb) & 1):
                continue
            if parity is not None and vectors:
                # proved complements: the pair differs under every assignment
                failing.append(label)
                if counterexample is None:
                    counterexample = vector_counterexample(0)
                continue
            word_a = sig[la >> 1] ^ (mask if la & 1 else 0)
            word_b = sig[lb >> 1] ^ (mask if lb & 1 else 0)
            if word_a != word_b:
                # the sweep already refuted this pair — one of its patterns
                # is a counterexample, no fresh SAT solve needed
                diff = word_a ^ word_b
                failing.append(label)
                if counterexample is None:
                    counterexample = vector_counterexample(
                        (diff & -diff).bit_length() - 1
                    )
                continue
            # defensive fallback: unreachable when the sweep completed, but
            # kept so the verdict never depends on the sweep's bookkeeping
            model = miter.prove_equal(la, lb, deadline=budget.deadline)
            if model is not None:
                failing.append(label)
                if counterexample is None:
                    counterexample = miter.counterexample(model)
        detail = (
            f"{len(compared)} compared functions, {merges} merges / "
            f"{miter.solver_calls} incremental SAT calls / "
            f"{partition.classes_split} class splits over "
            f"{len(vectors)} patterns, {aig.num_ands} AIG nodes"
        )
        if shard is not None:
            detail += (
                f" [shard {shard_index + 1}/{shard_count}: "
                f"classes {lo}..{hi - 1 if hi > lo else lo} of {total}]"
            )
        if failing:
            return run.result(
                "not_equivalent", "; ".join(failing) + "; " + detail,
                counterexample,
            )
        return run.result("equivalent", detail)

    return run_engine("fraig", time_budget, body)
