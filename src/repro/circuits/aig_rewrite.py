"""DAG-aware AIG rewriting: k-feasible cuts, NPN resynthesis, balancing.

The strash folds of :mod:`repro.circuits.aig` are purely local — they never
look further than one level past the node being built — so bit-blasted
circuits carry large redundant AND/NOT cones.  This module is the global
counterpart, an ABC-style rewriting pass over a lowered
:class:`~repro.circuits.aig.NetlistAig`:

1. **k-feasible cut enumeration** (k = 4): every AND node's cut set is the
   dominance-pruned merge of its fanin cut sets, computed in one pass over
   the topological node order (node indices are topological by
   construction, so this is a plain index loop);
2. **NPN-canonical cut rewriting**: each cut's 16-bit truth table is
   canonicalised under the 768 negation-permutation-negation transforms
   (memoised per function) and looked up in a precomputed library of
   minimum-AND replacement structures covering all 222 NPN classes of
   4-input functions (``npn4_library.json``, generated offline by
   ``scripts/gen_npn4_library.py``).  A candidate's gain is its
   MFFC size (the maximum fanout-free cone that dies with the node,
   computed by trial dereferencing) minus the cost of building the
   replacement against the existing strash table; replacements are
   planned when the gain is strictly positive;
3. **AND-tree balancing**: single-fanout conjunction chains are flattened
   and rebuilt shallowest-first, reducing depth without changing node
   count;
4. the planned rewrites are applied by a single demand-driven rebuild into
   a fresh hash-consed AIG — only logic reachable from named nets, latch
   next-states and primary outputs is reconstructed, so freed MFFC
   interiors are never copied.

Every traversal is an explicit stack or an index loop — the repo-wide
"no recursion-limit bumps in ``src/``" invariant extends to this layer
(pinned by a >2000-node deep-chain regression test).

The pass is semantics-preserving by construction and additionally verifies
every planned replacement's truth table against the original cut function
before accepting it (a mismatch silently drops the plan).  Structured
counters (``cuts_enumerated``, ``rewrites_applied``, ``aig_nodes_pre``,
``aig_nodes_post``, ``aig_levels``) surface through
``VerificationResult.stats`` and are guarded by
``benchmarks/compare_baseline.py``.
"""

from __future__ import annotations

import json
import os
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from .aig import FALSE, Aig, AigError, NetlistAig, lit

__all__ = [
    "CUT_SIZE", "CUTS_PER_NODE", "LIBRARY_VERSION",
    "apply_npn_transform", "cut_truth_table", "enumerate_cuts",
    "load_library", "npn_canonical", "optimize_netlist_aig",
]

#: maximum cut width (k-feasible cuts); the library covers 4-input functions
CUT_SIZE = 4
#: cuts kept per node after dominance pruning (smallest first)
CUTS_PER_NODE = 8

#: version tag of the replacement-structure library; part of the result
#: cache digest so optimised results can never outlive a library change
LIBRARY_VERSION = "npn4-v1"

LIBRARY_PATH = os.path.join(os.path.dirname(__file__), "npn4_library.json")

#: 16-bit mask and the elementary truth tables of the four cut variables
TT_MASK = 0xFFFF
ELEM_TT = (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00)


# ---------------------------------------------------------------------------
# NPN canonicalisation
# ---------------------------------------------------------------------------

def _transform_maps() -> List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]]:
    """All 384 (perm, input-complement) minterm index maps, built lazily.

    The transform semantics: ``g(y) = f(x) ^ o`` with
    ``x[perm[j]] = y[j] ^ ((cmask >> j) & 1)``.  Each map sends a minterm
    index ``y`` of ``g`` to the corresponding index ``x`` of ``f``.
    """
    maps = []
    for perm in permutations(range(4)):
        for cmask in range(16):
            index_map = []
            for y in range(16):
                x = 0
                for j in range(4):
                    bit = ((y >> j) & 1) ^ ((cmask >> j) & 1)
                    x |= bit << perm[j]
                index_map.append(x)
            maps.append((perm, cmask, tuple(index_map)))
    return maps


_MAPS: Optional[List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]]] = None
_CANON_CACHE: Dict[int, Tuple[int, Tuple[int, ...], int, int]] = {}


def apply_npn_transform(tt: int, perm: Tuple[int, ...], cmask: int,
                        ocomp: int) -> int:
    """``g`` with ``g(y) = f(x) ^ ocomp`` and ``x[perm[j]] = y[j] ^ c_j``."""
    g = 0
    for y in range(16):
        x = 0
        for j in range(4):
            bit = ((y >> j) & 1) ^ ((cmask >> j) & 1)
            x |= bit << perm[j]
        if (tt >> x) & 1:
            g |= 1 << y
    return g ^ (TT_MASK if ocomp else 0)


def npn_canonical(tt: int) -> Tuple[int, Tuple[int, ...], int, int]:
    """The NPN-canonical form of a 16-bit truth table.

    Returns ``(canon, perm, cmask, ocomp)`` such that applying the
    transform to ``tt`` yields ``canon``, the minimum over all 768
    transforms.  Memoised: real netlists reuse a handful of cut functions
    thousands of times.
    """
    cached = _CANON_CACHE.get(tt)
    if cached is not None:
        return cached
    global _MAPS
    if _MAPS is None:
        _MAPS = _transform_maps()
    best = None
    for perm, cmask, index_map in _MAPS:
        g = 0
        for y in range(16):
            if (tt >> index_map[y]) & 1:
                g |= 1 << y
        for ocomp in (0, 1):
            candidate = g ^ (TT_MASK if ocomp else 0)
            if best is None or candidate < best[0]:
                best = (candidate, perm, cmask, ocomp)
    _CANON_CACHE[tt] = best
    return best


# ---------------------------------------------------------------------------
# The replacement-structure library
# ---------------------------------------------------------------------------

#: canonical truth table -> (and_count, nodes, root_literal).  Structure
#: node ids: 0 = constant FALSE, 1..4 = cut variables y0..y3, 5+ = AND
#: nodes in list order; a structure literal is ``2 * id + negated``.
_LIBRARY: Optional[Dict[int, Tuple[int, List[Tuple[int, int]], int]]] = None


def load_library() -> Dict[int, Tuple[int, List[Tuple[int, int]], int]]:
    """Load (once) the minimum-AND structures for the 222 NPN classes."""
    global _LIBRARY
    if _LIBRARY is None:
        with open(LIBRARY_PATH) as fh:
            raw = json.load(fh)
        if raw.get("version") != LIBRARY_VERSION:  # pragma: no cover
            raise AigError(
                f"npn4 library version {raw.get('version')!r} does not match "
                f"{LIBRARY_VERSION!r}; regenerate with scripts/gen_npn4_library.py"
            )
        _LIBRARY = {
            int(tt): (entry["ands"],
                      [tuple(pair) for pair in entry["nodes"]],
                      entry["root"])
            for tt, entry in raw["classes"].items()
        }
    return _LIBRARY


def _structure_tt(nodes: List[Tuple[int, int]], root: int,
                  leaf_tts: Tuple[int, ...]) -> int:
    """Evaluate a structure over given leaf truth tables (index loop)."""
    vals = [0, *leaf_tts]
    for a, b in nodes:
        wa = vals[a >> 1] ^ (TT_MASK if a & 1 else 0)
        wb = vals[b >> 1] ^ (TT_MASK if b & 1 else 0)
        vals.append(wa & wb)
    return vals[root >> 1] ^ (TT_MASK if root & 1 else 0)


# ---------------------------------------------------------------------------
# Cut enumeration
# ---------------------------------------------------------------------------

def enumerate_cuts(aig: Aig, k: int = CUT_SIZE,
                   per_node: int = CUTS_PER_NODE) -> Tuple[List[List[Tuple[int, ...]]], int]:
    """k-feasible cuts of every node, by merging fanin cut sets.

    One pass over the (topological) node index order; each AND node merges
    the cut sets of its fanins, keeps unions of at most ``k`` leaves,
    prunes dominated cuts (a cut whose leaf set contains another cut's is
    redundant) and caps the list at ``per_node`` entries, smallest cuts
    first.  Returns ``(cuts, total)`` where ``cuts[node]`` always starts
    with the trivial cut ``(node,)``.
    """
    cuts: List[List[Tuple[int, ...]]] = [[] for _ in range(aig.num_nodes)]
    total = 0
    for node in range(aig.num_nodes):
        trivial = (node,)
        if not aig.is_and(node):
            cuts[node] = [trivial]
            total += 1
            continue
        f0, f1 = aig.fanins(node)
        kept: List[Tuple[int, ...]] = []
        kept_sets: List[frozenset] = []
        for cut0 in cuts[f0 >> 1]:
            for cut1 in cuts[f1 >> 1]:
                union = frozenset(cut0) | frozenset(cut1)
                if len(union) > k:
                    continue
                dominated = False
                for other in kept_sets:
                    if other <= union:
                        dominated = True
                        break
                if dominated:
                    continue
                # drop previously kept cuts that the new one dominates
                survivors = [
                    (c, s) for c, s in zip(kept, kept_sets) if not union <= s
                ]
                kept = [c for c, _ in survivors]
                kept_sets = [s for _, s in survivors]
                kept.append(tuple(sorted(union)))
                kept_sets.append(union)
        kept.sort(key=lambda c: (len(c), c))
        cuts[node] = [trivial] + kept[:per_node - 1]
        total += len(cuts[node])
    return cuts, total


def cut_truth_table(aig: Aig, node: int, leaves: Tuple[int, ...]) -> int:
    """16-bit truth table of ``node`` over the (sorted) cut ``leaves``.

    Explicit-stack evaluation of the cone above the cut; every path from
    the node terminates at a leaf because the cut is k-feasible.
    """
    tts: Dict[int, int] = {leaf: ELEM_TT[i] for i, leaf in enumerate(leaves)}
    stack = [node]
    while stack:
        n = stack[-1]
        if n in tts:
            stack.pop()
            continue
        f0, f1 = aig.fanins(n)
        n0, n1 = f0 >> 1, f1 >> 1
        missing = [c for c in (n0, n1) if c not in tts]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        w0 = tts[n0] ^ (TT_MASK if f0 & 1 else 0)
        w1 = tts[n1] ^ (TT_MASK if f1 & 1 else 0)
        tts[n] = w0 & w1
    return tts[node]


# ---------------------------------------------------------------------------
# MFFC and candidate costing
# ---------------------------------------------------------------------------

def _reference_counts(lowered: NetlistAig) -> List[int]:
    """Fanout counts per node: AND fanins plus every external reference
    (named nets, latch next-states, primary outputs).  Externally referenced
    nodes therefore never count as freeable MFFC interior."""
    aig = lowered.aig
    refs = [0] * aig.num_nodes
    for node in range(aig.num_nodes):
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            refs[f0 >> 1] += 1
            refs[f1 >> 1] += 1
    for lits in lowered.lit_map.values():
        for literal in lits:
            refs[literal >> 1] += 1
    for latch in aig.latches:
        refs[aig.next_of(latch) >> 1] += 1
    for _, literal in aig.outputs:
        refs[literal >> 1] += 1
    return refs


def _mffc(aig: Aig, node: int, leaf_set: frozenset,
          refs: List[int]) -> Tuple[int, Dict[int, int]]:
    """(size, interior) of the maximum fanout-free cone of ``node``.

    Trial-dereference with an explicit stack: an AND fanin strictly inside
    the cut whose every reference comes from already-freed nodes joins the
    cone.  ``interior`` maps each freed node to its (fully consumed)
    reference count — the caller uses its key set.
    """
    freed: Dict[int, int] = {node: refs[node]}
    count = 0
    stack = [node]
    while stack:
        n = stack.pop()
        count += 1
        for fanin in aig.fanins(n):
            child = fanin >> 1
            if child in leaf_set or not aig.is_and(child):
                continue
            seen = freed.get(child, 0) + 1
            freed[child] = seen
            if seen == refs[child]:
                stack.append(child)
    interior = {n: c for n, c in freed.items() if c >= refs[n]}
    interior[node] = refs[node]
    return count, interior


def _candidate_cost(aig: Aig, nodes: List[Tuple[int, int]], root: int,
                    bound: List[int], interior: Dict[int, int],
                    budget: int) -> int:
    """ANDs needed to build a structure against the existing strash table.

    A virtual dry-run of the rebuild: structure nodes whose operands both
    resolve to existing literals are looked up in the strash (folding
    constants first); a hit *outside* the dying MFFC costs nothing.
    Returns a cost > ``budget`` as soon as it is exceeded.
    """
    strash = aig._strash
    vals: List[Optional[int]] = [FALSE, *bound]
    cost = 0
    for a, b in nodes:
        va, vb = vals[a >> 1], vals[b >> 1]
        if va is None or vb is None:
            cost += 1
            vals.append(None)
            if cost > budget:
                return cost
            continue
        la = va ^ (a & 1)
        lb = vb ^ (b & 1)
        if la > lb:
            la, lb = lb, la
        if la == FALSE or la == lb ^ 1:
            vals.append(FALSE)
            continue
        if la == 1 or la == lb:
            vals.append(lb)
            continue
        hit = strash.get((la, lb))
        if hit is not None and hit not in interior:
            vals.append(lit(hit))
            continue
        cost += 1
        vals.append(None)
        if cost > budget:
            return cost
    return cost


# ---------------------------------------------------------------------------
# The optimisation pass
# ---------------------------------------------------------------------------

def _plan_rewrites(lowered: NetlistAig, refs: List[int],
                   stats: Dict[str, int]) -> Dict[int, Tuple[Tuple[int, ...], List[int], int]]:
    """Choose one positive-gain replacement per node (analysis pass).

    Returns ``{node: (leaves, bound_literals, canon)}`` where
    ``bound_literals[j]`` is the old-graph literal feeding structure input
    ``y_j`` and ``canon`` keys the library structure to instantiate.
    """
    aig = lowered.aig
    library = load_library()
    cuts, total = enumerate_cuts(aig)
    stats["cuts_enumerated"] = total
    plans: Dict[int, Tuple[Tuple[int, ...], List[int], int]] = {}
    for node in range(aig.num_nodes):
        if not aig.is_and(node):
            continue
        best = None
        for leaves in cuts[node]:
            if not 2 <= len(leaves) <= CUT_SIZE:
                continue
            tt = cut_truth_table(aig, node, leaves)
            canon, perm, cmask, ocomp = npn_canonical(tt)
            entry = library.get(canon)
            if entry is None:  # pragma: no cover - the library is complete
                continue
            ands, nodes, root = entry
            # bind structure input y_j to leaf literal x[perm[j]] ^ c_j;
            # positions past the cut width are degenerate and bind to FALSE
            bound = []
            for j in range(4):
                base = lit(leaves[perm[j]]) if perm[j] < len(leaves) else FALSE
                bound.append(base ^ ((cmask >> j) & 1))
            # defensive: the instantiated structure must realise the cut
            # function exactly (output complement folded in below)
            built = _structure_tt(nodes, root, tuple(
                ELEM_TT[leaves.index(b >> 1)] ^ (TT_MASK if b & 1 else 0)
                if (b >> 1) in leaves else (TT_MASK if b & 1 else 0)
                for b in bound
            )) ^ (TT_MASK if ocomp else 0)
            if built != tt:  # pragma: no cover - guarded by library tests
                continue
            leaf_set = frozenset(leaves)
            mffc_size, interior = _mffc(aig, node, leaf_set, refs)
            cost = _candidate_cost(aig, nodes, root, bound, interior, mffc_size)
            gain = mffc_size - cost
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, leaves, bound, canon, ocomp)
        if best is not None:
            _, leaves, bound, canon, ocomp = best
            plans[node] = (leaves, bound, canon, ocomp)
    return plans


def _flatten_conjuncts(aig: Aig, node: int, refs: List[int],
                       plans: Dict) -> List[int]:
    """The maximal single-fanout conjunction tree rooted at ``node``.

    A fanin joins the flattened conjunct list (instead of staying an
    atomic operand) only when it is a plain (non-complemented) AND edge
    whose sole reference is this tree and which has no rewrite plan of its
    own — exactly the nodes whose only purpose is chaining a conjunction.
    """
    conjuncts: List[int] = []
    stack = [node]
    while stack:
        n = stack.pop()
        for fanin in aig.fanins(n):
            child = fanin >> 1
            if (not (fanin & 1) and aig.is_and(child) and refs[child] == 1
                    and child not in plans):
                stack.append(child)
            else:
                conjuncts.append(fanin)
    return conjuncts


def _balanced_and(new: Aig, levels: List[int], literals: List[int]) -> int:
    """Conjoin literals shallowest-first (deterministic Huffman pairing)."""
    if not literals:
        return 1  # TRUE
    pending = sorted(
        (_node_level(new, levels, literal >> 1), literal)
        for literal in literals
    )
    while len(pending) > 1:
        (_, a), (_, b) = pending[0], pending[1]
        pending = pending[2:]
        combined = new.mk_and(a, b)
        level = _node_level(new, levels, combined >> 1)
        # insert keeping the (level, literal) order deterministic
        entry = (level, combined)
        lo, hi = 0, len(pending)
        while lo < hi:
            mid = (lo + hi) // 2
            if pending[mid] < entry:
                lo = mid + 1
            else:
                hi = mid
        pending.insert(lo, entry)
    return pending[0][1]


def _node_level(aig: Aig, levels: List[int], node: int) -> int:
    """Level of ``node``, extending the memo for freshly created nodes."""
    while len(levels) < aig.num_nodes:
        n = len(levels)
        if aig.is_and(n):
            f0, f1 = aig.fanins(n)
            levels.append(1 + max(levels[f0 >> 1], levels[f1 >> 1]))
        else:
            levels.append(0)
    return levels[node]


def aig_levels(aig: Aig) -> int:
    """Depth of the AIG (AND nodes past inputs/latches), by index loop."""
    levels = [0] * aig.num_nodes
    deepest = 0
    for node in range(aig.num_nodes):
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            levels[node] = 1 + max(levels[f0 >> 1], levels[f1 >> 1])
            if levels[node] > deepest:
                deepest = levels[node]
    return deepest


def optimize_netlist_aig(
    lowered: NetlistAig,
    stats: Optional[Dict[str, int]] = None,
    balance: bool = True,
) -> NetlistAig:
    """Rewrite and balance a lowered netlist into a fresh, smaller AIG.

    The analysis pass plans NPN-library replacements on the old graph;
    the rebuild pass then reconstructs — demand-driven, from named nets,
    latch next-states and primary outputs — into a new hash-consed AIG,
    applying planned structures and balancing surviving conjunction
    chains.  ``stats`` (optional) receives the structured counters.
    """
    aig = lowered.aig
    counters: Dict[str, int] = {}
    refs = _reference_counts(lowered)
    plans = _plan_rewrites(lowered, refs, counters)
    library = load_library()

    new = Aig(aig.name)
    new_levels: List[int] = []
    node_map: Dict[int, int] = {0: FALSE}
    latch_of_old: Dict[int, int] = {}
    for node in aig.inputs:
        node_map[node] = new.add_input(aig.name_of(node))
    for node in aig.latches:
        latch_lit = new.add_latch(aig.name_of(node), aig.init_of(node))
        node_map[node] = latch_lit
        latch_of_old[node] = latch_lit >> 1

    def mapped(literal: int) -> int:
        return node_map[literal >> 1] ^ (literal & 1)

    applied = 0
    conjunct_cache: Dict[int, List[int]] = {}

    def dependencies(node: int) -> List[int]:
        plan = plans.get(node)
        if plan is not None:
            return [b >> 1 for b in plan[1]]
        conjuncts = conjunct_cache.get(node)
        if conjuncts is None:
            if balance:
                conjuncts = _flatten_conjuncts(aig, node, refs, plans)
            else:
                conjuncts = list(aig.fanins(node))
            conjunct_cache[node] = conjuncts
        return [c >> 1 for c in conjuncts]

    # demand roots: every named net literal, latch next and primary output
    roots = [literal >> 1 for lits in lowered.lit_map.values() for literal in lits]
    roots += [aig.next_of(latch) >> 1 for latch in aig.latches]
    roots += [literal >> 1 for _, literal in aig.outputs]

    stack = list(roots)
    while stack:
        node = stack[-1]
        if node in node_map:
            stack.pop()
            continue
        missing = [d for d in dependencies(node) if d not in node_map]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        plan = plans.get(node)
        if plan is not None:
            leaves, bound, canon, ocomp = plan
            _, struct_nodes, root = library[canon]
            vals = [FALSE] + [mapped(b) for b in bound]
            for a, b in struct_nodes:
                la = vals[a >> 1] ^ (a & 1)
                lb = vals[b >> 1] ^ (b & 1)
                vals.append(new.mk_and(la, lb))
            result = (vals[root >> 1] ^ (root & 1)) ^ ocomp
            applied += 1
        else:
            # dependencies() above populated the conjunct cache for this node
            result = _balanced_and(new, new_levels,
                                   [mapped(c) for c in conjunct_cache[node]])
        node_map[node] = result

    for latch in aig.latches:
        new.set_next(lit(latch_of_old[latch]), mapped(aig.next_of(latch)))
    for name, literal in aig.outputs:
        new.add_output(name, mapped(literal))

    lit_map = {
        net: [mapped(literal) for literal in lits]
        for net, lits in lowered.lit_map.items()
    }
    latch_map = {
        reg: [latch_of_old[n] for n in nodes]
        for reg, nodes in lowered.latch_map.items()
    }

    counters["rewrites_applied"] = applied
    counters["aig_nodes_pre"] = aig.num_ands
    counters["aig_nodes_post"] = new.num_ands
    counters["aig_levels"] = aig_levels(new)
    if stats is not None:
        # counters accumulate across circuits (a checker optimises both sides
        # of a pair); depth reports the deeper of the two, not their sum
        for key in ("cuts_enumerated", "rewrites_applied",
                    "aig_nodes_pre", "aig_nodes_post"):
            stats[key] = stats.get(key, 0) + counters[key]
        stats["aig_levels"] = max(stats.get("aig_levels", 0),
                                  counters["aig_levels"])
    return NetlistAig(aig=new, lit_map=lit_map, latch_map=latch_map)
