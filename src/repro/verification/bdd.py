"""A high-performance reduced ordered binary decision diagram (ROBDD) package.

This is the substrate for all of the post-synthesis verification baselines
the paper compares against (Section II and Tables I/II): the SMV-style
symbolic model checker, the SIS-style FSM comparison, the van Eijk
equivalence checker and the boolean tautology checker.  It is a hash-consed
ROBDD implementation with the three classic production optimisations
(Brace–Rudell–Bryant, "Efficient implementation of a BDD package"):

* **Complement edges.**  A BDD reference is an integer *edge*
  ``(node_index << 1) | complement_bit``; there is a single terminal node
  (the constant ``1``) and ``FALSE`` is simply its complemented edge.  A
  function and its negation share every node, so :meth:`BddManager.apply_not`
  is a bit flip — O(1), no traversal, no new nodes.  Canonical form: the
  *high* (then) child of a stored node is never complemented; complements
  are pushed onto the low child and the incoming edge by :meth:`_mk`.

* **Standard triples and dedicated binary caches.**  :meth:`BddManager.ite`
  normalises its arguments so that ``ite(f,g,h)``, its negation and its
  argument permutations hit one cache line; two-operand calls are redirected
  into dedicated ``AND`` and ``XOR`` computed tables with commutative,
  complement-canonical keys (``or``/``nand``/``implies`` share the ``AND``
  cache through De Morgan, ``xnor`` shares the ``XOR`` cache through the
  complement bit).  Each key packs its edges into one int.

* **Iterative core.**  Every manager operation (``ite``, ``exists``/``forall``,
  ``compose``, ``count_sat``, ``and_exists``, ``build_from_table``) runs on
  an explicit work stack — the repo-wide "no recursion-limit bumps in
  ``src/``" guarantee of the HOL kernel extends to the BDD layer, so BDDs
  thousands of levels deep are processed at the default recursion limit.

* **Combined ``and_exists``.**  :meth:`BddManager.and_exists` computes
  ``∃V. f ∧ g`` in one pass without materialising the conjunction — the
  relational-product primitive that the partitioned-transition-relation
  image computation in :mod:`repro.verification.model_checking` is built on.
  Its memos persist like the other computed tables, one per quantified set.

Exactly as in the paper, the run time and memory of everything built on top
of this package are dominated by BDD sizes, which can grow exponentially
with the number of state bits — that is the effect Tables I and II measure.
An optional *node budget* aborts an operation cleanly (raising
:class:`BddBudgetExceeded`), which the evaluation harness uses to emulate the
"could not be processed in reasonable time" dashes of the paper.  The
wall-clock *deadline* is polled both on node creation and on computed-table
activity (hits and misses), so even cache-heavy phases that allocate no new
nodes respect their budget.

The manager keeps deterministic operation counters — ``ite_calls`` (computed
table misses, i.e. genuine subproblem expansions), ``cache_hits`` and
``peak_nodes`` (via :attr:`num_nodes`; nodes are never freed) — which the
verification backends surface through ``VerificationResult.stats``.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)


class BddError(Exception):
    """Raised for malformed BDD operations."""


class BddBudgetExceeded(BddError):
    """Raised when an operation exceeds the manager's node budget."""


#: Terminal edges: the single terminal node has index 0; ``TRUE`` is its
#: plain edge and ``FALSE`` its complemented edge.
TRUE = 0
FALSE = 1

#: Level of the terminal node — below every variable.
_TERMINAL_LEVEL = 1 << 60

# work-stack task tags for the operation machine
_OP_ITE, _OP_AND, _OP_XOR, _MK, _NEG = 0, 1, 2, 3, 4

#: node-count cap of an unbounded run of the operation machine
_NO_CAP = 1 << 62


class BddNode(NamedTuple):
    """View of one decision node: ``f = ite(var(level), high, low)``.

    ``low``/``high`` are edges with the referencing edge's complement bit
    already applied, so the identity above holds for the edge passed to
    :meth:`BddManager.node`.
    """

    level: int
    low: int
    high: int


class BddManager:
    """Owner of a shared, hash-consed ROBDD node store with complement edges."""

    def __init__(self, node_budget: Optional[int] = None,
                 deadline: Optional[float] = None):
        # Parallel arrays indexed by node id; node 0 is the terminal.
        self._level: List[int] = [_TERMINAL_LEVEL]
        self._low: List[int] = [TRUE]
        self._high: List[int] = [TRUE]
        # One unique table per level, keyed by the packed child pair and
        # holding the node's plain edge.  Every table and computed-table
        # key packs its edges into one int, 32 bits each (an edge needs
        # at most 32 bits until the store holds 2**31 nodes): a pair packs
        # into 32 bytes and a triple into 48, where a tuple takes 64.
        self._unique: Dict[int, Dict[int, int]] = {}
        self._ite_cache: Dict[int, int] = {}
        self._and_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}
        # per quantified level set: and_exists's memo, keyed by the packed
        # operand pair, and its memo of quantified subgraphs
        self._and_exists_memos: Dict[FrozenSet[int], Tuple[Dict[int, int], Dict[int, int]]] = {}
        self._var_levels: Dict[str, int] = {}
        self._level_names: Dict[int, str] = {}
        self.node_budget = node_budget
        #: absolute ``time.perf_counter()`` deadline checked during node
        #: creation *and* on computed-table activity
        self.deadline = deadline
        #: deterministic operation counters (see module docstring)
        self.ite_calls = 0
        self.cache_hits = 0

    def _check_deadline(self) -> None:
        if self.deadline is not None and _perf_counter() > self.deadline:
            raise BddBudgetExceeded(
                "wall-clock budget exceeded during a BDD operation"
            )

    # -- variables -------------------------------------------------------------
    def declare(self, name: str, level: Optional[int] = None) -> int:
        """Declare a variable (optionally at an explicit level); returns its BDD."""
        if name in self._var_levels:
            return self.var(name)
        if level is None:
            level = len(self._var_levels)
        if level in self._level_names and self._level_names[level] != name:
            raise BddError(f"level {level} already used by {self._level_names[level]}")
        self._var_levels[name] = level
        self._level_names[level] = name
        return self.var(name)

    def var(self, name: str) -> int:
        """The BDD of a declared variable."""
        if name not in self._var_levels:
            return self.declare(name)
        return self._mk(self._var_levels[name], FALSE, TRUE)

    def nvar(self, name: str) -> int:
        """The BDD of the negation of a variable (an O(1) complement edge)."""
        return self.var(name) ^ 1

    def var_names(self) -> List[str]:
        return [self._level_names[lvl] for lvl in sorted(self._level_names)]

    def level_of(self, name: str) -> int:
        return self._var_levels[name]

    @property
    def num_nodes(self) -> int:
        """Number of stored nodes (terminal included); also the peak, since
        nodes are never freed."""
        return len(self._level)

    def op_stats(self) -> Dict[str, float]:
        """Deterministic cost counters for ``VerificationResult.stats``."""
        return {
            "peak_nodes": float(self.num_nodes),
            "ite_calls": float(self.ite_calls),
            "cache_hits": float(self.cache_hits),
        }

    # -- node construction --------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        """Hash-consed node creation with complement-edge normalisation."""
        if low == high:
            return low
        out = high & 1
        if out:
            low ^= 1
            high ^= 1
        table = self._unique.get(level)
        if table is None:
            table = self._unique[level] = {}
        key = (low << 32) | high
        e = table.get(key)
        if e is None:
            idx = len(self._level)
            if self.node_budget is not None and idx >= self.node_budget:
                raise BddBudgetExceeded(
                    f"BDD node budget of {self.node_budget} nodes exceeded"
                )
            if self.deadline is not None and (idx & 0xFF) == 0:
                self._check_deadline()
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            e = table[key] = idx << 1
        # a plain edge is the stored int itself, so results share it
        return e | 1 if out else e

    def node(self, f: int) -> BddNode:
        """Decompose an edge: ``f = ite(var(level), high, low)``."""
        idx, c = f >> 1, f & 1
        return BddNode(self._level[idx], self._low[idx] ^ c, self._high[idx] ^ c)

    # -- the operation machine ------------------------------------------------
    #
    # One explicit-stack evaluator for ITE/AND/XOR.  Tasks are tuples whose
    # first element is a tag; every operation task eventually pushes exactly
    # one edge on the result stack, and `_MK`/`_NEG` frames combine results.
    # The machine ticks the deadline every 4096 task steps, so computed-table
    # hits (which create no nodes) are budget-checked too.  A run returns
    # None once the store holds more than `cap` nodes.

    def _run(self, tag: int, f: int, g: int, h: int = 0,
             cap: int = _NO_CAP) -> Optional[int]:
        level = self._level
        low = self._low
        high = self._high
        ite_cache = self._ite_cache
        and_cache = self._and_cache
        xor_cache = self._xor_cache
        tasks: List[Tuple] = [(tag, f, g, h)]
        results: List[int] = []
        push_task = tasks.append
        push = results.append
        pop = results.pop
        tick = 0
        while tasks:
            tick += 1
            if (tick & 0xFFF) == 0 and self.deadline is not None:
                self._check_deadline()
            frame = tasks.pop()
            t = frame[0]

            if t == _MK:
                _, lvl, cache, key, out_c = frame
                hi = pop()
                lo = pop()
                r = self._mk(lvl, lo, hi)
                cache[key] = r
                push(r ^ out_c)
                if len(level) > cap:
                    return None
                continue

            if t == _NEG:
                results[-1] ^= 1
                continue

            if t == _OP_AND:
                _, f, g, _ = frame
                # terminal / trivial cases
                if f == g:
                    push(f)
                    continue
                if f ^ g == 1 or f == FALSE or g == FALSE:
                    push(FALSE)
                    continue
                if f == TRUE:
                    push(g)
                    continue
                if g == TRUE:
                    push(f)
                    continue
                if g < f:
                    f, g = g, f
                key2 = (f << 32) | g
                r = and_cache.get(key2)
                if r is not None:
                    self.cache_hits += 1
                    push(r)
                    continue
                self.ite_calls += 1
                lf, lg = level[f >> 1], level[g >> 1]
                top = lf if lf < lg else lg
                if lf == top:
                    c = f & 1
                    f0, f1 = low[f >> 1] ^ c, high[f >> 1] ^ c
                else:
                    f0 = f1 = f
                if lg == top:
                    c = g & 1
                    g0, g1 = low[g >> 1] ^ c, high[g >> 1] ^ c
                else:
                    g0 = g1 = g
                push_task((_MK, top, and_cache, key2, 0))
                push_task((_OP_AND, f1, g1, 0))
                push_task((_OP_AND, f0, g0, 0))
                continue

            if t == _OP_XOR:
                _, f, g, _ = frame
                # complement-canonical: xor is invariant up to output flips
                out_c = (f & 1) ^ (g & 1)
                f &= ~1
                g &= ~1
                if f == g:
                    push(FALSE ^ out_c)
                    continue
                if f == TRUE:
                    push(g ^ 1 ^ out_c)
                    continue
                if g == TRUE:
                    push(f ^ 1 ^ out_c)
                    continue
                if g < f:
                    f, g = g, f
                key2 = (f << 32) | g
                r = xor_cache.get(key2)
                if r is not None:
                    self.cache_hits += 1
                    push(r ^ out_c)
                    continue
                self.ite_calls += 1
                lf, lg = level[f >> 1], level[g >> 1]
                top = lf if lf < lg else lg
                if lf == top:
                    f0, f1 = low[f >> 1], high[f >> 1]
                else:
                    f0 = f1 = f
                if lg == top:
                    c = g & 1
                    g0, g1 = low[g >> 1] ^ c, high[g >> 1] ^ c
                else:
                    g0 = g1 = g
                push_task((_MK, top, xor_cache, key2, out_c))
                push_task((_OP_XOR, f1, g1, 0))
                push_task((_OP_XOR, f0, g0, 0))
                continue

            # t == _OP_ITE: standard-triple normalisation
            _, f, g, h = frame
            if f == TRUE:
                push(g)
                continue
            if f == FALSE:
                push(h)
                continue
            if g == h:
                push(g)
                continue
            if f == g:
                g = TRUE
            elif f ^ g == 1:
                g = FALSE
            if f == h:
                h = FALSE
            elif f ^ h == 1:
                h = TRUE
            if g == TRUE and h == FALSE:
                push(f)
                continue
            if g == FALSE and h == TRUE:
                push(f ^ 1)
                continue
            if g == h:
                push(g)
                continue
            # two-operand forms: route into the dedicated AND/XOR caches so
            # that e.g. ite(f,g,0), ite(g,f,0) and ite(¬f,0,g) all share the
            # (f∧g) cache line
            if h == FALSE:
                push_task((_OP_AND, f, g, 0))
                continue
            if g == FALSE:
                push_task((_OP_AND, f ^ 1, h, 0))
                continue
            if g == TRUE:                       # f ∨ h = ¬(¬f ∧ ¬h)
                push_task((_NEG,))
                push_task((_OP_AND, f ^ 1, h ^ 1, 0))
                continue
            if h == TRUE:                       # f → g = ¬(f ∧ ¬g)
                push_task((_NEG,))
                push_task((_OP_AND, f, g ^ 1, 0))
                continue
            if g ^ h == 1:                      # ite(f,g,¬g) = ¬(f ⊕ g)
                push_task((_NEG,))
                push_task((_OP_XOR, f, g, 0))
                continue
            # general three-operand case: make f and g positive so the triple,
            # its negation and the ¬f variant share one cache line
            if f & 1:
                f ^= 1
                g, h = h, g
            out_c = g & 1
            if out_c:
                g ^= 1
                h ^= 1
            key3 = (((f << 32) | g) << 32) | h
            r = ite_cache.get(key3)
            if r is not None:
                self.cache_hits += 1
                push(r ^ out_c)
                continue
            self.ite_calls += 1
            lf, lg, lh = level[f >> 1], level[g >> 1], level[h >> 1]
            top = lf
            if lg < top:
                top = lg
            if lh < top:
                top = lh
            if lf == top:
                c = f & 1
                f0, f1 = low[f >> 1] ^ c, high[f >> 1] ^ c
            else:
                f0 = f1 = f
            if lg == top:
                g0, g1 = low[g >> 1], high[g >> 1]
            else:
                g0 = g1 = g
            if lh == top:
                c = h & 1
                h0, h1 = low[h >> 1] ^ c, high[h >> 1] ^ c
            else:
                h0 = h1 = h
            push_task((_MK, top, ite_cache, key3, out_c))
            push_task((_OP_ITE, f1, g1, h1))
            push_task((_OP_ITE, f0, g0, h0))
        return results[-1]

    # -- core ITE ---------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` (the universal connective)."""
        return self._run(_OP_ITE, f, g, h)

    # -- boolean operations --------------------------------------------------------
    def apply_not(self, f: int) -> int:
        """O(1): flip the complement bit of the edge."""
        return f ^ 1

    def apply_and(self, f: int, g: int) -> int:
        return self._run(_OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        # the quantifiers' inner loops mostly join a constant or equal halves
        if f == FALSE or f == g:
            return g
        if g == FALSE:
            return f
        if f == TRUE or g == TRUE or f ^ g == 1:
            return TRUE
        return self._run(_OP_AND, f ^ 1, g ^ 1) ^ 1

    def apply_xor(self, f: int, g: int) -> int:
        return self._run(_OP_XOR, f, g)

    def apply_xnor(self, f: int, g: int) -> int:
        return self._run(_OP_XOR, f, g) ^ 1

    def apply_implies(self, f: int, g: int) -> int:
        return self._run(_OP_AND, f, g ^ 1) ^ 1

    def and_bounded(self, f: int, g: int, bound: int) -> Optional[int]:
        """``f ∧ g`` if it has at most ``bound`` decision nodes, else ``None``.

        Every node a conjunction creates lies in its result, so the
        conjunction stops as soon as it has created more than ``bound``
        nodes; only a result that completes is measured with :meth:`size`.
        A node budget or deadline hit still raises
        :class:`BddBudgetExceeded`.
        """
        r = self._run(_OP_AND, f, g, cap=len(self._level) + bound)
        if r is None or self.size(r) > bound:
            return None
        return r

    def _deepest_first(self, fs: Iterable[int]) -> List[int]:
        """The operands ordered by their top variable's level, deepest first.

        Folded in that order, each operand lands above the accumulated
        result instead of below it, so a cube of ``n`` literals costs O(n)
        steps where a fold in declaration order walks the whole accumulated
        chain each time, O(n²).
        """
        level = self._level
        return sorted(fs, key=lambda f: level[f >> 1], reverse=True)

    def conjoin(self, fs: Iterable[int]) -> int:
        out = TRUE
        for f in self._deepest_first(fs):
            out = self.apply_and(out, f)
            if out == FALSE:
                return FALSE
        return out

    def disjoin(self, fs: Iterable[int]) -> int:
        out = FALSE
        for f in self._deepest_first(fs):
            out = self.apply_or(out, f)
            if out == TRUE:
                return TRUE
        return out

    # -- quantification and substitution ------------------------------------------------
    def _quantify_levels(self, levels: Set[int], f: int,
                         cache: Optional[Dict[int, int]] = None) -> int:
        """Existential quantification of the given *levels* (iterative).

        ``cache`` lets one enclosing operation (``and_exists``) share a memo
        across several quantifications of subgraphs under the *same* level
        set; it must not be reused across different level sets.
        """
        if not levels or (f >> 1) == 0:
            return f
        max_level = max(levels)
        level = self._level
        low = self._low
        high = self._high
        if cache is None:
            cache = {}
        tasks: List[Tuple[int, int]] = [(0, f)]
        results: List[int] = []
        tick = 0
        while tasks:
            tick += 1
            if (tick & 0xFFF) == 0 and self.deadline is not None:
                self._check_deadline()
            tag, e = tasks.pop()
            if tag == 1:
                hi = results.pop()
                lo = results.pop()
                lvl = level[e >> 1]
                if lvl in levels:
                    r = self.apply_or(lo, hi)
                else:
                    r = self._mk(lvl, lo, hi)
                cache[e] = r
                results.append(r)
                continue
            idx, c = e >> 1, e & 1
            if level[idx] > max_level:             # no quantified var in the cone
                results.append(e)
                continue
            r = cache.get(e)
            if r is not None:
                results.append(r)
                continue
            tasks.append((1, e))
            tasks.append((0, high[idx] ^ c))
            tasks.append((0, low[idx] ^ c))
        return results[-1]

    def exists(self, names: Sequence[str], f: int) -> int:
        """Existential quantification over the given variables."""
        return self._quantify_levels({self._var_levels[n] for n in names}, f)

    def forall(self, names: Sequence[str], f: int) -> int:
        """Universal quantification (O(1) negations around ``exists``)."""
        return self.exists(names, f ^ 1) ^ 1

    def and_exists(self, quantified: Sequence[str], f: int, g: int) -> int:
        """``∃ quantified. f ∧ g`` in one pass (the relational product).

        The conjunction is never materialised: conjoin and quantify proceed
        level by level, so the peak intermediate BDD stays far below the one
        ``exists(V, apply_and(f, g))`` would build.  This is the primitive
        behind the clustered early-quantification image computation in
        :mod:`repro.verification.model_checking`.  Its memo and its memo of
        quantified subgraphs live as long as the manager, one pair per
        quantified set, so the image steps of a traversal share them;
        :meth:`clear_caches` drops them.
        """
        levels = frozenset(self._var_levels[n] for n in quantified)
        if not levels:
            return self.apply_and(f, g)
        memos = self._and_exists_memos.get(levels)
        if memos is None:
            memos = self._and_exists_memos[levels] = ({}, {})
        cache, quantify_cache = memos
        max_level = max(levels)
        level = self._level
        low = self._low
        high = self._high
        tasks: List[Tuple] = [(0, f, g)]
        results: List[int] = []
        tick = 0
        while tasks:
            tick += 1
            if (tick & 0xFFF) == 0 and self.deadline is not None:
                self._check_deadline()
            frame = tasks.pop()
            tag = frame[0]
            if tag == 1:
                _, top, key = frame
                hi = results.pop()
                lo = results.pop()
                if top in levels:
                    r = self.apply_or(lo, hi)
                else:
                    r = self._mk(top, lo, hi)
                cache[key] = r
                results.append(r)
                continue
            _, f, g = frame
            if f == FALSE or g == FALSE or f ^ g == 1:
                results.append(FALSE)
                continue
            if f == TRUE:
                results.append(self._quantify_levels(levels, g, quantify_cache))
                continue
            if g == TRUE or f == g:
                results.append(self._quantify_levels(levels, f, quantify_cache))
                continue
            lf, lg = level[f >> 1], level[g >> 1]
            top = lf if lf < lg else lg
            if top > max_level:                    # no quantified var below: plain and
                results.append(self.apply_and(f, g))
                continue
            if g < f:
                f, g = g, f
                lf, lg = lg, lf
            key = (f << 32) | g
            r = cache.get(key)
            if r is not None:
                self.cache_hits += 1
                results.append(r)
                continue
            self.ite_calls += 1
            if lf == top:
                c = f & 1
                f0, f1 = low[f >> 1] ^ c, high[f >> 1] ^ c
            else:
                f0 = f1 = f
            if lg == top:
                c = g & 1
                g0, g1 = low[g >> 1] ^ c, high[g >> 1] ^ c
            else:
                g0 = g1 = g
            tasks.append((1, top, key))
            tasks.append((0, f1, g1))
            tasks.append((0, f0, g0))
        return results[-1]

    def rename(self, f: int, mapping: Dict[str, str]) -> int:
        """Rename variables (the standard next-state <-> current-state swap).

        All target variables must already be declared.  Renaming is performed
        by composition, which is correct for arbitrary (even non-monotone)
        level changes.
        """
        pairs = {self._var_levels[a]: self.var(b) for a, b in mapping.items()}
        return self._compose_levels(f, pairs)

    def compose(self, f: int, substitution: Dict[str, int]) -> int:
        """Simultaneous functional composition ``f[var := g]``."""
        pairs = {self._var_levels[name]: g for name, g in substitution.items()}
        return self._compose_levels(f, pairs)

    def _compose_levels(self, f: int, pairs: Dict[int, int]) -> int:
        """Iterative composition; memoised per node (complements distribute).

        A node whose variable stays a variable (kept, or replaced by a
        plain variable) and whose new level lies above both composed
        children is built directly with :meth:`_mk`; any other node goes
        through :meth:`ite`.  A rename that keeps the order, such as the
        primed-to-unprimed swap of the product machine, never needs ``ite``.
        """
        if not pairs:
            return f
        max_level = max(pairs)
        level = self._level
        low = self._low
        high = self._high
        # the new level of each replaced level whose replacement is a variable
        var_level = {
            lvl: level[g >> 1] for lvl, g in pairs.items()
            if not g & 1 and low[g >> 1] == FALSE and high[g >> 1] == TRUE
        }
        cache: Dict[int, int] = {}
        tasks: List[Tuple[int, int, int]] = [(0, f >> 1, f & 1)]
        results: List[int] = []
        tick = 0
        while tasks:
            tick += 1
            if (tick & 0xFFF) == 0 and self.deadline is not None:
                self._check_deadline()
            tag, idx, c = tasks.pop()
            if tag == 1:
                hi = results.pop()
                lo = results.pop()
                lvl = level[idx]
                rep = pairs.get(lvl)
                top = lvl if rep is None else var_level.get(lvl)
                if top is not None and top < level[lo >> 1] and top < level[hi >> 1]:
                    r = self._mk(top, lo, hi)
                else:
                    # children may have been lifted above this level, so a
                    # plain _mk is not sound — go through ite on the variable
                    if rep is None:
                        rep = self._mk(lvl, FALSE, TRUE)
                    r = self.ite(rep, hi, lo)
                cache[idx] = r
                results.append(r ^ c)
                continue
            if idx == 0 or level[idx] > max_level:  # untouched cone
                results.append((idx << 1) | c)
                continue
            r = cache.get(idx)
            if r is not None:
                results.append(r ^ c)
                continue
            tasks.append((1, idx, c))
            tasks.append((0, high[idx] >> 1, high[idx] & 1))
            tasks.append((0, low[idx] >> 1, low[idx] & 1))
        return results[-1]

    # -- analysis -----------------------------------------------------------------
    def support(self, f: int) -> Set[str]:
        """The set of variables a function depends on."""
        seen: Set[int] = set()
        levels: Set[int] = set()
        stack = [f >> 1]
        while stack:
            idx = stack.pop()
            if idx == 0 or idx in seen:
                continue
            seen.add(idx)
            levels.add(self._level[idx])
            stack.append(self._low[idx] >> 1)
            stack.append(self._high[idx] >> 1)
        return {self._level_names[lvl] for lvl in levels}

    def size(self, f: int) -> int:
        """Number of distinct decision nodes reachable from ``f``."""
        seen: Set[int] = set()
        stack = [f >> 1]
        count = 0
        while stack:
            idx = stack.pop()
            if idx == 0 or idx in seen:
                continue
            seen.add(idx)
            count += 1
            stack.append(self._low[idx] >> 1)
            stack.append(self._high[idx] >> 1)
        return count

    def evaluate(self, f: int, assignment: Dict[str, bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support."""
        e = f
        while e >> 1:
            idx, c = e >> 1, e & 1
            name = self._level_names[self._level[idx]]
            if name not in assignment:
                raise BddError(f"evaluate: no value for variable {name}")
            e = (self._high[idx] if assignment[name] else self._low[idx]) ^ c
        return e == TRUE

    def any_sat(self, f: int) -> Optional[Dict[str, bool]]:
        """A satisfying assignment of ``f`` (over its support), or ``None``."""
        if f == FALSE:
            return None
        assignment: Dict[str, bool] = {}
        e = f
        while e >> 1:
            idx, c = e >> 1, e & 1
            name = self._level_names[self._level[idx]]
            hi = self._high[idx] ^ c
            # every non-terminal edge is satisfiable (nodes are non-constant),
            # so only a FALSE terminal forces the low branch
            if hi != FALSE:
                assignment[name] = True
                e = hi
            else:
                assignment[name] = False
                e = self._low[idx] ^ c
        return assignment

    def count_sat(self, f: int, over: Optional[Sequence[str]] = None) -> int:
        """Number of satisfying assignments of ``f`` over the variables ``over``.

        ``over`` defaults to all declared variables.  Every variable in the
        support of ``f`` must be listed in ``over``.
        """
        names = list(over) if over is not None else self.var_names()
        levels = {self._var_levels[n] for n in names}
        support_levels = {self._var_levels[n] for n in self.support(f)}
        if not support_levels.issubset(levels):
            missing = support_levels - levels
            raise BddError(
                "count_sat: support variables not in the counting universe: "
                + ", ".join(self._level_names[lvl] for lvl in sorted(missing))
            )
        total = 1 << len(levels)
        level = self._level
        low = self._low
        high = self._high
        # memo: node index -> count of the *uncomplemented* node function over
        # the full universe; complement edges count as (total - n)
        memo: Dict[int, int] = {}
        tasks: List[Tuple[int, int, int]] = [(0, f >> 1, f & 1)]
        results: List[int] = []
        while tasks:
            tag, idx, c = tasks.pop()
            if tag == 1:
                hi = results.pop()
                lo = results.pop()
                # children are independent of this node's variable, so their
                # full-universe counts are even and the halving is exact
                n = (lo + hi) >> 1
                memo[idx] = n
                results.append(total - n if c else n)
                continue
            if idx == 0:
                results.append(0 if c else total)
                continue
            n = memo.get(idx)
            if n is not None:
                results.append(total - n if c else n)
                continue
            tasks.append((1, idx, c))
            tasks.append((0, high[idx] >> 1, high[idx] & 1))
            tasks.append((0, low[idx] >> 1, low[idx] & 1))
        return results[-1]

    def clear_caches(self) -> None:
        """Drop the operation caches (keeps the unique table)."""
        self._ite_cache.clear()
        self._and_cache.clear()
        self._xor_cache.clear()
        self._and_exists_memos.clear()


def build_from_table(manager: BddManager, names: Sequence[str],
                     truth: Callable[[Tuple[bool, ...]], bool]) -> int:
    """Build the BDD of an arbitrary boolean function given as a Python callable.

    Exponential in ``len(names)``; used only by tests as a ground-truth
    reference.  Iterative: the truth table is materialised once and reduced
    pairwise, variable by variable, so arbitrarily long ``names`` lists are
    limited by memory, not by the recursion limit.
    """
    n = len(names)
    # leaf order: names[0] is the most significant assignment bit
    vals: List[int] = []
    for bits in range(1 << n):
        assignment = tuple(bool((bits >> (n - 1 - i)) & 1) for i in range(n))
        vals.append(TRUE if truth(assignment) else FALSE)
    for i in range(n - 1, -1, -1):
        var = manager.var(names[i])
        vals = [
            manager.ite(var, vals[2 * j + 1], vals[2 * j])
            for j in range(len(vals) // 2)
        ]
    return vals[0]
