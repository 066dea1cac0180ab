"""SAT-based combinational equivalence on the AIG IR.

The ``sat`` backend is the classic CNF alternative to the BDD tautology
checker: both circuits are lowered into **one** shared, structurally-hashed
:class:`~repro.circuits.aig.Aig` (so structurally equal cones collapse
before any search happens), each compared function pair becomes a small
CNF miter, and a small CDCL solver — two-watched-literal unit propagation,
first-UIP clause learning, activity-driven decisions, Luby restarts,
LBD-scored learned-clause garbage collection, all iterative — decides it.
UNSAT proves equivalence; a satisfying assignment is a concrete
counterexample vector.

Since the incremental-SAT rework the solver is **persistent and
assumption-based** (Eén & Sörensson): one :class:`SatSolver` survives an
entire equivalence check (or an entire FRAIG sweep), variables grow on the
fly with :meth:`SatSolver.add_var`, and each query is posed through
``solve(assumptions=[...])`` — assumption literals act as pseudo-decisions
below every free decision, and every learned clause remains valid for (and
speeds up) later queries.  The :class:`IncrementalMiter` layer on top owns the lazy,
dense, cone-local Tseitin encoding: AIG nodes get solver variables only
when a query first demands them (no O(max node index) allocation per
call), each candidate-pair miter is posted under a fresh activation
literal that a unit clause permanently retires after the call, and proved
equivalences are asserted as permanent biconditionals that strengthen
every later query.

Registers are treated as free cut-point variables keyed by register *name*,
exactly like :func:`repro.verification.tautology.combinational_equivalent`,
so the two backends produce identical verdicts on every cell (the paper's
"same state representation" restriction applies to both).  The structured
cost record is ``decisions`` / ``propagations`` / ``conflicts`` /
``solver_calls`` / ``restarts`` / ``learned_kept`` / ``learned_deleted`` /
``vars_encoded`` / ``aig_nodes`` instead of the BDD engine's node counts.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.aig import Aig, lit_negated, lit_node, lit_not, lower_combinational
from ..circuits.netlist import Netlist
from .common import (
    EngineRun,
    TimeoutBudgetExceeded,
    VerificationResult,
    cut_point_vars,
    pair_cut_points,
    run_engine,
)


class SatError(Exception):
    """Raised for malformed CNF constructions."""


def _luby(i: int) -> int:
    """The ``i``-th term (1-based) of the Luby restart sequence, iteratively."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while (1 << k) - 1 != i:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


class SatSolver:
    """A persistent, incremental CDCL-lite SAT solver.

    Literals are signed DIMACS-style integers over variables ``1..n``.  The
    solver is deliberately small but real: two-watched-literal propagation,
    first-UIP conflict analysis with clause learning and backjumping,
    conflict-driven variable activities, Luby restarts and LBD-scored
    learned-clause garbage collection.  Every loop is explicit — no
    recursion anywhere, matching the repo-wide iterative-traversal
    guarantee (no recursion-limit bumps in ``src/``).

    The solver is designed for *reuse across thousands of calls*:

    * :meth:`add_var` grows the variable range on the fly, so consumers can
      encode lazily instead of sizing arrays up front;
    * :meth:`solve` takes ``assumptions`` — literals asserted as
      pseudo-decisions below every free decision, so a query can be posed
      and retracted without touching the clause database;
    * learned clauses persist between calls (they are implied by the clause
      database alone — assumptions are decisions, never resolved as
      reasons), and the garbage collector keeps the database from drowning
      by discarding the highest-LBD half whenever it outgrows
      ``learned_limit`` (glue clauses with LBD <= 2 are never deleted).
    """

    #: conflicts before the first Luby restart (scaled by the Luby sequence)
    restart_base = 64
    #: deadline poll interval, in propagation "ticks" (clause visits)
    _POLL_INTERVAL = 4096

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clauses: List[List[int]] = []
        #: per-clause LBD score; -1 marks a problem (non-learned) clause,
        #: which the garbage collector never deletes
        self._clause_lbd: List[int] = []
        self.watches: Dict[int, List[int]] = {}
        # only variables that occur in some clause are decision candidates;
        # gap variables would otherwise dominate the decision loop (and the
        # CI-guarded ``decisions`` counter) with phantom assignments
        self.active: List[int] = []
        self._is_active = [False] * (num_vars + 1)
        # assignment state: values[v] in (-1 unassigned, 0 false, 1 true)
        self.values = [-1] * (num_vars + 1)
        self.levels = [0] * (num_vars + 1)
        self.reasons: List[Optional[int]] = [None] * (num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.activity = [0.0] * (num_vars + 1)
        # phase saving: last polarity of each var, re-used at decisions —
        # across calls it steers the search back to the previous model's
        # neighbourhood, a large decision saver on related incremental
        # queries (0 = negative first, the mostly-zero miter default)
        self.phase = [0] * (num_vars + 1)
        self.var_inc = 1.0
        self.unsat = False
        #: learned clauses currently stored before GC is forced
        self.learned_limit = 2000
        # deterministic cost counters
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.learned = 0
        self.calls = 0
        self.restarts = 0
        self.learned_deleted = 0
        self._num_learned = 0
        self._ticks = 0
        self.deadline: Optional[float] = None
        self._decision_vars: Optional[List[int]] = None

    # -- variables ----------------------------------------------------------
    def add_var(self) -> int:
        """Grow the variable range by one; returns the new variable index."""
        self.num_vars += 1
        self.values.append(-1)
        self.levels.append(0)
        self.reasons.append(None)
        self.activity.append(0.0)
        self.phase.append(0)
        self._is_active.append(False)
        return self.num_vars

    # -- clause database ----------------------------------------------------
    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a problem clause; callable at any point between solve calls.

        The search state is cancelled back to decision level 0 first (any
        model from the previous call must be read before adding clauses).
        Literals already false at level 0 are dropped and clauses satisfied
        at level 0 are skipped — sound, because level-0 assignments are
        permanent consequences of the database (assumptions live at levels
        >= 1 and are unwound between calls).
        """
        if self.trail_lim:
            self._backjump(0)
        seen = set()
        clause: List[int] = []
        for l in literals:
            if l == 0 or abs(l) > self.num_vars:
                raise SatError(f"literal {l} out of range")
            if -l in seen:
                return  # tautological clause
            if l in seen:
                continue
            value = self._value(l)
            if value == 1 and self.levels[abs(l)] == 0:
                return  # satisfied at level 0: nothing to store
            if value == 0 and self.levels[abs(l)] == 0:
                continue  # permanently false literal: drop it
            seen.add(l)
            clause.append(l)
            if not self._is_active[abs(l)]:
                self._is_active[abs(l)] = True
                self.active.append(abs(l))
        if not clause:
            self.unsat = True
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.unsat = True
            return
        self._attach(clause, lbd=-1)

    def _attach(self, clause: List[int], lbd: int) -> int:
        idx = len(self.clauses)
        self.clauses.append(clause)
        self._clause_lbd.append(lbd)
        self.watches.setdefault(clause[0], []).append(idx)
        self.watches.setdefault(clause[1], []).append(idx)
        return idx

    # -- assignment ---------------------------------------------------------
    def _value(self, literal: int) -> int:
        v = self.values[abs(literal)]
        if v < 0:
            return -1
        return v if literal > 0 else 1 - v

    def _enqueue(self, literal: int, reason: Optional[int]) -> bool:
        val = self._value(literal)
        if val == 0:
            return False
        if val == 1:
            return True
        var = abs(literal)
        self.values[var] = 1 if literal > 0 else 0
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(literal)
        return True

    def _poll_deadline(self) -> None:
        self._ticks += 1
        if self._ticks >= self._POLL_INTERVAL:
            self._ticks = 0
            if self.deadline is not None and time.perf_counter() > self.deadline:
                raise TimeoutBudgetExceeded(
                    "time budget exceeded inside the SAT solver"
                )

    def _propagate(self) -> Optional[int]:
        """Exhaust unit propagation; returns a conflicting clause index."""
        while self.qhead < len(self.trail):
            literal = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            self._poll_deadline()
            false_lit = -literal
            watch_list = self.watches.get(false_lit, [])
            i = 0
            while i < len(watch_list):
                # poll inside the hot loop too: one literal can watch an
                # arbitrarily long clause list, and a propagation-heavy
                # instance must still honour its wall-clock budget
                self._poll_deadline()
                ci = watch_list[i]
                clause = self.clauses[ci]
                # normalise: the false literal in slot 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._value(clause[0]) == 1:
                    i += 1
                    continue
                # look for a new literal to watch
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        self.watches.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                # unit or conflicting
                if not self._enqueue(clause[0], ci):
                    return ci
                i += 1
        return None

    # -- conflict analysis --------------------------------------------------
    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP learned clause and the backjump level.

        Relies on the propagation invariant that a reason clause holds its
        implied literal in slot 0 while that literal is assigned, so each
        resolution step skips slot 0 of the reason.  Assumption
        pseudo-decisions are handled exactly like free decisions: their
        negations stay inside the learned clause, which is therefore
        implied by the clause database alone and sound to keep across
        calls.
        """
        learned: List[int] = [0]  # slot 0 becomes the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p = 0  # 0 = start with the whole conflicting clause
        clause = self.clauses[conflict]
        index = len(self.trail) - 1
        current_level = len(self.trail_lim)
        while True:
            for q in (clause if p == 0 else clause[1:]):
                var = abs(q)
                if seen[var] or self.levels[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self.levels[var] >= current_level:
                    counter += 1
                else:
                    learned.append(q)
            # resolve on the most recent trail literal still marked
            while not seen[abs(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            index -= 1
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            clause = self.clauses[self.reasons[abs(p)]]
        learned[0] = -p
        # conflict-clause minimization (local self-subsumption): a literal
        # whose reason consists only of level-0 facts and other learned
        # literals is implied by the rest and dropped — shorter, stronger
        # clauses that propagate earlier on later (incremental) calls.
        # ``seen`` still marks exactly the learned lower-level literals
        # here; dropped literals keep their mark, which is sound because
        # reasons follow trail order and a marked literal is implied by
        # the remaining clause either way.
        minimized = [learned[0]]
        for q in learned[1:]:
            reason = self.reasons[abs(q)]
            redundant = reason is not None
            if redundant:
                for s in self.clauses[reason][1:]:
                    if self.levels[abs(s)] > 0 and not seen[abs(s)]:
                        redundant = False
                        break
            if not redundant:
                minimized.append(q)
        learned = minimized
        if len(learned) == 1:
            return learned, 0
        # backjump to the second-highest level in the learned clause
        max_i, max_level = 1, self.levels[abs(learned[1])]
        for i in range(2, len(learned)):
            if self.levels[abs(learned[i])] > max_level:
                max_i, max_level = i, self.levels[abs(learned[i])]
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, max_level

    def _lbd(self, clause: List[int]) -> int:
        """Literal-block distance: distinct non-root decision levels."""
        return len({self.levels[abs(l)] for l in clause
                    if self.levels[abs(l)] > 0})

    def _backjump(self, level: int) -> None:
        while len(self.trail_lim) > level:
            mark = self.trail_lim.pop()
            while len(self.trail) > mark:
                literal = self.trail.pop()
                var = abs(literal)
                self.phase[var] = self.values[var]
                self.values[var] = -1
                self.reasons[var] = None
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> Optional[int]:
        best, best_act = 0, -1.0
        candidates = (self.active if self._decision_vars is None
                      else self._decision_vars)
        # ties prefer the *latest* variable: encoding order is topological,
        # so on fresh (zero-activity) cones the search starts next to the
        # miter output and conflicts against the posted miter clauses and
        # proved biconditionals long before the whole cone is assigned
        for var in candidates:
            if self.values[var] < 0 and self.activity[var] > best_act:
                best, best_act = var, self.activity[var]
        if best == 0:
            return None
        return best if self.phase[best] == 1 else -best

    # -- learned-clause garbage collection ----------------------------------
    def reduce_db(self) -> None:
        """Drop the highest-LBD half of deletable learned clauses.

        Runs at decision level 0 (the restart point).  Glue clauses
        (LBD <= 2) are never deleted; level-0 reasons are detached first —
        they are permanent facts whose reasons conflict analysis never
        dereferences.  The whole database (clauses, LBD scores, watches)
        is rebuilt, and ``qhead`` rewinds so the next propagation pass
        re-establishes every watch invariant against the level-0 trail.
        """
        if self.trail_lim:
            self._backjump(0)
        for literal in self.trail:
            self.reasons[abs(literal)] = None
        deletable = sorted(
            (i for i in range(len(self.clauses)) if self._clause_lbd[i] > 2),
            key=lambda i: (self._clause_lbd[i], len(self.clauses[i])),
        )
        drop = set(deletable[len(deletable) // 2:])
        if not drop:
            return
        clauses: List[List[int]] = []
        lbds: List[int] = []
        for i, clause in enumerate(self.clauses):
            if i in drop:
                continue
            clauses.append(clause)
            lbds.append(self._clause_lbd[i])
        self.learned_deleted += len(drop)
        self._num_learned -= len(drop)
        self.clauses = clauses
        self._clause_lbd = lbds
        self.watches = {}
        for idx, clause in enumerate(self.clauses):
            self.watches.setdefault(clause[0], []).append(idx)
            self.watches.setdefault(clause[1], []).append(idx)
        self.qhead = 0

    # -- main loop ----------------------------------------------------------
    def solve(self, deadline: Optional[float] = None,
              assumptions: Sequence[int] = (),
              decision_vars: Optional[Sequence[int]] = None) -> bool:
        """Decide satisfiability under ``assumptions``; reusable afterwards.

        Assumption literals are asserted as pseudo-decisions at levels
        ``1..k`` before any free decision, so the clause database — learned
        clauses included — is untouched by the query itself and fully
        reusable across calls.  ``model()`` is valid when True.

        ``decision_vars``, when given, restricts free decisions to those
        variables: SAT is reported as soon as they and the assumptions are
        all assigned with propagation quiescent (the model is then partial).
        This is only sound when every such partial assignment extends to a
        full model — the caller's obligation.  It holds for cone-closed
        queries on circuit encodings (the :class:`IncrementalMiter` use):
        at quiescence no clause over assigned variables is falsified, so a
        fully assigned fanin-closed cone equals its bottom-up evaluation,
        and every other gate can be evaluated bottom-up from arbitrary
        values of the remaining inputs — propagated off-cone assignments
        are logical consequences of the decisions, so they agree with any
        such extension.  UNSAT answers are unconditional.
        """
        self.deadline = deadline
        self.calls += 1
        self._decision_vars = (None if decision_vars is None
                               else list(decision_vars))
        if self.unsat:
            return False
        for p in assumptions:
            if p == 0 or abs(p) > self.num_vars:
                raise SatError(f"assumption literal {p} out of range")
        assumed = list(assumptions)
        self._backjump(0)
        luby_index = 1
        conflicts_here = 0
        restart_limit = self.restart_base * _luby(luby_index)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self.unsat = True
                    return False
                learned, back_level = self._analyze(conflict)
                self._backjump(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self.unsat = True
                        return False
                else:
                    idx = self._attach(learned, lbd=self._lbd(learned))
                    self.learned += 1
                    self._num_learned += 1
                    self._enqueue(learned[0], idx)
                self.var_inc *= 1.05
                continue
            if conflicts_here >= restart_limit and self.trail_lim:
                # Luby restart; the level-0 pause is also the GC point
                self.restarts += 1
                luby_index += 1
                conflicts_here = 0
                restart_limit = self.restart_base * _luby(luby_index)
                self._backjump(0)
                if self._num_learned > self.learned_limit:
                    self.reduce_db()
                continue
            if len(self.trail_lim) < len(assumed):
                # (re-)assert the next assumption as a pseudo-decision
                p = assumed[len(self.trail_lim)]
                value = self._value(p)
                if value == 1:
                    # already implied: open a dummy level to keep the
                    # assumption <-> level correspondence
                    self.trail_lim.append(len(self.trail))
                elif value == 0:
                    return False  # the database refutes this assumption
                else:
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(p, None)
                continue
            literal = self._decide()
            if literal is None:
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(literal, None)

    def model(self) -> Dict[int, bool]:
        return {
            var: self.values[var] == 1
            for var in range(1, self.num_vars + 1)
            if self.values[var] >= 0
        }

    def stats(self) -> Dict[str, float]:
        return {
            "decisions": float(self.decisions),
            "propagations": float(self.propagations),
            "conflicts": float(self.conflicts),
            "learned_clauses": float(self.learned),
            "solver_calls": float(self.calls),
            "restarts": float(self.restarts),
            "learned_kept": float(self._num_learned),
            "learned_deleted": float(self.learned_deleted),
        }


# ---------------------------------------------------------------------------
# Tseitin encoding of AIG cones
# ---------------------------------------------------------------------------

def _svar(literal: int) -> int:
    """AIG literal -> signed CNF variable (node ``i`` is variable ``i + 1``).

    The *sparse* mapping of the eager reference encoder below; the
    incremental layer uses a dense on-demand mapping instead.
    """
    var = lit_node(literal) + 1
    return -var if lit_negated(literal) else var


def tseitin_solver(aig: Aig, roots: Sequence[int]) -> SatSolver:
    """A fresh solver loaded with the Tseitin CNF of the cones of ``roots``.

    Only nodes in the transitive fan-in of the roots are encoded (three
    clauses per AND node); each root literal is asserted true as a unit
    clause.  Inputs and latch outputs stay free variables.

    This is the eager, throwaway reference encoder (sparse node-index
    variables, one solver per query); production paths go through
    :class:`IncrementalMiter`, and the differential tests hold the two
    paths to identical verdicts.
    """
    cone = aig.cone(roots)
    solver = SatSolver(num_vars=(cone[-1] + 1) if cone else 1)
    for node in cone:
        if not aig.is_and(node):
            continue
        v = node + 1
        a = _svar(aig.fanins(node)[0])
        b = _svar(aig.fanins(node)[1])
        solver.add_clause([-v, a])
        solver.add_clause([-v, b])
        solver.add_clause([v, -a, -b])
    if cone and cone[0] == 0:
        solver.add_clause([-1])  # node 0 is the constant-FALSE node
    for root in roots:
        solver.add_clause([_svar(root)])
    return solver


class IncrementalMiter:
    """Cone-priced miter queries over one persistent incremental solver.

    The layer owns the lazy, dense Tseitin encoding of a shared AIG: an
    AIG node receives a solver variable (via :meth:`SatSolver.add_var`)
    only when a query first pulls its cone in, so a query over a
    five-node cone costs five variables regardless of how large the AIG
    has grown.  :meth:`prove_equal` posts each candidate-pair miter under
    a fresh activation literal — assumed for exactly one call, then
    permanently retired by a unit clause — and asserts every proved
    equivalence as a permanent biconditional, so the clause database
    monotonically strengthens across a sweep while refuted miters can
    never re-activate.
    """

    def __init__(self, aig: Aig, solver: Optional[SatSolver] = None):
        self.aig = aig
        self.solver = solver if solver is not None else SatSolver(0)
        #: AIG node -> dense solver variable, grown on demand
        self._var: Dict[int, int] = {}

    @property
    def vars_encoded(self) -> int:
        return len(self._var)

    @property
    def solver_calls(self) -> int:
        return self.solver.calls

    # -- lazy cone-local encoding ------------------------------------------
    def var_of(self, node: int) -> int:
        """The solver variable of an AIG node, encoding its cone on demand.

        Explicit-stack postorder over the not-yet-encoded part of the
        cone: every newly reached AND node gets a fresh variable and its
        three Tseitin clauses; inputs and latches become free variables;
        the constant node is pinned false by a unit clause.  Already
        encoded nodes are shared, so overlapping query cones are priced
        once.
        """
        cached = self._var.get(node)
        if cached is not None:
            return cached
        aig = self.aig
        solver = self.solver
        stack = [node]
        while stack:
            n = stack[-1]
            if n in self._var:
                stack.pop()
                continue
            if not aig.is_and(n):
                v = solver.add_var()
                self._var[n] = v
                if n == 0:  # the constant-FALSE node
                    solver.add_clause([-v])
                stack.pop()
                continue
            f0, f1 = aig.fanins(n)
            pending = [m for m in (f0 >> 1, f1 >> 1) if m not in self._var]
            if pending:
                stack.extend(pending)
                continue
            v = solver.add_var()
            self._var[n] = v
            a = self.lit(f0)
            b = self.lit(f1)
            solver.add_clause([-v, a])
            solver.add_clause([-v, b])
            solver.add_clause([v, -a, -b])
            stack.pop()
        return self._var[node]

    def lit(self, literal: int) -> int:
        """The signed solver literal of an AIG literal (encoding its cone)."""
        var = self.var_of(lit_node(literal))
        return -var if lit_negated(literal) else var

    def _cone_vars(self, literals: Sequence[int]) -> List[int]:
        """Solver variables of the (already encoded) cones of ``literals``.

        The fanin-closed cone is exactly the decision projection that makes
        a partial SAT answer sound (see :meth:`SatSolver.solve`): deciding
        only these variables keeps each query priced by its own cone no
        matter how many cones the shared solver has accumulated.
        """
        return [self._var[n] for n in self.aig.cone(literals)]

    # -- queries ------------------------------------------------------------
    def assert_equal(self, la: int, lb: int) -> None:
        """Permanently assert ``la == lb`` (two biconditional clauses)."""
        a = self.lit(la)
        b = self.lit(lb)
        self.solver.add_clause([-a, b])
        self.solver.add_clause([a, -b])

    def prove_equal(self, la: int, lb: int,
                    deadline: Optional[float] = None) -> Optional[Dict[int, bool]]:
        """Decide ``la == lb``; None if proved, else a distinguishing model.

        The miter ``la != lb`` is posted under a fresh activation literal
        and solved with that literal as the sole assumption.  Either way
        the activation literal is then retired by a unit clause: a refuted
        miter is permanently disabled, a proved pair is additionally
        asserted as a permanent biconditional that strengthens every later
        query.  The returned model maps *AIG nodes* (of the lazily encoded
        cones) to values.
        """
        if la == lb:
            return None  # structurally closed by the shared strash table
        solver = self.solver
        if la == lit_not(lb):
            # complements differ under every assignment: any model works,
            # but the shared cone must be encoded before projecting onto it
            self.lit(la)
            sat = solver.solve(deadline=deadline,
                               decision_vars=self._cone_vars((la, lb)))
            if not sat:  # pragma: no cover - a consistent circuit encoding
                raise SatError("inconsistent clause database")
            return self.model()
        a = self.lit(la)
        b = self.lit(lb)
        act = solver.add_var()
        solver.add_clause([-act, a, b])
        solver.add_clause([-act, -a, -b])
        # seed the decision heuristic at the miter outputs: the freshest
        # conflicts live there, not wherever the previous query left the
        # activity profile, so the search refutes locally instead of
        # wandering the cone input-side first
        solver._bump(abs(a))
        solver._bump(abs(b))
        sat = solver.solve(deadline=deadline, assumptions=[act],
                           decision_vars=self._cone_vars((la, lb)))
        # read the model before retiring the miter: adding the unit clause
        # cancels the search back to level 0, which unassigns it
        model = self.model() if sat else None
        solver.add_clause([-act])  # retire this miter permanently
        if sat:
            return model
        self.assert_equal(la, lb)
        return None

    # -- model extraction ----------------------------------------------------
    def model(self) -> Dict[int, bool]:
        """Values of every encoded AIG node under the solver's model."""
        values = self.solver.values
        return {
            node: values[var] == 1
            for node, var in self._var.items()
            if values[var] >= 0
        }

    def counterexample(
        self, model: Optional[Dict[int, bool]] = None,
    ) -> Dict[str, bool]:
        """Input/cut-point assignment named after the AIG's input nodes.

        ``model`` is a node-keyed model as returned by :meth:`prove_equal`
        or :meth:`model`; pass it explicitly when the solver has moved on
        since (retiring a miter cancels the assignment).  Inputs outside
        every encoded cone default to False.
        """
        if model is None:
            model = self.model()
        out: Dict[str, bool] = {}
        for node in self.aig.inputs:
            name = self.aig.name_of(node)
            if name is not None:
                out[name] = model.get(node, False)
        return out

    def stats(self) -> Dict[str, float]:
        stats = self.solver.stats()
        stats["vars_encoded"] = float(self.vars_encoded)
        return stats


# ---------------------------------------------------------------------------
# the shared two-circuit cut-point setup (used by ``sat`` and ``fraig``)
# ---------------------------------------------------------------------------

def miter_setup(
    gate_a: Netlist, gate_b: Netlist,
) -> Tuple[Aig, List[str], List[Tuple[str, int, int]]]:
    """Lower two gate-level circuits into one shared AIG over cut points.

    Returns ``(aig, mismatches, compared)``: the structural mismatches and
    the compared net pairs of :func:`~repro.verification.common.pair_cut_points`,
    with every pair mapped to its ``(label, literal_a, literal_b)``.
    """
    mismatches, pairs = pair_cut_points(gate_a, gate_b)
    aig = Aig(f"{gate_a.name}_vs_{gate_b.name}")
    literals: Dict[str, int] = {}
    env_a: Dict[str, List[int]] = {}
    env_b: Dict[str, List[int]] = {}
    for gate, env in ((gate_a, env_a), (gate_b, env_b)):
        for net, name in cut_point_vars(gate).items():
            if name not in literals:
                literals[name] = aig.add_input(name)
            env[net] = [literals[name]]
    vals_a = lower_combinational(aig, gate_a, env_a)
    vals_b = lower_combinational(aig, gate_b, env_b)
    compared = [(label, vals_a[net_a][0], vals_b[net_b][0])
                for label, net_a, net_b in pairs]
    return aig, mismatches, compared


# ---------------------------------------------------------------------------
# the ``sat`` backend
# ---------------------------------------------------------------------------

def check_equivalence_sat(
    a: Netlist,
    b: Netlist,
    time_budget: Optional[float] = None,
) -> VerificationResult:
    """Combinational equivalence by cone-priced CNF miters on a shared AIG.

    The same cut-point discipline as the BDD ``taut`` backend (registers
    are free variables keyed by register name), decided by one persistent
    incremental solver: each compared function pair is an activation-literal
    miter over its lazily encoded cone, and every proved pair is asserted
    as a permanent biconditional that strengthens the remaining queries.
    Verdicts are identical to ``taut``; the cost profile is search counters
    instead of node counts.  Bit-blasting counters join ``stats``.
    """

    def body(run: EngineRun) -> VerificationResult:
        gate_a = run.gate_level(a)
        gate_b = run.gate_level(b)
        aig, mismatches, compared = miter_setup(gate_a, gate_b)
        # a dash cell carries the cost record too: how large the shared AIG
        # grew and how far the incremental search got
        run.counters = lambda: {"aig_nodes": float(aig.num_ands)}
        run.budget.check()

        # cut-point mismatches skip the solver entirely, but the cost
        # record keeps its shape: zeroed counters, never missing keys
        miter = IncrementalMiter(aig)
        run.counters = lambda: {**miter.stats(), "aig_nodes": float(aig.num_ands)}
        if mismatches:
            return run.result("not_equivalent", "; ".join(mismatches))
        counterexample: Optional[Dict[str, bool]] = None
        for label, la, lb in compared:
            run.budget.check()
            model = miter.prove_equal(la, lb, deadline=run.budget.deadline)
            if model is not None:
                mismatches.append(label)
                if counterexample is None:
                    counterexample = miter.counterexample(model)
        if mismatches:
            return run.result("not_equivalent", "; ".join(mismatches), counterexample)
        stats = miter.stats()
        if miter.solver_calls == 0:
            detail = (
                f"structurally equivalent after hashing "
                f"({aig.num_ands} AIG nodes, no SAT search needed)"
            )
        else:
            detail = (
                f"{len(compared)} compared functions, "
                f"{int(stats['conflicts'])} conflicts / "
                f"{int(stats['decisions'])} decisions in "
                f"{int(stats['solver_calls'])} incremental calls over "
                f"{int(stats['vars_encoded'])} encoded of "
                f"{aig.num_ands} AIG nodes"
            )
        return run.result("equivalent", detail)

    return run_engine("sat", time_budget, body)
