"""The incremental SAT layer: assumptions, GC, lazy cones, splitting.

Covers the persistent-solver machinery behind the ``sat``/``fraig``
backends:

* ``solve(assumptions=[...])`` agrees with a fresh encode-and-solve on
  randomized CNFs and randomized AIG miters, across many queries against
  ONE persistent solver (the whole point of the incremental rework);
* the wall-clock deadline is polled inside the propagation hot loop, so a
  propagation-heavy instance dashes on time (the satellite bugfix);
* Luby restarts and LBD-scored learned-clause GC keep verdicts and models
  correct while actually deleting clauses;
* >2000-node cones Tseitin-encode lazily at the default recursion limit;
* the FRAIG in-place class partition refines exactly like a
  rebuild-from-scratch of the phase-canonical signature buckets.
"""

import random
import sys
import time

import pytest

from repro.circuits.aig import FALSE, Aig, lit_negated, lit_node
from repro.verification.common import TimeoutBudgetExceeded
from repro.verification.fraig import _ClassPartition
from repro.verification.sat import IncrementalMiter, SatSolver, tseitin_solver


def _random_cnf(rng, nv, nc):
    return [
        [rng.choice([-1, 1]) * rng.randint(1, nv)
         for _ in range(rng.randint(1, 3))]
        for _ in range(nc)
    ]


def _brute_force_sat(nv, clauses, forced=()):
    want = list(clauses) + [[l] for l in forced]
    return any(
        all(any((l > 0) == bool((m >> (abs(l) - 1)) & 1) for l in c)
            for c in want)
        for m in range(1 << nv)
    )


class TestAssumptions:
    def test_differential_vs_fresh_solver(self):
        """One persistent solver, many assumption queries, vs brute force.

        Each CNF gets a single solver that answers ten different
        assumption sets in a row — learned clauses and activities carry
        over — and every answer must match both an exhaustive check and a
        throwaway solver with the assumptions baked in as unit clauses.
        """
        rng = random.Random(2024)
        for trial in range(40):
            nv = rng.randint(2, 7)
            clauses = _random_cnf(rng, nv, rng.randint(1, 20))
            persistent = SatSolver(nv)
            for c in clauses:
                persistent.add_clause(c)
            if persistent.unsat or not persistent.solve():
                continue  # permanently UNSAT: assumptions add nothing
            for _ in range(10):
                assumptions = [
                    rng.choice([-1, 1]) * v
                    for v in rng.sample(range(1, nv + 1),
                                        rng.randint(1, nv))
                ]
                got = persistent.solve(assumptions=assumptions)
                want = _brute_force_sat(nv, clauses, assumptions)
                assert got == want, (trial, clauses, assumptions)
                fresh = SatSolver(nv)
                for c in clauses:
                    fresh.add_clause(c)
                for l in assumptions:
                    fresh.add_clause([l])
                assert fresh.solve() == want, (trial, clauses, assumptions)
                if got:
                    model = persistent.model()
                    for l in assumptions:
                        assert model.get(abs(l), False) == (l > 0)
                    for c in clauses:
                        assert any((l > 0) == model.get(abs(l), False)
                                   for l in c)
            # the queries must not have poisoned the base problem
            assert persistent.solve() is True, (trial, clauses)

    def test_contradictory_assumptions(self):
        s = SatSolver(3)
        s.add_clause([1, 2])
        assert s.solve(assumptions=[3, -3]) is False
        assert s.solve() is True  # the database itself is untouched

    def test_assumption_out_of_range(self):
        s = SatSolver(2)
        s.add_clause([1, 2])
        with pytest.raises(Exception):
            s.solve(assumptions=[5])


class TestDeadlinePolling:
    def test_propagation_heavy_instance_dashes_on_time(self):
        """The deadline is honoured inside one giant watch-list scan.

        20k copies of the same binary clause put 20k entries on one watch
        list, while the whole solve needs only two propagations — so a
        per-propagation (or per-decision) deadline check never fires.
        Only the in-loop poll added by this fix can see the expired
        deadline, and it must raise rather than return SAT.
        """
        s = SatSolver(2)
        for _ in range(20000):
            s.add_clause([-1, 2])
        s.add_clause([1])
        with pytest.raises(TimeoutBudgetExceeded):
            s.solve(deadline=time.perf_counter() - 1.0)

    def test_no_deadline_means_no_timeout(self):
        s = SatSolver(2)
        for _ in range(20000):
            s.add_clause([-1, 2])
        s.add_clause([1])
        assert s.solve() is True


class TestRestartsAndClauseGC:
    def test_unsat_verdict_survives_aggressive_gc(self):
        """Pigeonhole: hundreds of conflicts under a tiny clause budget."""
        pigeons, holes = 6, 5
        s = SatSolver(pigeons * holes)
        s.learned_limit = 10
        s.restart_base = 4
        for p in range(pigeons):
            s.add_clause([p * holes + h + 1 for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-(p1 * holes + h + 1),
                                  -(p2 * holes + h + 1)])
        assert s.solve() is False
        assert s.restarts > 0
        assert s.learned_deleted > 0
        stats = s.stats()
        assert stats["restarts"] == float(s.restarts)
        assert stats["learned_deleted"] == float(s.learned_deleted)
        assert stats["learned_kept"] >= 0.0

    def test_model_valid_after_gc(self):
        """A satisfiable instance stays correctly answered through GC."""
        rng = random.Random(1)
        nv = 50
        clauses = [
            [rng.choice([-1, 1]) * v for v in rng.sample(range(1, nv + 1), 3)]
            for _ in range(210)
        ]
        s = SatSolver(nv)
        s.learned_limit = 5
        s.restart_base = 2
        for c in clauses:
            s.add_clause(c)
        assert s.solve() is True
        assert s.restarts > 0
        assert s.learned_deleted > 0  # GC actually ran
        model = s.model()
        for c in clauses:
            assert any((l > 0) == model.get(abs(l), False) for l in c)


class TestIncrementalMiter:
    def _random_aig(self, rng, n_inputs=5, n_gates=40):
        aig = Aig("rnd")
        pool = [aig.add_input(f"i{k}") for k in range(n_inputs)]
        for _ in range(n_gates):
            a = rng.choice(pool) ^ rng.getrandbits(1)
            b = rng.choice(pool) ^ rng.getrandbits(1)
            lit = aig.mk_xor(a, b) if rng.random() < 0.4 else aig.mk_and(a, b)
            pool.append(lit)
        return aig, pool

    def test_prove_equal_differential_vs_eager_encoder(self):
        """Persistent activation-literal miters vs fresh encode-and-solve.

        Thirty queries run against ONE IncrementalMiter per AIG — proved
        biconditionals and learned clauses accumulate — and each verdict
        must match a throwaway eager Tseitin solver on the XOR miter.
        Refuting models must actually separate the pair on the AIG.
        """
        rng = random.Random(31337)
        for trial in range(12):
            aig, pool = self._random_aig(rng)
            layer = IncrementalMiter(aig)
            inputs = list(aig.inputs)
            for _ in range(30):
                la, lb = rng.choice(pool), rng.choice(pool)
                model = layer.prove_equal(la, lb)
                miter_lit = aig.mk_xor(la, lb)
                if miter_lit == 0:
                    expect_equal = True
                elif miter_lit == 1:
                    expect_equal = False
                else:
                    fresh = tseitin_solver(aig, [miter_lit])
                    expect_equal = not fresh.solve()
                assert (model is None) == expect_equal, (trial, la, lb)
                if model is not None:
                    # replay the model on the AIG: the pair must differ
                    vec = {n: int(model.get(n, False)) for n in inputs}
                    vals = aig.eval_words(vec, 1)
                    va = (vals[lit_node(la)] & 1) ^ int(lit_negated(la))
                    vb = (vals[lit_node(lb)] & 1) ^ int(lit_negated(lb))
                    assert va != vb, (trial, la, lb, vec)

    def test_complementary_literals_on_unencoded_cone(self):
        """Regression: ``prove_equal(l, ~l)`` as the FIRST query.

        The complement fast path used to project the decision variables
        onto a cone that was never Tseitin-encoded (nothing had called
        ``lit()`` yet), which raised ``KeyError`` instead of refuting —
        found by ``repro fuzz`` via a BUF->NOT gate swap whose strashed
        rebuild makes the two outputs structural complements.
        """
        aig = Aig("compl")
        x = aig.add_input("x")
        y = aig.add_input("y")
        conj = aig.mk_and(x, y)
        layer = IncrementalMiter(aig)
        model = layer.prove_equal(conj, conj ^ 1)
        assert model is not None  # complements always differ
        # the cone was encoded on demand and the model assigns all of it
        assert lit_node(conj) in model
        assert all(n in model for n in aig.inputs)
        # and the shared solver is still healthy for ordinary queries
        assert layer.prove_equal(conj, aig.mk_and(x, y)) is None

    def test_encoding_is_lazy_and_dense(self):
        aig = Aig("lazy")
        x = aig.add_input("x")
        y = aig.add_input("y")
        left = aig.mk_and(x, y)
        for k in range(100):  # a large cone the query never touches
            left = aig.mk_and(left, aig.add_input(f"pad{k}"))
        small = aig.mk_and(x, y ^ 1)
        layer = IncrementalMiter(aig)
        layer.prove_equal(aig.mk_and(x, y), small)
        # only the two tiny cones got variables, not the 100-input tower
        assert layer.vars_encoded <= 6
        assert layer.solver.num_vars < aig.num_nodes

    def test_deep_cone_lazily_encoded_at_default_recursion_limit(self):
        """A >2000-node XOR chain encodes and solves iteratively."""
        limit = sys.getrecursionlimit()
        aig = Aig("deep")
        xs = [aig.add_input(f"x{k}") for k in range(2101)]
        acc = xs[0]
        for lit in xs[1:]:
            acc = aig.mk_xor(acc, lit)
        layer = IncrementalMiter(aig)
        model = layer.prove_equal(acc, FALSE)
        assert model is not None  # some odd-parity vector exists
        assert layer.vars_encoded > 2000
        parity = 0
        for n in aig.inputs:
            parity ^= int(model.get(n, False))
        assert parity == 1
        assert sys.getrecursionlimit() == limit


class TestClassPartition:
    @staticmethod
    def _rebuild(nodes, sig, nbits):
        """The old rebuild-from-scratch phase-canonical bucketing."""
        mask = (1 << nbits) - 1
        buckets = {}
        for n in nodes:
            word = sig[n]
            phase = word & 1
            canonical = word ^ mask if phase else word
            buckets.setdefault(canonical, []).append((n, phase))
        return {frozenset(g) for g in buckets.values() if len(g) >= 2}

    def test_split_in_place_matches_rebuild(self):
        """Feeding patterns one at a time == rebucketing the full words."""
        rng = random.Random(4242)
        for trial in range(25):
            n_nodes = rng.randint(4, 60)
            nbits = rng.randint(2, 16)
            nodes = list(range(n_nodes))
            full = {n: rng.getrandbits(nbits) for n in nodes}
            # start from the 1-bit partition, then split bit by bit
            first = {n: full[n] & 1 for n in nodes}
            part = _ClassPartition.from_signatures(nodes, first, 1)
            for t in range(1, nbits):
                vals = [(full[n] >> t) & 1 for n in nodes]
                part.split(vals)
            got = {
                frozenset(g) for g in part.classes if len(g) >= 2
            }
            want = self._rebuild(nodes, full, nbits)
            assert got == want, (trial, full)

    def test_split_preserves_relative_phases(self):
        # two nodes equal up to complement stay classed with their phases
        nodes = [0, 1, 2]
        sig = {0: 0b0, 1: 0b1, 2: 0b0}
        part = _ClassPartition.from_signatures(nodes, sig, 1)
        assert part.classes == [[(0, 0), (1, 1), (2, 0)]]
        # a pattern where node2 stops tracking node0 (xor phase)
        part.split([0, 1, 1])
        assert [(0, 0), (1, 1)] in part.classes
        assert [(2, 0)] in part.classes
        assert part.classes_split == 1

    def test_no_split_on_agreeing_pattern(self):
        nodes = [0, 1]
        part = _ClassPartition.from_signatures(nodes, {0: 0, 1: 0}, 1)
        part.split([1, 1])
        assert part.classes == [[(0, 0), (1, 0)]]
        assert part.classes_split == 0
