"""Tests for the AIG/SAT equivalence backend family (`sat`, `fraig`).

The acceptance criterion of the AIG refactor: the ``sat`` and ``fraig``
backends must produce verdicts identical to the BDD ``taut`` backend on
every Table I/II combinational cell, and on randomized miters.  Also
covers the CDCL-lite solver itself (differential against brute force),
deep-cone CNF at the default recursion limit, and
the structured ``decisions``/``propagations``/``conflicts``/``aig_nodes``
counters.
"""

import random
import sys

import pytest

from repro.circuits.bitblast import bitblast
from repro.circuits.generators import figure2, random_sequential_circuit
from repro.circuits.netlist import Cell, Netlist
from repro.eval.workloads import table1_workload, table2_workloads
from repro.verification import tautology
from repro.verification.fraig import check_equivalence_fraig
from repro.verification.registry import run_checker
from repro.verification.sat import SatSolver, check_equivalence_sat


class TestSolver:
    def test_trivial(self):
        s = SatSolver(2)
        s.add_clause([1])
        s.add_clause([-1, 2])
        assert s.solve()
        assert s.model() == {1: True, 2: True}

    def test_empty_clause_is_unsat(self):
        s = SatSolver(1)
        s.add_clause([])
        assert not s.solve()

    def test_contradicting_units(self):
        s = SatSolver(1)
        s.add_clause([1])
        s.add_clause([-1])
        assert not s.solve()

    def test_pigeonhole_2_into_1(self):
        # two pigeons, one hole: x1, x2, not both -> UNSAT
        s = SatSolver(2)
        s.add_clause([1])
        s.add_clause([2])
        s.add_clause([-1, -2])
        assert not s.solve()

    def test_counters_populated_on_search(self):
        # xor chain forces real decisions and conflicts
        rng = random.Random(0)
        s = SatSolver(12)
        for _ in range(40):
            clause = [rng.choice([-1, 1]) * v
                      for v in rng.sample(range(1, 13), 3)]
            s.add_clause(clause)
        s.solve()
        assert s.propagations > 0
        assert s.decisions + s.conflicts > 0

    def test_differential_vs_brute_force(self):
        rng = random.Random(42)
        for trial in range(150):
            nv = rng.randint(1, 7)
            clauses = [
                [rng.choice([-1, 1]) * rng.randint(1, nv)
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 25))
            ]
            s = SatSolver(nv)
            for c in clauses:
                s.add_clause(c)
            got = s.solve()
            want = any(
                all(any((l > 0) == bool((m >> (abs(l) - 1)) & 1) for l in c)
                    for c in clauses)
                for m in range(1 << nv)
            )
            assert got == want, (trial, clauses)
            if got:
                model = s.model()
                assert all(
                    any((l > 0) == model.get(abs(l), False) for l in c)
                    for c in clauses
                )


def _mutate(netlist: Netlist, rng: random.Random) -> Netlist:
    """Swap one AND/OR gate type — a single-gate logic bug."""
    out = netlist.copy()
    cells = [c for c in out.cells.values() if c.type in ("AND", "OR")]
    cell = cells[rng.randrange(len(cells))]
    out.cells[cell.name] = Cell(
        cell.name, "OR" if cell.type == "AND" else "AND",
        cell.inputs, cell.output, cell.params,
    )
    return out


class TestVerdictsMatchTaut:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_miters(self, seed):
        """taut / sat / fraig agree on random equivalent + mutated pairs."""
        rng = random.Random(seed)
        base = bitblast(random_sequential_circuit(3, 4, 20, seed=seed)).netlist
        rebuilt = bitblast(base, name_suffix="_strash").netlist
        pairs = [(base, rebuilt, "equivalent")]
        mutated = _mutate(base, rng)
        pairs.append((base, mutated, None))  # verdict decided by taut
        for a, b, expect in pairs:
            r_taut = tautology.combinational_equivalent(a, b)
            r_sat = check_equivalence_sat(a, b)
            r_fraig = check_equivalence_fraig(a, b)
            assert r_sat.status == r_taut.status
            assert r_fraig.status == r_taut.status
            if expect is not None:
                assert r_taut.status == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table1_cells(self, n):
        """ISSUE acceptance: identical verdicts on Table I cells."""
        w = table1_workload(n)
        for a, b in ((w.original, w.retimed), (w.original, w.original)):
            r_taut = tautology.combinational_equivalent(a, b)
            r_sat = run_checker("sat", a, b, time_budget=30.0)
            r_fraig = run_checker("fraig", a, b, time_budget=30.0)
            assert r_sat.status == r_taut.status, (n, r_taut.detail)
            assert r_fraig.status == r_taut.status, (n, r_taut.detail)

    def test_table2_cells(self):
        """ISSUE acceptance: identical verdicts on (scaled) Table II cells."""
        for w in table2_workloads(scale=0.05):
            for a, b in ((w.original, w.retimed), (w.original, w.original)):
                r_taut = tautology.combinational_equivalent(a, b)
                r_sat = run_checker("sat", a, b, time_budget=30.0)
                r_fraig = run_checker("fraig", a, b, time_budget=30.0)
                assert r_sat.status == r_taut.status, (w.name, r_taut.detail)
                assert r_fraig.status == r_taut.status, (w.name, r_taut.detail)

    def test_structurally_distinct_equivalent_pair(self):
        """Associativity-rewritten adders: equivalence needs real SAT search."""

        def adder(name: str, left: bool) -> Netlist:
            nl = Netlist(name)
            for inp in ("a", "b", "c"):
                nl.add_input(inp, 4)
            if left:
                nl.add_cell("s1", "ADD", ["a", "b"], "t")
                nl.add_cell("s2", "ADD", ["t", "c"], "y")
            else:
                nl.add_cell("s1", "ADD", ["b", "c"], "t")
                nl.add_cell("s2", "ADD", ["a", "t"], "y")
            nl.mark_output("y")
            return nl

        a, b = adder("l", True), adder("r", False)
        r_sat = check_equivalence_sat(a, b)
        r_fraig = check_equivalence_fraig(a, b)
        assert r_sat.status == r_fraig.status == "equivalent"
        assert r_sat.stats["conflicts"] > 0        # not structurally trivial
        assert r_fraig.stats["sat_calls"] > 0

    def test_counterexample_is_concrete(self):
        base = bitblast(figure2(2)).netlist
        mutated = _mutate(base, random.Random(1))
        result = check_equivalence_sat(base, mutated)
        assert result.status == "not_equivalent"
        assert result.counterexample is not None
        assert all(isinstance(v, bool) for v in result.counterexample.values())


def _cut_point_circuit(outputs=("y", "z"), extra_register=False) -> Netlist:
    """Two inputs, one register, up to two outputs; optionally a dangling
    second register, so the pair differs only structurally."""
    nl = Netlist("cp")
    nl.add_input("a", 1)
    nl.add_input("b", 1)
    nl.add_cell("g_and", "AND", ["a", "b"], "d")
    nl.add_register("r", "d", "q")
    nl.add_cell("g_xor", "XOR", ["q", "a"], "y")
    nl.add_cell("g_not", "NOT", ["b"], "z")
    if extra_register:
        nl.add_register("s", "a", "t")
    for name in outputs:
        nl.mark_output(name)
    return nl


class TestCutPointPairing:
    """taut, taut-rw, sat and fraig pair cut points through one helper."""

    METHODS = ("taut", "taut-rw", "sat", "fraig")

    def _verdicts(self, a: Netlist, b: Netlist):
        return {m: run_checker(m, a, b, time_budget=60.0) for m in self.METHODS}

    @pytest.mark.parametrize("swap", [False, True])
    def test_missing_output(self, swap):
        pair = (_cut_point_circuit(), _cut_point_circuit(outputs=("y",)))
        results = self._verdicts(*(pair[::-1] if swap else pair))
        for method, result in results.items():
            assert result.status == "not_equivalent", method
            assert result.detail == "output z present in only one circuit", method

    @pytest.mark.parametrize("swap", [False, True])
    def test_extra_register(self, swap):
        pair = (_cut_point_circuit(), _cut_point_circuit(extra_register=True))
        results = self._verdicts(*(pair[::-1] if swap else pair))
        for method, result in results.items():
            assert result.status == "not_equivalent", method
            assert result.detail == "register s present in only one circuit", method

    def test_same_structure_is_equivalent(self):
        results = self._verdicts(_cut_point_circuit(), _cut_point_circuit())
        assert {r.status for r in results.values()} == {"equivalent"}


class TestStats:
    def test_sat_stats_keys(self):
        w = table1_workload(2)
        result = run_checker("sat", w.original, w.original)
        for key in ("aig_nodes", "wall_seconds"):
            assert key in result.stats
        base = bitblast(figure2(2)).netlist
        rebuilt = bitblast(base, name_suffix="_s").netlist
        result = check_equivalence_sat(base, rebuilt)
        for key in ("aig_nodes", "decisions", "propagations", "conflicts"):
            assert key in result.stats

    def test_fraig_stats_keys(self):
        base = bitblast(figure2(2)).netlist
        mutated = _mutate(base, random.Random(5))
        result = check_equivalence_fraig(base, mutated)
        for key in ("aig_nodes", "decisions", "propagations", "conflicts",
                    "sat_calls", "merges"):
            assert key in result.stats


class TestDeepCnf:
    def test_deep_cone_at_default_recursion_limit(self):
        """>2000-node AIG cones Tseitin-encode and solve iteratively."""
        limit = sys.getrecursionlimit()
        nl = Netlist("deep")
        nl.add_input("x")
        nl.add_input("y")
        prev = "x"
        for i in range(2100):
            nl.add_cell(f"g{i}", "XOR", [prev, "y"], f"n{i}")
            prev = f"n{i}"
        nl.add_output(prev)
        # even levels collapse back to x, odd to x^y: the chain is deep but
        # the output equals a shallow circuit — a real equivalence query
        ref = Netlist("ref")
        ref.add_input("x")
        ref.add_input("y")
        ref.add_cell("b", "BUF", ["x"], prev)
        ref.add_output(prev)
        result = check_equivalence_sat(nl, ref)
        assert result.status == "equivalent"
        assert sys.getrecursionlimit() == limit
