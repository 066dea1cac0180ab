"""AIG/SAT backend benchmarks — miter solving and FRAIG sweeping.

Each benchmark records the deterministic search counters as ``extra_info``
(``aig_nodes``, ``decisions``, plus ``propagations``/``conflicts`` for
context); ``benchmarks/compare_baseline.py`` compares ``aig_nodes`` and
``decisions`` against the committed ``BENCH_baseline.json`` in CI, so a
>10% regression in AIG size or SAT search effort fails the build exactly
like a kernel-step or BDD-node regression.

The FRAIG benchmark runs the xor-carry vs majority-carry ripple-adder pair
— the textbook SAT-sweeping workload, where every internal carry of one
circuit is equivalent to its counterpart in the other — and pins that the
simulation-guided sweep actually *finds and proves* those internal
equivalences (one scoped SAT call per carry) rather than falling back to
one monolithic miter.
"""

from repro.circuits.bitblast import bitblast
from repro.circuits.netlist import Netlist
from repro.eval.workloads import table1_workload
from repro.verification.fraig import check_equivalence_fraig
from repro.verification.sat import check_equivalence_sat

#: data width of the associativity-rewritten adder miter
ADDER_WIDTH = 8
#: Figure-2 width for the strash round-trip miter
FIG2_WIDTH = 6


def _adder(name: str, left: bool) -> Netlist:
    nl = Netlist(name)
    for inp in ("a", "b", "c"):
        nl.add_input(inp, ADDER_WIDTH)
    if left:
        nl.add_cell("s1", "ADD", ["a", "b"], "t")
        nl.add_cell("s2", "ADD", ["t", "c"], "y")
    else:
        nl.add_cell("s1", "ADD", ["b", "c"], "t")
        nl.add_cell("s2", "ADD", ["a", "t"], "y")
    nl.mark_output("y")
    return nl


def test_sat_adder_associativity(benchmark):
    """Monolithic CNF miter on the associativity-rewritten adder pair."""
    a, b = _adder("addl", True), _adder("addr", False)

    def run():
        return check_equivalence_sat(a, b, time_budget=120.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "equivalent"
    benchmark.extra_info["aig_nodes"] = int(result.stats["aig_nodes"])
    benchmark.extra_info["decisions"] = int(result.stats["decisions"])
    benchmark.extra_info["conflicts"] = int(result.stats["conflicts"])
    benchmark.extra_info["propagations"] = int(result.stats["propagations"])
    benchmark.extra_info["solver_calls"] = int(result.stats["solver_calls"])
    benchmark.extra_info["restarts"] = int(result.stats["restarts"])


def _ripple_adder(name: str, majority: bool, width: int) -> Netlist:
    """A gate-level ripple adder; the carry is ``(a&b)|((a^b)&c)`` or the
    three-product majority form — structurally different, bitwise equivalent."""
    nl = Netlist(name)
    for i in range(width):
        nl.add_input(f"a{i}")
        nl.add_input(f"b{i}")
    carry = None
    for i in range(width):
        a, b = f"a{i}", f"b{i}"
        nl.add_cell(f"s1_{i}", "XOR", [a, b], f"s1{i}")
        nl.add_cell(f"ab_{i}", "AND", [a, b], f"ab{i}")
        if carry is None:
            nl.add_cell(f"sum_{i}", "BUF", [f"s1{i}"], f"s{i}")
            nl.add_cell(f"c_{i}", "BUF", [f"ab{i}"], f"c{i}")
        else:
            nl.add_cell(f"sum_{i}", "XOR", [f"s1{i}", carry], f"s{i}")
            if majority:
                nl.add_cell(f"ac_{i}", "AND", [a, carry], f"ac{i}")
                nl.add_cell(f"bc_{i}", "AND", [b, carry], f"bc{i}")
                nl.add_cell(f"o1_{i}", "OR", [f"ab{i}", f"ac{i}"], f"o1{i}")
                nl.add_cell(f"c_{i}", "OR", [f"o1{i}", f"bc{i}"], f"c{i}")
            else:
                nl.add_cell(f"sc_{i}", "AND", [f"s1{i}", carry], f"sc{i}")
                nl.add_cell(f"c_{i}", "OR", [f"ab{i}", f"sc{i}"], f"c{i}")
        carry = f"c{i}"
        nl.add_output(f"s{i}")
    nl.add_output(carry)
    return nl


def test_fraig_carry_sweep(benchmark):
    """FRAIG on xor-carry vs majority-carry adders: carries prove pairwise."""
    a = _ripple_adder("xorcarry", False, ADDER_WIDTH)
    b = _ripple_adder("majcarry", True, ADDER_WIDTH)

    def run():
        return check_equivalence_fraig(a, b, time_budget=120.0, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "equivalent"
    benchmark.extra_info["aig_nodes"] = int(result.stats["aig_nodes"])
    benchmark.extra_info["decisions"] = int(result.stats["decisions"])
    benchmark.extra_info["conflicts"] = int(result.stats["conflicts"])
    benchmark.extra_info["sat_calls"] = int(result.stats["sat_calls"])
    benchmark.extra_info["solver_calls"] = int(result.stats["solver_calls"])
    benchmark.extra_info["restarts"] = int(result.stats["restarts"])

    # acceptance shape: the sweep proves the internal carry equivalences
    # (at least one scoped merge per carry bit), not just the outputs
    assert result.stats["merges"] >= ADDER_WIDTH, (
        f"expected >= {ADDER_WIDTH} internal merges, "
        f"got {int(result.stats['merges'])}"
    )
    # the incremental-SAT rework pin: one persistent solver (shared learned
    # clauses, permanent biconditionals, miter-seeded decisions) must keep
    # the whole sweep at least 2x below the 403 decisions the
    # fresh-solver-per-miter implementation needed on this workload
    assert result.stats["decisions"] <= 201, (
        f"incremental sweep regressed: {int(result.stats['decisions'])} "
        f"decisions (pre-incremental baseline was 403; the 2x bar is 201)"
    )


def test_sat_figure2_strash_roundtrip(benchmark):
    """The strash scenario cell: gate-level Figure-2 vs its AIG rebuild.

    Structural hashing should close the miter without any search at all —
    the benchmark pins ``aig_nodes`` and the all-zero search counters.
    """
    gate = bitblast(table1_workload(FIG2_WIDTH).original).netlist
    rebuilt = bitblast(gate, name_suffix="_strash").netlist

    def run():
        return check_equivalence_sat(gate, rebuilt, time_budget=120.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "equivalent"
    benchmark.extra_info["aig_nodes"] = int(result.stats["aig_nodes"])
    benchmark.extra_info["decisions"] = int(result.stats["decisions"])
    benchmark.extra_info["solver_calls"] = int(result.stats["solver_calls"])
    assert result.stats["decisions"] == 0, "strash should close the miter"
