"""BDD engine micro/meso benchmarks — counter reachability, a random
retiming's relation and Eijk induction.

Each benchmark records the engine's deterministic cost counters as
``extra_info`` (``peak_nodes``, ``ite_calls``) next to the wall-clock
measurement; ``benchmarks/compare_baseline.py`` compares those counters
against the committed ``BENCH_baseline.json`` in CI, so a >10% regression in
BDD work fails the build exactly like a kernel-step regression.

The counter-reachability benchmark also pins the PR-4 acceptance criterion:
the clustered early-quantification image must keep the peak node count at
least 2x below the PR-3-era conjoin-then-quantify image on the same engine.
The random-retiming benchmark is a relation whose greedy clusters blow up
when a merge is bounded by size alone, so its counters see the growth
bound of ``model_checking.partition_relation``.
"""

from repro.circuits.generators import counter, random_sequential_circuit
from repro.eval.workloads import table1_workload
from repro.retiming.apply import apply_forward_retiming
from repro.retiming.cuts import maximal_forward_cut
from repro.verification import model_checking, van_eijk
from repro.verification.bdd import FALSE
from repro.verification.common import declare_next_state_vars, product_fsm

#: width of the counter-reachability meso benchmark (the SMV counters cell)
COUNTER_WIDTH = 10
#: Figure-2 width for the partitioned-image benchmark
FIG2_WIDTH = 6


def _naive_reachability(product, primed):
    """PR-3-era image: monolithic relation, conjoin then quantify."""
    m = product.manager
    relation = m.conjoin(
        m.apply_xnor(m.var(primed[var]), fn)
        for var, fn in product.next_fns().items()
    )
    state_vars = product.all_state_vars()
    quantify = list(product.left.inputs) + state_vars
    unprime = {primed[v]: v for v in state_vars}
    reached = product.initial_state_bdd()
    frontier = reached
    iterations = 0
    while frontier != FALSE:
        image = m.rename(m.exists(quantify, m.apply_and(frontier, relation)),
                         unprime)
        frontier = m.apply_and(image, m.apply_not(reached))
        reached = m.apply_or(reached, image)
        iterations += 1
    return reached, iterations


def _clustered_reachability(product, primed):
    relation = model_checking.build_transition_relation(product, primed)
    return model_checking.forward_reachability(product, relation, primed)[:2]


def _product(netlist):
    product = product_fsm(netlist, netlist)
    primed = declare_next_state_vars(product)
    return product, primed


def test_bdd_counter_reachability(benchmark):
    """SMV counter-reachability cell on the clustered early-quantification image."""
    def run():
        product, primed = _product(counter(COUNTER_WIDTH))
        reached, iterations = _clustered_reachability(product, primed)
        return product, reached, iterations

    product, reached, iterations = benchmark.pedantic(run, rounds=1, iterations=1)
    m = product.manager
    benchmark.extra_info["peak_nodes"] = m.num_nodes
    benchmark.extra_info["ite_calls"] = m.ite_calls
    assert iterations == (1 << COUNTER_WIDTH)
    assert m.count_sat(reached, over=product.all_state_vars()) == 1 << COUNTER_WIDTH

    # acceptance criterion: >= 2x peak-node reduction vs conjoin-then-quantify
    naive_product, naive_primed = _product(counter(COUNTER_WIDTH))
    naive_reached, naive_iters = _naive_reachability(naive_product, naive_primed)
    assert naive_iters == iterations
    assert naive_product.manager.num_nodes >= 2 * m.num_nodes, (
        f"early quantification should cut peak nodes >=2x: "
        f"{naive_product.manager.num_nodes} vs {m.num_nodes}"
    )


def test_bdd_figure2_image(benchmark):
    """Partitioned image on the Figure-2 product machine (wide relation)."""
    workload = table1_workload(FIG2_WIDTH)

    def run():
        product = product_fsm(workload.original, workload.retimed)
        primed = declare_next_state_vars(product)
        reached, iterations = _clustered_reachability(product, primed)
        return product, iterations

    product, iterations = benchmark.pedantic(run, rounds=1, iterations=1)
    m = product.manager
    benchmark.extra_info["peak_nodes"] = m.num_nodes
    benchmark.extra_info["ite_calls"] = m.ite_calls
    assert iterations == (1 << FIG2_WIDTH)


def test_bdd_random_retiming_relation(benchmark):
    """SMV on a random circuit against its maximal forward retiming: the
    size of a ``resweep`` cell, whose per-latch conjuncts blow up when
    merged."""
    original = random_sequential_circuit(seed=2, n_inputs=6, n_flipflops=8,
                                         n_gates=48)
    retimed = apply_forward_retiming(original, maximal_forward_cut(original))

    def run():
        return model_checking.check_equivalence(original, retimed)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "equivalent"
    benchmark.extra_info["peak_nodes"] = int(result.stats["peak_nodes"])
    benchmark.extra_info["ite_calls"] = int(result.stats["ite_calls"])


def test_bdd_eijk_induction(benchmark):
    """Eijk signal-correspondence induction with word-parallel signatures."""
    circuit = random_sequential_circuit(seed=1, n_inputs=4, n_flipflops=8,
                                        n_gates=40)

    def run():
        return van_eijk.check_equivalence(circuit, circuit, time_budget=60.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "equivalent"
    benchmark.extra_info["peak_nodes"] = int(result.stats["peak_nodes"])
    benchmark.extra_info["ite_calls"] = int(result.stats["ite_calls"])
