"""Ablation A — RT-level vs gate-level formal retiming.

Section V: "we chose to perform the retiming on an RT-level representation
[...] operating at the RT-level reduces the complexity of steps 1-3.  However
the complexity of the initial state evaluation step (step 4) is not
affected."  The benchmark runs the formal step on the same circuit at both
levels and asserts that the term-manipulation steps (1-3) are cheaper at RT
level while both runs succeed.

Each benchmark also records its kernel-inference count as
``extra_info["kernel_steps"]``; ``benchmarks/compare_baseline.py`` compares
those counts against the committed ``BENCH_baseline.json`` in CI.
"""

import os


from repro.circuits.bitblast import bitblast
from repro.circuits.generators import figure2
from repro.eval.ablations import render_rtl_vs_gate, run_rtl_vs_gate
from repro.formal import formal_forward_retiming
from repro.retiming.cuts import maximal_forward_cut

WIDTH = 8

#: kernel inferences of the gate-level run under the PR-1 ``TOP_DEPTH_CONV``
#: engine; the worklist rewrite engine must stay at least 10x below this
PR1_GATE_LEVEL_STEPS = 1_336_994


def test_ablation_rtl_level(benchmark):
    circuit = figure2(WIDTH)
    cut = maximal_forward_cut(circuit)
    result = benchmark.pedantic(
        lambda: formal_forward_retiming(circuit, cut),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["kernel_steps"] = int(result.stats["kernel_steps"])
    assert result.theorem.is_equation()


def test_ablation_gate_level(benchmark):
    circuit = bitblast(figure2(WIDTH)).netlist
    cut = maximal_forward_cut(circuit)
    result = benchmark.pedantic(
        lambda: formal_forward_retiming(circuit, cut),
        rounds=1, iterations=1,
    )
    steps = int(result.stats["kernel_steps"])
    benchmark.extra_info["kernel_steps"] = steps
    benchmark.extra_info["gate_cells"] = circuit.num_gates()
    assert result.theorem.is_equation()
    # the worklist engine only revisits changed subterms: >= 10x below the
    # whole-term-resweep engine of PR 1 on the 88-gate circuit
    assert steps * 10 <= PR1_GATE_LEVEL_STEPS
    # pattern emission shrinks the gate-level circuit (182 raw cells ->
    # <=100) and the formal proof with it
    assert circuit.num_gates() <= 100
    assert steps <= 1800


def test_ablation_rtl_vs_gate_shape(benchmark, results_dir):
    results = benchmark.pedantic(lambda: run_rtl_vs_gate(WIDTH), rounds=1, iterations=1)
    with open(os.path.join(results_dir, "ablation_rtl_vs_gate.txt"), "w") as fh:
        fh.write(render_rtl_vs_gate(results) + "\n")

    by_level = {r.level: r for r in results}
    assert set(by_level) == {"rtl", "gate"}
    rtl = by_level["rtl"].stats
    gate = by_level["gate"].stats
    rtl_steps_123 = rtl["split_seconds"] + rtl["apply_theorem_seconds"] + rtl["join_seconds"]
    gate_steps_123 = gate["split_seconds"] + gate["apply_theorem_seconds"] + gate["join_seconds"]
    # steps 1-3 are cheaper on the RT-level description
    assert rtl_steps_123 < gate_steps_123
    # the gate-level description is much larger
    assert by_level["gate"].gates > by_level["rtl"].gates
