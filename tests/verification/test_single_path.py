"""Each decision on the path from backend to table is made once.

* one traversal: ``sis`` and ``smv`` run the same product-machine loop, so
  they agree on every verdict and every counter;
* one overrun handler: every budget-polling backend, forced over budget,
  returns a ``timeout`` that keeps its structured cost record, from its own
  entry point and through ``run_checker`` alike;
* one lowering record: every cut-point backend lowers a word-level pair
  through its run and reports the same lowering counters;
* one cut-point naming rule: an input names itself, a register output is
  ``cut.<register>``;
* the per-layer tracer of ``perfbench/`` finds every site it wraps.
"""

import importlib
import os

import pytest

from repro.circuits.generators import (
    figure2,
    fractional_multiplier,
    random_sequential_circuit,
)
from repro.eval.workloads import table1_workload, table2_workloads
from repro.retiming.apply import apply_forward_retiming
from repro.verification import (
    fraig,
    fsm_compare,
    model_checking,
    retiming_verify,
    sat,
    tautology,
    van_eijk,
)
from repro.verification.common import (
    VERDICTS,
    VerificationResult,
    cut_point_vars,
    ensure_gate_level,
)
from repro.verification.registry import available_checkers, run_checker

# ---------------------------------------------------------------------------
# One traversal
# ---------------------------------------------------------------------------

_TRAVERSAL_WORKLOADS = (
    [table1_workload(n) for n in range(1, 7)] + list(table2_workloads(scale=0.12))
)


@pytest.mark.parametrize("workload", _TRAVERSAL_WORKLOADS,
                         ids=lambda w: w.name)
def test_sis_and_smv_run_one_traversal(workload):
    results = {
        method: run_checker(method, workload.original, workload.retimed,
                            time_budget=60.0, node_budget=2_000_000)
        for method in ("sis", "smv")
    }
    sis, smv = results["sis"], results["smv"]
    assert sis.status == smv.status == "equivalent"
    for key in ("ite_calls", "peak_nodes", "iterations"):
        assert sis.stats[key] == smv.stats[key], key


@pytest.mark.parametrize("module, method", [
    (model_checking, "smv"), (fsm_compare, "sis"), (van_eijk, "eijk"),
])
def test_each_entry_point_builds_its_product_by_name(monkeypatch, module, method):
    # perfbench/tracing.py wraps product_fsm on each of these modules
    calls = []
    original = module.product_fsm

    def counting(*args, **kwargs):
        calls.append(method)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "product_fsm", counting)
    fig = figure2(2)
    result = run_checker(method, fig, apply_forward_retiming(fig, ["inc"]),
                         time_budget=60.0)
    assert result.status == "equivalent"
    assert calls == [method]


# ---------------------------------------------------------------------------
# One overrun handler
# ---------------------------------------------------------------------------

_BDD = ["cache_hits", "ite_calls", "peak_nodes"]
_SOLVER = ["conflicts", "decisions", "learned_deleted", "learned_kept",
           "propagations", "restarts", "solver_calls", "vars_encoded"]


def _sequential_pair():
    fig = figure2(6)
    return fig, apply_forward_retiming(fig, ["inc"])


def _cut_point_pair():
    nl = random_sequential_circuit(seed=0, n_inputs=4, n_flipflops=8,
                                   n_gates=60)
    return nl, nl


def _multiplier_pair():
    mul = fractional_multiplier(6)
    return mul, mul


#: (backend, pair, entry point, forcing kwargs, stats keys of the dash cell):
#: an overrun keeps whatever cost record the backend had built by then, so
#: each key set depends on where the budget bites and is pinned per forcing
_DASH_CELLS = [
    ("smv", _sequential_pair, model_checking.check_equivalence,
     {"time_budget": 0.0}, _BDD),
    ("smv", _sequential_pair, model_checking.check_equivalence,
     {"node_budget": 300}, _BDD),
    ("smv", _sequential_pair, model_checking.check_equivalence,
     {"node_budget": 10_000}, _BDD + ["iterations"]),
    ("sis", _sequential_pair, fsm_compare.check_equivalence,
     {"time_budget": 0.0}, _BDD),
    ("sis", _sequential_pair, fsm_compare.check_equivalence,
     {"node_budget": 10_000}, _BDD + ["iterations"]),
    ("eijk", _sequential_pair, van_eijk.check_equivalence,
     {"time_budget": 0.0}, _BDD),
    ("eijk", _sequential_pair, van_eijk.check_equivalence,
     {"node_budget": 10_000}, _BDD + ["iterations"]),
    ("eijk+", _sequential_pair,
     lambda a, b, **kw: van_eijk.check_equivalence(
         a, b, exploit_dependencies=True, **kw),
     {"node_budget": 10_000}, _BDD + ["iterations"]),
    ("taut", _cut_point_pair, tautology.combinational_equivalent,
     {"time_budget": 0.0}, _BDD),
    ("taut", _multiplier_pair, tautology.combinational_equivalent,
     {"node_budget": 500}, _BDD),
    ("taut-rw", _cut_point_pair,
     tautology.combinational_equivalent_by_rewriting,
     {"time_budget": 0.0}, ["kernel_steps", "vectors"]),
    ("taut-rw", _cut_point_pair,
     tautology.combinational_equivalent_by_rewriting,
     {"max_vectors": 1}, []),
    ("sat", _cut_point_pair, sat.check_equivalence_sat,
     {"time_budget": 0.0}, ["aig_nodes"]),
    ("fraig", _cut_point_pair, fraig.check_equivalence_fraig,
     {"time_budget": 0.0},
     _SOLVER + ["aig_nodes", "classes_split", "merges", "sat_calls"]),
    ("match", _sequential_pair, retiming_verify.check_equivalence,
     {"time_budget": 0.0}, []),
]


@pytest.mark.parametrize(
    "method, pair, entry, forcing, keys", _DASH_CELLS,
    ids=[f"{c[0]}-{'-'.join(f'{k}={v}' for k, v in c[3].items())}"
         for c in _DASH_CELLS],
)
def test_overrun_is_a_timeout_with_its_cost_record(method, pair, entry,
                                                   forcing, keys):
    original, retimed = pair()
    expected = sorted(keys + ["wall_seconds"])
    direct = entry(original, retimed, **forcing)
    assert direct.status == "timeout"
    assert sorted(direct.stats) == expected
    routed = run_checker(method, original, retimed, **forcing)
    assert routed.status == "timeout"
    assert sorted(routed.stats) == expected


def test_results_are_labelled_with_their_registry_name(fig2_small):
    for method in available_checkers():
        result = run_checker(method, fig2_small, fig2_small, cut=["inc"],
                             time_budget=60.0)
        assert result.status == "equivalent", method
        assert result.method == method


def test_a_verdict_outside_the_vocabulary_is_rejected():
    assert VERDICTS == ("equivalent", "not_equivalent", "timeout", "error")
    for status in ("inconclusive", "ok", "failed"):
        with pytest.raises(ValueError):
            VerificationResult(method="x", status=status, seconds=0.0)


# ---------------------------------------------------------------------------
# One cut-point naming rule
# ---------------------------------------------------------------------------

def test_cut_point_vars_name_inputs_then_registers(fig2_small):
    gate = ensure_gate_level(fig2_small)
    names = cut_point_vars(gate)
    registers = list(gate.registers.values())
    assert list(names) == list(gate.inputs) + [r.output for r in registers]
    assert all(names[net] == net for net in gate.inputs)
    assert all(names[r.output] == f"cut.{r.name}" for r in registers)


# ---------------------------------------------------------------------------
# The tracer's sites
# ---------------------------------------------------------------------------

def test_every_tracer_site_resolves(monkeypatch):
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                             "perfbench")
    monkeypatch.syspath_prepend(os.path.abspath(perfbench))
    tracing = importlib.import_module("tracing")
    for module_name, attr, _span, _layer in tracing.COMPUTE_SITES:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            (module_name, attr)
    for cls, attr, _span in tracing.PARENT_SITES:
        assert callable(getattr(cls, attr)), (cls.__name__, attr)
