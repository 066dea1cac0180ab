"""Boolean tautology checking / combinational equivalence.

Section II of the paper lists tautology checkers as the automatic technique
for *combinational* circuits ("Boolean tautology checkers can only be applied
to pure combinatorial circuits and to sequential circuits with same state
representation.  The timing complexity increases exponentially with the size
of the circuits").  This module provides that baseline:
:func:`combinational_equivalent` decides whether two combinational circuits
(or two sequential circuits with the *same* registers, compared
cut-point-wise at the register boundary) implement the same functions.

:func:`combinational_equivalent_by_rewriting` runs the same check through
the *kernel*: the circuit is embedded as a logic term and every input
assignment is evaluated with the worklist rewrite engine
(:func:`repro.logic.conv.EVAL_CONV`), so each case yields a kernel-checked
theorem instead of a trusted BDD result.  The enumeration is exponential in
the number of input/cut-point bits — exactly the limitation Section II
ascribes to tautology checking — but hash-consing plus the engine's memo
cache, shared by every case of a cell, make each case cost only the
subterms its assignment changes.

The third path is the AIG one: the ``sat``/``fraig`` backends in
:mod:`repro.verification.sat` / :mod:`repro.verification.fraig` decide the
same question on the shared structurally-hashed and-inverter graph with
Tseitin CNF and a CDCL-lite solver instead of BDDs or case enumeration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..circuits.netlist import Netlist
from ..logic import conv
from ..logic.conv import ConvError
from ..logic.ground import mk_bool
from ..logic.hol_types import bool_ty
from ..logic.kernel import KernelError, inference_steps
from ..logic.rules import RuleError, equal_by_normalisation
from ..logic.stdlib import ensure_stdlib
from ..logic.terms import Term, Var, mk_tuple, var_subst
from .common import (
    EngineRun,
    TimeoutBudgetExceeded,
    VerificationResult,
    _cell_bdd,
    cut_point_vars,
    cut_points_differ,
    declare_bit_by_bit,
    ensure_gate_level,
    pair_cut_points,
    run_engine,
)


def combinational_equivalent(
    a: Netlist,
    b: Netlist,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
) -> VerificationResult:
    """Combinational equivalence with registers treated as cut points.

    Both circuits must have the same primary inputs; registers are treated as
    free cut-point variables (keyed by register *name*, so this is only
    complete for circuits with the same state representation — exactly the
    restriction the paper states for tautology checking; any other pair is
    answered ``error``).  Primary outputs and next-state functions of
    same-named registers are compared.  The inputs and cut points are
    declared bit by bit, as in the product machine
    (:func:`~repro.verification.common.declare_bit_by_bit`).
    """

    def body(run: EngineRun) -> VerificationResult:
        gate_a = ensure_gate_level(a)
        gate_b = ensure_gate_level(b)
        manager = run.bdd_manager(node_budget)
        mismatches, compared = pair_cut_points(gate_a, gate_b)
        if mismatches:
            return cut_points_differ(run, mismatches)

        # shared input variables, then the cut points of both circuits
        sources_a, sources_b = cut_point_vars(gate_a), cut_point_vars(gate_b)
        declare_bit_by_bit(manager, [*sources_a.values(), *sources_b.values()])

        def net_functions(gate: Netlist, sources: Dict[str, str]) -> Dict[str, int]:
            values = {net: manager.var(name) for net, name in sources.items()}
            for cell in gate.topological_cells():
                run.budget.check()
                values[cell.output] = _cell_bdd(manager, cell, values)
            return values

        vals_a = net_functions(gate_a, sources_a)
        vals_b = net_functions(gate_b, sources_b)

        witness = None  # BDD separating the first pair of unequal functions
        for label, net_a, net_b in compared:
            if vals_a[net_a] != vals_b[net_b]:
                mismatches.append(label)
                if witness is None:
                    witness = manager.apply_xor(vals_a[net_a], vals_b[net_b])

        if mismatches:
            return run.result("not_equivalent", "; ".join(mismatches),
                              manager.any_sat(witness))
        return run.result(
            "equivalent",
            "all outputs and next-state functions agree "
            f"({manager.num_nodes} BDD nodes)",
        )

    return run_engine("taut", time_budget, body)


# ---------------------------------------------------------------------------
# Kernel-checked variants on the worklist rewrite engine
# ---------------------------------------------------------------------------

def _net_terms(gate: Netlist) -> Tuple[Dict[str, Term], List[str]]:
    """Logic terms for every net, over free variables for inputs/cut points.

    Source nets become free boolean variables named by
    :func:`~repro.verification.common.cut_point_vars`, as in
    :func:`combinational_equivalent`.  Cells are embedded by direct
    substitution — no ``let`` bindings — because terms are hash-consed:
    shared logic shares pointers, and the rewrite engine's memo cache
    evaluates every distinct subterm once.
    """
    from ..formal.embed import cell_term

    ensure_stdlib()
    sources = cut_point_vars(gate)
    values: Dict[str, Term] = {net: Var(name, bool_ty)
                               for net, name in sources.items()}
    var_names = list(sources.values())
    for cell in gate.topological_cells():
        values[cell.output] = cell_term(gate, cell, [values[i] for i in cell.inputs])
    return values, var_names


def combinational_equivalent_by_rewriting(
    a: Netlist,
    b: Netlist,
    time_budget: Optional[float] = None,
    max_vectors: int = 4096,
) -> VerificationResult:
    """Kernel-checked combinational equivalence on the rewrite engine.

    The same cut-point discipline as :func:`combinational_equivalent`
    (registers become free variables keyed by register name), but every
    comparison is performed inside the logic: for each assignment the output
    and next-state terms of both circuits are evaluated with
    ``EVAL_CONV``'s net and linked into theorems ``|- out_a[v] = out_b[v]``.
    Exponential in the number of input/cut bits, so bounded by
    ``max_vectors``; overruns are reported as ``timeout`` (the paper's
    dashes), not as errors.

    Vector ``i`` of the ``2^bits`` in the enumeration sets the ``j``-th
    sorted variable to bit ``j`` of ``i``.  Every vector of the cell goes
    through one :func:`~repro.logic.conv.shared_eval_conv`, so a subterm
    whose inputs two vectors assign alike is evaluated once per cell, not
    once per vector; the price is that the cell's theorems stay alive until
    it ends.
    """
    ensure_stdlib()  # one-time theory setup is not this cell's kernel work
    steps_before = inference_steps()

    def body(run: EngineRun) -> VerificationResult:
        gate_a = ensure_gate_level(a)
        gate_b = ensure_gate_level(b)
        mismatches, compared = pair_cut_points(gate_a, gate_b)
        if mismatches:
            return cut_points_differ(run, mismatches)
        vals_a, names_a = _net_terms(gate_a)
        vals_b, names_b = _net_terms(gate_b)
        var_names = sorted(set(names_a) | set(names_b))
        total = 1 << len(var_names)
        if total > max_vectors:
            raise TimeoutBudgetExceeded(
                f"2^{len(var_names)} vectors exceed the budget of {max_vectors}")

        term_a = mk_tuple([vals_a[net_a] for _, net_a, _ in compared])
        term_b = mk_tuple([vals_b[net_b] for _, _, net_b in compared])

        evaluate = conv.shared_eval_conv()
        theorems = 0
        run.counters = lambda: {
            "vectors": float(theorems),
            "kernel_steps": float(inference_steps() - steps_before),
        }
        for vector in range(total):
            run.budget.check()
            assignment = {name: bool((vector >> i) & 1)
                          for i, name in enumerate(var_names)}
            env = {Var(name, bool_ty): mk_bool(v)
                   for name, v in assignment.items()}
            th_a = evaluate(var_subst(env, term_a))
            th_b = evaluate(var_subst(env, term_b))
            try:
                equal_by_normalisation(th_a, th_b)
            except RuleError:
                return run.result(
                    "not_equivalent",
                    "outputs/next-state differ under " +
                    ",".join(f"{k}={int(v)}" for k, v in sorted(assignment.items())),
                    assignment,
                )
            theorems += 1

        return run.result(
            "equivalent",
            f"{theorems} kernel-checked case theorems "
            f"over {len(var_names)} input/cut bits",
        )

    def guarded(run: EngineRun) -> VerificationResult:
        try:
            return body(run)
        except (ConvError, KernelError, ValueError) as exc:
            return run.result("error", str(exc))

    return run_engine("taut-rw", time_budget, guarded)
