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
cache make each individual case linear in the circuit size.

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
from ..logic.hol_types import bool_ty
from ..logic.kernel import KernelError, Theorem, inference_steps
from ..logic.rules import RuleError, equal_by_normalisation
from ..logic.stdlib import ensure_stdlib
from ..logic.terms import Term, Var, mk_tuple, var_subst
from .bdd import FALSE, TRUE
from .common import (
    EngineRun,
    TimeoutBudgetExceeded,
    VerificationResult,
    _cell_bdd,
    cut_point_vars,
    cut_points_differ,
    ensure_gate_level,
    pair_cut_points,
    run_engine,
)


def _shard_prefix(var_names: List[str], shard) -> Optional[Dict[str, bool]]:
    """The fixed prefix assignment of one input-prefix range shard.

    ``shard=(k, n)`` with ``n = 2^p`` fixes the first ``p`` names of the
    sorted variable list to the bits of ``k`` — shard ``k`` checks the
    cofactor of every compared function under that prefix, so the union of
    all ``n`` shards covers the assignment space exactly once.  When the
    variable list is shorter than ``p`` bits the surplus shards are empty
    (``None`` is returned and the shard is trivially equivalent).
    """
    if shard is None:
        return {}
    index, count = shard
    if not 0 <= index < count:
        raise ValueError(f"invalid shard {shard!r}")
    if count & (count - 1):
        raise ValueError(f"shard count must be a power of two, got {count}")
    p = min((count - 1).bit_length(), len(var_names))
    if index >= (1 << p):
        return None  # more shards than prefix values: this one is empty
    return {name: bool((index >> i) & 1)
            for i, name in enumerate(var_names[:p])}


def combinational_equivalent(
    a: Netlist,
    b: Netlist,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
    shard=None,
) -> VerificationResult:
    """Combinational equivalence with registers treated as cut points.

    Both circuits must have the same primary inputs; registers are treated as
    free cut-point variables (keyed by register *name*, so this is only
    complete for circuits with the same state representation — exactly the
    restriction the paper states for tautology checking; any other pair is
    answered ``error``).  Primary outputs and next-state functions of
    same-named registers are compared.

    ``shard=(k, n)`` (``n`` a power of two) checks only the cofactor under
    the ``k``-th assignment of a ``log2(n)``-bit prefix of the sorted
    input/cut variables — see :func:`_shard_prefix`; two functions are
    equivalent iff they are equivalent in every cofactor, so the conjunction
    of all ``n`` shard verdicts equals the unsharded verdict, with each
    shard's BDDs correspondingly smaller.
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
        for name in [*sources_a.values(), *sources_b.values()]:
            manager.declare(name)

        cofactor_vars = sorted({*sources_a.values(), *sources_b.values()})
        fixed = _shard_prefix(cofactor_vars, shard)
        if fixed is None:
            return run.result(
                "equivalent",
                f"empty shard {shard[0] + 1}/{shard[1]} "
                f"(only {len(cofactor_vars)} prefix bits)",
            )

        def bdd_of(name: str) -> int:
            if name in fixed:
                return TRUE if fixed[name] else FALSE
            return manager.var(name)

        def net_functions(gate: Netlist, sources: Dict[str, str]) -> Dict[str, int]:
            values = {net: bdd_of(name) for net, name in sources.items()}
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

        shard_note = ("" if not fixed else
                      f" [shard {shard[0] + 1}/{shard[1]}: "
                      f"{len(fixed)}-bit prefix cofactor]")
        if mismatches:
            # the witness separates the *cofactors*: pin the fixed prefix
            # bits so the replayed assignment stays separating
            counterexample = {**manager.any_sat(witness), **fixed}
            return run.result("not_equivalent", "; ".join(mismatches) + shard_note,
                              counterexample)
        return run.result(
            "equivalent",
            "all outputs and next-state functions agree "
            f"({manager.num_nodes} BDD nodes)" + shard_note,
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


def _shard_assignments(names: List[str], shard):
    """Assignments whose low prefix bits spell this shard's index.

    With ``shard=(k, n)`` only the assignments extending the shard's fixed
    prefix (:func:`_shard_prefix`) are yielded, in enumeration order — a
    contiguous index-range slice of the full enumeration, so the ``n``
    shards partition the vector space exactly; ``shard=None`` yields every
    assignment.  Returns ``(generator, vectors_in_shard)``; empty surplus
    shards (more shards than prefix values) yield nothing.
    """
    fixed = _shard_prefix(names, shard)
    if fixed is None:
        return iter(()), 0
    free = names[len(fixed):]

    def generate():
        for bits in range(1 << len(free)):
            yield {**fixed,
                   **{name: bool((bits >> i) & 1) for i, name in enumerate(free)}}

    return generate(), 1 << len(free)


def _eval_under(term: Term, assignment: Dict[str, bool]) -> Theorem:
    """``|- term[assignment] = value`` via the worklist evaluation engine."""
    from ..logic.ground import mk_bool

    env = {Var(name, bool_ty): mk_bool(v) for name, v in assignment.items()}
    return conv.EVAL_CONV(var_subst(env, term))


def combinational_equivalent_by_rewriting(
    a: Netlist,
    b: Netlist,
    time_budget: Optional[float] = None,
    max_vectors: int = 4096,
    shard=None,
) -> VerificationResult:
    """Kernel-checked combinational equivalence on the rewrite engine.

    The same cut-point discipline as :func:`combinational_equivalent`
    (registers become free variables keyed by register name), but every
    comparison is performed inside the logic: for each assignment the output
    and next-state terms of both circuits are evaluated with
    ``EVAL_CONV`` and linked into theorems ``|- out_a[v] = out_b[v]``.
    Exponential in the number of input/cut bits, so bounded by
    ``max_vectors``; overruns are reported as ``timeout`` (the paper's
    dashes), not as errors.

    ``shard=(k, n)`` (``n`` a power of two) enumerates only the ``k``-th
    index-range slice of the vector space (:func:`_shard_assignments`);
    the ``max_vectors`` bound then applies per shard, which is exactly how
    sharding opens circuits the unsharded enumeration refuses.
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
        assignments, shard_vectors = _shard_assignments(var_names, shard)
        if shard_vectors > max_vectors:
            over = (f"2^{len(var_names)}" if shard is None else
                    f"this shard's {shard_vectors}")
            raise TimeoutBudgetExceeded(
                f"{over} vectors exceed the budget of {max_vectors}")

        term_a = mk_tuple([vals_a[net_a] for _, net_a, _ in compared])
        term_b = mk_tuple([vals_b[net_b] for _, _, net_b in compared])

        theorems = 0
        run.counters = lambda: {
            "vectors": float(theorems),
            "kernel_steps": float(inference_steps() - steps_before),
        }
        for assignment in assignments:
            run.budget.check()
            th_a = _eval_under(term_a, assignment)
            th_b = _eval_under(term_b, assignment)
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

        shard_note = ("" if shard is None else
                      f" [shard {shard[0] + 1}/{shard[1]}]")
        return run.result(
            "equivalent",
            f"{theorems} kernel-checked case theorems "
            f"over {len(var_names)} input/cut bits" + shard_note,
        )

    def guarded(run: EngineRun) -> VerificationResult:
        try:
            return body(run)
        except (ConvError, KernelError, ValueError) as exc:
            return run.result("error", str(exc))

    return run_engine("taut-rw", time_budget, guarded)
