"""Van Eijk-style sequential equivalence checking by signal correspondence.

The columns "Eijk" and "Eijk+" of Table II refer to van Eijk's equivalence
checker: instead of traversing the reachable state space, it computes a set
of *corresponding signals* — nets of the two circuits that carry the same
value at every time point — by a simulation-guided induction:

1. candidate pairs are harvested from random simulation signatures,
2. candidates that do not hold at time 0 (for all inputs) are dropped,
3. inductive step: assuming all remaining candidate equalities at time ``t``
   (as constraints over the current-state variables), each candidate
   equality must also hold at time ``t+1`` (obtained by substituting the
   next-state functions); candidates that fail are dropped and the step is
   repeated until the set is inductively closed,
4. the circuits are equivalent if every pair of corresponding primary
   outputs survives; otherwise the check is inconclusive (``error``) —
   the induction yields no counterexample to certify.

Retimed circuits are the ideal target: the moved register of the retimed
circuit corresponds to an internal net of the original (for Figure 2, the
new register corresponds to the incrementer output), and exactly such
cross-pairs are found in step 1.  The method avoids the reachability
fixpoint, which is why it scales further than SIS/SMV in Table II — but its
BDDs still live at the bit level, so it too blows up on the wide
multipliers.

The "+" variant (``exploit_dependencies=True``) additionally exploits
*functional dependencies* between registers before the induction: registers
of the same machine whose next-state functions and initial values coincide
are merged into one BDD variable (a sound special case of van Eijk's
dependency elimination), shrinking the support of all BDDs involved.  This
is the difference between the Eijk and Eijk+ columns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..circuits.netlist import Netlist
from ..circuits.simulate import bit_parallel_signatures
from .bdd import FALSE, TRUE
from .common import EngineRun, VerificationResult, product_fsm, run_engine


def _simulation_signatures(
    netlist: Netlist, cycles: int, seed: int
) -> Dict[str, Tuple[int, int]]:
    """Per-net ``(canonical_word, phase)`` signatures from a seeded simulation.

    Word-parallel over the shared AIG IR: all ``cycles`` random cycles are
    packed into one Python int per net (bit ``t`` = value in cycle ``t``) by
    :func:`repro.circuits.simulate.bit_parallel_signatures`.  The bucketing
    key tracks **phase explicitly**: the AIG maps a net and its complement
    onto one node reached through an inverted edge, so bucketing by the
    node's canonical (phase-normalised) word alone — the natural porting
    mistake — would put complement-equivalent nets, and the constant-0 and
    constant-1 nets, into one candidate class.  The key here is the pair
    ``(canonical_word, phase)``: complements share the canonical component
    but differ in phase, and two nets get the same key iff their per-cycle
    value streams coincide, so the candidate classes are exactly the
    value-stream classes of the naive per-cycle loop.
    """
    words = bit_parallel_signatures(netlist, cycles, seed=seed)
    mask = (1 << cycles) - 1 if cycles else 0
    out: Dict[str, Tuple[int, int]] = {}
    for net, word in words.items():
        phase = word & 1
        out[net] = ((word ^ mask) if phase else word, phase)
    return out


def check_equivalence(
    original: Netlist,
    retimed: Netlist,
    exploit_dependencies: bool = False,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
    simulation_cycles: int = 48,
    seed: int = 0,
) -> VerificationResult:
    """Van Eijk signal-correspondence equivalence check.

    ``exploit_dependencies=False`` reproduces the "Eijk" column,
    ``exploit_dependencies=True`` the "Eijk+" column.  Bit-blasting
    counters join ``stats``.

    The method is incomplete: when the induction closes without the output
    pairs corresponding, the result is ``error`` (inconclusive), never an
    unwitnessed ``not_equivalent``.
    """

    def body(run: EngineRun) -> VerificationResult:
        gate_a = run.gate_level(original)
        gate_b = run.gate_level(retimed)

        product = product_fsm(gate_a, gate_b, run.bdd_manager(node_budget))
        m = product.manager
        budget = run.budget
        left, right = product.left, product.right
        fn = {"A": dict(left.net_fns), "B": dict(right.net_fns)}
        regs = {
            "A": {r.output: r for r in gate_a.registers.values()},
            "B": {r.output: r for r in gate_b.registers.values()},
        }
        # Primed copies of the primary inputs represent the inputs of the next
        # time frame; substituting them keeps the two time frames of the
        # induction step independent.
        primed_inputs = {name: m.declare(name + "'") for name in left.inputs}
        input_shift = {name: m.var(name + "'") for name in left.inputs}
        next_state_subst = {
            "A": {f"A.{out}": fn["A"][reg.input] for out, reg in regs["A"].items()},
            "B": {f"B.{out}": fn["B"][reg.input] for out, reg in regs["B"].items()},
        }
        for side in ("A", "B"):
            next_state_subst[side].update(input_shift)

        # ------------------------------------------------------------------
        # Eijk+ : merge functionally dependent (identical) registers per machine
        # ------------------------------------------------------------------
        merged_vars = 0
        if exploit_dependencies:
            for side in ("A", "B"):
                active = dict(regs[side])
                changed = True
                while changed:
                    changed = False
                    canonical: Dict[Tuple[int, bool], str] = {}
                    subst: Dict[str, int] = {}
                    merged_outs: List[str] = []
                    for out, reg in active.items():
                        key = (fn[side][reg.input], bool(reg.init))
                        var_name = f"{side}.{out}"
                        if key in canonical and canonical[key] != var_name:
                            subst[var_name] = m.var(canonical[key])
                            merged_outs.append(out)
                        else:
                            canonical[key] = var_name
                    if subst:
                        merged_vars += len(subst)
                        changed = True
                        for out in merged_outs:
                            del active[out]
                        for net in fn[side]:
                            fn[side][net] = m.compose(fn[side][net], subst)
                        next_state_subst[side] = {
                            f"{side}.{out}": fn[side][reg.input]
                            for out, reg in regs[side].items()
                        }
                        next_state_subst[side].update(input_shift)
        budget.check()

        # ------------------------------------------------------------------
        # 1. candidate equivalence classes from random simulation signatures
        # ------------------------------------------------------------------
        sig_a = _simulation_signatures(gate_a, simulation_cycles, seed)
        sig_b = _simulation_signatures(gate_b, simulation_cycles, seed)
        budget.check()

        # A "node" is (side, net).  Nodes with the same simulation signature
        # (canonical word *and* phase) start out in the same candidate class.
        buckets: Dict[Tuple[int, int], List[Tuple[str, str]]] = {}
        for net, sig in sig_a.items():
            buckets.setdefault(sig, []).append(("A", net))
        for net, sig in sig_b.items():
            buckets.setdefault(sig, []).append(("B", net))
        classes: List[List[Tuple[str, str]]] = [
            sorted(group) for group in buckets.values() if len(group) >= 2
        ]

        output_pairs = [(("A", o), ("B", o)) for o in gate_a.outputs]

        # ------------------------------------------------------------------
        # 2. base case: split classes by their value at time 0 (all inputs)
        # ------------------------------------------------------------------
        init_subst = {
            f"A.{out}": (TRUE if reg.init else FALSE) for out, reg in regs["A"].items()
        }
        init_subst.update({
            f"B.{out}": (TRUE if reg.init else FALSE) for out, reg in regs["B"].items()
        })

        def node_fn(node: Tuple[str, str]) -> int:
            side, net = node
            return fn[side][net]

        def split_by(classes_in, key_fn):
            out_classes = []
            for group in classes_in:
                budget.check()
                by_key: Dict[int, List[Tuple[str, str]]] = {}
                for node in group:
                    by_key.setdefault(key_fn(node), []).append(node)
                for sub in by_key.values():
                    if len(sub) >= 2:
                        out_classes.append(sub)
            return out_classes

        classes = split_by(classes, lambda node: m.compose(node_fn(node), init_subst))

        # ------------------------------------------------------------------
        # 3. induction: refine classes until they are inductively closed
        # ------------------------------------------------------------------
        next_cache: Dict[Tuple[str, str], int] = {}

        def next_bdd(node: Tuple[str, str]) -> int:
            if node not in next_cache:
                side, net = node
                next_cache[node] = m.compose(fn[side][net], next_state_subst[side])
            return next_cache[node]

        while True:
            budget.check()
            run.iterations += 1
            # Assumption: every class member equals its representative at time t.
            assume = TRUE
            for group in classes:
                rep = node_fn(group[0])
                for node in group[1:]:
                    assume = m.apply_and(assume, m.apply_xnor(rep, node_fn(node)))
            # Conclusion: the same equalities at time t+1 (fresh inputs).
            new_classes: List[List[Tuple[str, str]]] = []
            changed = False
            for group in classes:
                budget.check()
                rep_next = next_bdd(group[0])
                equal = [group[0]]
                rest = []
                for node in group[1:]:
                    differs = m.apply_xor(rep_next, next_bdd(node))
                    if m.apply_and(assume, differs) == FALSE:
                        equal.append(node)
                    else:
                        rest.append(node)
                if rest:
                    changed = True
                if len(equal) >= 2:
                    new_classes.append(equal)
                if len(rest) >= 2:
                    new_classes.append(rest)
            classes = new_classes
            if not changed:
                break

        class_of: Dict[Tuple[str, str], int] = {}
        for idx, group in enumerate(classes):
            for node in group:
                class_of[node] = idx
        proved = all(
            na in class_of and nb in class_of and class_of[na] == class_of[nb]
            for na, nb in output_pairs
        )
        detail = (
            f"{sum(len(g) for g in classes)} corresponding signals in "
            f"{len(classes)} classes after {run.iterations} refinement rounds"
        )
        if exploit_dependencies:
            detail += f", {merged_vars} dependent registers eliminated"
        run.counters = lambda: {
            "corresponding_signals": float(sum(len(g) for g in classes)),
            "classes": float(len(classes)),
            "merged_registers": float(merged_vars),
        }
        if proved:
            return run.result("equivalent", detail)
        return run.result(
            "error",
            "inconclusive: output correspondence not inductively provable "
            "(incomplete method, no counterexample); " + detail,
        )

    method = "eijk+" if exploit_dependencies else "eijk"
    return run_engine(method, time_budget, body)
