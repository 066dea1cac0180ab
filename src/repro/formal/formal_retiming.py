"""The HASH formal retiming procedure (Section IV of the paper).

Given a netlist and a *cut* (the set of combinational cells forming the block
``f`` the registers are moved over), the procedure performs the four steps of
Section IV.A, every one of them as a kernel-checked derivation:

1. **Split** the combinational part into ``f`` and ``g``: the original step
   function (a flat ``let`` chain produced by :mod:`repro.formal.embed`) is
   proved equal to ``\\p. g (FST p, f (SND p))`` with concrete ``f`` and ``g``
   terms constructed from the cut.  The equation is established by
   normalising both sides with beta/``let``/projection conversions and
   linking the identical normal forms — if the cut is bad the normal forms
   differ (or ``f``/``g`` cannot even be built) and the derivation *fails*;
   no theorem is produced (Section IV.C, Figure 4).  The step's side
   unfolds the cut's ``let`` bindings without copying the chain once per
   cut value (:func:`unfold_cut_lets`): each is unfolded as ``let c = c``,
   at no substitution cost, and one ``INST`` then puts every cut value in
   at once, so the split's cost is linear in the circuit.
2. **Apply the universal retiming theorem**: the stored theorem is
   instantiated with ``f``, ``g`` and the initial state ``q`` through the
   kernel and chained on with transitivity.
3. **Join** ``f`` and ``g`` again: the right-hand side is tidied by
   beta/projection conversions into a single combinational ``let`` chain.
   ``g``'s parameter is the retimed step's own variable ``p``, so the
   join's ``g p`` reduces to ``g``'s body without a substitution.
4. **Evaluate the new initial state** ``f(q)`` with the evaluation
   conversion, yielding a ground initial-value tuple.

The result is a theorem ``|- automaton(original) = automaton(retimed)``
together with the retimed description.  It builds no netlist: of the
conventional engine it uses only the forward-cut rule, :func:`check_forward_cut`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..automata.automaton import TupleLayout
from ..automata.retiming_theorem import instantiate_retiming, retiming_theorem
from ..circuits.netlist import Netlist
from ..logic import conv, rewriter
from ..logic.conv import ConvError
from ..logic.ground import value_of_term
from ..logic.kernel import (
    ABS,
    AP_TERM,
    INST,
    KernelError,
    MK_COMB,
    REFL,
    TRANS,
    Theorem,
    inference_steps,
    proof_size,
)
from ..logic.rules import RuleError, equal_by_normalisation
from ..logic.stdlib import dest_let, is_let
from ..logic.terms import (
    Abs,
    Comb,
    Term,
    TermError,
    Var,
    mk_fst,
    mk_pair,
    mk_snd,
    term_intern_stats,
)
from ..retiming.apply import RetimingApplyError, check_forward_cut
from .embed import EmbeddedCircuit, cell_term, embed_netlist, net_type


class FormalSynthesisError(Exception):
    """Raised when a formal synthesis step cannot be derived.

    This is the behaviour the paper requires from faulty heuristics: the
    derivation raises, it never produces an incorrect theorem.
    """


@dataclass
class CutAnalysis:
    """Everything derived from a cut before any logic is built."""

    cut_cells: List[str]
    #: registers whose value g still needs directly (pass-through components)
    pass_registers: List[str]
    #: layout of the new compound register (the type ``τ`` of ``f``'s result)
    tau_layout: TupleLayout
    #: τ component name for each cut cell's output net
    cut_component: Dict[str, str]
    #: τ component name for each pass-through register
    reg_component: Dict[str, str]


@dataclass
class FormalRetimingResult:
    """Outcome of one formal forward-retiming step."""

    theorem: Theorem
    original: EmbeddedCircuit
    #: the derived output description ``automaton (step', q')``
    retimed_term: Term
    cut: List[str]
    f_term: Term
    g_term: Term
    #: the evaluated new initial state (a Python ground value)
    new_init_value: Any
    stats: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Cut analysis and construction of f / g
# ---------------------------------------------------------------------------

def analyse_cut(netlist: Netlist, cut: Sequence[str],
                embedded: EmbeddedCircuit) -> CutAnalysis:
    """Check the cut (:func:`check_forward_cut`) and derive the layout ``τ``."""
    try:
        cut = check_forward_cut(netlist, cut)
    except RetimingApplyError as exc:
        raise FormalSynthesisError(str(exc)) from exc
    if not cut:
        raise FormalSynthesisError("the cut is empty; nothing to retime over")

    cut_set = set(cut)
    # registers that g still needs: read by a non-cut cell, by a register, or
    # exported as a primary output
    needed = set(netlist.outputs)
    needed.update(r.input for r in netlist.registers.values())
    for cell in netlist.cells.values():
        if cell.name not in cut_set:
            needed.update(cell.inputs)
    pass_registers = [
        reg_name for reg_name in embedded.register_order
        if netlist.registers[reg_name].output in needed
    ]

    names: List[str] = []
    types = []
    cut_component: Dict[str, str] = {}
    reg_component: Dict[str, str] = {}
    for cell_name in cut:
        cell = netlist.cells[cell_name]
        comp = f"cut::{cell.output}"
        names.append(comp)
        types.append(net_type(netlist.width(cell.output)))
        cut_component[cell.output] = comp
    for reg_name in pass_registers:
        comp = f"reg::{reg_name}"
        names.append(comp)
        types.append(net_type(netlist.registers[reg_name].width))
        reg_component[reg_name] = comp

    tau_layout = TupleLayout(names, types)
    return CutAnalysis(
        cut_cells=cut,
        pass_registers=pass_registers,
        tau_layout=tau_layout,
        cut_component=cut_component,
        reg_component=reg_component,
    )


def build_f_term(netlist: Netlist, embedded: EmbeddedCircuit,
                 analysis: CutAnalysis, var_name: str = "s") -> Term:
    """``f : σ -> τ`` — the block the registers are moved over."""
    s = Var(var_name, embedded.state_layout.type())
    regs = embedded.state_layout.projections(s)
    reg_by_output = {r.output: name for name, r in netlist.registers.items()}
    components: List[Term] = []
    for cell_name in analysis.cut_cells:
        cell = netlist.cells[cell_name]
        in_terms = [regs[reg_by_output[i]] for i in cell.inputs]
        components.append(cell_term(netlist, cell, in_terms))
    for reg_name in analysis.pass_registers:
        components.append(regs[reg_name])
    return Abs(s, analysis.tau_layout.mk_value(components))


def build_g_term(netlist: Netlist, embedded: EmbeddedCircuit,
                 analysis: CutAnalysis, var_name: str = "p") -> Term:
    """``g : (ι # τ) -> (ω # σ)`` — the remaining combinational part.

    Its parameter is named ``p``, so at type ``ι # τ`` it is the retimed
    step's own variable in the instantiated retiming theorem: the join's
    ``g p`` is then a beta redex applied to its bound variable, which
    reduces to ``g``'s body without copying it.
    """
    from ..logic.hol_types import mk_prod_ty
    from ..logic.stdlib import mk_let

    p = Var(var_name, mk_prod_ty(embedded.input_layout.type(),
                                 analysis.tau_layout.type()))
    tau = analysis.tau_layout.projections(mk_snd(p))
    available: Dict[str, Term] = embedded.input_layout.projections(mk_fst(p))
    for reg_name, comp in analysis.reg_component.items():
        available[netlist.registers[reg_name].output] = tau[comp]
    for net, comp in analysis.cut_component.items():
        available[net] = tau[comp]

    cut_set = set(analysis.cut_cells)
    bindings: List[Tuple[Var, Term]] = []
    for cell in netlist.topological_cells():
        if cell.name in cut_set:
            continue
        try:
            in_terms = [available[i] for i in cell.inputs]
        except KeyError as exc:
            raise FormalSynthesisError(
                f"cell {cell.name} reads net {exc.args[0]!r} which is neither an "
                "input, a passed-through register nor a cut output — the cut does "
                "not induce a well-formed split"
            ) from None
        term = cell_term(netlist, cell, in_terms)
        if cell.type in ("BUF", "CONST"):
            available[cell.output] = term
            continue
        var = Var(cell.output, net_type(netlist.width(cell.output)))
        bindings.append((var, term))
        available[cell.output] = var

    try:
        out_tuple = embedded.output_layout.mk_value(
            [available[o] for o in netlist.outputs]
        )
        next_tuple = embedded.state_layout.mk_value(
            [available[netlist.registers[r].input] for r in embedded.register_order]
        )
    except KeyError as exc:
        raise FormalSynthesisError(
            f"signal {exc.args[0]!r} needed for an output or a next-state value is "
            "not computable by g under this cut"
        ) from None
    body: Term = mk_pair(out_tuple, next_tuple)
    for var, term in reversed(bindings):
        body = mk_let(var, term, body)
    return Abs(p, body)


# ---------------------------------------------------------------------------
# Conversions used by the split / join steps
# ---------------------------------------------------------------------------

def unfold_named_lets_conv(names: Sequence[str]):
    """A conversion unfolding exactly the ``let`` bindings of the given variables.

    Runs on the worklist engine with the targeted conversion indexed under
    the ``LET`` head symbol, so non-``let`` nodes never attempt a match and
    unchanged subtrees cost no inferences.
    """
    name_set = set(names)

    def single(t: Term) -> Theorem:
        if is_let(t):
            var, _value, _body = dest_let(t)
            if var.name in name_set:
                return conv.LET_CONV(t)
        raise ConvError("not a targeted let binding")

    return rewriter.net_conv(rewriter.RewriteNet().add_conv(single, "LET", 2))


def unfold_cut_lets(step: Term, names: Sequence[str]) -> Theorem:
    """``|- step = step'``: the step's ``let`` bindings of ``names`` unfolded.

    Proves what ``unfold_named_lets_conv(names)(step)`` proves, without
    copying the chain once per unfolded ``let``.  Each targeted binding
    ``let c = v in ...`` is first rebuilt as ``let c = c in ...``, whose
    unfolding is a beta redex applied to its own bound variable and costs
    no substitution.  One ``INST`` then puts every value ``v`` in at once,
    turning the rebuilt chain back into the step's own body, and ``ABS``
    closes over the step's variable.  This needs values that read no
    ``let``-bound net, or the chain's binders would capture them; cut cells
    read only register outputs, so their one free variable is the step's
    own, and a value that does read one raises :class:`ConvError`.
    """
    name_set = set(names)
    chain: List[Term] = []
    tm = step.body
    while is_let(tm):
        chain.append(tm)
        tm = tm.rator.rand.body
    values: Dict[Var, Term] = {}
    for node in reversed(chain):
        var, value, rest = dest_let(node)
        if var.name in name_set:
            values[var] = value
            value = var
        elif tm is rest:
            tm = node
            continue
        tm = Comb(Comb(node.rator.rator, Abs(var, tm)), value)
    if not values:  # only inlined cells (BUF) are cut: nothing to unfold
        return REFL(step)
    th = INST(values, unfold_named_lets_conv(names)(tm))
    if th.lhs is not step.body:
        raise ConvError("unfold_cut_lets: a value reads a let-bound net")
    return ABS(step.bvar, th)


#: beta + pair-projection normalisation that leaves ``LET`` bindings intact
#: (head-indexed worklist engine: only changed spines emit congruence steps)
reduce_split_conv = rewriter.net_conv(
    rewriter.RewriteNet()
    .add_beta(conv.BETA_CONV)
    .add_conv(conv.FST_CONV, "FST", 1)
    .add_conv(conv.SND_CONV, "SND", 1)
)


# ---------------------------------------------------------------------------
# The four-step procedure
# ---------------------------------------------------------------------------

def _congruence_on_automaton(embedded: EmbeddedCircuit, step_eq: Theorem) -> Theorem:
    """From ``|- step = step'`` derive ``|- automaton(step, q) = automaton(step', q)``."""
    automaton_const = embedded.term.rator
    pair_term = embedded.term.rand
    comma_const = pair_term.rator.rator
    pair_eq = MK_COMB(MK_COMB(REFL(comma_const), step_eq), REFL(embedded.init))
    return AP_TERM(automaton_const, pair_eq)


def formal_forward_retiming(netlist: Netlist, cut: Sequence[str]) -> FormalRetimingResult:
    """Run the full four-step HASH retiming procedure on a netlist and a cut.

    Raises :class:`FormalSynthesisError` (and never returns a theorem) when
    the cut cannot be realised — the faulty-heuristic behaviour of
    Section IV.C.
    """
    retiming_theorem()  # one-time theory setup is not this derivation's work
    stats: Dict[str, float] = {}
    steps_before = inference_steps()
    interning_before = term_intern_stats()
    t_total = time.perf_counter()

    # Step 0: the input circuit description (a logic term).
    t0 = time.perf_counter()
    embedded = embed_netlist(netlist)
    stats["embed_seconds"] = time.perf_counter() - t0

    # Step 1: split the combinational part into f and g.
    t1 = time.perf_counter()
    analysis = analyse_cut(netlist, cut, embedded)
    f_term = build_f_term(netlist, embedded, analysis)
    g_term = build_g_term(netlist, embedded, analysis)

    p = Var("p", embedded.step.bvar.ty)
    split_term = Abs(
        p, Comb(g_term, mk_pair(mk_fst(p), Comb(f_term, mk_snd(p))))
    )
    cut_nets = [netlist.cells[c].output for c in analysis.cut_cells]
    try:
        lhs_norm = unfold_cut_lets(embedded.step, cut_nets)
        rhs_norm = reduce_split_conv(split_term)
        step_eq = equal_by_normalisation(lhs_norm, rhs_norm)
    except (RuleError, ConvError, KernelError, TermError) as exc:
        raise FormalSynthesisError(
            f"splitting the combinational part failed for cut {list(cut)!r}: {exc}"
        ) from exc
    th_split = _congruence_on_automaton(embedded, step_eq)
    stats["split_seconds"] = time.perf_counter() - t1

    # Step 2: apply the universal retiming theorem.
    t2 = time.perf_counter()
    try:
        th_retime = instantiate_retiming(f_term, g_term, embedded.init)
        theorem = TRANS(th_split, th_retime)
    except (KernelError, TypeError, TermError) as exc:
        raise FormalSynthesisError(
            f"instantiating the retiming theorem failed: {exc}"
        ) from exc
    stats["apply_theorem_seconds"] = time.perf_counter() - t2

    # Step 3: join f and g into a single combinational part.
    t3 = time.perf_counter()
    join_conv = conv.RAND_CONV(conv.RATOR_CONV(conv.RAND_CONV(reduce_split_conv)))
    try:
        theorem = conv.RHS_CONV_RULE(join_conv, theorem)
    except (ConvError, KernelError) as exc:
        raise FormalSynthesisError(f"joining the combinational part failed: {exc}") from exc
    stats["join_seconds"] = time.perf_counter() - t3

    # Step 4: evaluate the new initial state f(q).
    t4 = time.perf_counter()
    init_conv = conv.RAND_CONV(conv.RAND_CONV(conv.EVAL_CONV))
    try:
        theorem = conv.RHS_CONV_RULE(init_conv, theorem)
    except (ConvError, KernelError) as exc:
        raise FormalSynthesisError(
            f"evaluating the retimed initial state failed: {exc}"
        ) from exc
    stats["init_eval_seconds"] = time.perf_counter() - t4

    retimed_term = theorem.rhs
    new_init_term = retimed_term.rand.rand
    try:
        new_init_value = value_of_term(new_init_term)
    except Exception:  # pragma: no cover - the init is ground by construction
        new_init_value = None

    stats["total_seconds"] = time.perf_counter() - t_total
    stats["kernel_steps"] = float(inference_steps() - steps_before)
    interning_after = term_intern_stats()
    stats["term_intern_hits"] = float(
        interning_after["hits"] - interning_before["hits"]
    )
    stats["term_intern_misses"] = float(
        interning_after["misses"] - interning_before["misses"]
    )
    stats["proof_size"] = float(proof_size(theorem))
    stats["original_term_size"] = float(embedded.term.size())
    stats["retimed_term_size"] = float(retimed_term.size())

    return FormalRetimingResult(
        theorem=theorem,
        original=embedded,
        retimed_term=retimed_term,
        cut=list(analysis.cut_cells),
        f_term=f_term,
        g_term=g_term,
        new_init_value=new_init_value,
        stats=stats,
    )
