"""HASH — composing formal synthesis steps.

Section III.A of the paper: every synthesis step maps a circuit description
to a *theorem* relating the old and the new description, and compound
synthesis programs are obtained by chaining those theorems with the
transitivity rule, whose cost is constant ("pointers — no copying"), so "the
overall complexity of the compound synthesis step is the sum of its two
parts".

This module provides the step abstraction and a few ready-made steps:

* :func:`retiming_step` — the formal forward retiming of
  :mod:`repro.formal.formal_retiming`;
* :func:`tidy_step` — a description clean-up (a stand-in for the "logic
  minimisation" second step in the paper's retiming+minimisation example):
  single-use ``let`` bindings are inlined and pair projections reduced,
  entirely through kernel conversions;
* :func:`bridge_to_netlist_step` — proves that a description term equals the
  canonical embedding of a given netlist (used to hand a formally produced
  description back to netlist-based tools and to chain further steps on it);
* :func:`compose` — the transitivity chain.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..circuits.netlist import Netlist
from ..logic import conv, rewriter
from ..logic.conv import ConvError
from ..logic.kernel import KernelError, Theorem
from ..logic.rules import RuleError, equal_by_normalisation, trans_chain
from ..logic.stdlib import is_let
from ..logic.terms import Term, Var, iter_subterms
from ..retiming.apply import apply_forward_retiming
from .embed import embed_netlist
from .formal_retiming import (
    FormalRetimingResult,
    FormalSynthesisError,
    analyse_cut,
    formal_forward_retiming,
)


@dataclass
class FormalStep:
    """One formal synthesis step: a theorem ``|- before = after`` plus metadata."""

    name: str
    theorem: Theorem
    seconds: float
    detail: str = ""
    artifacts: Dict[str, object] = field(default_factory=dict)

    @property
    def before(self) -> Term:
        return self.theorem.lhs

    @property
    def after(self) -> Term:
        return self.theorem.rhs


def compose(steps: Sequence[FormalStep], name: str = "compound") -> FormalStep:
    """Chain steps with transitivity into a single correctness theorem.

    The chain fails (raises) if consecutive steps do not fit together — the
    kernel checks that the descriptions match, so a broken flow cannot
    silently produce a theorem about the wrong circuits.
    """
    if not steps:
        raise FormalSynthesisError("compose: no steps to compose")
    t0 = time.perf_counter()
    try:
        theorem = trans_chain([s.theorem for s in steps])
    except (RuleError, KernelError) as exc:
        raise FormalSynthesisError(f"compose: steps do not chain: {exc}") from exc
    return FormalStep(
        name=name,
        theorem=theorem,
        seconds=time.perf_counter() - t0 + sum(s.seconds for s in steps),
        detail=" ; ".join(s.name for s in steps),
    )


# ---------------------------------------------------------------------------
# Ready-made steps
# ---------------------------------------------------------------------------

def retiming_step(netlist: Netlist, cut: Sequence[str]) -> FormalStep:
    """Formal forward retiming as a composable step."""
    t0 = time.perf_counter()
    result = formal_forward_retiming(netlist, cut)
    return FormalStep(
        name=f"retiming[{','.join(result.cut)}]",
        theorem=result.theorem,
        seconds=time.perf_counter() - t0,
        detail=f"new initial state {result.new_init_value!r}",
        artifacts={"result": result},
    )


def _tidy_round(t: Term) -> Theorem:
    """Reduce beta redexes and pair projections, and unfold each ``let``
    whose variable occurs at most once in ``t``: one count over the whole
    term, before the round.  The embedding binds each net once, so that is
    the variable's uses in its body, and no rewrite of the round raises it.
    """
    uses = Counter(sub for sub in iter_subterms(t) if isinstance(sub, Var))

    def single_use_let(tm: Term) -> Theorem:
        if not is_let(tm) or uses[tm.rator.rand.bvar] > 1:
            raise ConvError("not a let used at most once")
        return conv.LET_CONV(tm)

    return rewriter.net_conv(
        rewriter.beta_pair_net().add_conv(single_use_let, "LET", 2)
    )(t)


def tidy_step(description: Term, name: str = "tidy") -> FormalStep:
    """Clean up a circuit description through kernel conversions.

    Inlines single-use ``let`` bindings and reduces pair projections and beta
    redexes.  This plays the role of the follow-up "logic minimisation" step
    in the paper's compound-step discussion: a second, independent formal
    step whose theorem is chained onto the retiming theorem by transitivity.

    Rounds of :func:`_tidy_round`, each linear in the description, repeat
    until one changes nothing: a round's reductions can drop a use of a
    ``let`` it counted twice, which the next round then unfolds.
    """
    t0 = time.perf_counter()
    try:
        rounds = [_tidy_round(description)]
        while rounds[-1].rhs is not rounds[-1].lhs:
            rounds.append(_tidy_round(rounds[-1].rhs))
        theorem = trans_chain(rounds)
    except (ConvError, KernelError, RuleError) as exc:
        raise FormalSynthesisError(f"tidy step failed: {exc}") from exc
    return FormalStep(
        name=name,
        theorem=theorem,
        seconds=time.perf_counter() - t0,
        detail=f"term size {description.size()} -> {theorem.rhs.size()}",
    )


def bridge_to_netlist_step(
    description: Term,
    netlist: Netlist,
    max_term_size: int = 200_000,
    name: str = "bridge",
    register_order: Optional[Sequence[str]] = None,
) -> FormalStep:
    """Prove that a description term equals the canonical embedding of a netlist.

    Both sides are fully normalised (beta, ``let`` unfolding, projections);
    the equation is accepted only if the normal forms coincide.  Because full
    normalisation duplicates shared logic, the step enforces a term-size
    guard and is meant for moderate-sized circuits (examples, tests, compound
    flows) rather than for the Table-II giants.
    """
    t0 = time.perf_counter()
    embedded = embed_netlist(netlist, register_order=register_order)
    if description.size() > max_term_size or embedded.term.size() > max_term_size:
        raise FormalSynthesisError(
            "bridge step: description too large for full normalisation "
            f"(size {description.size()} / {embedded.term.size()})"
        )
    normalise = conv.BETA_NORM_CONV
    try:
        lhs_norm = normalise(description)
        rhs_norm = normalise(embedded.term)
        theorem = equal_by_normalisation(lhs_norm, rhs_norm)
    except (ConvError, RuleError, KernelError) as exc:
        raise FormalSynthesisError(
            f"bridge step: the description does not match the netlist embedding: {exc}"
        ) from exc
    return FormalStep(
        name=name,
        theorem=theorem,
        seconds=time.perf_counter() - t0,
        detail=f"matched against netlist {netlist.name}",
        artifacts={"embedded": embedded},
    )


def retimed_register_order(result: FormalRetimingResult, retimed: Netlist) -> List[str]:
    """The register order under which the embedding of ``retimed``, the
    conventional engine's output on the formal step's cut, matches the
    formal step's output description.

    The formal step's new state is laid out as ``τ`` (:func:`analyse_cut`):
    a cut cell's component is the register driving the cell's output net in
    ``retimed``, a passed-through register's component is that register.
    """
    analysis = analyse_cut(result.original.netlist, result.cut, result.original)
    driver = {reg.output: name for name, reg in retimed.registers.items()}
    register_of = {comp: driver.get(net) for net, comp in analysis.cut_component.items()}
    register_of.update({comp: name for name, comp in analysis.reg_component.items()})
    order = [register_of[comp] for comp in analysis.tau_layout.names]
    if None in order or sorted(order) != sorted(retimed.registers):
        raise FormalSynthesisError(f"the registers of {retimed.name} do not "
                                   "correspond to the formal step's new state")
    return order


def bridge_retiming_result(result: FormalRetimingResult,
                           name: str = "bridge") -> FormalStep:
    """Bridge a formal retiming result to the conventional engine's output
    on the same cut (:func:`repro.retiming.apply.apply_forward_retiming`)."""
    retimed = apply_forward_retiming(result.original.netlist, result.cut)
    return bridge_to_netlist_step(
        result.retimed_term,
        retimed,
        name=name,
        register_order=retimed_register_order(result, retimed),
    )


def compound_retiming_flow(
    netlist: Netlist,
    cuts: Sequence[Sequence[str]],
) -> FormalStep:
    """A multi-step formal synthesis flow: retime along each cut in turn.

    After each retiming but the last, a bridge step links the formal output
    description to the conventionally retimed netlist, so the next retiming
    can start from a netlist again; all theorems are finally chained by
    transitivity into a single correctness theorem for the whole flow.
    """
    if not cuts:
        raise FormalSynthesisError("compound_retiming_flow: no cuts given")
    steps: List[FormalStep] = []
    current = netlist
    for index, cut in enumerate(cuts):
        step = retiming_step(current, cut)
        steps.append(step)
        if index < len(cuts) - 1:
            bridge = bridge_retiming_result(step.artifacts["result"], name=f"bridge[{index}]")
            steps.append(bridge)
            # the bridge embedded the conventionally retimed netlist
            current = bridge.artifacts["embedded"].netlist
    return compose(steps, name=f"flow[{len(cuts)} retimings]")
