"""The Automata theory: synchronous circuits as logic terms.

Following the paper (Section IV and reference [10]), a synchronous circuit is
represented "unambiguously by a pair consisting of a compound function and an
initial state.  This compound function describes the output and the
next-state behaviour.  The registers are formalized implicitly.  The constant
``automaton`` maps such pairs to functions that map time dependent input
signals to time dependent output signals."

Concretely, for input type ``ι``, state type ``σ`` and output type ``ω``:

* the step function has type ``(ι # σ) -> (ω # σ)``,
* the circuit description is the pair ``(step, q)`` of type
  ``((ι # σ) -> (ω # σ)) # σ``,
* ``automaton (step, q) : (num -> ι) -> (num -> ω)`` is the induced stream
  function.

The constant ``automaton`` is declared abstractly in the logic; its
executable meaning lives in :mod:`repro.automata.semantics`, and the only
logical fact about it that HASH needs — the universal retiming theorem — is
introduced by :mod:`repro.automata.retiming_theorem`.

:class:`TupleLayout` handles the bookkeeping of mapping named circuit signals
(inputs, state elements, outputs) onto right-nested product types, which both
the embedding (:mod:`repro.formal.embed`) and the formal retiming procedure
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.hol_types import HolType, TyVar, mk_fun_ty, mk_prod_ty, num_ty
from ..logic.kernel import current_theory
from ..logic.terms import Comb, Const, Term, mk_fst, mk_pair, mk_snd
from ..logic.theory import Theory

#: Name of the automaton constant in the theory.
AUTOMATON = "automaton"

_installed: Dict[int, Const] = {}


def automaton_generic_type() -> HolType:
    """The most general type of the ``automaton`` constant."""
    i = TyVar("i")
    s = TyVar("s")
    o = TyVar("o")
    step = mk_fun_ty(mk_prod_ty(i, s), mk_prod_ty(o, s))
    pair = mk_prod_ty(step, s)
    streams = mk_fun_ty(mk_fun_ty(num_ty, i), mk_fun_ty(num_ty, o))
    return mk_fun_ty(pair, streams)


def ensure_automata_theory(theory: Optional[Theory] = None) -> Const:
    """Declare the ``automaton`` constant in the (current) theory (idempotent)."""
    thy = theory or current_theory()
    key = id(thy)
    if key not in _installed:
        thy.new_type_operator("num", 0)
        thy.new_constant(AUTOMATON, automaton_generic_type(), origin="primitive")
        _installed[key] = Const(AUTOMATON, automaton_generic_type())
    return _installed[key]


def automaton_const(input_ty: HolType, state_ty: HolType, output_ty: HolType) -> Const:
    """The ``automaton`` constant instantiated at concrete signal types."""
    ensure_automata_theory()
    step = mk_fun_ty(mk_prod_ty(input_ty, state_ty), mk_prod_ty(output_ty, state_ty))
    pair = mk_prod_ty(step, state_ty)
    streams = mk_fun_ty(mk_fun_ty(num_ty, input_ty), mk_fun_ty(num_ty, output_ty))
    return Const(AUTOMATON, mk_fun_ty(pair, streams))


def mk_automaton(step: Term, init: Term) -> Term:
    """Build ``automaton (step, init)`` for a concrete step function and state."""
    step_ty = step.ty
    if not step_ty.is_fun() or not step_ty.domain.is_prod() or not step_ty.codomain.is_prod():
        raise ValueError(f"mk_automaton: step function has unexpected type {step_ty}")
    input_ty = step_ty.domain.fst_type
    state_ty = step_ty.domain.snd_type
    output_ty = step_ty.codomain.fst_type
    if step_ty.codomain.snd_type != state_ty:
        raise ValueError(
            "mk_automaton: step function's next-state type differs from its state type"
        )
    if init.ty != state_ty:
        raise ValueError(
            f"mk_automaton: initial state type {init.ty} does not match state type {state_ty}"
        )
    const = automaton_const(input_ty, state_ty, output_ty)
    return Comb(const, mk_pair(step, init))


def dest_automaton(t: Term) -> Tuple[Term, Term]:
    """Destruct ``automaton (step, init)`` into ``(step, init)``."""
    from ..logic.terms import dest_pair

    if not (isinstance(t, Comb) and t.rator.is_const(AUTOMATON)):
        raise ValueError(f"dest_automaton: not an automaton application: {t}")
    return dest_pair(t.rand)


@dataclass
class TupleLayout:
    """A mapping from named signals to a right-nested product type.

    ``names`` and ``types`` are parallel lists; the corresponding product
    type is right-nested (``t0 # (t1 # (... # tn))``), a single entry is the
    bare type, and projections are built with ``FST``/``SND`` chains.
    """

    names: List[str]
    types: List[HolType]

    def __post_init__(self):
        if not self.names:
            raise ValueError("TupleLayout: need at least one component")
        if len(self.names) != len(self.types):
            raise ValueError("TupleLayout: names and types must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("TupleLayout: duplicate component names")

    def __len__(self) -> int:
        return len(self.names)

    def type(self) -> HolType:
        out = self.types[-1]
        for ty in reversed(self.types[:-1]):
            out = mk_prod_ty(ty, out)
        return out

    def mk_value(self, terms: Sequence[Term]) -> Term:
        """The tuple term for the given component terms (in layout order)."""
        terms = list(terms)
        if len(terms) != len(self.names):
            raise ValueError(
                f"TupleLayout.mk_value: expected {len(self.names)} components, "
                f"got {len(terms)}"
            )
        for tm, ty, name in zip(terms, self.types, self.names):
            if tm.ty != ty:
                raise ValueError(
                    f"TupleLayout.mk_value: component {name} has type {tm.ty}, "
                    f"expected {ty}"
                )
        out = terms[-1]
        for tm in reversed(terms[:-1]):
            out = mk_pair(tm, out)
        return out

    def projections(self, base: Term) -> Dict[str, Term]:
        """Every component's projection out of ``base``, by name.

        The components share one ``SND`` chain, so this builds as many terms
        as the layout has components, not a number quadratic in it.
        """
        out: Dict[str, Term] = {}
        current = base
        for name in self.names[:-1]:
            out[name] = mk_fst(current)
            current = mk_snd(current)
        out[self.names[-1]] = current
        return out
