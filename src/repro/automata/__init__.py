"""``repro.automata`` — the Automata theory: circuits as (step, init) pairs."""

from .automaton import (
    AUTOMATON,
    TupleLayout,
    automaton_const,
    automaton_generic_type,
    dest_automaton,
    ensure_automata_theory,
    mk_automaton,
)
from .retiming_theorem import (
    instantiate_retiming,
    original_pattern,
    retimed_pattern,
    retiming_theorem,
)
from .semantics import (
    EvaluationError,
    TermEvaluator,
    check_retiming_law,
    prove_retiming_law_by_induction,
    run_automaton,
)

__all__ = [name for name in dir() if not name.startswith("_")]
