"""repro — reproduction of "A Constructive Approach towards Correctness of
Synthesis — Application within Retiming" (Eisenbiegler, Kumar, Blumenröhr,
DATE 1997).

The package implements the paper's HASH formal-synthesis framework and every
substrate its evaluation depends on:

* :mod:`repro.logic`        — an LCF-style higher-order-logic kernel,
* :mod:`repro.automata`     — the Automata theory and the universal retiming theorem,
* :mod:`repro.circuits`     — netlists, simulation, bit-blasting, workload generators,
* :mod:`repro.retiming`     — conventional (Leiserson–Saxe) retiming,
* :mod:`repro.formal`       — the HASH formal retiming procedure and step composition,
* :mod:`repro.verification` — the post-synthesis verification baselines
  (tautology checking, SMV-style model checking, SIS-style FSM comparison,
  van Eijk signal correspondence, structural retiming matching),
* :mod:`repro.eval`         — regeneration of Table I, Table II and the ablations.

Quickstart::

    from repro.circuits.generators import figure2, figure2_cut
    from repro.formal import formal_forward_retiming

    result = formal_forward_retiming(figure2(8), figure2_cut())
    print(result.theorem)          # |- automaton(original) = automaton(retimed)
    print(result.new_init_value)   # the evaluated f(q)

See README.md for the full picture, and its section "What this
reproduction substitutes" for what differs from the paper.
"""

__version__ = "1.0.0"

__all__ = [
    "logic",
    "automata",
    "circuits",
    "retiming",
    "formal",
    "verification",
    "eval",
]
