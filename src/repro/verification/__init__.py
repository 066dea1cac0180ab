"""``repro.verification`` — post-synthesis verification baselines.

These are the techniques the paper compares HASH against (Section II and
Tables I/II):

* :mod:`repro.verification.bdd` — the ROBDD package everything else builds on;
* :mod:`repro.verification.tautology` — combinational equivalence / tautology
  checking;
* :mod:`repro.verification.model_checking` — SMV-style product-machine
  reachability (the "SMV" column);
* :mod:`repro.verification.fsm_compare` — SIS-style FSM comparison (the
  "SIS" column): the SMV traversal under its own name;
* :mod:`repro.verification.van_eijk` — signal-correspondence induction, with
  and without functional-dependency exploitation (the "Eijk"/"Eijk+"
  columns);
* :mod:`repro.verification.retiming_verify` — structural matching specialised
  to pure retiming (reference [8] of the paper);
* :mod:`repro.verification.sat` — Tseitin CNF over the shared AIG IR plus a
  CDCL-lite solver (the "sat" column);
* :mod:`repro.verification.fraig` — simulation-guided SAT sweeping on the
  shared AIG (the "fraig" column);
* :mod:`repro.verification.registry` — the declarative backend registry the
  evaluation layer dispatches through (``smv``, ``sis``, ``eijk``, ``eijk+``,
  ``match``, ``taut``, ``taut-rw``, ``sat``, ``fraig``, ``hash``).
"""

from .bdd import FALSE, TRUE, BddBudgetExceeded, BddError, BddManager, build_from_table
from .common import (
    Budget,
    ProductFSM,
    SymbolicFSM,
    TimeoutBudgetExceeded,
    VerificationError,
    VerificationResult,
    compile_fsm,
    product_fsm,
)
from .registry import (
    Checker,
    available_checkers,
    get_checker,
    register_checker,
    run_checker,
    unregister_checker,
)
from . import (
    fraig,
    fsm_compare,
    model_checking,
    registry,
    retiming_verify,
    sat,
    tautology,
    van_eijk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
