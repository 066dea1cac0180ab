"""Declarative registry of verification backends.

Every method the evaluation layer can run — the four post-synthesis
equivalence checkers of the paper's tables, the structural matcher, the
tautology checkers and the HASH formal step itself — is described by one
:class:`Checker` entry.  Adding a backend is a one-site change: write a
function returning a :class:`~repro.verification.common.VerificationResult`
and call :func:`register_checker` (or use it as a decorator).

The registry normalises the calling convention.  All backends are invoked
through :func:`run_checker` as ``(original, retimed)`` pairs; budget keyword
arguments are filtered against the set each backend actually honours
(``Checker.accepts``), so callers can always pass both ``time_budget`` and
``node_budget`` without tracking per-method signatures.  Synthesis-style
backends (``needs_cut=True``, currently HASH) additionally receive the
retiming ``cut`` — they re-perform the synthesis formally instead of
checking the conventional result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from ..circuits.netlist import Netlist
from . import (
    fraig,
    fsm_compare,
    model_checking,
    retiming_verify,
    sat,
    tautology,
    van_eijk,
)
from .common import (
    EngineRun,
    VerificationError,
    VerificationResult,
    certify_result,
    run_engine,
)


@dataclass(frozen=True)
class Checker:
    """Descriptor of one verification backend."""

    name: str
    fn: Callable[..., VerificationResult]
    description: str
    #: keyword arguments :func:`run_checker` passes on (the budgets, HASH's
    #: cut and taut-rw's ``max_vectors``); everything else is silently
    #: dropped.  A backend's other knobs keep their defaults here and are
    #: set only by calling its function directly.
    accepts: FrozenSet[str]
    #: synthesis-style backends consume the retiming cut instead of only
    #: comparing against the conventionally retimed circuit.
    needs_cut: bool = False
    #: treats registers as combinational cut points, so it requires the two
    #: circuits to share identical register sets (inapplicable to pairs
    #: whose state representation differs, e.g. after retiming).
    cut_points: bool = False
    #: decides every in-scope instance; incomplete backends (induction,
    #: structural matching) may legitimately return ``error`` when
    #: inconclusive, so a differential oracle must not flag that as a bug.
    complete: bool = True


_CHECKERS: Dict[str, Checker] = {}


def register_checker(
    name: str,
    fn: Optional[Callable[..., VerificationResult]] = None,
    *,
    description: str = "",
    accepts: Sequence[str] = ("time_budget",),
    needs_cut: bool = False,
    cut_points: bool = False,
    complete: bool = True,
    replace: bool = False,
):
    """Register a backend; usable directly or as a decorator.

    ``replace=True`` allows overwriting an existing entry (used by tests to
    install stubs); otherwise a duplicate name is an error.
    """

    def _register(func: Callable[..., VerificationResult]):
        if not replace and name in _CHECKERS:
            raise ValueError(f"checker {name!r} is already registered")
        _CHECKERS[name] = Checker(
            name=name,
            fn=func,
            description=description,
            accepts=frozenset(accepts),
            needs_cut=needs_cut,
            cut_points=cut_points,
            complete=complete,
        )
        return func

    if fn is not None:
        return _register(fn)
    return _register


def unregister_checker(name: str) -> None:
    _CHECKERS.pop(name, None)


def get_checker(name: str) -> Checker:
    try:
        return _CHECKERS[name]
    except KeyError:
        raise KeyError(
            f"unknown verification backend {name!r}; "
            f"known: {', '.join(available_checkers())}"
        ) from None


def available_checkers() -> List[str]:
    return sorted(_CHECKERS)


def run_checker(
    name: str,
    original: Netlist,
    retimed: Netlist,
    *,
    cut: Optional[Sequence[str]] = None,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
    **extra,
) -> VerificationResult:
    """Run one registered backend with the uniform calling convention."""
    checker = get_checker(name)
    kwargs = dict(extra)
    kwargs["time_budget"] = time_budget
    kwargs["node_budget"] = node_budget
    if checker.needs_cut:
        kwargs["cut"] = cut
    kwargs = {
        k: v for k, v in kwargs.items() if k in checker.accepts and v is not None
    }
    result = checker.fn(original, retimed, **kwargs)
    if result.status == "not_equivalent" and result.counterexample is not None:
        # No backend's counterexample is reported on its own authority: it
        # must survive an independent simulator replay first (see
        # common.certify_result).
        result = certify_result(result, original, retimed)
    return result


# ---------------------------------------------------------------------------
# Adapters for backends whose native signature is not (original, retimed)
# ---------------------------------------------------------------------------

def _eijk_plus(original: Netlist, retimed: Netlist, **kwargs) -> VerificationResult:
    return van_eijk.check_equivalence(
        original, retimed, exploit_dependencies=True, **kwargs
    )


def _hash_formal(
    original: Netlist,
    retimed: Netlist,
    cut: Optional[Sequence[str]] = None,
    time_budget: Optional[float] = None,
) -> VerificationResult:
    """The HASH formal retiming step, reported as a VerificationResult.

    HASH does not *check* the conventional result — it re-derives the
    retimed circuit with a kernel proof, so success means
    correctness-by-construction.  It has no cooperative budget polling; the
    process-isolated runner enforces ``time_budget`` as a wall-clock kill.
    """
    from ..formal.formal_retiming import FormalSynthesisError, formal_forward_retiming

    if not cut:
        raise VerificationError("hash: the retiming cut is required")

    def body(run: EngineRun) -> VerificationResult:
        try:
            result = formal_forward_retiming(original, list(cut))
        except FormalSynthesisError as exc:
            return run.result("error", str(exc))
        run.counters = lambda: result.stats
        return run.result("equivalent",
                          f"{int(result.stats['kernel_steps'])} kernel inferences")

    return run_engine("hash", time_budget, body)


# ---------------------------------------------------------------------------
# The built-in backends, registered declaratively
# ---------------------------------------------------------------------------

register_checker(
    "smv", model_checking.check_equivalence,
    description="SMV-style symbolic model checking (clustered transition "
                "relation, early-quantification image, breadth-first "
                "product traversal checking the invariant every step)",
    accepts=("time_budget", "node_budget"),
)
register_checker(
    "sis", fsm_compare.check_equivalence,
    description="SIS-style FSM comparison: the same product traversal as "
                "smv, kept as a second name for the paper's SIS column",
    accepts=("time_budget", "node_budget"),
)
register_checker(
    "eijk", van_eijk.check_equivalence,
    description="van Eijk signal-correspondence induction (word-parallel "
                "simulation signatures)",
    accepts=("time_budget", "node_budget"),
    complete=False,
)
register_checker(
    "eijk+", _eijk_plus,
    description="van Eijk with functional-dependency exploitation",
    accepts=("time_budget", "node_budget"),
    complete=False,
)
register_checker(
    "match", retiming_verify.check_equivalence,
    description="structural retiming matching (Leiserson-Saxe lag recovery; "
                "limited to pure retiming)",
    accepts=("time_budget",),
    complete=False,
)
register_checker(
    "taut", tautology.combinational_equivalent,
    description="BDD combinational equivalence with registers as cut points "
                "(same-state-representation restriction)",
    accepts=("time_budget", "node_budget"),
    cut_points=True,
)
register_checker(
    "sat", sat.check_equivalence_sat,
    description="AIG/SAT combinational equivalence: shared structurally-"
                "hashed AIG, one persistent incremental CDCL solver "
                "(assumption-based activation-literal miters, lazy "
                "cone-local Tseitin, Luby restarts, LBD clause GC); "
                "registers as cut points",
    accepts=("time_budget",),
    cut_points=True,
)
register_checker(
    "fraig", fraig.check_equivalence_fraig,
    description="FRAIG sweep: simulation-guided candidate classes split "
                "in place on the shared AIG, refined by cone-priced "
                "miters over one persistent incremental SAT solver; "
                "registers as cut points",
    accepts=("time_budget",),
    cut_points=True,
)
register_checker(
    "taut-rw", tautology.combinational_equivalent_by_rewriting,
    description="kernel-checked combinational equivalence on the worklist "
                "rewrite engine (every case a theorem)",
    accepts=("time_budget", "max_vectors"),
    cut_points=True,
)
register_checker(
    "hash", _hash_formal,
    description="the HASH formal retiming step itself "
                "(correct-by-construction; proves while synthesising)",
    accepts=("time_budget", "cut"),
    needs_cut=True,
)
