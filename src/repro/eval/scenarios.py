"""Named, parameterizable workload scenarios.

A *scenario* is a registered factory that turns a few parameters into a list
of :class:`~repro.eval.workloads.Workload` instances — the rows of one
results table.  The paper's two suites (the scalable Figure-2 example of
Table I and the IWLS'91 stand-ins of Table II) are scenarios, and so are the
previously driver-internal generator families (``counters``, ``multiplier``,
``random_seq``), which makes them first-class workload sources for the CLI
and the parallel runner.

Adding a scenario is a one-site change::

    @register_scenario("mine", description="...", widths=(2, 4))
    def _mine(widths=(2, 4)):
        return [make_workload(my_netlist(n)) for n in widths]

Factories must be deterministic in their parameters (seeded randomness only)
so that tables regenerate byte-for-byte regardless of ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits.generators import (
    counter,
    figure2,
    fractional_multiplier,
    gray_counter,
    random_sequential_circuit,
    shift_register,
)
from ..circuits.generators.multiplier import multiplier_retiming_cut
from .workloads import (
    TABLE1_WIDTHS,
    Workload,
    make_workload,
    table1_workload,
    table2_workloads,
)


@dataclass(frozen=True)
class Scenario:
    """Descriptor of one registered workload source."""

    name: str
    build: Callable[..., List[Workload]]
    description: str
    #: parameter defaults, also serving as the set of accepted parameters
    defaults: Mapping[str, Any]
    #: methods a plain ``repro run --scenario <name>`` measures
    default_methods: Tuple[str, ...]


_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(
    name: str,
    build: Optional[Callable[..., List[Workload]]] = None,
    *,
    description: str = "",
    default_methods: Sequence[str] = ("match", "hash"),
    replace: bool = False,
    **defaults: Any,
):
    """Register a scenario factory; usable directly or as a decorator."""

    def _register(func: Callable[..., List[Workload]]):
        if not replace and name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = Scenario(
            name=name,
            build=func,
            description=description,
            defaults=dict(defaults),
            default_methods=tuple(default_methods),
        )
        return func

    if build is not None:
        return _register(build)
    return _register


def unregister_scenario(name: str) -> None:
    _SCENARIOS.pop(name, None)


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(available_scenarios())}"
        ) from None


def available_scenarios() -> List[str]:
    return sorted(_SCENARIOS)


def build_scenario(name: str, **params: Any) -> List[Workload]:
    """Build a scenario's workloads, validating parameter names."""
    scenario = get_scenario(name)
    unknown = set(params) - set(scenario.defaults)
    if unknown:
        raise TypeError(
            f"scenario {name!r} does not accept {sorted(unknown)}; "
            f"parameters: {sorted(scenario.defaults)}"
        )
    return scenario.build(**{**scenario.defaults, **params})


# ---------------------------------------------------------------------------
# The built-in scenarios
# ---------------------------------------------------------------------------

def as_seq(value) -> Tuple[Any, ...]:
    """Accept both a scalar and a sequence for list-valued parameters
    (the CLI parses ``--param widths=4`` as a bare scalar)."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)

@register_scenario(
    "figure2",
    description="the paper's scalable Figure-2 example (Table I) at the "
                "given bit widths, retimed along the maximal forward cut",
    default_methods=("sis", "smv", "hash"),
    widths=tuple(TABLE1_WIDTHS),
)
def _figure2_scenario(widths: Sequence[int]) -> List[Workload]:
    return [table1_workload(int(n)) for n in as_seq(widths)]


@register_scenario(
    "iwls",
    description="the IWLS'91 stand-in suite (Table II); `scale` shrinks the "
                "published flip-flop/gate counts, `names` restricts the rows",
    default_methods=("eijk", "eijk+", "sis", "hash"),
    scale=1.0,
    names=None,
)
def _iwls_scenario(scale: float, names: Optional[Sequence[str]]) -> List[Workload]:
    if names is not None:
        names = [str(n) for n in as_seq(names)]
    return table2_workloads(scale=float(scale), names=names)


@register_scenario(
    "counters",
    description="small counter family: up counters, Gray counters and shift "
                "registers at the given widths (the input-less Gray counter "
                "is unembeddable, so its HASH cell reports '?')",
    default_methods=("sis", "smv", "eijk", "match", "hash"),
    widths=(2, 3, 4),
)
def _counters_scenario(widths: Sequence[int]) -> List[Workload]:
    return [make_workload(build(int(n))) for n in as_seq(widths)
            for build in (counter, gray_counter, shift_register)]


@register_scenario(
    "multiplier",
    description="fractional multipliers (the hardest Table-II family) at the "
                "given data widths, retimed across the output shifter",
    default_methods=("eijk", "smv", "hash"),
    widths=(4, 8),
)
def _multiplier_scenario(widths: Sequence[int]) -> List[Workload]:
    return [
        make_workload(fractional_multiplier(int(n)), cut=multiplier_retiming_cut())
        for n in as_seq(widths)
    ]


@register_scenario(
    "strash",
    description="combinational resynthesis pairs: each gate-level circuit "
                "(raw AND/NOT emission) vs its structurally-hashed AIG "
                "rebuild with XOR/MUX pattern emission (same registers, "
                "restructured logic) — the taut/sat/fraig cut-point "
                "checkers prove equivalence, exercising the AIG backend "
                "family on every cell",
    default_methods=("taut", "sat", "fraig"),
    widths=(2, 3, 4),
)
def _strash_scenario(widths: Sequence[int]) -> List[Workload]:
    from ..circuits.aig import aig_to_netlist, netlist_to_aig
    from ..circuits.bitblast import bitblast
    from ..retiming.cuts import maximal_forward_cut

    out: List[Workload] = []
    for n in as_seq(widths):
        n = int(n)
        for netlist in (figure2(n), counter(n)):
            # the left side is the raw AND/NOT emission of the lowering; the
            # right side rebuilds it by pattern emission, so the two sides
            # differ in structure but not in function
            gate, _ = aig_to_netlist(netlist_to_aig(netlist), netlist,
                                     name=netlist.name + "_bits")
            rebuilt = bitblast(gate, name_suffix="_strash").netlist
            out.append(Workload(
                name=f"strash {netlist.name}",
                original=gate,
                cut=maximal_forward_cut(gate),
                retimed=rebuilt,
            ))
    return out


@register_scenario(
    "random_seq",
    description="seeded random control circuits (IWLS'91-style control "
                "logic) with the given flip-flop/gate counts",
    default_methods=("sis", "eijk", "match", "hash"),
    seeds=(0, 1, 2),
    n_inputs=4,
    n_flipflops=6,
    n_gates=30,
)
def _random_seq_scenario(
    seeds: Sequence[int], n_inputs: int, n_flipflops: int, n_gates: int
) -> List[Workload]:
    return [
        make_workload(random_sequential_circuit(
            int(n_inputs), int(n_flipflops), int(n_gates), seed=int(seed)
        ))
        for seed in as_seq(seeds)
    ]


# registered at the bottom to break the scenarios <-> fuzz import cycle
from . import fuzz as _fuzz  # noqa: E402,F401
