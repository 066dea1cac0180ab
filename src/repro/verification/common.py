"""Shared infrastructure for the verification baselines.

The central object is the :class:`SymbolicFSM`: a gate-level netlist compiled
into BDDs — one BDD per next-state bit and per output bit, over variables for
the primary inputs and the current state.  All the baselines (SMV-style model
checking, SIS-style FSM comparison, van Eijk) work on this representation,
mirroring how the original tools work on flat bit-level descriptions
(Section V of the paper points out that this is exactly what limits them
compared to HASH's RT-level rewriting).

:func:`product_fsm` builds the synchronous product of two circuits on a
shared manager, with the variables ordered bit by bit: every input and
state variable of word bit k (``net[k]``) sits together, least significant
bit first, so the bits that one adder, comparator or multiplexer slice
combines are neighbours in the order.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable, Dict, List, Optional, Tuple

from ..circuits.bitblast import bitblast
from ..circuits.netlist import Cell, Netlist
from .bdd import FALSE, TRUE, BddBudgetExceeded, BddManager


class VerificationError(Exception):
    """Raised for malformed verification problems."""


#: the closed verdict vocabulary of every backend and every table cell;
#: ``error`` is a bug only for a backend whose ``Checker.complete`` is set
VERDICTS = ("equivalent", "not_equivalent", "timeout", "error")


@dataclass
class VerificationResult:
    """Outcome of a verification run (one cell of Table I / Table II).

    ``stats`` carries the method's structured cost counters — BDD nodes,
    traversal iterations, kernel inference steps, wall time — keyed by the
    canonical names ``peak_nodes`` / ``iterations`` / ``kernel_steps`` /
    ``wall_seconds`` (plus method-specific extras).  Harnesses should read
    ``stats`` rather than parse the human-oriented ``detail`` string.
    """

    method: str
    status: str                    # one of VERDICTS
    seconds: float
    iterations: int = 0
    peak_nodes: int = 0
    counterexample: Optional[Dict[str, bool]] = None
    detail: str = ""
    stats: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in VERDICTS:
            raise ValueError(f"{self.method}: unknown verdict {self.status!r}")
        self.stats.setdefault("wall_seconds", self.seconds)
        if self.iterations:
            self.stats.setdefault("iterations", float(self.iterations))
        if self.peak_nodes:
            self.stats.setdefault("peak_nodes", float(self.peak_nodes))
        if self.counterexample is not None:
            # Canonical serialisation: sorted names, explicit bools.  Tables
            # rendered from different execution modes (serial / pool / daemon)
            # must agree byte-for-byte, so the assignment order can never
            # depend on BDD traversal or solver model order.
            self.counterexample = {
                str(k): bool(v) for k, v in sorted(self.counterexample.items())
            }

    def __str__(self) -> str:
        return f"[{self.method}] {self.status} in {self.seconds:.3f}s ({self.detail})"


class Budget:
    """The wall-clock budget of one verification run."""

    def __init__(self, seconds: Optional[float] = None):
        self.seconds = seconds
        self._start = time.perf_counter()

    @property
    def deadline(self) -> Optional[float]:
        """Absolute ``time.perf_counter()`` instant at which the budget expires."""
        if self.seconds is None:
            return None
        return self._start + self.seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def check(self) -> None:
        if self.seconds is not None and self.elapsed() > self.seconds:
            raise TimeoutBudgetExceeded(
                f"time budget of {self.seconds:.1f}s exceeded"
            )


class TimeoutBudgetExceeded(Exception):
    """Raised when a verification run exceeds its wall-clock budget."""


class EngineRun:
    """One budgeted backend run: its clock, its budget and its cost record.

    Every budget-polling backend runs its body under :func:`run_engine`, so
    the start time, the :class:`Budget`, the registry-name label and the
    merge of BDD and backend counters live here once.  The body keeps the
    record current — its BDD manager comes from :meth:`bdd_manager`,
    ``iterations`` count its steps, ``counters`` report its own counters —
    and :meth:`result` reads it whenever the run ends, overrun or not.
    """

    def __init__(self, method: str, time_budget: Optional[float] = None):
        self.method = method
        self.budget = Budget(seconds=time_budget)
        #: the BDD manager whose counters join the record
        self.manager: Optional[BddManager] = None
        #: traversal or refinement steps taken so far
        self.iterations = 0
        #: the backend's own counters as they stand when the run ends
        self.counters: Callable[[], Dict[str, float]] = dict

    def bdd_manager(self, node_budget: Optional[int]) -> BddManager:
        """A BDD manager that already honours the run's deadline and
        ``node_budget``, so compiling into it is budgeted too; its counters
        join the record."""
        self.manager = BddManager(node_budget=node_budget,
                                  deadline=self.budget.deadline)
        return self.manager

    def result(self, status: str, detail: str,
               counterexample: Optional[Dict[str, bool]] = None) -> VerificationResult:
        m = self.manager
        return VerificationResult(
            method=self.method,
            status=status,
            seconds=self.budget.elapsed(),
            iterations=self.iterations,
            peak_nodes=m.num_nodes if m is not None else 0,
            counterexample=counterexample,
            detail=detail,
            stats={**(m.op_stats() if m is not None else {}), **self.counters()},
        )


def run_engine(method: str, time_budget: Optional[float],
               body: Callable[[EngineRun], VerificationResult]) -> VerificationResult:
    """Run a backend body under one :class:`EngineRun` labelled ``method``.

    The single budget-overrun handler of the package: a
    :class:`TimeoutBudgetExceeded` or
    :class:`~repro.verification.bdd.BddBudgetExceeded` raised anywhere in
    the body becomes a ``timeout`` result — the tables' dash — that still
    carries the run's cost record.
    """
    run = EngineRun(method, time_budget)
    try:
        return body(run)
    except (TimeoutBudgetExceeded, BddBudgetExceeded) as exc:
        return run.result("timeout", str(exc))


@dataclass
class SymbolicFSM:
    """A gate-level sequential circuit compiled to BDDs."""

    name: str
    manager: BddManager
    #: primary input variable names (shared between machines in a product)
    inputs: List[str]
    #: current-state variable names, in declaration order
    state_vars: List[str]
    #: initial value of each state variable
    init: Dict[str, bool]
    #: next-state function of each state variable (BDD over inputs+state)
    next_fns: Dict[str, int]
    #: output functions (BDD over inputs+state)
    output_fns: Dict[str, int]
    #: BDDs of every internal net (used by van Eijk's signal correspondence)
    net_fns: Dict[str, int] = field(default_factory=dict)

    def initial_state_bdd(self) -> int:
        # nvar is an O(1) complement edge, so the cube costs one AND per bit
        return self.manager.conjoin(
            self.manager.var(var) if self.init[var] else self.manager.nvar(var)
            for var in self.state_vars
        )


def is_gate_level_netlist(netlist: Netlist) -> bool:
    """All nets 1 bit wide and all cells plain gates (no word-level operators)."""
    from ..circuits.cells import GATE_LEVEL_TYPES

    return all(net.width == 1 for net in netlist.nets.values()) and all(
        cell.type in GATE_LEVEL_TYPES for cell in netlist.cells.values()
    )


def ensure_gate_level(netlist: Netlist) -> Netlist:
    """Bit-blast a netlist unless it already is a pure gate-level circuit.

    Lowering is structural hashing plus pattern emission
    (:func:`~repro.circuits.bitblast.bitblast`); an already gate-level
    netlist is returned untouched.
    """
    if is_gate_level_netlist(netlist):
        return netlist
    return bitblast(netlist).netlist


def compile_fsm(
    netlist: Netlist,
    manager: Optional[BddManager] = None,
    prefix: str = "",
) -> SymbolicFSM:
    """Compile a netlist (bit-blasting it first if needed) into a SymbolicFSM.

    ``prefix`` is prepended to state variable names so two machines can
    coexist in one manager.  Primary-input variables are *not* prefixed:
    a product machine must drive both circuits with the same inputs.
    Variables the manager does not know yet are declared in order, inputs
    first; :func:`product_fsm` declares its own order beforehand.
    """
    gate = ensure_gate_level(netlist)
    manager = manager or BddManager()

    input_names = list(gate.inputs)
    state_names = {reg.output: f"{prefix}{reg.output}" for reg in gate.registers.values()}

    values: Dict[str, int] = {}
    for name in input_names:
        values[name] = manager.var(name)
    for reg in gate.registers.values():
        values[reg.output] = manager.var(state_names[reg.output])

    for cell in gate.topological_cells():
        values[cell.output] = _cell_bdd(manager, cell, values)

    next_fns = {
        state_names[reg.output]: values[reg.input] for reg in gate.registers.values()
    }
    init = {
        state_names[reg.output]: bool(reg.init) for reg in gate.registers.values()
    }
    output_fns = {out: values[out] for out in gate.outputs}

    return SymbolicFSM(
        name=netlist.name,
        manager=manager,
        inputs=input_names,
        state_vars=[state_names[reg.output] for reg in gate.registers.values()],
        init=init,
        next_fns=next_fns,
        output_fns=output_fns,
        net_fns=dict(values),
    )


def _cell_bdd(manager: BddManager, cell: Cell, values: Dict[str, int]) -> int:
    ins = [values[i] for i in cell.inputs]
    t = cell.type
    if t == "BUF":
        return ins[0]
    if t == "NOT":
        return manager.apply_not(ins[0])
    if t == "AND":
        return manager.apply_and(ins[0], ins[1])
    if t == "OR":
        return manager.apply_or(ins[0], ins[1])
    if t == "XOR":
        return manager.apply_xor(ins[0], ins[1])
    if t == "XNOR":
        return manager.apply_xnor(ins[0], ins[1])
    if t == "NAND":
        return manager.apply_not(manager.apply_and(ins[0], ins[1]))
    if t == "NOR":
        return manager.apply_not(manager.apply_or(ins[0], ins[1]))
    if t == "MUX":
        return manager.ite(ins[0], ins[1], ins[2])
    if t == "CONST":
        return TRUE if int(cell.params.get("value", 0)) & 1 else FALSE
    raise VerificationError(f"cell type {t} is not gate level (bit-blast first)")


@dataclass
class ProductFSM:
    """Two machines compiled over one manager, each state variable ``v``
    declared with its primed partner ``v'`` right after it."""

    manager: BddManager
    left: SymbolicFSM
    right: SymbolicFSM
    #: paired primary outputs (left name, right name)
    output_pairs: List[Tuple[str, str]]

    def all_state_vars(self) -> List[str]:
        return self.left.state_vars + self.right.state_vars

    def next_fns(self) -> Dict[str, int]:
        fns = dict(self.left.next_fns)
        fns.update(self.right.next_fns)
        return fns

    def initial_state_bdd(self) -> int:
        return self.manager.apply_and(
            self.left.initial_state_bdd(), self.right.initial_state_bdd()
        )

    def outputs_equal_bdd(self) -> int:
        """BDD of "all paired outputs agree" (over inputs and both states)."""
        m = self.manager
        out = TRUE
        for lo, ro in self.output_pairs:
            eq = m.apply_xnor(self.left.output_fns[lo], self.right.output_fns[ro])
            out = m.apply_and(out, eq)
        return out


def product_fsm(
    a: Netlist,
    b: Netlist,
    manager: Optional[BddManager] = None,
) -> ProductFSM:
    """Compile two circuits with the same primary inputs into a product FSM.

    The circuits must have identical primary input names/widths and the same
    primary output names/widths (the usual precondition of sequential
    equivalence checking).  The variable order starts from the inputs, then
    A's and B's registers paired by declaration index, each primed
    (next-state) variable right after its partner; that sequence is then
    stable-sorted by word bit, least significant first, with 1-bit nets
    ahead of bit 0.  A circuit without words keeps the sequence as it is.
    """
    gate_a = ensure_gate_level(a)
    gate_b = ensure_gate_level(b)
    if sorted(gate_a.inputs) != sorted(gate_b.inputs):
        raise VerificationError(
            f"input mismatch: {sorted(gate_a.inputs)} vs {sorted(gate_b.inputs)}"
        )
    if sorted(gate_a.outputs) != sorted(gate_b.outputs):
        raise VerificationError(
            f"output mismatch: {sorted(gate_a.outputs)} vs {sorted(gate_b.outputs)}"
        )
    manager = manager or BddManager()

    order = list(gate_a.inputs)
    for pair in zip_longest([f"A.{reg.output}" for reg in gate_a.registers.values()],
                            [f"B.{reg.output}" for reg in gate_b.registers.values()]):
        for var in filter(None, pair):
            order += [var, var + "'"]
    for name in sorted(order, key=_word_bit):
        manager.declare(name)

    left = compile_fsm(gate_a, manager, prefix="A.")
    right = compile_fsm(gate_b, manager, prefix="B.")
    pairs = [(o, o) for o in gate_a.outputs]
    return ProductFSM(manager=manager, left=left, right=right, output_pairs=pairs)


_WORD_BIT = re.compile(r"\[(\d+)\]'?$")


def _word_bit(name: str) -> int:
    """The bit ``aig.bit_name`` wrote into a (possibly primed) net name
    ``net[k]``; -1 for a 1-bit net."""
    match = _WORD_BIT.search(name)
    return int(match.group(1)) if match else -1


def declare_next_state_vars(product: ProductFSM) -> Dict[str, str]:
    """The primed (next-state) partner of each state variable, for
    transition relations; :func:`product_fsm` has declared each one."""
    return {var: var + "'" for var in product.all_state_vars()}


# ---------------------------------------------------------------------------
# Cut-point pairing (taut, taut-rw, sat, fraig)
# ---------------------------------------------------------------------------

def pair_cut_points(
    gate_a: Netlist, gate_b: Netlist,
) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """What a cut-point check compares, and what rules it out up front.

    Registers become free variables keyed by register *name*, so only
    same-named registers correspond.  Returns ``(mismatches, compared)``:
    ``mismatches`` lists the structural differences that leave the pair
    outside a cut-point check's scope (an output or a register present in
    only one circuit, a shared register with another initial value), which
    :func:`cut_points_differ` turns into the verdict; ``compared``
    lists ``(label, net_a, net_b)`` for every shared primary output, in
    the first circuit's order, then for the next-state nets of the shared
    registers, sorted by name.  Each backend maps the nets to its own BDDs,
    terms or literals.  Raises :class:`ValueError` if the primary inputs
    differ.
    """
    if sorted(gate_a.inputs) != sorted(gate_b.inputs):
        raise ValueError("cut-point check: input mismatch")
    regs_a = {r.name: r for r in gate_a.registers.values()}
    regs_b = {r.name: r for r in gate_b.registers.values()}
    shared_regs = sorted(set(regs_a) & set(regs_b))
    mismatches = [
        f"output {name} present in only one circuit"
        for name in sorted(set(gate_a.outputs) ^ set(gate_b.outputs))
    ]
    mismatches += [f"initial value of register {name}" for name in shared_regs
                   if regs_a[name].init != regs_b[name].init]
    mismatches += [f"register {name} present in only one circuit"
                   for name in sorted(set(regs_a) ^ set(regs_b))]
    compared = [(f"output {out}", out, out)
                for out in gate_a.outputs if out in gate_b.outputs]
    compared += [(f"next-state of register {name}",
                  regs_a[name].input, regs_b[name].input)
                 for name in shared_regs]
    return mismatches, compared


def cut_points_differ(run: EngineRun, mismatches: List[str]) -> VerificationResult:
    """The ``error`` verdict of a cut-point check on a pair whose cut points
    do not correspond, returned before any search.

    Without a register correspondence the check cannot decide the pair: a
    retiming moves and renames registers, so it would refute equivalent
    circuits.
    """
    return run.result("error", "inconclusive: the cut points do not correspond: "
                      + "; ".join(mismatches))


def cut_point_vars(gate: Netlist) -> Dict[str, str]:
    """The free variable of each source net of a gate-level circuit.

    A primary input is its own variable; a register output is the
    cut-point variable ``cut.<register>``, so same-named registers of two
    circuits share one variable.  Inputs come first, then registers, each
    in declaration order.
    """
    names = {name: name for name in gate.inputs}
    names.update((reg.output, f"cut.{reg.name}")
                 for reg in gate.registers.values())
    return names


# ---------------------------------------------------------------------------
# Counterexample certification
# ---------------------------------------------------------------------------
#
# A ``not_equivalent`` verdict is only as trustworthy as its witness.  Before
# any backend's counterexample is reported, it is replayed through the cycle
# simulator — an engine entirely independent of BDDs, SAT and the kernel —
# and must actually drive the two circuits apart.  A witness that fails
# replay demotes the result to ``error`` with ``cex_certified=0`` instead of
# silently handing the caller a wrong model.
#
# Two counterexample dialects exist in the registry:
#
# * *cut-point* backends (taut, taut-rw, sat, fraig) assign the primary
#   inputs plus one ``cut.<register-name>`` variable per register; the claim
#   is that some output or some shared register's next-state function
#   differs under that assignment.
# * *product-FSM* backends (smv, sis, eijk, eijk+) assign the primary inputs
#   plus ``A.<reg-output>`` / ``B.<reg-output>`` state variables; the claim
#   is that the paired outputs differ in that (reached) state pair, so only
#   output disagreement counts as distinguishing.


def _cex_style(cex: Dict[str, bool], gate_a: Netlist, gate_b: Netlist) -> str:
    """Classify a counterexample as ``"product"`` or ``"cut"`` keyed."""
    for key in cex:
        if key.startswith("A.") or key.startswith("B."):
            return "product"
        if key.startswith("cut."):
            return "cut"
    # No state variables mentioned at all (purely combinational witness):
    # shared register names mean the cut-point reading applies.
    names_a = set(gate_a.registers)
    if names_a and names_a == set(gate_b.registers):
        return "cut"
    return "product" if names_a or gate_b.registers else "cut"


def replay_counterexample(
    original: Netlist,
    retimed: Netlist,
    counterexample: Dict[str, bool],
    default: bool = False,
) -> Tuple[bool, List[str], Dict[str, bool]]:
    """Replay a counterexample through the cycle simulator.

    Returns ``(distinguishes, diffs, completed)`` where ``diffs`` names the
    signals that disagree and ``completed`` is the witness extended to a
    *total* assignment (don't-care inputs and unmentioned state bits filled
    with ``default``), sorted-key normalised — the form in which a certified
    counterexample is reported and serialised.
    """
    from ..circuits.simulate import Simulator

    gate_a = ensure_gate_level(original)
    gate_b = ensure_gate_level(retimed)
    cex = {str(k): bool(v) for k, v in counterexample.items()}
    style = _cex_style(cex, gate_a, gate_b)

    completed: Dict[str, bool] = {}
    inputs: Dict[str, int] = {}
    for name in gate_a.inputs:
        value = cex.get(name, default)
        inputs[name] = int(value)
        completed[name] = bool(value)

    def state_for(gate: Netlist, prefix: str) -> Dict[str, int]:
        state: Dict[str, int] = {}
        cut_vars = cut_point_vars(gate)
        for name, reg in gate.registers.items():
            if style == "product":
                key = f"{prefix}{reg.output}"
            else:
                key = cut_vars[reg.output]
            value = cex.get(key, default)
            state[name] = int(value)
            completed[key] = bool(value)
        return state

    sim_a = Simulator(gate_a, state_for(gate_a, "A."))
    sim_b = Simulator(gate_b, state_for(gate_b, "B."))
    vals_a = sim_a.evaluate_combinational(inputs)
    vals_b = sim_b.evaluate_combinational(inputs)

    diffs = [o for o in gate_a.outputs
             if o in gate_b.outputs and vals_a[o] != vals_b[o]]
    if style == "cut":
        # Cut-point witnesses may also separate a shared register's
        # next-state function; a product witness may not claim that.
        for name, reg_a in gate_a.registers.items():
            reg_b = gate_b.registers.get(name)
            if reg_b is not None and vals_a[reg_a.input] != vals_b[reg_b.input]:
                diffs.append(f"next({name})")
    completed = {k: completed[k] for k in sorted(completed)}
    return bool(diffs), diffs, completed


def certify_result(
    result: VerificationResult,
    original: Netlist,
    retimed: Netlist,
) -> VerificationResult:
    """Certify a ``not_equivalent`` result's counterexample by replay.

    Successful replay rewrites the counterexample to its completed total
    assignment and stamps ``cex_certified=1``; failure (the witness does not
    distinguish the circuits, or cannot even be replayed) demotes the result
    to ``error`` with ``cex_certified=0`` and no counterexample.
    """
    if result.status != "not_equivalent" or result.counterexample is None:
        return result
    try:
        distinguishes, diffs, completed = replay_counterexample(
            original, retimed, result.counterexample
        )
    except Exception as exc:  # malformed witness: unreplayable is uncertified
        distinguishes, diffs, completed = False, [], {}
        reason = f"replay raised {type(exc).__name__}: {exc}"
    else:
        reason = "replay does not distinguish the circuits"
    if not distinguishes:
        return replace(
            result, status="error", counterexample=None,
            detail=f"uncertified counterexample: {reason}",
            stats={**result.stats, "cex_certified": 0.0},
        )
    result.counterexample = completed
    result.stats["cex_certified"] = 1.0
    return result
