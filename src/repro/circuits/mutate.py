"""Deterministic, seedable fault injection over gate-level netlists.

The adversarial counterpart of the generator family: every operator takes a
netlist and returns a *mutated copy*, and every applied mutation is recorded
as a structured :class:`Mutation` — JSON-serialisable, so a minimised
repro can replay the injected faults verbatim.  The faults reach a
fuzz cell's result-cache key through the mutant netlist's structural
fingerprint, like any other change to a circuit.

Operators (the classic gate-level fault models):

* ``stuck_at``        — replace a cell by a constant 0/1 driver of its output
* ``gate_swap``       — change a gate's type within its arity class
* ``operand_swap``    — swap two input pins (semantically meaningful for
                        MUX data inputs; commutative gates are skipped)
* ``insert_inverter`` — break an input pin with a fresh NOT cell
* ``remove_inverter`` — degrade a NOT cell to a BUF
* ``rewire``          — reconnect an input pin to a different 1-bit net
                        (combinational cycles are rejected and re-drawn)

:func:`inject_visible_faults` composes seeded random mutations and keeps
only those whose effect is *observable* by random simulation against a
reference circuit — the ground truth the fuzz oracle holds every backend
to: an expected-inequivalent pair always carries a simulation-witnessed
mismatch, never a masked fault.  The simulation steps the lowered AIG
(:func:`repro.circuits.simulate.aig_outputs`): the reference once per call,
each candidate up to its first differing cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .netlist import Cell, Netlist, NetlistError

__all__ = [
    "Mutation",
    "MutationError",
    "MUTATION_KINDS",
    "apply_mutation",
    "apply_mutations",
    "random_mutation",
    "inject_visible_faults",
]


class MutationError(Exception):
    """Raised when a mutation cannot be applied to a netlist."""


#: 2-input gate types interchangeable by ``gate_swap``
_SWAP_2 = ("AND", "OR", "XOR", "NAND", "NOR", "XNOR")
#: 1-input gate types interchangeable by ``gate_swap``
_SWAP_1 = ("BUF", "NOT")

MUTATION_KINDS = (
    "stuck_at",
    "gate_swap",
    "operand_swap",
    "insert_inverter",
    "remove_inverter",
    "rewire",
)


@dataclass(frozen=True)
class Mutation:
    """One injected fault, addressed by cell name (stable across copies).

    ``pin`` selects an input pin where relevant, ``arg`` carries the new
    gate type (``gate_swap``) or the new source net (``rewire``), and
    ``value`` is the stuck-at polarity.
    """

    kind: str
    cell: str
    pin: int = 0
    arg: str = ""
    value: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "cell": self.cell, "pin": self.pin,
                "arg": self.arg, "value": self.value}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Mutation":
        return cls(
            kind=str(payload["kind"]),
            cell=str(payload["cell"]),
            pin=int(payload.get("pin", 0)),
            arg=str(payload.get("arg", "")),
            value=int(payload.get("value", 0)),
        )

def _target_cell(netlist: Netlist, mutation: Mutation) -> Cell:
    cell = netlist.cells.get(mutation.cell)
    if cell is None:
        raise MutationError(f"{mutation.kind}: unknown cell {mutation.cell!r}")
    return cell


def apply_mutation(netlist: Netlist, mutation: Mutation) -> Netlist:
    """Return a mutated copy of ``netlist``; raise :class:`MutationError`
    when the mutation is inapplicable (wrong arity, unknown net, or a
    rewire that would create a combinational cycle)."""
    out = netlist.copy()
    cell = _target_cell(out, mutation)
    kind = mutation.kind

    if kind == "stuck_at":
        if out.nets[cell.output].width != 1:
            raise MutationError(f"stuck_at: {cell.name} output is not 1 bit")
        out.cells[cell.name] = Cell(
            cell.name, "CONST", (), cell.output, {"value": mutation.value & 1}
        )
    elif kind == "gate_swap":
        family = _SWAP_2 if len(cell.inputs) == 2 else _SWAP_1
        if cell.type not in family or mutation.arg not in family:
            raise MutationError(
                f"gate_swap: cannot swap {cell.type} to {mutation.arg!r}"
            )
        if mutation.arg == cell.type:
            raise MutationError("gate_swap: new type equals the old type")
        out.cells[cell.name] = Cell(
            cell.name, mutation.arg, cell.inputs, cell.output, dict(cell.params)
        )
    elif kind == "operand_swap":
        if cell.type == "MUX":
            swapped = (cell.inputs[0], cell.inputs[2], cell.inputs[1])
        elif len(cell.inputs) == 2:
            swapped = (cell.inputs[1], cell.inputs[0])
        else:
            raise MutationError(f"operand_swap: {cell.name} has no swappable pins")
        out.cells[cell.name] = Cell(
            cell.name, cell.type, swapped, cell.output, dict(cell.params)
        )
    elif kind == "insert_inverter":
        if not (0 <= mutation.pin < len(cell.inputs)):
            raise MutationError(f"insert_inverter: pin {mutation.pin} out of range")
        source = cell.inputs[mutation.pin]
        if out.nets[source].width != 1:
            raise MutationError("insert_inverter: pin is not 1 bit wide")
        inv_net = out.fresh_net_name(f"{source}_inv")
        inv_name = out.fresh_instance_name(f"minv_{cell.name}")
        out.add_cell(inv_name, "NOT", [source], inv_net)
        new_inputs = list(cell.inputs)
        new_inputs[mutation.pin] = inv_net
        out.cells[cell.name] = Cell(
            cell.name, cell.type, tuple(new_inputs), cell.output, dict(cell.params)
        )
    elif kind == "remove_inverter":
        if cell.type != "NOT":
            raise MutationError(f"remove_inverter: {cell.name} is not a NOT")
        out.cells[cell.name] = Cell(
            cell.name, "BUF", cell.inputs, cell.output, dict(cell.params)
        )
    elif kind == "rewire":
        if not (0 <= mutation.pin < len(cell.inputs)):
            raise MutationError(f"rewire: pin {mutation.pin} out of range")
        if mutation.arg not in out.nets:
            raise MutationError(f"rewire: unknown net {mutation.arg!r}")
        if out.nets[mutation.arg].width != out.nets[cell.inputs[mutation.pin]].width:
            raise MutationError("rewire: width mismatch")
        if mutation.arg in (cell.output, cell.inputs[mutation.pin]):
            raise MutationError("rewire: self-loop or no-op")
        new_inputs = list(cell.inputs)
        new_inputs[mutation.pin] = mutation.arg
        out.cells[cell.name] = Cell(
            cell.name, cell.type, tuple(new_inputs), cell.output, dict(cell.params)
        )
    else:
        raise MutationError(f"unknown mutation kind {kind!r}")

    try:
        out.validate()
    except NetlistError as exc:  # e.g. a rewire closing a combinational cycle
        raise MutationError(f"{kind} on {cell.name}: {exc}") from exc
    return out


def apply_mutations(netlist: Netlist, mutations: Sequence[Mutation]) -> Netlist:
    """Apply a recorded mutation list in order (the repro replay path)."""
    out = netlist
    for mutation in mutations:
        out = apply_mutation(out, mutation)
    return out


def _one_bit_nets(netlist: Netlist) -> List[str]:
    return sorted(n.name for n in netlist.nets.values() if n.width == 1)


def random_mutation(
    netlist: Netlist,
    rng: random.Random,
    kinds: Sequence[str] = MUTATION_KINDS,
) -> Optional[Mutation]:
    """Draw one applicable mutation (seeded); ``None`` if no kind applies.

    Candidate cells are enumerated in sorted order so the draw depends only
    on the rng state and the netlist content, never on dict layout.
    """
    cells = [netlist.cells[name] for name in sorted(netlist.cells)]
    gate_1bit = [c for c in cells
                 if c.type != "CONST" and netlist.nets[c.output].width == 1]
    candidates: Dict[str, List[Cell]] = {
        "stuck_at": gate_1bit,
        "gate_swap": [c for c in gate_1bit
                      if (len(c.inputs) == 2 and c.type in _SWAP_2)
                      or (len(c.inputs) == 1 and c.type in _SWAP_1)],
        "operand_swap": [c for c in gate_1bit if c.type == "MUX"],
        "insert_inverter": [c for c in gate_1bit
                            if any(netlist.nets[i].width == 1 for i in c.inputs)],
        "remove_inverter": [c for c in gate_1bit if c.type == "NOT"],
        "rewire": [c for c in gate_1bit if c.inputs],
    }
    usable = [k for k in kinds if candidates.get(k)]
    if not usable:
        return None
    kind = rng.choice(usable)
    cell = rng.choice(candidates[kind])
    if kind == "stuck_at":
        return Mutation(kind, cell.name, value=rng.randint(0, 1))
    if kind == "gate_swap":
        family = _SWAP_2 if len(cell.inputs) == 2 else _SWAP_1
        new_type = rng.choice([t for t in family if t != cell.type])
        return Mutation(kind, cell.name, arg=new_type)
    if kind == "operand_swap":
        return Mutation(kind, cell.name)
    if kind == "insert_inverter":
        pins = [i for i, net in enumerate(cell.inputs)
                if netlist.nets[net].width == 1]
        return Mutation(kind, cell.name, pin=rng.choice(pins))
    if kind == "remove_inverter":
        return Mutation(kind, cell.name)
    pin = rng.randrange(len(cell.inputs))
    nets = [n for n in _one_bit_nets(netlist)
            if n not in (cell.output, cell.inputs[pin])]
    if not nets:
        return None
    return Mutation(kind, cell.name, pin=pin, arg=rng.choice(nets))


def inject_visible_faults(
    netlist: Netlist,
    reference: Optional[Netlist] = None,
    n: int = 1,
    seed: int = 0,
    cycles: int = 128,
    max_tries: int = 32,
    kinds: Sequence[str] = MUTATION_KINDS,
) -> Tuple[Netlist, List[Mutation]]:
    """Apply ``n`` seeded mutations whose *composite* effect is visible.

    ``reference`` (default: the unmutated input) is simulated once on
    random stimuli, and each candidate mutant is stepped against that
    trace; a candidate that leaves the outputs indistinguishable — a
    masked fault — is discarded and redrawn, so the returned pair is
    inequivalent with a concrete simulation witness, not merely mutated.
    Raises :class:`MutationError` when ``max_tries`` draws cannot produce a
    visible fault (e.g. heavily redundant logic).
    """
    from .simulate import aig_outputs, random_input_sequence

    reference = reference if reference is not None else netlist
    stimulus = random_input_sequence(reference, cycles)
    expected = list(aig_outputs(reference, stimulus))
    rng = random.Random(seed)
    current = netlist
    applied: List[Mutation] = []
    for _ in range(n):
        for _attempt in range(max_tries):
            mutation = random_mutation(current, rng, kinds=kinds)
            if mutation is None:
                raise MutationError("no applicable mutation operator")
            try:
                candidate = apply_mutation(current, mutation)
            except MutationError:
                continue
            outputs = aig_outputs(candidate, stimulus)
            if all(out == exp for out, exp in zip(outputs, expected)):
                continue  # masked fault: not observable, redraw
            current = candidate
            applied.append(mutation)
            break
        else:
            raise MutationError(
                f"no visible fault found in {max_tries} tries "
                f"(seed {seed}, {len(applied)}/{n} applied)"
            )
    return current, applied
