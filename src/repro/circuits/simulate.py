"""Cycle-accurate simulation of netlists.

The simulator evaluates the combinational cells in topological order once per
clock cycle, samples the outputs and then updates all registers
simultaneously (edge-triggered semantics).  It is the executable semantics
against which every transformation in the library (conventional retiming,
formal retiming, bit-blasting, state encoding) is tested: two circuits are
*observationally equivalent* when they produce the same output streams for
every input stream from their respective initial states.

Two engines implement these semantics:

* :class:`Simulator` interprets the netlist cell by cell.  It is the
  reference semantics.  :func:`find_mismatch`, :func:`outputs_equal`,
  ``match``'s initial-value checks and ``certify_result``'s counterexample
  replay run on it; the replay so judges a witness apart from the AIG that
  sat, fraig and taut search.
* :func:`aig_outputs` lowers a netlist once to the AIG and steps it with an
  index loop over the nodes that the outputs and next states depend on.
  ``inject_visible_faults`` runs on it: its reference once per call, and
  each candidate fault up to its first differing cycle.  It is faster on
  gate-level netlists and slower on word-level arithmetic, which lowers to
  many AND nodes (a ``w``-bit multiplier to O(w²)).
  :func:`bit_parallel_signatures` steps its latches on the same loop and
  then packs all cycles into one int per node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .netlist import Netlist


class SimulationError(Exception):
    """Raised when an input vector is malformed."""


@dataclass
class Trace:
    """Result of a multi-cycle simulation."""

    outputs: List[Dict[str, int]]

    def output_sequence(self, name: str) -> List[int]:
        return [step[name] for step in self.outputs]


class Simulator:
    """A stateful cycle simulator for a :class:`Netlist`."""

    def __init__(self, netlist: Netlist, state: Optional[Dict[str, int]] = None):
        netlist.validate()
        self.netlist = netlist
        self._order = netlist.topological_cells()
        self.state: Dict[str, int] = {
            name: reg.init for name, reg in netlist.registers.items()
        }
        if state is not None:
            for name, value in state.items():
                if name not in self.state:
                    raise SimulationError(f"unknown register {name}")
                self.state[name] = value

    # -- single cycle -----------------------------------------------------------
    def evaluate_combinational(self, inputs: Dict[str, int]) -> Dict[str, int]:
        """Evaluate all nets for one cycle without advancing the registers."""
        values: Dict[str, int] = {}
        for name in self.netlist.inputs:
            if name not in inputs:
                raise SimulationError(f"missing value for input {name}")
            width = self.netlist.width(name)
            value = inputs[name]
            if not (0 <= value < (1 << width)):
                raise SimulationError(
                    f"input {name} value {value} does not fit width {width}"
                )
            values[name] = value
        for reg_name, reg in self.netlist.registers.items():
            values[reg.output] = self.state[reg_name]
        for cell in self._order:
            ins = [values[i] for i in cell.inputs]
            width = self.netlist.width(cell.output)
            params = dict(cell.params)
            params["_in_widths"] = tuple(self.netlist.width(i) for i in cell.inputs)
            values[cell.output] = cell.cell_type.evaluate(width, ins, params)
        return values

    def step(self, inputs: Dict[str, int]) -> Dict[str, int]:
        """Advance one clock cycle; returns the sampled primary outputs."""
        values = self.evaluate_combinational(inputs)
        outputs = {name: values[name] for name in self.netlist.outputs}
        next_state = {
            name: values[reg.input] for name, reg in self.netlist.registers.items()
        }
        self.state = next_state
        return outputs

    # -- multi cycle -------------------------------------------------------------
    def run(self, input_sequence: Sequence[Dict[str, int]]) -> Trace:
        """Simulate a sequence of input vectors from the current state."""
        return Trace([self.step(vec) for vec in input_sequence])


def _aig_cycles(netlist: Netlist, lowered, input_sequence: Iterable[Dict[str, int]],
                roots: Sequence[int] = ()) -> Iterator[List[int]]:
    """Step a netlist lowered by ``netlist_to_aig``, one cycle per input vector.

    Yields, once per cycle, the 0/1 value of each node by index: the inputs,
    the latches (holding that cycle's state) and the AND nodes in the cones
    of ``roots`` and of the next-state literals.  The list is reused, so a
    caller reads it before asking for the next cycle.
    """
    aig = lowered.aig
    input_bits = [(name, i, literal >> 1) for name in netlist.inputs
                  for i, literal in enumerate(lowered.lit_map[name])]
    latches = list(aig.latches)
    nexts = [aig.next_of(node) for node in latches]
    ands = [(node,) + aig.fanins(node) for node in aig.cone(list(roots) + nexts)
            if aig.is_and(node)]
    vals = [0] * aig.num_nodes
    state = [aig.init_of(node) for node in latches]
    for vec in input_sequence:
        for name, i, node in input_bits:
            vals[node] = vec[name] >> i & 1
        for node, bit in zip(latches, state):
            vals[node] = bit
        for node, f0, f1 in ands:
            vals[node] = (vals[f0 >> 1] ^ (f0 & 1)) & (vals[f1 >> 1] ^ (f1 & 1))
        yield vals
        state = [vals[nxt >> 1] ^ (nxt & 1) for nxt in nexts]


def aig_outputs(netlist: Netlist,
                input_sequence: Iterable[Dict[str, int]]) -> Iterator[Dict[str, int]]:
    """The outputs of each cycle, as :meth:`Simulator.step` returns them.

    The netlist is lowered once with :func:`repro.circuits.aig.netlist_to_aig`
    and stepped lazily, as far as the caller reads.
    """
    from .aig import netlist_to_aig

    lowered = netlist_to_aig(netlist)
    outputs = [(name, lowered.lit_map[name]) for name in netlist.outputs]
    roots = [literal for _, lits in outputs for literal in lits]
    for vals in _aig_cycles(netlist, lowered, input_sequence, roots):
        yield {name: sum((vals[lit >> 1] ^ (lit & 1)) << i for i, lit in enumerate(lits))
               for name, lits in outputs}


def bit_parallel_signatures(
    netlist: Netlist, cycles: int, seed: int = 0
) -> Dict[str, int]:
    """Per-net value signatures packed bitwise: bit ``t`` = value in cycle ``t``.

    Word-parallel simulation of a *gate-level* netlist (every net one bit
    wide) over the shared AIG IR: the netlist is lowered once with
    :func:`repro.circuits.aig.netlist_to_aig` — so structurally equal
    subcircuits collapse onto single nodes — and all ``cycles`` random
    cycles are packed into a single Python int per node; a net's signature
    is its node's word, complement-corrected through the inverted edge of
    its literal (phase is explicit, never conflated away).

    Bit-exact with the naive ``evaluate_combinational``-then-record loop:
    the stimulus is :func:`random_input_sequence` with the same ``seed``,
    and the register trajectory is advanced cycle by cycle — but only over
    the AIG nodes in the transitive fan-in cones of the latch next-state
    literals; every other node is evaluated once, on whole words.  Two nets
    have equal packed signatures iff their per-cycle value tuples are equal,
    so signature-based candidate bucketing (van Eijk step 1) is unchanged.
    """
    from .aig import netlist_to_aig

    if any(net.width != 1 for net in netlist.nets.values()):
        raise SimulationError(
            "bit_parallel_signatures: netlist must be gate level (1-bit nets)"
        )
    lowered = netlist_to_aig(netlist)
    aig = lowered.aig
    seq = random_input_sequence(netlist, cycles, seed=seed)
    mask = (1 << cycles) - 1 if cycles else 0

    input_node = {name: lowered.lit_map[name][0] >> 1 for name in netlist.inputs}

    # Phase 1 (sequential, narrow): the latch trajectories.  Only the AND
    # nodes in the fan-in cones of the next-state literals are evaluated per
    # cycle; everything else waits for the word-parallel pass.
    latch_words = {node: 0 for node in aig.latches}
    for t, vals in enumerate(_aig_cycles(netlist, lowered, seq)):
        for node in latch_words:
            latch_words[node] |= vals[node] << t

    # Phase 2 (bit-parallel, wide): one pass over every node on packed words.
    words = {
        node: sum((seq[t][name] & 1) << t for t in range(cycles))
        for name, node in input_node.items()
    }
    words.update(latch_words)
    node_words = aig.eval_words(words, mask)
    return {
        net: aig.lit_word(node_words, lits[0], mask)
        for net, lits in lowered.lit_map.items()
    }


def random_input_sequence(
    netlist: Netlist, cycles: int, seed: int = 0
) -> List[Dict[str, int]]:
    """A reproducible random input sequence for a netlist."""
    rng = random.Random(seed)
    seq = []
    for _ in range(cycles):
        vec = {}
        for name in netlist.inputs:
            width = netlist.width(name)
            vec[name] = rng.randrange(1 << width)
        seq.append(vec)
    return seq


def simulate(
    netlist: Netlist,
    input_sequence: Sequence[Dict[str, int]],
    state: Optional[Dict[str, int]] = None,
) -> Trace:
    """Convenience wrapper: simulate from the initial (or given) state."""
    return Simulator(netlist, state).run(input_sequence)


def outputs_equal(a: Netlist, b: Netlist, cycles: int = 64, seed: int = 0) -> bool:
    """Simulation-based equivalence check on random stimuli.

    This is the "validation by simulation" baseline of Section II of the
    paper — it can find mismatches but never proves equivalence.
    """
    return find_mismatch(a, b, cycles, seed) is None


def find_mismatch(
    a: Netlist, b: Netlist, cycles: int = 256, seed: int = 0
) -> Optional[int]:
    """Return the first cycle where the outputs of ``a`` and ``b`` differ."""
    seq = random_input_sequence(a, cycles, seed)
    trace_a = simulate(a, seq)
    trace_b = simulate(b, seq)
    for t, (step_a, step_b) in enumerate(zip(trace_a.outputs, trace_b.outputs)):
        if step_a != step_b:
            return t
    return None
