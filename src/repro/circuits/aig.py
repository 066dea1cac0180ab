"""Structurally-hashed and-inverter graphs (AIGs): the shared circuit IR.

Every bit-level consumer in the repo used to re-walk the raw
:class:`~repro.circuits.netlist.Netlist` with its own ad-hoc traversal
(the bit-blaster, the word-parallel simulator, van Eijk's signature
harvesting, the tautology checkers).  The :class:`Aig` collapses them onto
one normal form:

* nodes are two-input AND gates over **inverted edges** — a literal is
  ``(node << 1) | complement``, so negation is an O(1) bit flip and a
  function and its complement share every node;
* node creation is **hash-consed**: a two-level structural-hashing table
  canonicalises operand order, folds constants (``x & 0``, ``x & 1``),
  idempotence (``x & x``), contradiction (``x & ~x``) and one-level-deep
  absorption/containment (``x & (x & y) = x & y``, ``x & (~x & y) = 0``,
  ``x & ~(~x & y) = x``), so structurally equal subcircuits are built once;
* construction order is topological by definition, so every traversal
  (word-parallel evaluation, cone extraction, netlist emission) is a plain
  index loop or an explicit work stack — the repo-wide "no recursion-limit
  bumps in ``src/``" guarantee covers the AIG layer.

:func:`netlist_to_aig` lowers a (word- or gate-level) netlist into the IR:
word-level cells decompose into AND/inverter structures *at the literal
level* (ripple-carry adders, shift-and-add multipliers, comparator chains),
registers become latches, and every net maps to a list of literals (LSB
first).  The bit-blaster emits its gate-level netlist from this DAG
(:func:`aig_to_netlist`), the simulator evaluates its nodes word-parallel,
van Eijk buckets its signatures, and the ``sat``/``fraig`` backends build
Tseitin CNF from its cones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class AigError(Exception):
    """Raised for malformed AIG constructions or unsupported lowerings."""


#: the two constant literals (node 0 is the constant-FALSE node)
FALSE = 0
TRUE = 1

#: node kinds
_CONST = 0
_INPUT = 1
_LATCH = 2
_AND = 3


def lit(node: int, negated: bool = False) -> int:
    """The literal for ``node``, optionally complemented."""
    return (node << 1) | int(negated)


def lit_not(literal: int) -> int:
    """Negation is an O(1) flip of the complement bit."""
    return literal ^ 1


def lit_node(literal: int) -> int:
    return literal >> 1


def lit_negated(literal: int) -> bool:
    return bool(literal & 1)


def bit_name(net: str, index: int) -> str:
    """Canonical name of bit ``index`` of a word-level net."""
    return f"{net}[{index}]"


class Aig:
    """A structurally-hashed and-inverter graph."""

    def __init__(self, name: str = "aig"):
        self.name = name
        # parallel node arrays; node 0 is the constant-FALSE node
        self._kind: List[int] = [_CONST]
        self._fan0: List[int] = [FALSE]
        self._fan1: List[int] = [FALSE]
        self._names: Dict[int, str] = {}
        self._node_of_name: Dict[str, int] = {}
        #: latch node -> next-state literal (set by :meth:`set_next`)
        self._next: Dict[int, int] = {}
        #: latch node -> initial value (0/1)
        self._init: Dict[int, int] = {}
        self.inputs: List[int] = []
        self.latches: List[int] = []
        self.outputs: List[Tuple[str, int]] = []
        self._strash: Dict[Tuple[int, int], int] = {}
        #: structural-hashing cache hits (shared subterms built once)
        self.strash_hits = 0

    # -- introspection -------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._kind)

    @property
    def num_ands(self) -> int:
        return len(self._kind) - 1 - len(self.inputs) - len(self.latches)

    def kind(self, node: int) -> int:
        return self._kind[node]

    def is_and(self, node: int) -> bool:
        return self._kind[node] == _AND

    def fanins(self, node: int) -> Tuple[int, int]:
        if self._kind[node] != _AND:
            raise AigError(f"node {node} is not an AND node")
        return self._fan0[node], self._fan1[node]

    def name_of(self, node: int) -> Optional[str]:
        return self._names.get(node)

    def next_of(self, latch: int) -> int:
        try:
            return self._next[latch]
        except KeyError:
            raise AigError(f"latch {latch} has no next-state literal") from None

    def init_of(self, latch: int) -> int:
        return self._init[latch]

    # -- construction --------------------------------------------------------
    def _new_node(self, kind: int, fan0: int, fan1: int) -> int:
        node = len(self._kind)
        self._kind.append(kind)
        self._fan0.append(fan0)
        self._fan1.append(fan1)
        return node

    def _named_node(self, kind: int, name: str) -> int:
        if name in self._node_of_name:
            raise AigError(f"duplicate input/latch name: {name}")
        node = self._new_node(kind, FALSE, FALSE)
        self._names[node] = name
        self._node_of_name[name] = node
        return node

    def add_input(self, name: str) -> int:
        """Declare a primary input; returns its (plain) literal."""
        node = self._named_node(_INPUT, name)
        self.inputs.append(node)
        return lit(node)

    def add_latch(self, name: str, init: int = 0) -> int:
        """Declare a latch (register bit); returns its output literal."""
        node = self._named_node(_LATCH, name)
        self.latches.append(node)
        self._init[node] = int(init) & 1
        return lit(node)

    def set_next(self, latch_lit: int, next_lit: int) -> None:
        node = lit_node(latch_lit)
        if lit_negated(latch_lit) or self._kind[node] != _LATCH:
            raise AigError("set_next expects a plain latch output literal")
        self._next[node] = next_lit

    def add_output(self, name: str, literal: int) -> None:
        self.outputs.append((name, literal))

    # -- hash-consed AND construction ---------------------------------------
    def mk_and(self, a: int, b: int) -> int:
        """The conjunction of two literals, structurally hashed and folded."""
        if a > b:
            a, b = b, a
        # constant / trivial folds
        if a == FALSE or a == lit_not(b):
            return FALSE
        if a == TRUE or a == b:
            return b
        # one-level-deep ("two-level") absorption and contradiction: inspect
        # the fanins of AND children before creating a new node
        for child, other in ((a, b), (b, a)):
            node = lit_node(child)
            if self._kind[node] != _AND:
                continue
            f0, f1 = self._fan0[node], self._fan1[node]
            if not lit_negated(child):
                if other == f0 or other == f1:
                    return child            # x & (x & y) = x & y
                if other == lit_not(f0) or other == lit_not(f1):
                    return FALSE            # x & (~x & y) = 0
            else:
                if other == lit_not(f0) or other == lit_not(f1):
                    return other            # x & ~(~x & y) = x
        key = (a, b)
        node = self._strash.get(key)
        if node is not None:
            self.strash_hits += 1
            return lit(node)
        node = self._new_node(_AND, a, b)
        self._strash[key] = node
        return lit(node)

    def mk_not(self, a: int) -> int:
        return lit_not(a)

    def mk_or(self, a: int, b: int) -> int:
        return lit_not(self.mk_and(lit_not(a), lit_not(b)))

    def mk_nand(self, a: int, b: int) -> int:
        return lit_not(self.mk_and(a, b))

    def mk_nor(self, a: int, b: int) -> int:
        return self.mk_and(lit_not(a), lit_not(b))

    def mk_xor(self, a: int, b: int) -> int:
        # (a & ~b) | (~a & b); the two product nodes are shared with mk_mux
        # and the carry logic of the adders through the strash table
        return self.mk_or(self.mk_and(a, lit_not(b)), self.mk_and(lit_not(a), b))

    def mk_xnor(self, a: int, b: int) -> int:
        return lit_not(self.mk_xor(a, b))

    def mk_mux(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b`` as two products and an OR."""
        return self.mk_or(self.mk_and(sel, a), self.mk_and(lit_not(sel), b))

    def mk_ands(self, literals: Iterable[int]) -> int:
        out = TRUE
        for literal in literals:
            out = self.mk_and(out, literal)
        return out

    def mk_ors(self, literals: Iterable[int]) -> int:
        out = FALSE
        for literal in literals:
            out = self.mk_or(out, literal)
        return out

    # -- traversals (all iterative) -----------------------------------------
    def cone(self, roots: Iterable[int]) -> List[int]:
        """All nodes in the transitive fan-in of ``roots`` (ascending order).

        Explicit-stack DFS over node indices; includes the constant node,
        inputs and latches that appear in the cone.  Latch *next* literals
        are not followed — the cone is combinational.
        """
        seen = set()
        stack = [lit_node(r) for r in roots]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if self._kind[node] == _AND:
                stack.append(lit_node(self._fan0[node]))
                stack.append(lit_node(self._fan1[node]))
        return sorted(seen)

    def eval_words(self, words: Dict[int, int], mask: int) -> List[int]:
        """Word-parallel evaluation: one packed int per node.

        ``words`` assigns a word to every input/latch node (missing entries
        default to 0).  Because node indices are topologically ordered by
        construction, a single index loop evaluates the whole DAG — no
        recursion, no work stack.
        """
        vals = [0] * len(self._kind)
        for node, kind in enumerate(self._kind):
            if kind == _AND:
                f0, f1 = self._fan0[node], self._fan1[node]
                w0 = vals[f0 >> 1] ^ (mask if f0 & 1 else 0)
                w1 = vals[f1 >> 1] ^ (mask if f1 & 1 else 0)
                vals[node] = w0 & w1
            elif kind != _CONST:
                vals[node] = words.get(node, 0) & mask
        return vals

    def lit_word(self, vals: Sequence[int], literal: int, mask: int) -> int:
        """The packed word of a literal given per-node words."""
        word = vals[literal >> 1]
        return word ^ mask if literal & 1 else word

    def check_invariants(self) -> None:
        """Raise :class:`AigError` if structural hashing was violated."""
        seen: Dict[Tuple[int, int], int] = {}
        for node, kind in enumerate(self._kind):
            if kind != _AND:
                continue
            f0, f1 = self._fan0[node], self._fan1[node]
            if f0 > f1:
                raise AigError(f"node {node}: fanins not canonically ordered")
            if lit_node(f0) >= node or lit_node(f1) >= node:
                raise AigError(f"node {node}: fanin from a later node")
            if (f0, f1) in seen:
                raise AigError(
                    f"duplicate structural node: {node} repeats {seen[(f0, f1)]}"
                )
            seen[(f0, f1)] = node

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Aig({self.name!r}, inputs={len(self.inputs)}, "
            f"latches={len(self.latches)}, ands={self.num_ands})"
        )


# ---------------------------------------------------------------------------
# word-level cell lowering (the bit-blaster's decompositions, on literals)
# ---------------------------------------------------------------------------

def _full_adder(aig: Aig, a: int, b: int, cin: int) -> Tuple[int, int]:
    s1 = aig.mk_xor(a, b)
    s = aig.mk_xor(s1, cin)
    carry = aig.mk_or(aig.mk_and(a, b), aig.mk_and(s1, cin))
    return s, carry


def _ripple_add(aig: Aig, xs: Sequence[int], ys: Sequence[int], cin: int) -> List[int]:
    outs = []
    carry = cin
    for a, b in zip(xs, ys):
        s, carry = _full_adder(aig, a, b, carry)
        outs.append(s)
    return outs


def lower_cell(
    aig: Aig, cell_type: str, in_lits: List[List[int]], width: int,
    params: Optional[Dict] = None,
) -> List[int]:
    """Lower one cell instance to literals (LSB first).

    ``in_lits`` holds the literal vector of each input net.  This is the
    single source of the gate-level decompositions: the bit-blaster, the
    SAT/fraig equivalence checkers and the simulator all reach word-level
    semantics through it.
    """
    params = params or {}
    t = cell_type
    if t == "BUF":
        return list(in_lits[0])
    if t == "NOT":
        return [lit_not(x) for x in in_lits[0]]
    if t in ("AND", "OR", "XOR", "NAND", "NOR", "XNOR"):
        op = {
            "AND": aig.mk_and, "OR": aig.mk_or, "XOR": aig.mk_xor,
            "NAND": aig.mk_nand, "NOR": aig.mk_nor, "XNOR": aig.mk_xnor,
        }[t]
        return [op(a, b) for a, b in zip(in_lits[0], in_lits[1])]
    if t == "MUX":
        sel = in_lits[0][0]
        return [
            aig.mk_mux(sel, a, b) for a, b in zip(in_lits[1], in_lits[2])
        ]
    if t == "CONST":
        value = int(params.get("value", 0))
        return [TRUE if (value >> i) & 1 else FALSE for i in range(width)]
    if t == "INC":
        xs = in_lits[0]
        return _ripple_add(aig, xs, [TRUE] + [FALSE] * (len(xs) - 1), FALSE)
    if t == "DEC":
        # a - 1 = a + all-ones
        xs = in_lits[0]
        return _ripple_add(aig, xs, [TRUE] * len(xs), FALSE)
    if t == "ADD":
        return _ripple_add(aig, in_lits[0], in_lits[1], FALSE)
    if t == "SUB":
        return _ripple_add(aig, in_lits[0], [lit_not(y) for y in in_lits[1]], TRUE)
    if t == "MUL":
        xs, ys = in_lits[0], in_lits[1]
        acc = [FALSE] * width
        for j, yj in enumerate(ys):
            if j >= width:
                break
            partial = [
                aig.mk_and(xs[i - j], yj) if 0 <= i - j < len(xs) else FALSE
                for i in range(width)
            ]
            acc = _ripple_add(aig, acc, partial, FALSE)
        return acc
    if t == "SHL1":
        return [FALSE] + list(in_lits[0][:-1])
    if t == "SHR1":
        return list(in_lits[0][1:]) + [FALSE]
    if t in ("EQ", "NEQ"):
        eq = aig.mk_ands(
            aig.mk_xnor(a, b) for a, b in zip(in_lits[0], in_lits[1])
        )
        return [eq if t == "EQ" else lit_not(eq)]
    if t in ("LT", "GE"):
        less = FALSE
        for a, b in zip(in_lits[0], in_lits[1]):
            altb = aig.mk_and(lit_not(a), b)
            keep = aig.mk_and(aig.mk_xnor(a, b), less)
            less = aig.mk_or(altb, keep)
        return [less if t == "LT" else lit_not(less)]
    if t == "REDAND":
        return [aig.mk_ands(in_lits[0])]
    if t == "REDOR":
        return [aig.mk_ors(in_lits[0])]
    if t == "REDXOR":
        out = FALSE
        for x in in_lits[0]:
            out = aig.mk_xor(out, x)
        return [out]
    raise AigError(f"no AIG decomposition for cell type {t}")


def lower_combinational(
    aig: Aig, netlist, env: Dict[str, List[int]],
) -> Dict[str, List[int]]:
    """Lower the combinational part of a netlist into an existing AIG.

    ``env`` provides the literal vector of every source net (primary inputs
    and register outputs); every other net is derived by lowering its
    driving cell in topological order.  Returns the full net -> literals
    map.  Used by the SAT/fraig miters, which share one AIG (and therefore
    one strash table) between the two circuits being compared.
    """
    values: Dict[str, List[int]] = {name: list(lits) for name, lits in env.items()}
    for cell in netlist.topological_cells():
        in_lits = [values[i] for i in cell.inputs]
        width = netlist.width(cell.output)
        out_lits = lower_cell(aig, cell.type, in_lits, width, cell.params)
        if len(out_lits) != width:
            raise AigError(
                f"cell {cell.name}: lowering produced {len(out_lits)} bits, "
                f"expected {width}"
            )
        values[cell.output] = out_lits
    return values


@dataclass
class NetlistAig:
    """A netlist lowered into the AIG IR."""

    aig: Aig
    #: net name -> list of literals (LSB first), for every net of the netlist
    lit_map: Dict[str, List[int]] = field(default_factory=dict)
    #: register name -> list of latch node indices (LSB first)
    latch_map: Dict[str, List[int]] = field(default_factory=dict)


def netlist_to_aig(netlist) -> NetlistAig:
    """Lower a (word- or gate-level) netlist into a fresh, hash-consed AIG.

    Multi-bit nets expand into per-bit literals named ``net[i]``; registers
    become latches whose next-state literals come from the lowered
    combinational logic.  The one lowering shared by the bit-blaster, the
    word-parallel simulator and the equivalence backends.
    """
    netlist.validate()
    aig = Aig(netlist.name)
    env: Dict[str, List[int]] = {}

    for inp in netlist.inputs:
        width = netlist.width(inp)
        env[inp] = [
            aig.add_input(bit_name(inp, i) if width > 1 else inp)
            for i in range(width)
        ]
    latch_map: Dict[str, List[int]] = {}
    for reg in netlist.registers.values():
        lits = []
        nodes = []
        for i in range(reg.width):
            name = bit_name(reg.output, i) if reg.width > 1 else reg.output
            latch_lit = aig.add_latch(name, (reg.init >> i) & 1)
            lits.append(latch_lit)
            nodes.append(lit_node(latch_lit))
        env[reg.output] = lits
        latch_map[reg.name] = nodes

    lit_map = lower_combinational(aig, netlist, env)

    for reg in netlist.registers.values():
        for latch_lit, next_lit in zip(env[reg.output], lit_map[reg.input]):
            aig.set_next(latch_lit, next_lit)
    for out in netlist.outputs:
        width = netlist.width(out)
        for i, literal in enumerate(lit_map[out]):
            aig.add_output(bit_name(out, i) if width > 1 else out, literal)

    return NetlistAig(aig=aig, lit_map=lit_map, latch_map=latch_map)


# ---------------------------------------------------------------------------
# gate-level netlist emission from the shared DAG
# ---------------------------------------------------------------------------

class _Emitter:
    """Emit AIG nodes as netlist gates, each node and inverter exactly once."""

    def __init__(self, out, aig: Aig):
        self.out = out
        self.aig = aig
        #: node -> name of the net carrying the *plain* node function
        self.net_of: Dict[int, str] = {}
        #: node -> name of the net carrying the complemented function
        self.inv_of: Dict[int, str] = {}

    def name_source(self, node: int, net: str) -> None:
        """Pre-name an input or latch node."""
        self.net_of[node] = net

    def emit_cones(self, named: List[int], next_states: List[int]) -> None:
        """Emit every AND node in the cones of the named nets, in index order
        (fanins always precede their readers); next-state literals are
        emitted on demand."""
        for node in self.aig.cone(named):
            if self.aig.is_and(node):
                self.emit_node(node)

    def _fresh(self, base: str) -> str:
        return self.out.fresh_net_name(base)

    def _add_gate(self, type: str, inputs: List[str], net: str, params=None) -> str:
        self.out.add_net(net, 1)
        cell = self.out.fresh_instance_name(f"g_{net}")
        self.out.add_cell(cell, type, inputs, net, params=params or {})
        return net

    def emit_node(self, node: int) -> str:
        """The net name of the plain function of ``node`` (emitting it once)."""
        name = self.net_of.get(node)
        if name is not None:
            return name
        kind = self.aig.kind(node)
        if kind == _CONST:
            name = self._add_gate(
                "CONST", [], self._fresh("aig_const0"),
                params={"value": 0, "width": 1},
            )
        elif kind == _AND:
            f0, f1 = self.aig.fanins(node)
            name = self._add_gate(
                "AND", [self.emit_lit(f0), self.emit_lit(f1)],
                self._fresh(f"aig{node}"),
            )
        else:  # pragma: no cover - inputs/latches are pre-named by the caller
            raise AigError(f"node {node} has no pre-assigned net")
        self.net_of[node] = name
        return name

    def emit_lit(self, literal: int) -> str:
        """The net name of a literal, sharing one inverter per node."""
        node = lit_node(literal)
        if not lit_negated(literal):
            return self.emit_node(node)
        name = self.inv_of.get(node)
        if name is not None:
            return name
        if self.aig.kind(node) == _CONST:
            name = self._add_gate(
                "CONST", [], self._fresh("aig_const1"),
                params={"value": 1, "width": 1},
            )
        else:
            name = self._add_gate(
                "NOT", [self.emit_node(node)], self._fresh(f"aig{node}b")
            )
        self.inv_of[node] = name
        return name


class _PatternEmitter:
    """Pattern-matching gate emitter (the ``patterns=True`` path).

    The canonical 3-AND structures that :func:`mk_xor` and :func:`mk_mux`
    build — ``¬(a·b)·¬(¬a·¬b)`` and ``¬(s·a)·¬(¬s·b)`` — are matched back
    into single ``XOR``/``XNOR``/``MUX`` cells, and AND nodes demanded only
    in complemented form become one ``NAND`` instead of ``AND`` + ``NOT``.
    Emission is demand-driven: a marking pass (explicit stack) records
    which ``(node, polarity)`` pairs are reachable from the requested
    literals, then one cell per demanded pair is emitted in node index
    order (fanins always precede readers, so ``add_cell`` input checks
    hold).  Inner nodes of a matched structure are emitted only if some
    other reader demands them.
    """

    def __init__(self, out, aig: Aig):
        self.out = out
        self.aig = aig
        #: (node, polarity) -> net name carrying that literal
        self.net: Dict[Tuple[int, int], str] = {}
        self.demand: set = set()
        self._rules: Dict[int, Optional[tuple]] = {}

    def name_source(self, node: int, net: str) -> None:
        """Pre-name an input or latch node (its plain polarity)."""
        self.net[(node, 0)] = net

    def emit_cones(self, named: List[int], next_states: List[int]) -> None:
        """Emit the logic the named nets and the next states demand."""
        self.require(named + next_states)
        self.emit()

    def _match(self, node: int) -> Optional[tuple]:
        """Classify an AND node: ``("xor", n0, n1, parity)`` means the plain
        node is ``XOR(plain n0, plain n1) ^ parity``; ``("mux", s, a, b)``
        (``s`` plain) means the *complemented* node is ``s ? a : b`` over
        literals ``a``/``b``.  XOR is checked first — its shape is a special
        case of the MUX shape."""
        rule = self._rules.get(node, False)
        if rule is not False:
            return rule
        rule = None
        f0, f1 = self.aig.fanins(node)
        if f0 & 1 and f1 & 1:
            p, q = f0 >> 1, f1 >> 1
            if p != q and self.aig.is_and(p) and self.aig.is_and(q):
                a0, a1 = self.aig.fanins(p)
                qf = self.aig.fanins(q)
                if set(qf) == {a0 ^ 1, a1 ^ 1}:
                    rule = ("xor", a0 >> 1, a1 >> 1, (a0 & 1) ^ (a1 & 1))
                else:
                    for s, branch_a in ((a0, a1), (a1, a0)):
                        if s ^ 1 in qf:
                            qa, qb = qf
                            branch_b = qb if qa == s ^ 1 else qa
                            if s & 1:  # MUX(¬t, a, b) = MUX(t, b, a)
                                rule = ("mux", s ^ 1, branch_b, branch_a)
                            else:
                                rule = ("mux", s, branch_a, branch_b)
                            break
        self._rules[node] = rule
        return rule

    def require(self, literals) -> None:
        """Mark every (node, polarity) pair the given literals demand."""
        stack = [(literal >> 1, literal & 1) for literal in literals]
        while stack:
            pair = stack.pop()
            if pair in self.demand:
                continue
            self.demand.add(pair)
            node, pol = pair
            if not self.aig.is_and(node):
                continue
            rule = self._match(node)
            if rule is None:
                for fanin in self.aig.fanins(node):
                    stack.append((fanin >> 1, fanin & 1))
            elif rule[0] == "xor":
                stack.append((rule[1], 0))
                stack.append((rule[2], 0))
            else:
                _, sel, branch_a, branch_b = rule
                stack.append((sel >> 1, 0))
                flip = pol ^ 1  # plain node is MUX(sel, ¬a, ¬b)
                stack.append((branch_a >> 1, (branch_a & 1) ^ flip))
                stack.append((branch_b >> 1, (branch_b & 1) ^ flip))

    def emit(self) -> None:
        """Emit one cell per demanded pair, in node index order."""
        out, aig = self.out, self.aig
        for node in range(aig.num_nodes):
            for pol in (0, 1):
                if (node, pol) not in self.demand or (node, pol) in self.net:
                    continue
                suffix = "b" if pol else ""
                if aig.kind(node) == _CONST:
                    self._add_gate(
                        "CONST", [], out.fresh_net_name(f"aig_const{pol}"),
                        (node, pol), params={"value": pol, "width": 1},
                    )
                    continue
                if not aig.is_and(node):
                    # inputs/latches are pre-named; pol 1 is one NOT
                    self._add_gate(
                        "NOT", [self.net[(node, 0)]],
                        out.fresh_net_name(f"aig{node}b"), (node, pol),
                    )
                    continue
                rule = self._match(node)
                net = out.fresh_net_name(f"aig{node}{suffix}")
                if rule is None:
                    f0, f1 = aig.fanins(node)
                    self._add_gate(
                        "AND" if pol == 0 else "NAND",
                        [self.emit_lit(f0), self.emit_lit(f1)], net,
                        (node, pol),
                    )
                elif rule[0] == "xor":
                    _, n0, n1, parity = rule
                    self._add_gate(
                        "XOR" if parity ^ pol == 0 else "XNOR",
                        [self.net[(n0, 0)], self.net[(n1, 0)]], net,
                        (node, pol),
                    )
                else:
                    _, sel, branch_a, branch_b = rule
                    flip = pol ^ 1
                    self._add_gate(
                        "MUX",
                        [self.net[(sel >> 1, 0)],
                         self.emit_lit(branch_a ^ flip),
                         self.emit_lit(branch_b ^ flip)], net,
                        (node, pol),
                    )

    def _add_gate(self, type: str, inputs: List[str], net: str,
                  pair: Tuple[int, int], params=None) -> None:
        self.out.add_net(net, 1)
        cell = self.out.fresh_instance_name(f"g_{net}")
        self.out.add_cell(cell, type, inputs, net, params=params or {})
        self.net[pair] = net

    def emit_lit(self, literal: int) -> str:
        """The net of an (already demanded and emitted) literal."""
        return self.net[(literal >> 1, literal & 1)]


def aig_to_netlist(lowered: NetlistAig, source, name: Optional[str] = None,
                   patterns: bool = False):
    """Emit a pure gate-level netlist from a lowered netlist's shared DAG.

    ``source`` is the original (word-level) netlist — it fixes the external
    contract: primary input/output bit names, register names and initial
    values.  Shared internal nodes are emitted exactly once (as ``AND``
    cells), complemented edges as at most one ``NOT`` cell per node, and
    constants as ``CONST`` cells only when used.  Returns the netlist plus
    the word-net -> bit-net name map.

    With ``patterns=True`` the :class:`_PatternEmitter` is used instead:
    canonical XOR/MUX AND structures collapse into single cells,
    complement-only AND nodes become ``NAND``, and only logic demanded by
    named nets and latch next-states is emitted at all.
    """
    from .netlist import Netlist

    aig = lowered.aig
    out = Netlist(name or aig.name)
    emitter = (_PatternEmitter if patterns else _Emitter)(out, aig)

    def bit(net: str, i: int, width: int) -> str:
        return bit_name(net, i) if width > 1 else net

    for inp in source.inputs:
        width = source.width(inp)
        for i, literal in enumerate(lowered.lit_map[inp]):
            net = out.add_input(bit(inp, i, width), 1).name
            emitter.name_source(lit_node(literal), net)
    for reg in source.registers.values():
        for i, node in enumerate(lowered.latch_map[reg.name]):
            net = out.add_net(bit(reg.output, i, reg.width), 1).name
            emitter.name_source(node, net)

    emitter.emit_cones(
        [l for lits in lowered.lit_map.values() for l in lits],
        [aig.next_of(node) for reg in source.registers.values()
         for node in lowered.latch_map[reg.name]],
    )

    for reg in source.registers.values():
        for i, node in enumerate(lowered.latch_map[reg.name]):
            out.add_register(
                bit(reg.name, i, reg.width), emitter.emit_lit(aig.next_of(node)),
                bit(reg.output, i, reg.width), init=(reg.init >> i) & 1, width=1,
            )

    bit_map = {
        net: [emitter.emit_lit(l) for l in lits]
        for net, lits in lowered.lit_map.items()
    }

    for po in source.outputs:
        width = source.width(po)
        for i, src in enumerate(bit_map[po]):
            target = bit(po, i, width)
            if src != target and target not in out.nets:
                out.add_net(target, 1)
                cell = out.fresh_instance_name(f"buf_{target}")
                out.add_cell(cell, "BUF", [src], target)
            out.mark_output(target)

    out.validate()
    return out, bit_map
