"""Regression: the term evaluator must handle deep terms at the default
recursion limit.

The seed ``TermEvaluator._eval`` was a plain Python recursion over the term
structure, so a gate-level ``let`` chain (one binding per gate) of more than
~1000 bindings died with ``RecursionError`` before it could be *evaluated*,
even though the kernel itself had gone iterative (ROADMAP open item).  The
evaluator is now a CEK-style machine with an explicit control stack; this
test evaluates a >2000-binding ``let`` chain and a deep bit-blasted circuit
without touching ``sys.setrecursionlimit``.
"""

import sys

from repro.automata.semantics import TermEvaluator, run_automaton
from repro.circuits.bitblast import bitblast
from repro.circuits.netlist import Netlist
from repro.circuits.simulate import simulate
from repro.formal.embed import embed_netlist
from repro.logic.ground import mk_numeral
from repro.logic.hol_types import num_ty
from repro.logic.kernel import reset_kernel
from repro.logic.stdlib import ensure_stdlib, mk_let, word_op
from repro.logic.terms import Var

#: comfortably above both the 2000-binding target and the default
#: interpreter recursion limit (1000)
CHAIN = 2500


def chain_netlist(n: int) -> Netlist:
    """A 1-bit circuit with an ``n``-deep XOR chain between two registers.

    XOR lowers to an irredundant two-level AND/inverter structure, so the
    structurally-hashed AIG behind the bit-blaster cannot collapse the
    chain (a NOT chain would fold to a single inverted edge).
    """
    nl = Netlist("deep_chain")
    nl.add_input("i")
    nl.add_net("r_out")
    nl.add_net("mix")
    nl.add_cell("mix", "XOR", ["i", "r_out"], "mix")
    prev = "mix"
    for k in range(n):
        net = f"n{k}"
        nl.add_net(net)
        nl.add_cell(f"g{k}", "XOR", [prev, "i"], net)
        prev = net
    nl.add_register("r", prev, "r_out")
    nl.add_output("y")
    nl.add_cell("ybuf", "BUF", [prev], "y")
    return nl


def test_deep_let_chain_evaluates_at_default_recursion_limit():
    reset_kernel()
    ensure_stdlib()
    limit_before = sys.getrecursionlimit()

    width = 16
    w = mk_numeral(width)
    variables = [Var(f"x{k}", num_ty) for k in range(CHAIN)]
    term = variables[-1]
    for k in range(CHAIN - 1, 0, -1):
        term = mk_let(variables[k], word_op("INCW", w, variables[k - 1]), term)
    term = mk_let(variables[0], mk_numeral(0), term)

    value = TermEvaluator().evaluate(term)
    assert value == (CHAIN - 1) % (1 << width)
    assert sys.getrecursionlimit() == limit_before


def test_deep_bitblasted_circuit_evaluates_like_the_simulator():
    reset_kernel()
    ensure_stdlib()

    # opt=False: the rewriter would (correctly) telescope the xor chain
    netlist = bitblast(chain_netlist(1100), opt=False).netlist
    assert netlist.num_gates() > 2000
    embedded = embed_netlist(netlist)

    vectors = [{"i": k % 2} for k in range(4)]
    expected = [frame["y"] for frame in simulate(netlist, vectors).outputs]
    inputs = [bool(v["i"]) for v in vectors]  # the one 1-bit input
    outputs = run_automaton(embedded.term, inputs)
    assert [int(o) for o in outputs] == [int(e) for e in expected]
