"""Regression: deep gate chains must work at the default recursion limit.

The seed kernel represented terms as plain recursive objects, so equality,
hashing and substitution recursed over the whole structure and a bit-blasted
gate-level chain of a couple of thousand gates died with ``RecursionError``.
With hash-consing and explicit-stack traversals, depth is bounded only by
memory.  This test builds a >2000-gate chain, bit-blasts it, embeds it as a
logic term (one ``let`` binding per gate, so term depth tracks gate count)
and exercises the core operations without touching ``sys.setrecursionlimit``.
"""

import sys

from repro.circuits.aig import aig_to_netlist, netlist_to_aig
from repro.circuits.bitblast import bitblast
from repro.circuits.netlist import Netlist
from repro.formal.embed import embed_netlist
from repro.logic.hol_types import bool_ty, mk_fun_ty
from repro.logic.stdlib import mk_let
from repro.logic.terms import Comb, Var, aconv, free_vars_set, var_subst

#: Chain length: each XOR level emits ~4 gates/lets, so 1100 levels put the
#: gate count comfortably above the 2000-gate target and the serial let
#: depth far beyond the default interpreter recursion limit (1000).
CHAIN = 1100


def chain_netlist(n: int = CHAIN) -> Netlist:
    """A 1-bit circuit with an ``n``-deep XOR chain between two registers.

    XOR lowers to an irredundant two-level AND/inverter structure, so the
    structurally-hashed AIG behind the bit-blaster cannot collapse the
    chain (a NOT chain would fold to a single inverted edge): both the
    gate count and the embedded term depth track ``n``.
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


def test_deep_bitblasted_chain_at_default_recursion_limit():
    limit_before = sys.getrecursionlimit()

    # the raw AND/NOT emission: pattern emission would fold each xor stage
    # into one cell
    word = chain_netlist()
    netlist, _ = aig_to_netlist(netlist_to_aig(word), word)
    assert netlist.num_gates() > 2000

    embedded = embed_netlist(netlist)
    term = embedded.term
    step = embedded.step
    # one let binding per (non-BUF) gate: the term really is deep
    assert term.size() > 2 * CHAIN

    # equality and hashing are O(1) identity operations
    rebuilt = embed_netlist(netlist).term
    assert rebuilt is term
    assert rebuilt == term
    assert hash(rebuilt) == hash(term)

    # alpha-conversion, free variables, substitution all succeed iteratively
    assert aconv(step, step)
    p = step.bvar
    assert free_vars_set(step) == frozenset()
    assert free_vars_set(step.body) == frozenset((p,))
    q = Var("q_fresh", p.ty)
    renamed = var_subst({p: q}, step.body)
    assert q in free_vars_set(renamed)
    assert p not in free_vars_set(renamed)
    # substituting back round-trips to the identical interned term
    assert var_subst({q: p}, renamed) is step.body

    # the pretty printer walks the term iteratively as well
    rendered = str(step)
    assert rendered.count("let ") > 2000

    # no traversal is allowed to touch the recursion limit
    assert sys.getrecursionlimit() == limit_before


def let_chain(n: int, prefix: str, swap_last: bool = False):
    """``let p0 = op i i in let p1 = op p0 i in ... in p{n-1}``.

    ``swap_last`` swaps the operands of the innermost binding's value.
    """
    i = Var("i", bool_ty)
    op = Var("op", mk_fun_ty(bool_ty, mk_fun_ty(bool_ty, bool_ty)))
    names = [Var(f"{prefix}{k}", bool_ty) for k in range(n)]
    body = names[-1]
    for k in reversed(range(n)):
        prev = names[k - 1] if k else i
        a, b = (i, prev) if swap_last and k == n - 1 else (prev, i)
        body = mk_let(names[k], Comb(Comb(op, a), b), body)
    return body


def test_deep_let_chains_aconv_at_default_recursion_limit():
    limit_before = sys.getrecursionlimit()
    n = 2100
    t1 = let_chain(n, "p")
    t2 = let_chain(n, "q")
    assert t1 is not t2
    # only the bound-variable names differ
    assert aconv(t1, t2) and aconv(t2, t1)
    # the last binding's value differs, under all n binders
    t3 = let_chain(n, "q", swap_last=True)
    assert not aconv(t1, t3) and not aconv(t3, t1)
    assert sys.getrecursionlimit() == limit_before


def test_deep_type_and_term_equality_scales_linearly():
    # identity comparison on a deep structure is instant even when repeated
    netlist = bitblast(chain_netlist(CHAIN // 2)).netlist
    a = embed_netlist(netlist).term
    b = embed_netlist(netlist).term
    for _ in range(10_000):
        assert a == b  # pointer comparison, not a structural walk


def test_no_recursion_limit_bandaids_in_src():
    """The acceptance criterion: no ``sys.setrecursionlimit`` in ``src/``."""
    import pathlib

    import repro

    src_root = pathlib.Path(repro.__file__).parent
    offenders = [
        p
        for p in src_root.rglob("*.py")
        if "setrecursionlimit" in p.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_deep_chain_is_boolean_typed():
    netlist = bitblast(chain_netlist(64)).netlist
    embedded = embed_netlist(netlist)
    assert embedded.state_layout.types == [bool_ty]
    assert embedded.step.ty.is_fun()