"""Figure 3 — matching the example onto the retiming scheme.

Figure 3 shows how the Figure-2 circuit is matched against the general
pattern with the *legal* cut (``f`` = incrementer, ``g`` = comparator +
multiplexer).  The benchmark isolates exactly that matching work: step 1 of
the procedure (constructing ``f``/``g`` and proving the split equation),
without the subsequent theorem application, join and evaluation.
"""

import pytest

from repro.circuits.generators import figure2, figure2_cut
from repro.formal.embed import embed_netlist
from repro.formal.formal_retiming import (
    analyse_cut,
    build_f_term,
    build_g_term,
    reduce_split_conv,
    unfold_cut_lets,
)
from repro.logic.rules import equal_by_normalisation
from repro.logic.terms import Abs, Comb, Var, mk_fst, mk_pair, mk_snd

WIDTH = 8


@pytest.fixture(scope="module")
def prepared():
    netlist = figure2(WIDTH)
    embedded = embed_netlist(netlist)
    analysis = analyse_cut(netlist, figure2_cut(), embedded)
    return netlist, embedded, analysis


def test_fig3_split_and_match(benchmark, prepared):
    netlist, embedded, analysis = prepared

    def split():
        f_term = build_f_term(netlist, embedded, analysis)
        g_term = build_g_term(netlist, embedded, analysis)
        p = Var("p", embedded.step.bvar.ty)
        split_term = Abs(
            p, Comb(g_term, mk_pair(mk_fst(p), Comb(f_term, mk_snd(p))))
        )
        cut_nets = [netlist.cells[c].output for c in analysis.cut_cells]
        lhs_norm = unfold_cut_lets(embedded.step, cut_nets)
        rhs_norm = reduce_split_conv(split_term)
        return equal_by_normalisation(lhs_norm, rhs_norm)

    theorem = benchmark(split)
    assert theorem.is_equation()
    assert theorem.lhs == embedded.step
