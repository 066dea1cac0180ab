"""One forward-cut rule: both engines reject a bad cut for the same reason.

The conventional engine (``apply_forward_retiming``), the formal HASH step
(``formal_forward_retiming``, also through the ``hash`` backend) and the
cut heuristics (``forward_retimable_cells``) all take their cut through
``check_forward_cut``.
"""

import pytest

from repro.circuits.bitblast import bitblast
from repro.circuits.generators import (
    counter,
    figure2,
    figure2_false_cut,
    fractional_multiplier,
    gray_counter,
    iwls_circuit,
    random_sequential_circuit,
    shift_register,
)
from repro.formal import FormalSynthesisError, formal_forward_retiming
from repro.retiming.apply import (
    RetimingApplyError,
    apply_forward_retiming,
    check_forward_cut,
    forward_retimable_cells,
)
from repro.verification import run_checker


def _with_constant_cell():
    netlist = fractional_multiplier(3)
    netlist.add_cell("konst", "CONST", [], "kn", params={"value": 1, "width": 3})
    netlist.add_cell("use", "OR", ["kn", "pipe"], "used")
    netlist.mark_output("used")
    return netlist


_BAD_CUTS = [
    ("unknown-cell", lambda: figure2(4), ["no_such_cell"], False),
    ("const-cell", _with_constant_cell, ["konst"], False),
    ("reads-an-input", lambda: fractional_multiplier(3), ["xreg_mux"], True),
    ("figure4", lambda: figure2(4), figure2_false_cut(), True),
]


@pytest.mark.parametrize("make, cut, is_false_cut",
                         [c[1:] for c in _BAD_CUTS], ids=[c[0] for c in _BAD_CUTS])
def test_both_engines_reject_a_bad_cut_for_one_reason(make, cut, is_false_cut):
    netlist = make()
    with pytest.raises(RetimingApplyError) as conventional:
        apply_forward_retiming(netlist, cut)
    reason = str(conventional.value)
    assert ("false cut" in reason) == is_false_cut
    with pytest.raises(FormalSynthesisError) as formal:
        formal_forward_retiming(netlist, cut)
    assert str(formal.value) == reason
    result = run_checker("hash", netlist, netlist, cut=cut)
    assert (result.status, result.detail) == ("error", reason)


@pytest.mark.parametrize("make", [
    lambda: figure2(4),
    lambda: bitblast(figure2(3)).netlist,
    lambda: counter(5),
    lambda: shift_register(3, 2),
    lambda: gray_counter(3),
    lambda: fractional_multiplier(4),
    _with_constant_cell,
    lambda: random_sequential_circuit(3, 6, 36, seed=1),
    lambda: iwls_circuit("s641", 0.25),
], ids=["figure2", "figure2-gates", "counter", "shift_register", "gray_counter",
        "multiplier", "multiplier+const", "random_seq", "iwls"])
def test_retimable_cells_are_the_cells_the_rule_accepts(make):
    netlist = make()
    accepted = []
    for name in sorted(netlist.cells):
        try:
            check_forward_cut(netlist, [name])
        except RetimingApplyError:
            continue
        accepted.append(name)
    assert forward_retimable_cells(netlist) == accepted
