"""The standard library's computation rules, which the kernel trusts.

``COMPUTE`` turns each registered Python function into theorems, so a wrong
function makes the kernel unsound: each rule is pinned at a value where its
width, truncation or branch order shows.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.logic.ground import term_of_value
from repro.logic.kernel import COMPUTE
from repro.logic.stdlib import ensure_stdlib, word_op
from repro.logic.terms import mk_eq

#: ``(constant, arguments, value)``; a word operator takes its width first
RULES = [
    ("~", (True,), False),
    ("/\\", (True, False), False),
    ("\\/", (False, True), True),
    ("XOR", (True, True), False),
    ("NAND", (True, True), False),
    ("NOR", (False, False), True),
    ("XNOR", (False, False), True),
    ("MUXB", (False, True, False), False),  # select false: the second input
    ("ADD", (20, 22), 42),
    ("SUB", (3, 5), 0),                     # truncated at zero
    ("MUL", (6, 7), 42),
    ("INCW", (4, 15), 0),                   # wraps modulo 2**4
    ("DECW", (3, 0), 7),
    ("NOTW", (4, 5), 10),
    ("ADDW", (4, 9, 8), 1),
    ("SUBW", (4, 1, 2), 15),
    ("MULW", (4, 5, 7), 3),
    ("ANDW", (4, 12, 10), 8),
    ("ORW", (4, 12, 3), 15),
    ("XORW", (4, 12, 10), 6),
    ("SHLW", (4, 9, 1), 2),                 # the bit shifted out is lost
    ("SHRW", (4, 9, 2), 2),
    ("EQW", (5, 5), True),
    ("NEQW", (5, 5), False),
    ("LTW", (3, 5), True),
    ("GEW", (3, 5), False),
    ("MUXW", (True, 3, 5), 3),
]
_IDS = {"~": "NOT", "/\\": "AND", "\\/": "OR"}


def test_every_computable_constant_has_a_pinned_rule():
    assert set(ensure_stdlib().constants) == {name for name, _, _ in RULES}


@pytest.mark.parametrize("name,args,value", RULES,
                         ids=[_IDS.get(name, name) for name, _, _ in RULES])
def test_computation_rule(name, args, value):
    t = word_op(name, *map(term_of_value, args))
    assert COMPUTE(t).concl == mk_eq(t, term_of_value(value))


def test_a_retiming_theorem_trusts_31_records():
    # a fresh process: other tests extend this one's theory
    code = (
        "from repro.automata.retiming_theorem import retiming_theorem; "
        "from repro.logic.kernel import current_theory; "
        "retiming_theorem(); "
        "print(*[r.kind for r in current_theory().trusted_base()])"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    kinds = out.stdout.split()
    assert len(kinds) == 31
    assert kinds.count("computation") == len(RULES)
