"""Encoding of ground Python values as HOL terms and back.

The evaluation conversion (``EVAL_CONV``) and the kernel's computation rule
exchange *ground values* with the Python world:

* ``bool``  <->  the constants ``T`` / ``F`` of type ``bool``,
* ``int``   <->  numeral constants (``0``, ``1``, ``2`` ... of type ``num``),
* ``tuple`` <->  right-nested pairs built with ``,``.

Only these three shapes are considered ground; everything else raises
:class:`GroundError`.
"""

from __future__ import annotations

from typing import Any

from .hol_types import bool_ty, num_ty
from .lazyfmt import lazy
from .terms import Const, Term, dest_pair, is_pair


class GroundError(Exception):
    """Raised when a term is not a ground value (or a value not encodable)."""


#: The boolean constants.
TRUE = Const("T", bool_ty)
FALSE = Const("F", bool_ty)


def mk_numeral(n: int) -> Const:
    """The numeral constant for the natural number ``n``."""
    if n < 0:
        raise GroundError(f"numerals are natural numbers, got {n}")
    return Const(str(n), num_ty)


def is_numeral(t: Term) -> bool:
    """Is ``t`` a numeral constant?"""
    return isinstance(t, Const) and t.ty == num_ty and t.name.isdigit()


def dest_numeral(t: Term) -> int:
    if not is_numeral(t):
        raise GroundError(lazy("not a numeral: {}", t))
    return int(t.name)


def mk_bool(b: bool) -> Const:
    return TRUE if b else FALSE


def is_bool_literal(t: Term) -> bool:
    return isinstance(t, Const) and t.ty == bool_ty and t.name in ("T", "F")


def dest_bool_literal(t: Term) -> bool:
    if not is_bool_literal(t):
        raise GroundError(lazy("not a boolean literal: {}", t))
    return t.name == "T"


def term_of_value(value: Any) -> Term:
    """Encode a Python ground value as a HOL term."""
    if isinstance(value, bool):
        return mk_bool(value)
    if isinstance(value, int):
        return mk_numeral(value)
    if isinstance(value, tuple):
        if len(value) < 2:
            raise GroundError(f"tuples must have at least two components: {value!r}")
        from .terms import mk_pair

        if len(value) == 2:
            return mk_pair(term_of_value(value[0]), term_of_value(value[1]))
        return mk_pair(term_of_value(value[0]), term_of_value(tuple(value[1:])))
    raise GroundError(f"cannot encode Python value of type {type(value).__name__}")


def value_of_term(t: Term) -> Any:
    """Decode a ground HOL term into a Python value."""
    if is_bool_literal(t):
        return dest_bool_literal(t)
    if is_numeral(t):
        return dest_numeral(t)
    if is_pair(t):
        a, b = dest_pair(t)
        left = value_of_term(a)
        right = value_of_term(b)
        if isinstance(right, tuple):
            return (left,) + right
        return (left, right)
    raise GroundError(lazy("not a ground value term: {}", t))
