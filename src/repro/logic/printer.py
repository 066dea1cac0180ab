"""Pretty printing of HOL terms and theorems.

The printer produces a compact, HOL-style concrete syntax:

* equality and the boolean connectives print infix,
* pairs print as ``(a, b)``,
* ``LET`` redexes print as ``let x = e in body``,
* numerals print as decimal literals,
* everything else prints as curried application.

The printer is purely cosmetic: no proof step depends on it.  It walks the
term with an explicit stack and memoises rendered fragments per interned
``(subterm, precedence)`` pair, so arbitrarily deep terms (gate-level ``let``
chains) can be rendered at the default recursion limit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import terms as tm

#: Infix constants and their (symbol, precedence).  Higher binds tighter.
_INFIX = {
    "=": ("=", 20),
    "/\\": ("/\\", 16),
    "\\/": ("\\/", 14),
    ",": (",", 8),
    "ADD": ("+", 30),
    "SUB": ("-", 30),
    "MUL": ("*", 32),
}

_QUANTIFIERS = {"!": "!", "?": "?", "?!": "?!"}

#: A rendering task: the list of ``(subterm, precedence)`` fragments it needs,
#: plus a tag and any extra data the assembly step requires.
_Deps = List[Tuple["tm.Term", int]]


def _layout(t: "tm.Term", prec: int) -> Tuple[str, _Deps, tuple]:
    """Classify ``t`` and list the sub-fragments its rendering needs."""
    if isinstance(t, (tm.Var, tm.Const)):
        return "atom", [], (t.name,)
    if isinstance(t, tm.Abs):
        vars_, body = tm.strip_abs(t)
        names = " ".join(v.name for v in vars_)
        return "abs", [(body, 0)], (names,)

    # let x = e in body, encoded as LET (\x. body) e
    if (
        isinstance(t.rator, tm.Comb)
        and t.rator.rator.is_const("LET")
        and isinstance(t.rator.rand, tm.Abs)
    ):
        ab = t.rator.rand
        return "let", [(t.rand, 0), (ab.body, 0)], (ab.bvar.name,)

    # quantifiers: ! (\x. body)
    head, args = tm.strip_comb(t)
    if (
        isinstance(head, tm.Const)
        and head.name in _QUANTIFIERS
        and len(args) == 1
        and isinstance(args[0], tm.Abs)
    ):
        vars_, body = tm.strip_abs(args[0])
        names = " ".join(v.name for v in vars_)
        return "quant", [(body, 0)], (_QUANTIFIERS[head.name], names)

    # negation
    if head.is_const("~") and len(args) == 1:
        return "neg", [(args[0], 99)], ()

    # infix binary operators
    if isinstance(head, tm.Const) and head.name in _INFIX and len(args) == 2:
        sym, p = _INFIX[head.name]
        right_prec = p + (0 if head.name == "," else 1)
        return "infix", [(args[0], p + 1), (args[1], right_prec)], (head.name, sym, p)

    # general application
    deps = [(head, 100)] + [(a, 100) for a in args]
    return "app", deps, ()


def _assemble(tag: str, prec: int, parts: List[str], extra: tuple) -> str:
    if tag == "atom":
        return extra[0]
    if tag == "abs":
        s = f"\\{extra[0]}. {parts[0]}"
        return f"({s})" if prec > 0 else s
    if tag == "let":
        s = f"let {extra[0]} = {parts[0]} in {parts[1]}"
        return f"({s})" if prec > 0 else s
    if tag == "quant":
        s = f"{extra[0]}{extra[1]}. {parts[0]}"
        return f"({s})" if prec > 0 else s
    if tag == "neg":
        return f"~{parts[0]}"
    if tag == "infix":
        name, sym, p = extra
        left, right = parts
        if name == ",":
            return f"({left}{sym} {right})"
        s = f"{left} {sym} {right}"
        return f"({s})" if prec >= p else s
    # general application
    s = " ".join(parts)
    return f"({s})" if prec >= 100 else s


def term_to_string(t: "tm.Term") -> str:
    """Render a term as a string (explicit-stack, memoised per subterm)."""
    memo: Dict[Tuple["tm.Term", int], str] = {}
    layouts: Dict[Tuple["tm.Term", int], Tuple[str, _Deps, tuple]] = {}
    stack: List[Tuple["tm.Term", int]] = [(t, 0)]
    while stack:
        task = stack[-1]
        if task in memo:
            stack.pop()
            continue
        layout = layouts.get(task)
        if layout is None:
            layout = layouts[task] = _layout(*task)
        tag, deps, extra = layout
        missing = [d for d in deps if d not in memo]
        if missing:
            stack.extend(missing)
            continue
        prec = task[1]
        memo[task] = _assemble(tag, prec, [memo[d] for d in deps], extra)
        stack.pop()
        del layouts[task]
    return memo[(t, 0)]


def theorem_to_string(hyps, concl) -> str:
    """Render a theorem ``hyps |- concl``."""
    if hyps:
        hs = ", ".join(term_to_string(h) for h in sorted(hyps, key=term_to_string))
        return f"{hs} |- {term_to_string(concl)}"
    return f"|- {term_to_string(concl)}"
