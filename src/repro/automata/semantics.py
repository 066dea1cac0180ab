"""Executable semantics for Automata-theory terms.

The paper's universal retiming theorem is proved "once and for all" inside
HOL by induction over time; reproducing that proof verbatim would require a
full natural-number/stream library.  Instead (see README.md, "What this
reproduction substitutes") the theorem
is introduced as an axiom of the Automata theory, and this module supplies
the once-and-for-all justification in executable form:

* :class:`TermEvaluator` — a ground interpreter for the term language used by
  the circuit embedding (booleans, numerals, pairs, ``LET``, the computable
  word operators, lambda closures);
* :func:`run_automaton` — the stream semantics of an ``automaton (step, q)``
  term: feed a sequence of input values, collect the output values;
* :func:`check_retiming_law` — validates an instance of the retiming theorem
  by (a) exhaustive comparison on all states/inputs for small finite ranges
  and (b) long random-stream comparison otherwise;
* :func:`prove_retiming_law_by_induction` — the pen-and-paper induction
  argument of the theorem executed symbolically on one instance: it checks
  the two induction obligations (base and step) that the HOL proof
  discharges, using the evaluator on the *structure* of f and g rather than
  on streams.

None of this participates in theorem construction (the kernel does not call
it); it is validation and documentation of the trusted Automata axiom, and it
is exercised heavily by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..logic import stdlib
from ..logic.kernel import current_theory
from ..logic.terms import Abs, Comb, Const, Term, Var
from ..logic.theory import TheoryError
from .automaton import dest_automaton


class EvaluationError(Exception):
    """Raised when a term cannot be evaluated to a ground value."""


@dataclass
class Closure:
    """A lambda value produced by the evaluator."""

    var: Var
    body: Term
    env: Dict[Var, Any]


#: frame opcodes of the CEK-style machine in :meth:`TermEvaluator._eval`
_EVAL, _APPLY, _SPECIAL = 0, 1, 2


class TermEvaluator:
    """A call-by-value interpreter for ground circuit terms.

    The evaluator is a CEK-style machine: an explicit control stack of
    (term, environment) work items and continuation frames, with computed
    values flowing through a value stack.  Gate-level ``let`` chains put one
    binding per gate, so term depth grows with circuit size; the explicit
    stack keeps evaluation independent of the Python recursion limit (a
    regression test evaluates a >2000-binding chain at the default limit).
    """

    def __init__(self):
        stdlib.ensure_stdlib()
        self._theory = current_theory()

    # -- public -----------------------------------------------------------------
    def evaluate(self, term: Term, env: Optional[Dict[Var, Any]] = None) -> Any:
        """Evaluate a term to a Python value (bool, int, tuple or Closure)."""
        return self._eval(term, dict(env or {}))

    def apply(self, fn_value: Any, arg: Any) -> Any:
        """Apply an evaluated function value to an argument value."""
        if isinstance(fn_value, Closure):
            env = dict(fn_value.env)
            env[fn_value.var] = arg
            return self._eval(fn_value.body, env)
        if callable(fn_value):
            return fn_value(arg)
        raise EvaluationError(f"cannot apply non-function value {fn_value!r}")

    # -- internals ----------------------------------------------------------------
    def _eval(self, term: Term, env: Dict[Var, Any]) -> Any:
        # CEK machine: `stack` holds work items and continuations, `vals` the
        # computed values.  An _EVAL item pushes either a value or further
        # frames; _SPECIAL/_APPLY frames consume their operands from `vals`.
        vals: List[Any] = []
        stack: List[tuple] = [(_EVAL, term, env)]
        while stack:
            frame = stack.pop()
            op = frame[0]
            if op == _EVAL:
                tm, e = frame[1], frame[2]
                if isinstance(tm, Var):
                    if tm not in e:
                        raise EvaluationError(f"unbound variable {tm.name}")
                    vals.append(e[tm])
                    continue
                if isinstance(tm, Const):
                    vals.append(self._eval_const(tm))
                    continue
                if isinstance(tm, Abs):
                    vals.append(Closure(tm.bvar, tm.body, dict(e)))
                    continue
                head, args = self._strip(tm)
                if isinstance(head, Const):
                    form = self._special_form(head, len(args))
                    if form is not None:
                        stack.append((_SPECIAL, form, len(args)))
                        for a in reversed(args):
                            stack.append((_EVAL, a, e))
                        continue
                stack.append((_APPLY,))
                stack.append((_EVAL, tm.rand, e))
                stack.append((_EVAL, tm.rator, e))
                continue
            if op == _APPLY:
                arg = vals.pop()
                fn_value = vals.pop()
                if isinstance(fn_value, Closure):
                    env2 = dict(fn_value.env)
                    env2[fn_value.var] = arg
                    stack.append((_EVAL, fn_value.body, env2))
                elif callable(fn_value):
                    vals.append(fn_value(arg))
                else:
                    raise EvaluationError(
                        f"cannot apply non-function value {fn_value!r}"
                    )
                continue
            # _SPECIAL: all operands are evaluated, in order, on `vals`
            form, n = frame[1], frame[2]
            operands = vals[len(vals) - n:]
            del vals[len(vals) - n:]
            if form == ",":
                left, right = operands
                if isinstance(right, tuple):
                    vals.append((left,) + right)
                else:
                    vals.append((left, right))
            elif form == "FST":
                vals.append(operands[0][0])
            elif form == "SND":
                value = operands[0]
                vals.append(value[1] if len(value) == 2 else tuple(value[1:]))
            elif form == "LET":
                fn_value, arg = operands
                if isinstance(fn_value, Closure):
                    env2 = dict(fn_value.env)
                    env2[fn_value.var] = arg
                    stack.append((_EVAL, fn_value.body, env2))
                elif callable(fn_value):
                    vals.append(fn_value(arg))
                else:
                    raise EvaluationError(
                        f"cannot apply non-function value {fn_value!r}"
                    )
            elif form == "=":
                vals.append(operands[0] == operands[1])
            else:  # a computable constant's registered rule
                vals.append(form(*operands))
        if len(vals) != 1:  # pragma: no cover - machine invariant
            raise EvaluationError(f"evaluator finished with {len(vals)} values")
        return vals[0]

    def _special_form(self, head: Const, nargs: int):
        """The special-form tag or compute rule applicable to ``head``, if any."""
        name = head.name
        if name == "," and nargs == 2:
            return ","
        if name == "FST" and nargs == 1:
            return "FST"
        if name == "SND" and nargs == 1:
            return "SND"
        if name == "LET" and nargs == 2:
            return "LET"
        if name == "=" and nargs == 2:
            return "="
        try:
            info = self._theory.constant_info(name)
        except TheoryError:
            return None
        if info.compute is not None and nargs == info.compute_arity:
            return info.compute
        return None

    def _eval_const(self, const: Const) -> Any:
        if const.name == "T":
            return True
        if const.name == "F":
            return False
        if const.name.isdigit():
            return int(const.name)
        try:
            info = self._theory.constant_info(const.name)
        except TheoryError:
            raise EvaluationError(f"unknown constant {const.name}") from None
        if info.compute is not None and info.compute_arity == 0:
            return info.compute()
        raise EvaluationError(f"constant {const.name} has no ground value")

    def _strip(self, term: Term) -> Tuple[Term, List[Term]]:
        args: List[Term] = []
        while isinstance(term, Comb):
            args.append(term.rand)
            term = term.rator
        args.reverse()
        return term, args


def run_automaton(
    automaton_term: Term,
    input_values: Sequence[Any],
    evaluator: Optional[TermEvaluator] = None,
) -> List[Any]:
    """Run the stream semantics of ``automaton (step, q)`` on concrete inputs.

    ``input_values`` is a sequence of ground input values (matching the
    circuit's input tuple shape); the result is the list of output values.
    """
    evaluator = evaluator or TermEvaluator()
    step_term, init_term = dest_automaton(automaton_term)
    step = evaluator.evaluate(step_term)
    state = evaluator.evaluate(init_term)
    outputs: List[Any] = []
    for value in input_values:
        if isinstance(value, tuple):
            packed: Any = value if len(value) > 1 else value[0]
        else:
            packed = value
        result = evaluator.apply(step, (packed, state) if not isinstance(packed, tuple)
                                 else tuple([packed, state]))
        # result is (output, next_state); both may themselves be tuples
        output, state = result[0], result[1] if len(result) == 2 else tuple(result[1:])
        outputs.append(output)
    return outputs


def _pair(a: Any, b: Any) -> Any:
    """Build the evaluator's representation of the pair (a, b)."""
    if isinstance(b, tuple):
        return (a,) + b
    return (a, b)


def _split_pair(value: Any) -> Tuple[Any, Any]:
    """Split the evaluator's representation of a pair into (fst, snd)."""
    if not isinstance(value, tuple) or len(value) < 2:
        raise EvaluationError(f"not a pair value: {value!r}")
    if len(value) == 2:
        return value[0], value[1]
    return value[0], tuple(value[1:])


def check_retiming_law(
    f_term: Term,
    g_term: Term,
    q_value: Any,
    input_samples: Iterable[Any],
    steps: int = 32,
    evaluator: Optional[TermEvaluator] = None,
) -> bool:
    """Validate one instance of the universal retiming theorem on streams.

    Runs the original machine (state ``q``, step ``(i,s) -> g(i, f s)``) and
    the retimed machine (state ``f q``, step ``(i,t) -> let r = g(i,t) in
    (fst r, f (snd r))``) side by side on the given input samples and checks
    that the output streams agree for ``steps`` cycles.
    """
    evaluator = evaluator or TermEvaluator()
    f = evaluator.evaluate(f_term)
    g = evaluator.evaluate(g_term)

    def f_app(x: Any) -> Any:
        return evaluator.apply(f, x)

    def g_app(i: Any, x: Any) -> Any:
        return evaluator.apply(g, _pair(i, x))

    samples = list(input_samples)
    state_a = q_value
    state_b = f_app(q_value)
    for t in range(min(steps, len(samples))):
        i = samples[t]
        out_a, next_a = _split_pair(g_app(i, f_app(state_a)))
        r = g_app(i, state_b)
        out_b, s_prime = _split_pair(r)
        next_b = f_app(s_prime)
        if out_a != out_b:
            return False
        state_a, state_b = next_a, next_b
    return True


def prove_retiming_law_by_induction(
    f_term: Term,
    g_term: Term,
    q_value: Any,
    state_values: Iterable[Any],
    input_values: Iterable[Any],
    evaluator: Optional[TermEvaluator] = None,
) -> bool:
    """Discharge the two induction obligations of the retiming theorem.

    The HOL proof of the theorem is an induction over time with the invariant
    ``t_retimed = f(s_original)``.  For a *finite* state/input universe the
    two obligations become finitely checkable:

    * base:  ``f(q) = f(q)`` (trivially true, checked for completeness);
    * step:  for every original state ``s`` (from ``state_values``) and every
      input ``i`` (from ``input_values``): with ``(o, s') = g(i, f s)`` and
      ``(o2, x) = g(i, f s)`` (the retimed machine evaluated at ``t = f s``),
      the outputs coincide and the new retimed state ``f x`` equals
      ``f(s')``.

    Returns ``True`` when every obligation holds.  Exhaustive over the given
    ranges, so use small widths.
    """
    evaluator = evaluator or TermEvaluator()
    f = evaluator.evaluate(f_term)
    g = evaluator.evaluate(g_term)

    def f_app(x):
        return evaluator.apply(f, x)

    def g_app(i, x):
        return evaluator.apply(g, _pair(i, x))

    # base case
    if f_app(q_value) != f_app(q_value):  # pragma: no cover - trivially false
        return False

    # step case: the invariant t = f(s) is preserved and outputs agree
    for s in state_values:
        t_state = f_app(s)
        for i in input_values:
            out_a, s_prime = _split_pair(g_app(i, f_app(s)))
            out_b, x = _split_pair(g_app(i, t_state))
            if out_a != out_b:
                return False
            if f_app(x) != f_app(s_prime):
                return False
    return True
