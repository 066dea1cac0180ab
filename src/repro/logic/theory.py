"""Theory contexts: signatures of type operators, constants and axioms.

A :class:`Theory` records

* the declared *type operators* and their arities,
* the declared *constants* and their generic types,
* the *axioms* and *definitions* introduced so far, and
* optional *computation rules* attached to constants (used by the evaluation
  conversion to compute ground applications such as ``ADD 2 3 = 5``).

The kernel (:mod:`repro.logic.kernel`) owns a single current theory; theorems
remember nothing about theories (as in HOL), but the only ways of introducing
non-derived theorems are :meth:`Theory.new_axiom` and
:meth:`Theory.new_definition`, both of which record what they added so the
trusted base of a development can always be inspected and printed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .hol_types import HolType, TyApp, TyVar, bool_ty, mk_fun_ty


class TheoryError(Exception):
    """Raised for invalid theory extensions (redeclaration, bad types...)."""


@dataclass
class ConstantInfo:
    """Metadata about a declared constant."""

    name: str
    generic_type: HolType
    #: Optional Python evaluator for ground applications, taking the already
    #: evaluated Python values of the arguments.  Used by ``EVAL_CONV``.
    compute: Optional[Callable] = None
    #: Arity expected by ``compute``.
    compute_arity: int = 0
    #: Where the constant came from: "primitive", "definition" or "axiom".
    origin: str = "primitive"


@dataclass
class AxiomRecord:
    """A recorded axiom or definition (part of the trusted base)."""

    name: str
    kind: str  # "axiom" | "definition" | "computation"
    statement: str


@dataclass
class Theory:
    """A mutable logical signature plus its trusted extensions."""

    name: str = "core"
    type_operators: Dict[str, int] = field(default_factory=dict)
    constants: Dict[str, ConstantInfo] = field(default_factory=dict)
    axioms: List[AxiomRecord] = field(default_factory=list)
    parents: Tuple["Theory", ...] = ()

    # -- type operators ------------------------------------------------------
    def new_type_operator(self, name: str, arity: int) -> None:
        if name in self.type_operators and self.type_operators[name] != arity:
            raise TheoryError(f"type operator {name} already declared with different arity")
        self.type_operators[name] = arity

    # -- constants -----------------------------------------------------------
    def new_constant(
        self,
        name: str,
        generic_type: HolType,
        compute: Optional[Callable] = None,
        compute_arity: int = 0,
        origin: str = "primitive",
    ) -> ConstantInfo:
        """Declare a constant with its most general type."""
        if name in self.constants:
            existing = self.constants[name]
            if existing.generic_type != generic_type:
                raise TheoryError(
                    f"constant {name} already declared with type "
                    f"{existing.generic_type}, not {generic_type}"
                )
            return existing
        info = ConstantInfo(name, generic_type, compute, compute_arity, origin)
        self.constants[name] = info
        return info

    def constant_info(self, name: str) -> ConstantInfo:
        try:
            return self.constants[name]
        except KeyError:
            raise TheoryError(f"unknown constant: {name}") from None

    def has_constant(self, name: str) -> bool:
        return name in self.constants

    # -- axioms & definitions --------------------------------------------------
    def record_axiom(self, name: str, kind: str, statement: str) -> None:
        self.axioms.append(AxiomRecord(name, kind, statement))

    def trusted_base(self) -> List[AxiomRecord]:
        """All axioms/definitions this theory (and its parents) relies on."""
        out: List[AxiomRecord] = []
        for parent in self.parents:
            out.extend(parent.trusted_base())
        out.extend(self.axioms)
        return out


def bootstrap_theory() -> Theory:
    """The initial theory: equality, booleans, pairs and numbers.

    Only the signature is set up here; defining equations and axioms are
    introduced by :mod:`repro.logic.bool`, :mod:`repro.logic.pairs` and
    :mod:`repro.logic.num` through the kernel, so that everything added to
    the trusted base is recorded.
    """
    thy = Theory(name="core")
    thy.new_type_operator("bool", 0)
    thy.new_type_operator("fun", 2)
    thy.new_type_operator("prod", 2)
    thy.new_type_operator("num", 0)

    a = TyVar("a")
    b = TyVar("b")
    thy.new_constant("=", mk_fun_ty(a, mk_fun_ty(a, bool_ty)))
    thy.new_constant(",", mk_fun_ty(a, mk_fun_ty(b, TyApp("prod", (a, b)))))
    thy.new_constant("FST", mk_fun_ty(TyApp("prod", (a, b)), a))
    thy.new_constant("SND", mk_fun_ty(TyApp("prod", (a, b)), b))
    return thy
