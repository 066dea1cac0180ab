"""``repro.logic`` — an LCF-style higher-order-logic kernel.

This package is the reproduction's stand-in for the HOL theorem prover used
by the paper's HASH system.  It provides

* simple types and simply-typed lambda terms (:mod:`repro.logic.hol_types`,
  :mod:`repro.logic.terms`),
* an LCF-style kernel whose :class:`~repro.logic.kernel.Theorem` values can
  only be produced by a fixed set of inference rules
  (:mod:`repro.logic.kernel`),
* theories recording constants, axioms and definitions
  (:mod:`repro.logic.theory`),
* conversions and derived rules (:mod:`repro.logic.conv`,
  :mod:`repro.logic.rules`),
* a worklist-based rewrite engine, the one front end every rewrite goes
  through, with head-symbol indexing of conversions; it only revisits
  changed subterms (:mod:`repro.logic.rewriter`), and
* a standard library of booleans, pairs, arithmetic and word-level hardware
  operators with ground evaluation (:mod:`repro.logic.stdlib`).
"""

from .hol_types import (
    HolType,
    TyApp,
    TyVar,
    bool_ty,
    dest_fun_ty,
    mk_fun,
    mk_fun_ty,
    mk_prod_ty,
    num_ty,
)
from .terms import (
    Abs,
    Comb,
    Const,
    Term,
    TermError,
    Var,
    aconv,
    dest_eq,
    mk_eq,
    mk_fst,
    mk_pair,
    mk_snd,
    mk_tuple,
    strip_abs,
    strip_comb,
    term_intern_stats,
)
from .ground import (
    GroundError,
    dest_numeral,
    is_numeral,
    mk_bool,
    mk_numeral,
    term_of_value,
    value_of_term,
)
from .kernel import (
    ABS,
    ALPHA,
    AP_TERM,
    AP_THM,
    ASSUME,
    BETA_CONV,
    COMPUTE,
    DEDUCT_ANTISYM,
    EQ_MP,
    INST,
    INST_TYPE,
    KernelError,
    MK_COMB,
    REFL,
    SYM,
    TRANS,
    Theorem,
    current_theory,
    inference_steps,
    new_axiom,
    new_computable_constant,
    new_definition,
    proof_size,
    reset_kernel,
    trusted_base_report,
)
from .theory import Theory, TheoryError, bootstrap_theory
from . import conv, rewriter, rules, stdlib
from .rewriter import RewriteNet, net_conv
from .stdlib import ensure_stdlib, mk_let, dest_let, is_let, word_op

__all__ = [name for name in dir() if not name.startswith("_")]
