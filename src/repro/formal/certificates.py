"""Synthesis certificates: auditing what a formal synthesis run relied on.

The paper's security argument (Section III.B) is architectural: theorems can
only be produced by the kernel, so the trusted base of a synthesis run is the
kernel plus the recorded axioms/definitions — never the heuristics.  A
:class:`SynthesisCertificate` packages exactly that information for one
produced theorem:

* the statement itself,
* the size and rule histogram of its derivation DAG (every node is a kernel
  rule application),
* the trusted-base records of the current theory (axioms, definitions and
  computation rules), and
* basic cost metrics (inference count, wall-clock time) when available.

Certificates are what the examples print and what the tests inspect to make
sure no formal step sneaks past the kernel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..logic.kernel import (
    Theorem,
    current_theory,
    derivation,
    proof_size,
    trusted_base_report,
)
from ..logic.theory import Theory


def rule_histogram(theorem: Theorem) -> Dict[str, int]:
    """How often each kernel rule occurs in the derivation DAG of a theorem."""
    histogram = Counter(thm.rule.split(":", 1)[0] for thm in derivation(theorem))
    return dict(sorted(histogram.items()))


def axioms_used(theorem: Theorem) -> List[str]:
    """Names of the axioms/definitions appearing in the derivation DAG."""
    return sorted({thm.rule for thm in derivation(theorem)
                   if thm.rule.startswith(("AXIOM:", "DEFINITION:", "COMPUTE:"))})


@dataclass
class SynthesisCertificate:
    """A self-contained record of one formal synthesis result."""

    statement: str
    proof_size: int
    rule_histogram: Dict[str, int]
    axioms: List[str]
    trusted_base: str
    seconds: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Formal synthesis certificate", "=" * 28]
        lines.append(f"statement      : {self.statement}")
        lines.append(f"derivation size: {self.proof_size} kernel theorems")
        lines.append("rule histogram : " + ", ".join(
            f"{name}x{count}" for name, count in self.rule_histogram.items()
        ))
        lines.append("axioms used    : " + (", ".join(self.axioms) or "none"))
        if self.seconds is not None:
            lines.append(f"wall clock     : {self.seconds:.3f} s")
        for key, value in self.metadata.items():
            lines.append(f"{key:15s}: {value}")
        lines.append("")
        lines.append(self.trusted_base)
        return "\n".join(lines)


def certificate_for(
    theorem: Theorem,
    seconds: Optional[float] = None,
    theory: Optional[Theory] = None,
    **metadata,
) -> SynthesisCertificate:
    """Build the certificate of a produced theorem."""
    return SynthesisCertificate(
        statement=str(theorem),
        proof_size=proof_size(theorem),
        rule_histogram=rule_histogram(theorem),
        axioms=axioms_used(theorem),
        trusted_base=trusted_base_report(theory or current_theory()),
        seconds=seconds,
        metadata=metadata,
    )
