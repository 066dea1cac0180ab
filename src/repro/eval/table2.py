"""Table II — the IWLS'91 benchmark suite (synthetic stand-ins).

The paper compares van Eijk's checker (plain and with functional-dependency
exploitation), SIS and HASH on ten IWLS'91 sequential benchmarks, retimed
with the maximal forward cut.  The published shape:

* the reachability-based tools (SIS) and the plain van Eijk checker handle
  the small control circuits but blow up (or give up) on the large ones,
* the three fractional-multiplier benchmarks (8/16/32 bit) are the hardest:
  the verifiers' run time explodes by a factor of ~40-50 when the width
  doubles and the 32-bit instance is out of reach, while HASH grows by only a
  small factor and still completes,
* HASH is never the fastest on the easy circuits (its base cost is higher)
  but is the only method that finishes everywhere.

Run ``python -m repro run --table 2``: the ``iwls`` scenario under the
paper's title; ``--param scale=...`` shrinks the circuits for a quick run.
README.md, "What this reproduction substitutes", documents the benchmark
substitution.
"""

from __future__ import annotations

from typing import Sequence

from .runner import Row, render_table


def render(rows: Sequence[Row], methods: Sequence[str]) -> str:
    return render_table(
        rows,
        methods,
        title="Table II — IWLS'91 benchmark stand-ins",
    )
