"""Shared configuration for the benchmark harness.

Every module in this directory regenerates one table, figure or ablation of
the paper (README.md, "What this reproduction substitutes", has the index).
The harness is sized so that a full ``pytest benchmarks/ --benchmark-only``
run finishes in a few minutes on a laptop: verification budgets are small (their *timeouts* are part of the
result — they reproduce the paper's dashes) and the Table-II suite is scaled
down; the full-size tables are produced by ``python -m repro run --table 1``
/ ``--table 2``.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

#: wall-clock budget (seconds) for each post-synthesis verifier call
VERIFIER_BUDGET = float(os.environ.get("REPRO_BENCH_BUDGET", "8.0"))
#: scale factor applied to the Table-II circuits
TABLE2_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))


@pytest.fixture(scope="session")
def verifier_budget() -> float:
    return VERIFIER_BUDGET


@pytest.fixture(scope="session")
def table2_scale() -> float:
    return TABLE2_SCALE


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> str:
    """Directory where rendered tables are written for inspection.

    Under the gitignored ``.benchmarks/``: every run re-times the tables,
    so writing them over the committed reference snapshot in
    ``benchmarks/results/`` would dirty the tree with timing noise.
    """
    target = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          ".benchmarks", "results")
    os.makedirs(target, exist_ok=True)
    return target
