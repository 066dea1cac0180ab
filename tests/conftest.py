"""Shared fixtures for the test suite."""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.circuits.generators import (
    counter,
    figure2,
    fractional_multiplier,
    random_sequential_circuit,
    shift_register,
)


@pytest.fixture(scope="session")
def fig2_small():
    """The Figure-2 example at a small width (shared, read-only)."""
    return figure2(3)


@pytest.fixture(scope="session")
def counter_small():
    return counter(4)


@pytest.fixture(scope="session")
def multiplier_small():
    return fractional_multiplier(3)


@pytest.fixture(scope="session")
def shift_small():
    return shift_register(3, width=2)


@pytest.fixture(scope="session")
def random_small():
    return random_sequential_circuit(3, 5, 24, seed=7)
