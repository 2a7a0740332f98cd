"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.cases import load_case
from repro.grid.synthetic import make_synthetic_grid


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full-quality solves that take tens of seconds")


@pytest.fixture(scope="session")
def case3():
    return load_case("case3")


@pytest.fixture(scope="session")
def case5():
    return load_case("case5")


@pytest.fixture(scope="session")
def case9():
    return load_case("case9")


@pytest.fixture(scope="session")
def small_synthetic():
    """A small synthetic pegase-style grid shared across tests."""
    return make_synthetic_grid(n_bus=30, n_gen=6, n_branch=41, style="pegase", seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
