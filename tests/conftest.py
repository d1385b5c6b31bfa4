"""Shared fixtures: small deterministic matrices and model objects."""

from __future__ import annotations

import os

import numpy as np
import pytest

# Dynamic runtime checkers (repro.analysis) are on by default under test so
# any protocol regression in the suite surfaces as a recorded finding.
os.environ.setdefault("REPRO_CHECKS", "1")

from repro.scc import SCCTopology
from repro.sparse import CSRMatrix, banded, power_law, random_uniform


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the content store at a per-test directory.

    Keeps every test hermetic: no dedup hits leak between tests (or in
    from the developer's real ~/.cache/repro), which the serve suites'
    exact simulation counts depend on.  Tests that need a shared or
    disabled store still win by monkeypatching over this.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(autouse=True)
def _clear_suite_experiments():
    """Empty the process-wide experiment memo around every test.

    :func:`repro.core.figures.suite_experiment` keys on (matrix id,
    scale, machine), which does not change when the store directory
    moves; without this reset one test's memoized characterizations
    would be served to the next.
    """
    from repro.core.figures import suite_experiment

    suite_experiment.cache_clear()
    yield
    suite_experiment.cache_clear()


@pytest.fixture(scope="session")
def topology() -> SCCTopology:
    return SCCTopology()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def tiny_csr() -> CSRMatrix:
    """The paper's Fig. 2 example shape: 5x5 with a mixed pattern."""
    dense = np.array(
        [
            [1.0, 0.0, 2.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 0.0, 0.0],
            [4.0, 0.0, 5.0, 6.0, 0.0],
            [0.0, 0.0, 0.0, 7.0, 0.0],
            [0.0, 8.0, 0.0, 0.0, 9.0],
        ]
    )
    return CSRMatrix.from_dense(dense)


@pytest.fixture(scope="session")
def small_banded() -> CSRMatrix:
    return banded(400, 8.0, 12, seed=7)


@pytest.fixture(scope="session")
def small_random() -> CSRMatrix:
    return random_uniform(400, 8.0, seed=11)


@pytest.fixture(scope="session")
def small_powerlaw() -> CSRMatrix:
    return power_law(400, 6.0, alpha=1.0, seed=13)
