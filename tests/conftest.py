from __future__ import annotations

import numpy as np
import pytest

from lassodist import build_problem


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_spec():
    """Well-conditioned 20x5 problem with non-unit weights."""
    gen = np.random.default_rng(11)
    X = gen.standard_normal((20, 5))
    weights = np.array([1.0, 0.8, 1.2, 1.0, 0.9])
    return build_problem(X, weights, 0.3)


@pytest.fixture
def identity_spec():
    """Orthonormal 2-column design: Gram exactly the identity."""
    X = np.sqrt(2.0) * np.eye(2)
    return build_problem(X, 1.0, 0.5)


@pytest.fixture
def wide_spec():
    """p > n problem (n=4, p=7) with full row rank."""
    gen = np.random.default_rng(29)
    X = gen.standard_normal((4, 7))
    return build_problem(X, 1.0, 0.4)


def random_instance(gen: np.random.Generator, n: int, p: int, lam: float | None = None):
    X = gen.standard_normal((n, p))
    weights = gen.uniform(0.6, 1.5, p)
    y = gen.standard_normal(n) * 1.2
    if lam is None:
        lam = float(gen.uniform(0.05, 0.6))
    return build_problem(X, weights, lam), y


def duplicated_column_design(seed):
    """30 x 5 Gaussian design with column 3 equal to column 1, and a response."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, 5))
    X[:, 3] = X[:, 1]
    return X, X @ np.array([1.0, 0.5, 0.0, 0.0, -1.0]) + rng.standard_normal(30)
