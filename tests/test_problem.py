from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from lassodist import (
    ConfigError,
    DataError,
    NumericalError,
    build_problem,
    log_det_jacobian,
    spectral_decompose,
    synthetic_dataset,
)
from lassodist.problem import eigen_cut

from oracles import assemble_jacobian


def test_gram_of_orthogonal_columns_is_identity():
    X = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])
    spec = build_problem(X, 1.0, 0.5)
    np.testing.assert_allclose(spec.gram, np.eye(2), atol=1e-14)


def test_scalar_weight_broadcasts():
    spec = build_problem(np.eye(3), 2.0, 0.1)
    np.testing.assert_array_equal(spec.weights, np.full(3, 2.0))


@pytest.mark.parametrize("bad", [np.ones(3), np.full((2, 2), np.nan)])
def test_malformed_design_rejected(bad):
    with pytest.raises(DataError):
        build_problem(bad, 1.0, 0.1)


def test_nonpositive_penalty_rejected():
    with pytest.raises(ConfigError):
        build_problem(np.eye(2), 1.0, 0.0)
    with pytest.raises(ConfigError):
        build_problem(np.eye(2), -1.0, 0.1)
    with pytest.raises(ConfigError):
        build_problem(np.eye(2), np.array([1.0, 0.0]), 0.1)


def test_rank_deficient_design_warns():
    X = np.ones((4, 2))
    with pytest.warns(RuntimeWarning):
        spec = build_problem(X, 1.0, 0.2)
    assert spec.rank_deficient


def test_spectral_decompose_requires_wide_problem(small_spec):
    with pytest.raises(ConfigError):
        spectral_decompose(small_spec)


def test_spectral_decompose_rank_one():
    spec = build_problem(np.array([[1.0, 1.0]]), 1.0, 0.3)
    basis = spectral_decompose(spec)
    np.testing.assert_allclose(basis.eigenvalues, [2.0], atol=1e-12)
    direction = basis.row_basis[:, 0]
    np.testing.assert_allclose(np.abs(direction), np.full(2, 1 / math.sqrt(2)), atol=1e-12)
    null_dir = basis.null_basis[:, 0]
    np.testing.assert_allclose(np.abs(null_dir), np.full(2, 1 / math.sqrt(2)), atol=1e-12)
    assert abs(null_dir @ direction) < 1e-12


def test_null_space_annihilates_gram():
    gen = np.random.default_rng(5)
    spec = build_problem(gen.standard_normal((2, 3)), 1.0, 0.2)
    basis = spectral_decompose(spec)
    prod = basis.null_basis.T @ spec.gram @ basis.null_basis
    assert np.max(np.abs(prod)) < 1e-10


def test_eigen_cut_scales_with_largest_eigenvalue():
    spec = build_problem(np.array([[2.0, 2.0]]), 1.0, 0.3)
    cut = eigen_cut(spec, np.array([8.0, 0.0]))
    assert cut == pytest.approx(2 * np.finfo(float).eps * 8.0)


def test_log_det_jacobian_fully_active_pair():
    gram_x = np.array([[1.0, 0.5], [0.5, 1.0]])
    X = np.linalg.cholesky(2 * gram_x).T  # X'X/2 = gram_x
    spec = build_problem(X, 1.0, 0.3)
    np.testing.assert_allclose(spec.gram, gram_x, atol=1e-12)
    assert log_det_jacobian(np.array([0, 1]), spec) == pytest.approx(math.log(0.75))


def test_log_det_jacobian_matches_dense_assembly():
    gen = np.random.default_rng(17)
    for _ in range(25):
        p = int(gen.integers(2, 7))
        n = p + int(gen.integers(0, 4))
        X = gen.standard_normal((n, p))
        w = gen.uniform(0.5, 2.0, p)
        lam = float(gen.uniform(0.1, 1.0))
        spec = build_problem(X, w, lam)
        k = int(gen.integers(0, p + 1))
        active = np.sort(gen.choice(p, size=k, replace=False))
        D = assemble_jacobian(spec.gram, spec.weights, spec.lam, active)
        sign, expected = np.linalg.slogdet(D)
        if sign == 0:
            continue
        assert log_det_jacobian(active, spec) == pytest.approx(expected, abs=1e-9)


def test_gram_cholesky_rejects_singular():
    with pytest.warns(RuntimeWarning):
        spec = build_problem(np.ones((3, 2)), 1.0, 0.2)
    with pytest.raises(NumericalError):
        spec.gram_cholesky


def test_gram_solve_rejects_singular():
    with pytest.warns(RuntimeWarning):
        spec = build_problem(np.ones((3, 2)), 1.0, 0.2)
    with pytest.raises(NumericalError):
        spec.gram_solve(np.ones(2))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.floats(0.0, 8.0),
    st.sampled_from([None, 1, 3, 30]),
)
def test_gram_solve_matches_cholesky_oracle(seed, p, log10_cond, columns):
    """The LU solve agrees with scipy's Cholesky solve up to the condition number."""
    gen = np.random.default_rng(seed)
    n = p + int(gen.integers(0, 20))
    left, _ = np.linalg.qr(gen.standard_normal((n, p)))
    right, _ = np.linalg.qr(gen.standard_normal((p, p)))
    eigenvalues = np.logspace(0.0, -log10_cond, p)
    X = math.sqrt(n) * (left * np.sqrt(eigenvalues)) @ right.T
    spec = build_problem(X, 1.0, 0.3)
    u = gen.standard_normal(p if columns is None else (p, columns))
    got = spec.gram_solve(u)
    want = cho_solve((spec.gram_cholesky, True), u)
    assert got.shape == want.shape == u.shape
    cond = np.linalg.cond(spec.gram)
    gap = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.all(gap <= 10.0 * p * cond * np.finfo(float).eps), (cond, gap.max())


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -1.0])
def test_synthetic_dataset_rejects_a_bad_noise_variance(sigma2):
    with pytest.raises(ConfigError, match="sigma2"):
        synthetic_dataset(10, 3, sigma2=sigma2)


def test_synthetic_dataset_reproducible_and_shaped():
    X1, y1, b1 = synthetic_dataset(40, 6, rho=0.25, sigma2=2.0, signal=4, seed=9)
    X2, y2, b2 = synthetic_dataset(40, 6, rho=0.25, sigma2=2.0, signal=4, seed=9)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(y1, y2)
    assert X1.shape == (40, 6) and y1.shape == (40,)
    np.testing.assert_array_equal(b1, [1, 1, -1, -1, 0, 0])


def test_synthetic_dataset_equicorrelation():
    X, _, _ = synthetic_dataset(20000, 4, rho=0.25, seed=2)
    emp = X.T @ X / X.shape[0]
    np.testing.assert_allclose(np.diag(emp), np.ones(4), atol=0.05)
    off = emp[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, np.full(12, 0.25), atol=0.05)
