from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammaln
from scipy.stats import multivariate_normal, ortho_group

from lassodist import (
    ConfigError,
    DataError,
    Gaussian,
    StudentT,
    build_problem,
    direct_sample,
    gaussian_moments,
    inactive_null_basis,
    log_density,
    log_density_rowspace,
    rowspace_residual,
    solve_lasso,
    spectral_decompose,
    synthetic_dataset,
)
from lassodist.density import (
    _log_upper_gamma_q,
    log_det_rowspace_jacobian,
    qform_log_density,
    radial_log_norm,
    radial_log_pdf,
    sample_errors,
    score_qform,
    scores,
    validate_state,
)
from lassodist.density import EmpiricalElliptical

from conftest import random_instance
from oracles import assemble_rowspace_jacobian


def make_state(active, b, s_inactive):
    """(theta, active) with ``b`` on the ``active`` indices and ``s_inactive`` on the rest."""
    b, s_inactive = np.asarray(b, dtype=float), np.asarray(s_inactive, dtype=float)
    mask = np.zeros(b.size + s_inactive.size, dtype=bool)
    mask[np.asarray(active, dtype=int)] = True
    theta = np.empty(mask.size)
    theta[mask] = b
    theta[~mask] = s_inactive
    return theta, mask


def test_scores_soft_threshold_inverse(identity_spec):
    state = make_state([0], [1.5], [0.6])
    u = scores(*state, np.zeros(2), identity_spec)
    np.testing.assert_allclose(u, [2.0, 0.3], atol=1e-12)


def test_scores_round_trip_through_solver(rng):
    for _ in range(20):
        spec, y = random_instance(rng, 12, 4)
        fit = solve_lasso(spec, y)
        active = np.nonzero(fit.beta_hat)[0]
        state = make_state(
            active, fit.beta_hat[active], fit.subgrad[fit.beta_hat == 0]
        )
        beta_true = rng.standard_normal(4) * 0.5
        u = scores(*state, beta_true, spec)
        expected = spec.X.T @ (y - spec.X @ beta_true) / spec.n
        np.testing.assert_allclose(u, expected, atol=1e-8)


@pytest.mark.parametrize("wide", [False, True])
def test_score_kernel_block_equals_stacked_rows(small_spec, wide_spec, wide):
    spec = wide_spec if wide else small_spec
    basis = spectral_decompose(spec) if wide else None
    beta = np.linspace(-0.5, 0.5, spec.p)
    chain = direct_sample(spec, beta, Gaussian(1.0), 25, 8)
    at = replace(spec, lam=0.7)
    u = scores(chain.thetas, chain.active, beta, at)
    rows = [scores(t, a, beta, at) for t, a in zip(chain.thetas, chain.active)]
    np.testing.assert_allclose(u, rows, rtol=1e-13, atol=1e-14)
    q = score_qform(u, spec, basis)
    assert q.shape == (25,)
    np.testing.assert_allclose(q, [score_qform(r, spec, basis) for r in rows], rtol=1e-12)


def test_gaussian_moments_single_active_identity():
    X = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    spec = build_problem(X, 1.0, 0.5)
    mu, cov = gaussian_moments(
        np.array([0]), np.array([1.0]), np.array([1.0, 0.0]), 1.0, spec
    )
    np.testing.assert_allclose(mu, [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(cov, np.diag([0.25, 1.0]), atol=1e-12)


def test_gaussian_moments_empty_active_set():
    X = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    lam = 0.7
    spec = build_problem(X, 1.0, lam)
    mu, cov = gaussian_moments(
        np.array([], dtype=int), np.array([]), np.zeros(2), 2.0, spec
    )
    np.testing.assert_allclose(mu, np.zeros(2), atol=1e-13)
    np.testing.assert_allclose(cov, (2.0 / 4.0) / lam**2 * np.eye(2), atol=1e-12)


def test_gaussian_moments_match_explicit_inverse(rng):
    for _ in range(15):
        spec, _ = random_instance(rng, 10, 2)
        active = np.array([0]) if rng.random() < 0.5 else np.array([0, 1])
        s_active = np.where(rng.random(active.size) < 0.5, -1.0, 1.0)
        beta = rng.standard_normal(2)
        sigma2 = float(rng.uniform(0.5, 2.0))
        mu, cov = gaussian_moments(active, s_active, beta, sigma2, spec)

        p = spec.p
        mask = np.zeros(p, dtype=bool)
        mask[active] = True
        D = np.zeros((p, p))
        D[:, : active.size] = spec.gram[:, active]
        for col, j in enumerate(np.nonzero(~mask)[0], start=active.size):
            D[j, col] = spec.lam * spec.weights[j]
        Dinv = np.linalg.inv(D)
        rhs = spec.gram @ beta
        rhs[active] -= spec.lam * spec.weights[active] * s_active
        np.testing.assert_allclose(mu, Dinv @ rhs, atol=1e-10)
        np.testing.assert_allclose(
            cov, sigma2 / spec.n * Dinv @ spec.gram @ Dinv.T, atol=1e-10
        )


def test_log_density_equals_gaussian_logpdf(rng):
    for _ in range(15):
        spec, _ = random_instance(rng, 15, 3)
        k = int(rng.integers(0, 4))
        active = np.sort(rng.choice(3, size=k, replace=False))
        b = rng.standard_normal(k)
        b[b == 0] = 0.1
        s_in = rng.uniform(-1, 1, 3 - k)
        state = make_state(active, b, s_in)
        beta = rng.standard_normal(3) * 0.4
        sigma2 = float(rng.uniform(0.5, 2.0))

        value = log_density(*state, beta, Gaussian(sigma2), spec)

        mu, cov = gaussian_moments(active, np.sign(b), beta, sigma2, spec)
        z = np.concatenate([b, s_in])
        expected = multivariate_normal(mean=mu, cov=cov).logpdf(z)
        assert value == pytest.approx(expected, abs=1e-8)


def test_log_density_studentt_approaches_gaussian_at_high_dof(small_spec):
    state = make_state([1], [0.8], np.full(4, 0.2))
    val_g = log_density(*state, np.zeros(5), Gaussian(1.0), small_spec)
    val_t = log_density(*state, np.zeros(5), StudentT(dof=1e6, scale=1.0), small_spec)
    assert val_t == pytest.approx(val_g, abs=0.01)


def test_validate_state_rejects_bad_states():
    with pytest.raises(DataError):
        validate_state(*make_state([0], [0.0], [0.5]), 2)
    with pytest.raises(DataError):
        validate_state(*make_state([0], [1.0], [1.5]), 2)
    # An active index 2 for p = 2 makes a 3-coordinate state.
    with pytest.raises(DataError):
        validate_state(*make_state([2], [1.0], [0.0, 0.0]), 2)
    # Duplicate indices [0, 0] passed where the bool mask goes.
    with pytest.raises(DataError):
        validate_state(np.array([1.0, 1.0]), np.array([0, 0]), 2)


@pytest.mark.parametrize(
    "theta, active",
    [
        ([math.nan, 0.5], [True, False]),
        ([0.8, math.nan], [True, False]),
        ([1.0, math.inf], [True, True]),
        ([1.0, 0.5, 0.5], [True, False, False]),
        ([1.0, 0.5], [True, False, False]),
        ([[1.0, 0.5]], [[True, False]]),
        ([1.0, 0.5], [1, 0]),
        ([1.0, 0.5], [1.0, 0.0]),
    ],
    ids=["nan-active", "nan-inactive", "inf-active", "long-theta", "long-mask",
         "row-block", "int-mask", "float-mask"],
)
def test_validate_state_rejects_malformed_arrays(theta, active):
    with pytest.raises(DataError):
        validate_state(np.array(theta), np.array(active), 2)


def test_densities_reject_a_nonfinite_state(small_spec, wide_spec):
    """A NaN state used to pass validation, since NaN == 0 and NaN > 1 are False."""
    theta = np.array([0.8, math.nan, 0.2, 0.2, 0.2])
    active = np.array([True, False, False, False, False])
    with pytest.raises(DataError, match="finite"):
        log_density(theta, active, np.zeros(5), Gaussian(1.0), small_spec)
    theta = np.full(wide_spec.p, 0.1)
    theta[2] = math.nan
    with pytest.raises(DataError, match="finite"):
        log_density_rowspace(
            theta, np.zeros(wide_spec.p, dtype=bool), np.zeros(wide_spec.p), Gaussian(1.0),
            wide_spec, spectral_decompose(wide_spec),
        )


def test_rowspace_residual_rejects_a_nonfinite_state():
    """A NaN subgradient gave a NaN residual, which a ``> tol`` check reads as satisfied."""
    spec = build_problem(synthetic_dataset(4, 7, seed=29)[0], 1.0, 0.3)
    theta = np.full(spec.p, 0.1)
    theta[2] = math.nan
    with pytest.raises(DataError, match="finite"):
        rowspace_residual(theta, np.zeros(spec.p, dtype=bool), spectral_decompose(spec), spec)


def test_inactive_null_basis_rank_one():
    spec = build_problem(np.array([[1.0, 1.0]]), 1.0, 0.3)
    basis = spectral_decompose(spec)
    B = inactive_null_basis(np.array([0, 1]), basis, spec)
    assert B.shape == (2, 1)
    np.testing.assert_allclose(np.abs(B[:, 0]), np.full(2, 1 / math.sqrt(2)), atol=1e-12)


def test_inactive_null_basis_orthonormal_and_annihilating():
    gen = np.random.default_rng(31)
    X = gen.standard_normal((3, 5))
    w = gen.uniform(0.5, 1.5, 5)
    spec = build_problem(X, w, 0.3)
    basis = spectral_decompose(spec)
    inactive = np.array([0, 2, 3, 4])
    B = inactive_null_basis(inactive, basis, spec)
    assert B.shape == (4, 2)
    np.testing.assert_allclose(B.T @ B, np.eye(2), atol=1e-10)
    constraint = (basis.null_basis[inactive, :].T * w[inactive]) @ B
    assert np.max(np.abs(constraint)) < 1e-10


def test_rowspace_residual_hand_values():
    spec = build_problem(np.array([[1.0, 1.0]]), 1.0, 0.3)
    basis = spectral_decompose(spec)
    equal = make_state([], [], [0.3, 0.3])
    assert rowspace_residual(*equal, basis, spec) == pytest.approx(0.0, abs=1e-12)
    opposite = make_state([], [], [0.3, -0.3])
    assert rowspace_residual(*opposite, basis, spec) == pytest.approx(
        0.6 / math.sqrt(2), abs=1e-12
    )


def test_rowspace_jacobian_matches_dense_assembly(wide_spec, rng):
    basis = spectral_decompose(wide_spec)
    for k in range(0, wide_spec.n + 1):
        active = np.sort(rng.choice(wide_spec.p, size=k, replace=False))
        T = assemble_rowspace_jacobian(
            wide_spec.X,
            wide_spec.weights,
            wide_spec.lam,
            active,
            basis.row_basis,
            basis.null_basis,
        )
        sign, expected = np.linalg.slogdet(T)
        assert sign != 0
        got = log_det_rowspace_jacobian(active, wide_spec, basis)
        assert got == pytest.approx(expected, abs=1e-8)


def test_rowspace_jacobian_penalty_scaling(rng):
    n, p = 8, 20
    X = np.random.default_rng(41).standard_normal((n, p))
    w = np.random.default_rng(42).uniform(0.5, 1.5, p)
    for _ in range(20):
        lam = float(rng.uniform(0.2, 3.0))
        spec1 = build_problem(X, w, 1.0)
        spec_l = build_problem(X, w, lam)
        basis = spectral_decompose(spec1)
        k = int(rng.integers(0, n + 1))
        active = np.sort(rng.choice(p, size=k, replace=False))
        d1 = log_det_rowspace_jacobian(active, spec1, basis)
        dl = log_det_rowspace_jacobian(active, spec_l, basis)
        assert dl - d1 == pytest.approx((n - k) * math.log(lam), abs=1e-10)


def test_rowspace_density_invariant_to_basis_rotation(wide_spec, rng):
    basis = spectral_decompose(wide_spec)
    active = np.array([1, 4])
    inactive = np.array([j for j in range(wide_spec.p) if j not in active])
    B = inactive_null_basis(inactive, basis, wide_spec)
    Q = ortho_group.rvs(B.shape[1], random_state=np.random.default_rng(7))
    base = log_det_rowspace_jacobian(active, wide_spec, basis)
    rotated = log_det_rowspace_jacobian(active, wide_spec, basis, null_span=B @ Q)
    assert rotated == pytest.approx(base, abs=1e-10)


def test_rowspace_density_round_trip(wide_spec):
    beta = np.zeros(wide_spec.p)
    chain = direct_sample(wide_spec, beta, Gaussian(1.0), 5, 3)
    basis = spectral_decompose(wide_spec)
    for i in range(len(chain)):
        state = chain.thetas[i], chain.active[i]
        assert rowspace_residual(*state, basis, wide_spec) <= 1e-8
        val = log_density_rowspace(*state, beta, Gaussian(1.0), wide_spec, basis)
        assert np.isfinite(val)


def test_rowspace_density_rejects_violating_state(wide_spec):
    basis = spectral_decompose(wide_spec)
    bad = make_state([], [], np.linspace(-0.9, 0.9, wide_spec.p))
    if rowspace_residual(*bad, basis, wide_spec) > 1e-6:
        with pytest.raises(DataError):
            log_density_rowspace(*bad, np.zeros(wide_spec.p), Gaussian(1.0), wide_spec, basis)


def test_radial_model_single_bin_is_flat():
    edges = np.array([0.0, 2.0])
    counts = np.array([50.0])
    ln = radial_log_norm(edges, counts, dim=3, tail_slope=-math.inf, tail_intercept=0.0)
    model = EmpiricalElliptical(
        edges=edges,
        counts=counts,
        tail_slope=-math.inf,
        tail_intercept=0.0,
        dim=3,
        log_norm=ln,
    )
    v1 = radial_log_pdf(model, 0.3)
    v2 = radial_log_pdf(model, 1.9)
    assert v1 == pytest.approx(v2, abs=1e-12)
    # normalized: profile times the ball volume sums to 1
    c3 = math.pi**1.5 / math.gamma(2.5)
    mass = c3 * 2.0**3 * math.exp(v1)
    assert mass == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "dim, slope, want",
    [(1, -1000.0, math.log(10.0)), (5, -800.0, math.log(8.0 * math.pi**2 / 3.0))],
)
def test_radial_log_norm_is_finite_where_gammaincc_underflows(dim, slope, want):
    """Q(dim, -slope) underflows, so the norm is the interior mass alone.

    That mass is V_dim times the 5 counted points, with V_1 = 2 and
    V_5 = 8 pi^2 / 15.  scipy's ``gammaincc`` returns 0 there, and taking
    its log raised ValueError.
    """
    got = radial_log_norm(np.array([0.0, 0.5, 1.0]), np.array([3.0, 2.0]), dim, slope, 0.0)
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200), st.floats(1e-3, 800.0))
def test_log_upper_gamma_q_matches_gammaincc(dim, x):
    """The closed form of log Q(dim, x) agrees with scipy where Q is a normal float."""
    q = float(gammaincc(dim, x))
    if q >= np.finfo(float).tiny:
        assert abs(_log_upper_gamma_q(dim, x) - math.log(q)) <= 1e-12


@pytest.mark.parametrize(
    "model, named",
    [
        (Gaussian(math.nan), "sigma2"),
        (Gaussian(math.inf), "sigma2"),
        (StudentT(dof=math.nan, scale=1.0), "dof"),
        (StudentT(dof=math.inf, scale=1.0), "dof"),
        (StudentT(dof=4.0, scale=math.nan), "scale"),
    ],
)
def test_nonfinite_model_parameters_are_config_errors(model, named):
    """NaN fails every comparison, so a bare ``<= 0`` check let it through."""
    with pytest.raises(ConfigError, match=named):
        qform_log_density(model, 3, 0.0, 10)
    with pytest.raises(ConfigError, match=named):
        sample_errors(model, 10, 2, np.random.default_rng(0))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.5, 400.0),
    st.integers(1, 60),
    st.floats(0.05, 20.0),
    st.integers(1, 500),
    st.floats(-50.0, 50.0),
    st.floats(0.0, 10.0),
)
def test_studentt_log_density_matches_gammaln_oracle(dof, dim, scale, n, log_det, q):
    """math.lgamma gives the Student-t constant that scipy's gammaln gives."""
    got = qform_log_density(StudentT(dof=dof, scale=scale), dim, log_det, n)(q)
    lg_top, lg_bottom = gammaln(0.5 * (dof + dim)), gammaln(0.5 * dof)
    want = (
        lg_top
        - lg_bottom
        - 0.5 * dim * math.log(dof * math.pi)
        - 0.5 * (dim * math.log(scale / n) + log_det)
        - 0.5 * (dof + dim) * math.log1p(n * q / scale / dof)
    )
    # lgamma and gammaln differ by a few ulps of the log-gamma values.
    assert abs(got - want) <= 1e-13 * (1.0 + abs(lg_top) + abs(lg_bottom) + abs(want))


def test_zero_gaussian_variance_samples_zero_noise():
    assert not np.any(sample_errors(Gaussian(0.0), 4, 3, np.random.default_rng(0)))
    with pytest.raises(ConfigError, match="sigma2"):
        qform_log_density(Gaussian(0.0), 3, 0.0, 10)
