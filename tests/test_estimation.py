from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.stats import norm

from lassodist import (
    Chain,
    ConfigError,
    DataError,
    Gaussian,
    NumericalError,
    StudentT,
    acceptance_band_report,
    build_problem,
    chain_diagnostics,
    coefficient_histogram,
    default_sampler_config,
    estimate_sigma2,
    fit_elliptical_model,
    mh_sample,
    posterior_decision_sample,
    radial_log_pdf,
    recentered_minimizer,
    sign_consistency_prob,
    summarize_chain,
    threshold_estimator,
    validate_state,
)
from lassodist.rng import generator

from oracles import ar1_series, cell_probability, soft_threshold, summarize_chain_by_column


def make_chain(thetas, active, **kw):
    thetas = np.asarray(thetas, dtype=float)
    active = np.asarray(active, dtype=bool)
    return Chain(thetas=thetas, active=active, iterations=np.arange(len(thetas)), **kw)


def test_estimate_sigma2_matches_residual_formula():
    gen = np.random.default_rng(3)
    X = gen.standard_normal((6, 2))
    spec = build_problem(X, 1.0, 0.3)
    y = gen.standard_normal(6)
    b = np.array([0.5, -1.0])
    resid = y - X @ b
    assert estimate_sigma2(spec, y, b) == pytest.approx(resid @ resid / 4.0)


def test_estimate_sigma2_needs_tall_design(wide_spec):
    with pytest.raises(ConfigError):
        estimate_sigma2(wide_spec, np.zeros(wide_spec.n), np.zeros(wide_spec.p))


def test_elliptical_fit_recovers_gaussian_radial_law():
    gen = np.random.default_rng(15)
    n, p = 60, 3
    X = gen.standard_normal((n, p))
    spec = build_problem(X, 1.0, 0.4)
    y = gen.standard_normal(n)
    resid = y - y.mean()
    s2 = float(resid @ resid) / n / n  # pool variance over n, whitened scale

    s = math.sqrt(s2)
    edges = s * np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 8.0])
    model = fit_elliptical_model(
        spec, y, np.zeros(p), n_samples=200_000, bins=edges, seed=5
    )

    total = model.counts.sum()
    chi_cdf = gammainc(p / 2.0, edges**2 / (2.0 * s2))
    masses = np.diff(chi_cdf)
    for m in range(edges.size - 1):
        if masses[m] < 0.03:
            continue
        assert model.counts[m] / total == pytest.approx(masses[m], rel=0.1)

    # normalized density at a bulk radius vs the bin-averaged Gaussian law
    lo, hi = edges[2], edges[3]
    log_cp = (p / 2.0) * math.log(math.pi) - math.lgamma(p / 2.0 + 1.0)
    truth = math.log(masses[2]) - log_cp - math.log(hi**p - lo**p)
    fitted = radial_log_pdf(model, float((lo + hi) / 2.0))
    assert fitted == pytest.approx(truth, abs=0.12)

    assert model.tail_slope < 0


def test_elliptical_fit_single_bin_is_flat():
    gen = np.random.default_rng(7)
    X = gen.standard_normal((8, 2))
    spec = build_problem(X, 1.0, 0.3)
    y = gen.standard_normal(8)
    model = fit_elliptical_model(spec, y, np.zeros(2), n_samples=500, bins=1, seed=1)
    assert model.counts.size == 1
    assert model.tail_slope == -math.inf
    # piecewise density integrates to one over the single shell
    log_cp = math.log(math.pi) - math.lgamma(2.0)
    inside = radial_log_pdf(model, float(model.edges[1]) / 2.0)
    assert inside + log_cp + 2.0 * math.log(model.edges[1]) == pytest.approx(0.0, abs=1e-12)


def test_elliptical_fit_zero_residuals_rejected():
    gen = np.random.default_rng(2)
    X = gen.standard_normal((5, 2))
    spec = build_problem(X, 1.0, 0.3)
    b = np.array([1.0, -0.5])
    with pytest.raises(DataError):
        fit_elliptical_model(spec, X @ b, b, n_samples=100, seed=0)


def test_elliptical_fit_edges_must_cover_radii():
    gen = np.random.default_rng(4)
    X = gen.standard_normal((10, 2))
    spec = build_problem(X, 1.0, 0.3)
    y = gen.standard_normal(10)
    with pytest.raises(DataError):
        fit_elliptical_model(
            spec, y, np.zeros(2), n_samples=200, bins=np.array([0.0, 1e-9]), seed=3
        )


def test_elliptical_fit_empty_bin_rejected():
    gen = np.random.default_rng(4)
    X = gen.standard_normal((10, 2))
    spec = build_problem(X, 1.0, 0.3)
    y = gen.standard_normal(10)
    edges = np.array([0.0, 50.0, 50.0 + 1e-9, 100.0])
    with pytest.raises(DataError):
        fit_elliptical_model(spec, y, np.zeros(2), n_samples=200, bins=edges, seed=3)


def test_elliptical_fit_rejects_rising_tail():
    # residual pool with magnitudes {1, 6, 12} puts a dense spike of
    # bootstrap radii in a thin outer bin, so the tail fit slopes upward
    X = np.zeros((6, 2))
    X[0, 0] = X[1, 1] = math.sqrt(6.0)
    spec = build_problem(X, 1.0, 0.3)
    y = np.array([12.0, -12.0, 6.0, -6.0, 1.0, -1.0])
    edges = np.array([0.0, 1.0, 4.0, 6.9, 7.0])
    with pytest.raises(NumericalError):
        fit_elliptical_model(
            spec, y, np.zeros(2), n_samples=30_000, bins=edges, seed=9
        )


def test_threshold_estimator_basic():
    out = threshold_estimator(np.array([0.5, 0.01, -0.2]), 0.1)
    np.testing.assert_array_equal(out, [0.5, 0.0, -0.2])
    with pytest.raises(ConfigError):
        threshold_estimator(np.array([1.0]), 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6),
    st.floats(0.01, 2.0),
)
def test_threshold_estimator_keeps_or_zeroes(vals, b_th):
    beta = np.array(vals)
    out = threshold_estimator(beta, b_th)
    for j in range(beta.size):
        assert out[j] == beta[j] or out[j] == 0.0
        if out[j] != 0.0:
            assert abs(out[j]) > b_th


def test_sign_consistency_identity_matches_phi_product():
    X = np.zeros((4, 2))
    X[0, 0] = X[1, 1] = 2.0
    spec = build_problem(X, 1.0, 0.5)
    prob = sign_consistency_prob(spec, np.array([1.0, 0.0]), 1.0, 200_000, 31)
    phi1 = norm.cdf(1.0)
    target = phi1 * (2.0 * phi1 - 1.0)
    assert prob == pytest.approx(target, abs=0.0035)


def test_sign_consistency_null_support_huge_penalty():
    gen = np.random.default_rng(8)
    X = gen.standard_normal((10, 3))
    spec = build_problem(X, 1.0, 50.0)
    prob = sign_consistency_prob(spec, np.zeros(3), 1.0, 2000, 0)
    assert prob >= 0.999


def test_sign_consistency_guards():
    spec = build_problem(np.array([[1.0, 1.0]]), 1.0, 0.5)
    with pytest.raises(ConfigError):
        sign_consistency_prob(spec, np.array([1.0, 1.0]), 1.0, 10, 0)
    with pytest.raises(ConfigError):
        sign_consistency_prob(spec, np.zeros(2), -1.0, 10, 0)
    with pytest.raises(DataError):
        sign_consistency_prob(spec, np.zeros(3), 1.0, 10, 0)


def test_sign_consistency_singular_active_block():
    with pytest.warns(RuntimeWarning):
        spec = build_problem(np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0, 0.5)
    with pytest.raises(NumericalError):
        sign_consistency_prob(spec, np.array([1.0, -1.0]), 1.0, 10, 0)


def test_posterior_zero_penalty_returns_raw_draws():
    gen = np.random.default_rng(12)
    X = gen.standard_normal((12, 3))
    spec = build_problem(X, 1.0, 0.4)
    y = gen.standard_normal(12)
    L = 50
    chain = posterior_decision_sample(spec, y, Gaussian(1.3), L, 7, lam=0.0)

    from scipy.linalg import solve_triangular

    rng = generator(7)
    z = rng.standard_normal((L, 3))
    ols = spec.gram_solve(spec.X.T @ y / spec.n)
    spread = solve_triangular(spec.gram_cholesky.T, z.T, lower=False).T
    draws = ols + math.sqrt(1.3 / 12) * spread
    np.testing.assert_array_equal(chain.thetas, draws)
    np.testing.assert_array_equal(chain.active, draws != 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans())
def test_posterior_spread_matches_triangular_solve_oracle(seed, p, student):
    """Raw posterior draws agree with scipy's triangular solve of the Cholesky factor."""
    from scipy.linalg import cho_solve, solve_triangular

    gen = np.random.default_rng(seed)
    n = p + 1 + int(gen.integers(0, 30))
    X = gen.standard_normal((n, p)) * gen.uniform(0.2, 5.0, p)
    spec = build_problem(X, 1.0, 0.4)
    y = gen.standard_normal(n)
    model = StudentT(dof=5.0, scale=1.3) if student else Gaussian(1.3)
    chain = posterior_decision_sample(spec, y, model, 40, seed, lam=0.0)

    rng = generator(seed)
    z = rng.standard_normal((40, p))
    mix = 1.0 / np.sqrt(rng.chisquare(5.0, size=40) / 5.0) if student else np.ones(40)
    ols = cho_solve((spec.gram_cholesky, True), spec.X.T @ y / n)
    spread = solve_triangular(spec.gram_cholesky.T, z.T, lower=False).T
    draws = ols + math.sqrt(1.3 / n) * spread * mix[:, None]
    scale = np.abs(ols).max() + math.sqrt(1.3 / n) * np.abs(spread * mix[:, None]).max()
    np.testing.assert_allclose(chain.thetas, draws, rtol=0.0, atol=1e-11 * scale)


def test_elliptical_fit_whitening_matches_triangular_solve_oracle():
    from scipy.linalg import solve_triangular

    gen = np.random.default_rng(41)
    X = gen.standard_normal((60, 2)) * np.array([0.5, 3.0])
    spec = build_problem(X, 1.0, 0.3)
    y = X @ np.array([1.0, -1.0]) + gen.standard_normal(60)
    center = np.zeros(2)
    model = fit_elliptical_model(spec, y, center, n_samples=500, bins=8, seed=9)

    resid = y - X @ center
    resid = resid - resid.mean()
    noise = generator(9).choice(resid, size=(500, 60), replace=True)
    white = solve_triangular(spec.gram_cholesky, (noise @ X / 60).T, lower=True)
    radii = np.sqrt(np.sum(white * white, axis=0))
    assert model.edges[-1] == pytest.approx(radii.max() * (1.0 + 1e-12), rel=1e-12)
    counts, _ = np.histogram(radii, bins=model.edges)
    np.testing.assert_array_equal(model.counts, counts)


def test_posterior_null_response_matches_phi_product():
    X = np.zeros((3, 1))
    X[0, 0] = math.sqrt(3.0)
    spec = build_problem(X, 1.0, 0.5)
    chain = posterior_decision_sample(spec, np.zeros(3), Gaussian(0.75), 20_000, 2)
    p_zero = float(np.mean(~chain.active[:, 0]))
    target = cell_probability(np.zeros(1), 0.5, 0.5, np.array([], int), np.array([]))
    assert p_zero == pytest.approx(target, abs=0.012)


def test_posterior_student_limit_matches_gaussian():
    gen = np.random.default_rng(5)
    X = gen.standard_normal((10, 2))
    spec = build_problem(X, 1.0, 0.3)
    y = gen.standard_normal(10)
    g = posterior_decision_sample(spec, y, Gaussian(1.0), 2000, 11, lam=0.0)
    t = posterior_decision_sample(spec, y, StudentT(dof=1e6, scale=1.0), 2000, 11, lam=0.0)
    np.testing.assert_allclose(t.thetas, g.thetas, atol=0.05)


def test_posterior_student_states_are_valid(small_spec):
    y = 1.5 * generator(3).standard_normal(small_spec.n)
    chain = posterior_decision_sample(small_spec, y, StudentT(dof=3.0, scale=1.0), 200, 4)
    for i in range(0, 200, 40):
        validate_state(chain.thetas[i], chain.active[i], small_spec.p)


def test_posterior_records_kkt_residual(small_spec):
    y = 1.5 * generator(8).standard_normal(small_spec.n)
    chain = posterior_decision_sample(small_spec, y, Gaussian(1.0), 300, 6)
    assert chain.max_kkt_residual is not None
    assert 0.0 <= chain.max_kkt_residual <= 1e-10
    raw = posterior_decision_sample(small_spec, y, Gaussian(1.0), 30, 6, lam=0.0)
    assert raw.max_kkt_residual == 0.0


def test_posterior_guards(wide_spec, small_spec):
    y = np.zeros(wide_spec.n)
    with pytest.raises(ConfigError):
        posterior_decision_sample(wide_spec, y, Gaussian(1.0), 10, 0)
    with pytest.raises(ConfigError):
        posterior_decision_sample(
            small_spec, np.zeros(small_spec.n), Gaussian(1.0), 10, 0, lam=-0.1
        )
    with pytest.raises(ConfigError):
        posterior_decision_sample(small_spec, np.zeros(small_spec.n), Gaussian(0.0), 10, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_noise_parameters_are_config_errors(small_spec, bad):
    y = np.zeros(small_spec.n)
    with pytest.raises(ConfigError, match="sigma2"):
        posterior_decision_sample(small_spec, y, Gaussian(bad), 10, 0)
    with pytest.raises(ConfigError, match="dof"):
        posterior_decision_sample(small_spec, y, StudentT(dof=bad, scale=1.0), 10, 0)
    with pytest.raises(ConfigError, match="sigma2"):
        sign_consistency_prob(small_spec, np.zeros(small_spec.p), bad, 10, 0)
    assert sign_consistency_prob(small_spec, np.zeros(small_spec.p), 0.0, 10, 0) == 1.0


@pytest.mark.parametrize("b_th", [math.nan, math.inf])
def test_threshold_estimator_rejects_a_nonfinite_threshold(b_th):
    with pytest.raises(ConfigError, match="b_th"):
        threshold_estimator(np.array([0.5, -0.2]), b_th)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, -1.0, 0.0])
def test_diagnostics_reject_a_bad_cost_ratio(ratio):
    series = ar1_series(200, 0.5, np.random.default_rng(3))
    with pytest.raises(ConfigError, match="cost_ratio"):
        chain_diagnostics(series, cost_ratio=ratio)


def test_recentered_minimizer_identity_gram(identity_spec):
    center = np.array([2.0, -0.3])
    delta = recentered_minimizer(identity_spec, center, np.zeros(2))
    np.testing.assert_allclose(delta, soft_threshold(center, 0.5) - center, atol=1e-12)
    u = np.array([0.1, 0.05])
    delta_u = recentered_minimizer(identity_spec, center, u)
    np.testing.assert_allclose(
        delta_u, soft_threshold(center + u, 0.5) - center, atol=1e-12
    )


def test_summarize_chain_counts_and_quantiles():
    thetas = np.array([[1.0, 0.2], [2.0, 0.4], [3.0, -0.1], [4.0, 0.9], [0.5, -0.5]])
    active = np.array(
        [[True, False], [True, False], [True, False], [False, False], [False, False]]
    )
    chain = make_chain(thetas, active)
    s = summarize_chain(chain)
    assert s.select_prob[0] == pytest.approx(0.6)
    assert s.select_prob[1] == 0.0
    assert s.cond_mean[0] == pytest.approx(2.0)
    assert s.cond_sd[0] == pytest.approx(math.sqrt(2.0 / 3.0))
    assert math.isnan(s.cond_mean[1])
    betas = np.where(active, thetas, 0.0)
    assert s.quantile_lo[0] == pytest.approx(np.quantile(betas[:, 0], 0.025))
    assert s.quantile_hi[0] == pytest.approx(np.quantile(betas[:, 0], 0.975))
    assert sum(s.model_freq.values()) == pytest.approx(1.0)
    assert sorted(s.model_freq.values()) == pytest.approx([0.4, 0.6])


def test_summarize_chain_weighted():
    thetas = np.array([[1.0, 0.0], [0.3, 0.0]])
    active = np.array([[True, False], [False, False]])
    chain = make_chain(thetas, active)
    s = summarize_chain(chain, log_weights=np.array([math.log(3.0), 0.0]))
    assert s.select_prob[0] == pytest.approx(0.75)
    assert s.cond_mean[0] == pytest.approx(1.0)
    freqs = sorted(s.model_freq.values())
    assert freqs == pytest.approx([0.25, 0.75])


def test_summarize_chain_model_freq_matches_running_sums():
    gen = np.random.default_rng(31)
    active = gen.random((400, 6)) < 0.3
    chain = make_chain(gen.standard_normal((400, 6)), active)
    for log_weights in (None, gen.standard_normal(400)):
        if log_weights is None:
            w = np.full(400, 1.0 / 400)
        else:
            w = np.exp(log_weights - log_weights.max())
            w = w / w.sum()
        expected: dict[str, float] = {}
        for i in range(400):
            key = format(sum(1 << int(j) for j in np.flatnonzero(active[i])), "x")
            expected[key] = expected.get(key, 0.0) + float(w[i])
        freq = summarize_chain(chain, log_weights).model_freq
        assert list(freq.items()) == list(expected.items())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 12),
       st.sampled_from(["none", "equal", "finite", "-inf"]))
def test_summarize_chain_block_matches_column_loop(seed, L, p, weighting):
    """The block summaries equal the per-column reference: selection probabilities,
    unweighted quantiles and model frequencies exactly, weighted quantiles and
    conditional moments to 1e-12 of the column's largest |beta|.  Columns are
    never, once, sometimes or always active, half of them hold tied values, and
    the -inf weighting zeroes about a third of the states.  Before, NaN, +inf and
    all -inf log weights gave NaN summaries instead of an error."""
    gen = np.random.default_rng(seed)
    tied = np.round(gen.standard_normal((L, p)), 1)
    spread = gen.standard_normal((L, p)) * gen.uniform(0.1, 10.0, p)
    thetas = np.where(gen.random(p) < 0.5, tied, spread)
    role = gen.integers(0, 4, p)  # never, once, sometimes, always active
    active = ((gen.random((L, p)) < gen.uniform(0.0, 1.0, p)) & (role == 2)) | (role == 3)
    active[gen.integers(L, size=p), np.arange(p)] |= role == 1
    lw = None
    if weighting != "none":
        lw = np.zeros(L)
        if weighting != "equal":
            lw = gen.standard_normal(L) * gen.uniform(0.1, 20.0)
        if weighting == "-inf":
            lw[gen.random(L) < 0.3] = -np.inf
            lw[gen.integers(L)] = 0.0
    chain = make_chain(thetas, active)
    s = summarize_chain(chain, lw)
    select_prob, q_lo, q_hi, cond_mean, cond_sd, model_freq = summarize_chain_by_column(chain, lw)

    np.testing.assert_array_equal(s.select_prob, select_prob)
    assert list(s.model_freq.items()) == list(model_freq.items())
    if lw is None:
        np.testing.assert_array_equal(s.quantile_lo, q_lo)
        np.testing.assert_array_equal(s.quantile_hi, q_hi)
    tol = 1e-12 * np.abs(chain.beta_matrix()).max(axis=0)
    for got, want in ((s.quantile_lo, q_lo), (s.quantile_hi, q_hi),
                      (s.cond_mean, cond_mean), (s.cond_sd, cond_sd)):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        assert np.all(np.abs(np.nan_to_num(got - want)) <= tol)
    weighed = np.ones(L, dtype=bool) if lw is None else lw > -np.inf
    once = (active.sum(axis=0) == 1) & (active & weighed[:, None]).any(axis=0)
    assert np.all(s.cond_sd[once] == 0.0)

    if lw is not None:
        for bad in (np.nan, np.inf):
            faulty = lw.copy()
            faulty[gen.integers(L)] = bad
            with pytest.raises(NumericalError, match=r"nan or \+inf log weights; first at state"):
                summarize_chain(chain, faulty)
        with pytest.raises(NumericalError, match="all importance weights are zero"):
            summarize_chain(chain, np.full(L, -np.inf))


def test_summarize_chain_guards():
    chain = make_chain(np.zeros((0, 2)), np.zeros((0, 2), dtype=bool))
    with pytest.raises(DataError):
        summarize_chain(chain)
    chain2 = make_chain(np.ones((3, 1)), np.ones((3, 1), dtype=bool))
    with pytest.raises(DataError):
        summarize_chain(chain2, log_weights=np.zeros(2))


@pytest.mark.parametrize("active_cell", [True, False])
@pytest.mark.parametrize(
    "summary", [summarize_chain, lambda chain: coefficient_histogram(chain, 0)],
    ids=["summarize_chain", "coefficient_histogram"],
)
def test_chain_summaries_reject_a_nonfinite_theta(summary, active_cell):
    """A hand-built chain skips read_chain_csv's check; before, summarize_chain
    returned NaN summaries and coefficient_histogram raised numpy's ValueError."""
    thetas = np.full((20, 2), 0.5)
    active = np.ones((20, 2), dtype=bool)
    thetas[7, 0], active[7, 0] = np.nan, active_cell
    with pytest.raises(DataError, match="chain row 7 has a non-finite theta"):
        summary(make_chain(thetas, active))


def test_diagnostics_iid_series_has_unit_inflation():
    series = np.random.default_rng(10).standard_normal(100_000)
    rep = chain_diagnostics(series)
    assert rep.psi == pytest.approx(1.0, abs=0.05)
    assert rep.ess <= 100_000.0
    assert rep.gamma == pytest.approx(1.0 / rep.psi)


def test_diagnostics_ar1_inflation_matches_theory():
    series = ar1_series(100_000, 0.5, np.random.default_rng(21))
    rep = chain_diagnostics(series, cost_ratio=2.0)
    assert rep.psi == pytest.approx(3.0, rel=0.15)
    assert rep.ess == pytest.approx(100_000 / rep.psi)
    assert rep.gamma == pytest.approx(2.0 / rep.psi)
    assert rep.acf.size == rep.truncation_lag + 1


def test_diagnostics_constant_series_rejected():
    with pytest.raises(NumericalError):
        chain_diagnostics(np.ones(100))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_diagnostics_reject_a_non_finite_series(bad):
    """Before, a NaN gave psi NaN and ess N, and an inf gamma inf, with no error."""
    series = ar1_series(200, 0.5, np.random.default_rng(4))
    series[17] = bad
    with pytest.raises(DataError, match="^statistic series contains non-finite entries$"):
        chain_diagnostics(series)
    chain = make_chain(np.ones((20, 2)), np.ones((20, 2), dtype=bool))
    chain.thetas[3, 1] = bad
    with pytest.raises(DataError, match="^statistic series contains non-finite entries$"):
        chain_diagnostics(chain, g=lambda b: np.sum(np.abs(b), axis=-1))


def test_diagnostics_needs_enough_states():
    with pytest.raises(DataError):
        chain_diagnostics(np.arange(5.0))


def test_diagnostics_chain_requires_statistic(identity_spec):
    config = default_sampler_config(identity_spec, seed=1, iters=80, burn_in=20)
    chain = mh_sample(identity_spec, np.zeros(2), Gaussian(1.0), config)
    with pytest.raises(ConfigError):
        chain_diagnostics(chain)
    rep = chain_diagnostics(chain, g=lambda b: np.sum(np.abs(b), axis=-1))
    series = np.array([float(np.sum(np.abs(b))) for b in chain.beta_matrix()])
    rep2 = chain_diagnostics(series)
    assert rep.psi == rep2.psi
    with pytest.raises(ConfigError):
        chain_diagnostics(chain, g=series)


def test_coefficient_histogram_masses():
    thetas = np.array([[0.0], [0.0], [1.0]])
    active = np.array([[False], [False], [True]])
    chain = make_chain(thetas, active)
    centers, masses = coefficient_histogram(chain, 0, bins=2)
    np.testing.assert_allclose(centers, [0.25, 0.75])
    np.testing.assert_allclose(masses, [2.0 / 3.0, 1.0 / 3.0])
    with pytest.raises(ConfigError):
        coefficient_histogram(chain, 5)


def test_acceptance_band_report_flags_outliers():
    chain = make_chain(
        np.ones((3, 1)),
        np.ones((3, 1), dtype=bool),
        accept_counts={"coef_update": 90, "add_coord": 30},
        proposal_counts={"coef_update": 100, "add_coord": 100},
    )
    with pytest.warns(RuntimeWarning):
        messages = acceptance_band_report(chain)
    assert len(messages) == 1
    assert "coef_update" in messages[0]

    calm = make_chain(
        np.ones((3, 1)),
        np.ones((3, 1), dtype=bool),
        accept_counts={"coef_update": 30},
        proposal_counts={"coef_update": 100},
    )
    assert acceptance_band_report(calm) == []
