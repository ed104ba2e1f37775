from __future__ import annotations

import numpy as np
import pytest

from lassodist import (
    Chain,
    ConfigError,
    Gaussian,
    NumericalError,
    build_problem,
    coefficient_statistic,
    direct_sample,
    estimate_pvalue,
    lambda_max,
    log_density,
    log_density_rowspace,
    multi_pvalue_study,
    multi_test,
    pvalue_study,
    spectral_decompose,
    tune_trial,
)
from lassodist import importance as imp
from lassodist.density import AugmentedState
from lassodist.importance import TrialSpec, chain_log_weights, pool_results, sample_trial
from lassodist.rng import generator

from oracles import rowspace_qform


def make_state(active, b, s_inactive):
    return AugmentedState(
        active=np.asarray(active, dtype=int),
        b_active=np.asarray(b, dtype=float),
        s_inactive=np.asarray(s_inactive, dtype=float),
    )


def one_row_chain(state):
    return Chain(
        thetas=state.theta()[None], active=state.active_mask()[None], iterations=np.arange(1)
    )


def test_tune_trial_uses_lower_quartile(identity_spec, monkeypatch):
    monkeypatch.setattr(imp, "lambda_max", lambda spec, y: np.array([1.0, 2.0, 3.0, 4.0]))
    trial = tune_trial(identity_spec, sigma2_0=0.4, m_dagger=5.0, l_pilot=4, seed=0)
    assert trial.lambda_dagger == pytest.approx(1.75)
    assert trial.sigma2_dagger == pytest.approx(2.0)


def test_tune_trial_block_matches_pilot_loop(small_spec):
    # Reference: one standard_normal(n) draw and one lambda_max call per pilot.
    rng = generator(17)
    sd = np.sqrt(5.0 * 0.7)
    loop = [lambda_max(small_spec, sd * rng.standard_normal(small_spec.n)) for _ in range(100)]
    trial = tune_trial(small_spec, sigma2_0=0.7, m_dagger=5.0, l_pilot=100, seed=17)
    assert trial.lambda_dagger == pytest.approx(np.quantile(loop, 0.25), rel=1e-14)


def test_tune_trial_rejects_zero_variance(identity_spec):
    with pytest.raises(ConfigError):
        tune_trial(identity_spec, sigma2_0=0.0)


def test_tune_trial_flags_zero_penalty():
    with pytest.warns(RuntimeWarning):
        dead = build_problem(np.zeros((3, 2)), 1.0, 0.5)
    with pytest.raises(NumericalError):
        tune_trial(dead, sigma2_0=1.0, l_pilot=5, seed=1)


def test_log_weight_is_full_density_ratio_low_dim(small_spec):
    gen = np.random.default_rng(6)
    beta0 = np.zeros(small_spec.p)
    trial = TrialSpec(sigma2_dagger=2.5, lambda_dagger=0.45)
    lambda_star = 0.8
    sigma2_0 = 0.7
    chain = sample_trial(small_spec, beta0, trial, 6, 2)
    spec_target = build_problem(small_spec.X, small_spec.weights, lambda_star)
    spec_trial = build_problem(small_spec.X, small_spec.weights, trial.lambda_dagger)
    lw = chain_log_weights(chain, small_spec, None, sigma2_0, lambda_star, trial, beta0)
    for i in range(len(chain)):
        state = chain.state(i)
        expected = log_density(state, beta0, Gaussian(sigma2_0), spec_target) - log_density(
            state, beta0, Gaussian(trial.sigma2_dagger), spec_trial
        )
        assert lw[i] == pytest.approx(expected, abs=1e-9)


def test_log_weights_vector_target_equals_scalar_calls(small_spec, wide_spec):
    trial = TrialSpec(sigma2_dagger=2.5, lambda_dagger=0.45)
    lambda_stars = np.array([0.2, 0.8, 0.45])
    for spec, basis in ((small_spec, None), (wide_spec, spectral_decompose(wide_spec))):
        beta0 = np.zeros(spec.p)
        chain = sample_trial(spec, beta0, trial, 7, 4)
        block = chain_log_weights(chain, spec, basis, 0.7, lambda_stars, trial, beta0)
        assert block.shape == (3, 7)
        for row, lam in zip(block, lambda_stars):
            single = chain_log_weights(chain, spec, basis, 0.7, float(lam), trial, beta0)
            assert single.shape == (7,)
            np.testing.assert_array_equal(row, single)


def test_log_weight_is_full_density_ratio_high_dim():
    spec = build_problem(np.array([[1.0, 1.0]]), 1.0, 0.6)
    basis = spectral_decompose(spec)
    beta0 = np.zeros(2)
    trial = TrialSpec(sigma2_dagger=5.0, lambda_dagger=0.3)
    sigma2_0 = 1.0
    lambda_star = 1.4

    spec_target = build_problem(spec.X, spec.weights, lambda_star)
    spec_trial = build_problem(spec.X, spec.weights, trial.lambda_dagger)

    # one active coordinate (k = n: the penalty power cancels entirely)
    state_active = make_state([0], [0.8], [1.0])
    (lw,) = chain_log_weights(
        one_row_chain(state_active), spec, basis, sigma2_0, lambda_star, trial, beta0
    )
    expected = log_density_rowspace(
        state_active, beta0, Gaussian(sigma2_0), spec_target, basis
    ) - log_density_rowspace(
        state_active, beta0, Gaussian(trial.sigma2_dagger), spec_trial, basis
    )
    assert lw == pytest.approx(expected, abs=1e-10)

    # empty active set: penalty power (n - 0) log(lambda*/lambda+) present
    state_empty = make_state([], [], [0.4, 0.4])
    (lw0,) = chain_log_weights(
        one_row_chain(state_empty), spec, basis, sigma2_0, lambda_star, trial, beta0
    )
    expected0 = log_density_rowspace(
        state_empty, beta0, Gaussian(sigma2_0), spec_target, basis
    ) - log_density_rowspace(
        state_empty, beta0, Gaussian(trial.sigma2_dagger), spec_trial, basis
    )
    assert lw0 == pytest.approx(expected0, abs=1e-10)


def test_log_weights_match_design_rowspace_oracle(wide_spec):
    basis = spectral_decompose(wide_spec)
    beta0 = np.linspace(-0.3, 0.3, wide_spec.p)
    trial = TrialSpec(sigma2_dagger=4.0, lambda_dagger=0.35)
    sigma2_0, lambda_star = 0.8, 0.6
    chain = sample_trial(wide_spec, beta0, trial, 40, 12)
    n = wide_spec.n
    k = chain.active.sum(axis=1)
    base = (chain.beta_matrix() - beta0) @ wide_spec.gram
    scaled_s = chain.subgrad_matrix() * wide_spec.weights
    q_target = [rowspace_qform(wide_spec.X, u) for u in base + lambda_star * scaled_s]
    q_trial = [rowspace_qform(wide_spec.X, u) for u in base + trial.lambda_dagger * scaled_s]
    expected = (
        0.5 * n * np.array(q_trial) / trial.sigma2_dagger
        - 0.5 * n * np.array(q_target) / sigma2_0
        + (n - k) * np.log(lambda_star / trial.lambda_dagger)
        + 0.5 * n * np.log(trial.sigma2_dagger / sigma2_0)
    )
    lw = chain_log_weights(chain, wide_spec, basis, sigma2_0, lambda_star, trial, beta0)
    np.testing.assert_allclose(lw, expected, rtol=1e-10, atol=1e-10)


def test_oversized_active_set_rejected():
    spec = build_problem(np.array([[1.0, 1.0]]), 1.0, 0.6)
    basis = spectral_decompose(spec)
    trial = TrialSpec(sigma2_dagger=5.0, lambda_dagger=0.3)
    state = make_state([0, 1], [0.5, -0.5], [])
    from lassodist import DataError

    with pytest.raises(DataError):
        chain_log_weights(one_row_chain(state), spec, basis, 1.0, 1.0, trial, np.zeros(2))


def test_estimate_pvalue_all_or_nothing(identity_spec):
    chain = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 40, 1)
    lw = np.zeros(40)
    stat = coefficient_statistic("l1")
    assert estimate_pvalue(chain, stat, -1.0, lw).estimate == 1.0
    assert estimate_pvalue(chain, stat, 1e9, lw).estimate == 0.0


def test_estimate_pvalue_equal_weights_ess(identity_spec):
    chain = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 40, 1)
    res = estimate_pvalue(chain, coefficient_statistic("l1"), 0.5, np.full(40, -3.0))
    assert res.ess == pytest.approx(40.0)


def test_estimate_pvalue_degenerate_warns(identity_spec):
    chain = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 1200, 1)
    lw = np.full(1200, -50.0)
    lw[0] = 10.0
    with pytest.warns(RuntimeWarning):
        res = estimate_pvalue(chain, coefficient_statistic("l1"), 0.1, lw)
    assert res.degenerate


def test_multi_test_single_target_matches_estimate_pvalue(identity_spec):
    beta0 = np.zeros(2)
    trial = TrialSpec(sigma2_dagger=5.0, lambda_dagger=0.4)
    chain = sample_trial(identity_spec, beta0, trial, 200, 5)
    stat = coefficient_statistic("l1")
    multi = multi_test(
        chain, identity_spec, None, 1.0, [0.7], stat, [0.6], trial, beta0
    )
    lw = chain_log_weights(chain, identity_spec, None, 1.0, 0.7, trial, beta0)
    single = estimate_pvalue(chain, stat, 0.6, lw, lambda_star=0.7)
    assert multi[0].estimate == single.estimate
    np.testing.assert_array_equal(multi[0].log_weights, single.log_weights)


def test_multi_test_duplicate_targets_identical(identity_spec):
    beta0 = np.zeros(2)
    trial = TrialSpec(sigma2_dagger=5.0, lambda_dagger=0.4)
    chain = sample_trial(identity_spec, beta0, trial, 150, 5)
    stat = coefficient_statistic("linf")
    res = multi_test(
        chain, identity_spec, None, 1.0, [0.7, 0.7], stat, [0.5, 0.5], trial, beta0
    )
    assert res[0].estimate == res[1].estimate
    np.testing.assert_array_equal(res[0].log_weights, res[1].log_weights)


def test_multi_study_reproduces_single_runs_bit_exactly(identity_spec):
    beta0 = np.zeros(2)
    lambda_stars = np.array([0.6, 0.8, 1.1])
    t_stars = np.array([0.5, 0.7, 0.9])
    stat = coefficient_statistic("l1")
    multi = multi_pvalue_study(
        identity_spec, beta0, 1.0, lambda_stars, stat, t_stars, 300, 99
    )
    for k in range(3):
        single = pvalue_study(
            identity_spec,
            beta0,
            1.0,
            float(lambda_stars[k]),
            stat,
            float(t_stars[k]),
            300,
            99,
        )
        assert multi[k].estimate == single.estimate
        np.testing.assert_array_equal(multi[k].log_weights, single.log_weights)
        assert multi[k].ess == single.ess


def test_pvalue_study_replicates_pool(identity_spec):
    stat = coefficient_statistic("l1")
    res = pvalue_study(
        identity_spec, np.zeros(2), 1.0, 0.6, stat, 0.4, 150, 4, replicates=3
    )
    assert res.cv is not None and np.isfinite(res.cv)
    singles = [
        pvalue_study(identity_spec, np.zeros(2), 1.0, 0.6, stat, 0.4, 150, s, replicates=1)
        for s in np.random.SeedSequence(4).spawn(3)
    ]
    assert res.estimate == pytest.approx(np.mean([r.estimate for r in singles]))
    pooled = pool_results(singles, 0.6)
    assert pooled.estimate == res.estimate


def test_statistic_registry(identity_spec):
    beta = np.array([0.5, -2.0])
    assert coefficient_statistic("l1")(beta) == pytest.approx(2.5)
    assert coefficient_statistic("linf")(beta) == pytest.approx(2.0)
    assert coefficient_statistic("abs-coord", 1)(beta) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        coefficient_statistic("abs-coord")
    with pytest.raises(ConfigError):
        coefficient_statistic("l0")
    assert coefficient_statistic("abs-coord", 1, p=2)(beta) == pytest.approx(2.0)
    for coord, p in ((2, 2), (-1, 2), (-1, None)):
        with pytest.raises(ConfigError, match="outside"):
            coefficient_statistic("abs-coord", coord, p=p)


def test_pvalue_study_high_dim_auto_basis():
    gen = np.random.default_rng(44)
    X = gen.standard_normal((3, 6))
    spec = build_problem(X, 1.0, 0.5)
    stat = coefficient_statistic("l1")
    res = pvalue_study(spec, np.zeros(6), 1.0, 0.8, stat, 0.3, 200, 21)
    assert np.isfinite(res.estimate)
    assert np.all(np.isfinite(res.log_weights))
