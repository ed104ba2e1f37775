from __future__ import annotations

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lassodist import (
    Chain,
    ConfigError,
    Gaussian,
    NumericalError,
    build_problem,
    chain_diagnostics,
    coefficient_statistic,
    direct_sample,
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
from lassodist.density import score_qform, scores
from lassodist.importance import TrialSpec, chain_log_weights, pool_results, sample_trial
from lassodist.rng import generator

from oracles import rowspace_qform, tail_estimate


def make_state(active, b, s_inactive):
    """(theta, active) with ``b`` on the ``active`` indices and ``s_inactive`` on the rest."""
    b, s_inactive = np.asarray(b, dtype=float), np.asarray(s_inactive, dtype=float)
    mask = np.zeros(b.size + s_inactive.size, dtype=bool)
    mask[np.asarray(active, dtype=int)] = True
    theta = np.empty(mask.size)
    theta[mask] = b
    theta[~mask] = s_inactive
    return theta, mask


def one_row_chain(state):
    theta, active = state
    return Chain(thetas=theta[None], active=active[None], iterations=np.arange(1))


def tail_one(chain, statistic, t_star, log_weights, lambda_star=None):
    """One target's tail estimate from given log weights, as ``multi_test`` forms it."""
    values = imp._statistic_values(chain, statistic)
    return imp._tail_estimate(values, [t_star], log_weights, [lambda_star])[0]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tune_trial_rejects_nonfinite_variance_and_multiplier(identity_spec, bad):
    with pytest.raises(ConfigError, match="sigma2_0"):
        tune_trial(identity_spec, sigma2_0=bad)
    with pytest.raises(ConfigError, match="m_dagger"):
        tune_trial(identity_spec, sigma2_0=1.0, m_dagger=bad)


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
        state = chain.thetas[i], chain.active[i]
        expected = log_density(*state, beta0, Gaussian(sigma2_0), spec_target) - log_density(
            *state, beta0, Gaussian(trial.sigma2_dagger), spec_trial
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



def test_log_weights_repeated_penalties_equal_per_penalty_scores(small_spec, wide_spec):
    """A (T, L) block with repeated penalties equals T single calls bit for bit.

    Each row also equals the log weight built from a full ``scores`` block
    per penalty, the path that one Gram product and one quadratic form per
    distinct penalty replace.
    """
    trial = TrialSpec(sigma2_dagger=2.5, lambda_dagger=0.45)
    lambda_stars = np.array([0.25, 0.25, 0.3, 0.45, 0.25])
    for spec, basis in ((small_spec, None), (wide_spec, spectral_decompose(wide_spec))):
        beta0 = np.linspace(-0.5, 0.5, spec.p)
        chain = sample_trial(spec, beta0, trial, 9, 12)
        block = chain_log_weights(chain, spec, basis, 0.7, lambda_stars, trial, beta0)
        dim = spec.p if basis is None else spec.n
        k = chain.active.sum(axis=1)

        def qform(lam):
            u = scores(chain.thetas, chain.active, beta0, replace(spec, lam=lam))
            return score_qform(u, spec, basis)

        for row, lam in zip(block, lambda_stars.tolist()):
            single = chain_log_weights(chain, spec, basis, 0.7, lam, trial, beta0)
            expected = (
                0.5 * spec.n * qform(trial.lambda_dagger) / trial.sigma2_dagger
                - 0.5 * spec.n * qform(lam) / 0.7
                + (dim - k) * math.log(lam / trial.lambda_dagger)
                + 0.5 * dim * math.log(trial.sigma2_dagger / 0.7)
            )
            assert row.tobytes() == single.tobytes()
            assert row.tobytes() == expected.tobytes()
        assert block[0].tobytes() == block[1].tobytes() == block[4].tobytes()


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
        *state_active, beta0, Gaussian(sigma2_0), spec_target, basis
    ) - log_density_rowspace(
        *state_active, beta0, Gaussian(trial.sigma2_dagger), spec_trial, basis
    )
    assert lw == pytest.approx(expected, abs=1e-10)

    # empty active set: penalty power (n - 0) log(lambda*/lambda+) present
    state_empty = make_state([], [], [0.4, 0.4])
    (lw0,) = chain_log_weights(
        one_row_chain(state_empty), spec, basis, sigma2_0, lambda_star, trial, beta0
    )
    expected0 = log_density_rowspace(
        *state_empty, beta0, Gaussian(sigma2_0), spec_target, basis
    ) - log_density_rowspace(
        *state_empty, beta0, Gaussian(trial.sigma2_dagger), spec_trial, basis
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
    assert tail_one(chain, stat, -1.0, lw).estimate == 1.0
    assert tail_one(chain, stat, 1e9, lw).estimate == 0.0


def test_estimate_pvalue_equal_weights_ess(identity_spec):
    chain = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 40, 1)
    res = tail_one(chain, coefficient_statistic("l1"), 0.5, np.full(40, -3.0))
    assert res.ess == pytest.approx(40.0)


def test_estimate_pvalue_degenerate_warns(identity_spec):
    chain = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 1200, 1)
    lw = np.full(1200, -50.0)
    lw[0] = 10.0
    with pytest.warns(RuntimeWarning):
        res = tail_one(chain, coefficient_statistic("l1"), 0.1, lw)
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
    single = tail_one(chain, stat, 0.6, lw, lambda_star=0.7)
    assert (multi[0].estimate, multi[0].ess, multi[0].lambda_star) == (
        single.estimate, single.ess, single.lambda_star,
    )
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
    pooled = pool_results(singles)
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


def block_chain(betas):
    """A chain whose coefficient block is exactly ``betas``."""
    betas = np.asarray(betas, dtype=float)
    return Chain(thetas=betas, active=betas != 0.0, iterations=np.arange(len(betas)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 200))
@example(seed=0, L=7, p=1)
@example(seed=1, L=1, p=1)
def test_named_statistics_on_a_block_equal_the_row_path(seed, L, p):
    # References, one row at a time: the scalar l1 the block form replaces,
    # and plain Python max and abs, which round nothing.
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((L, p)) * 10.0 ** rng.uniform(-3.0, 3.0, (L, 1))
    block[rng.random((L, p)) < 0.4] = 0.0
    block[0] = 0.0
    block[rng.random(L) < 0.2] = 0.0
    j = int(rng.integers(p))
    references = {
        "l1": lambda row: float(np.sum(np.abs(row))),
        "linf": lambda row: max((abs(x) for x in row.tolist()), default=0.0),
        "abs-coord": lambda row: abs(float(row[j])),
    }
    for name, reference in references.items():
        stat = coefficient_statistic(name, j, p=p)
        values = stat(block)
        expected = [reference(row) for row in block]
        assert values.shape == (L,), name
        assert values.tolist() == expected, name
        assert [float(stat(row)) for row in block] == expected, name
        assert imp._statistic_values(block_chain(block), stat).tolist() == expected, name
    l1 = coefficient_statistic("l1")(block)
    for value, row in zip(l1.tolist(), block):
        assert value == pytest.approx(math.fsum(abs(x) for x in row.tolist()), rel=1e-13, abs=0)


def test_scalar_statistic_is_config_error(identity_spec):
    chain = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 40, 1)

    def row_l1(beta):
        return float(np.sum(np.abs(beta)))

    trial = TrialSpec(sigma2_dagger=5.0, lambda_dagger=0.4)
    with pytest.raises(ConfigError, match="shape"):
        multi_test(chain, identity_spec, None, 1.0, [0.7], row_l1, [0.5], trial, np.zeros(2))
    with pytest.raises(ConfigError, match="shape"):
        chain_diagnostics(chain, row_l1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_log_weight_is_numerical_error(identity_spec, bad):
    chain = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 5, 1)
    stat = coefficient_statistic("l1")
    lw = np.zeros(5)
    lw[2] = bad
    with pytest.raises(NumericalError, match=r"^1 nan or \+inf log weights; first at state 2 "):
        tail_one(chain, stat, 0.5, lw)
    lw[4] = bad
    with pytest.raises(NumericalError, match=r"^2 nan or \+inf log weights; first at state 2 "):
        tail_one(chain, stat, 0.5, lw)


def test_negative_infinite_log_weights_are_zero_weights(identity_spec):
    chain = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 5, 1)
    stat = coefficient_statistic("l1")
    lw = np.array([0.0, -1.0, -np.inf, 0.5, -np.inf])
    res = tail_one(chain, stat, 0.5, lw)
    estimate, ess = tail_estimate(stat(chain.beta_matrix()), 0.5, lw)
    assert res.estimate == pytest.approx(estimate, rel=1e-13, abs=0)
    assert res.ess == pytest.approx(ess, rel=1e-13)
    with pytest.raises(NumericalError, match="all importance weights are zero"):
        tail_one(chain, stat, 0.5, np.full(5, -np.inf))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.sampled_from(["narrow", "wide"]),
    st.sampled_from(["some", "none", "all"]),
)
def test_tail_estimate_matches_fsum_oracle(seed, L, spread, hits):
    rng = np.random.default_rng(seed)
    if spread == "wide":
        lw = rng.uniform(-700.0, 700.0, L)
    else:
        lw = rng.uniform(-700.0, 700.0) + rng.uniform(0.0, 3.0) * rng.standard_normal(L)
    lw[1:][rng.random(L - 1) < 0.1] = -np.inf
    values = rng.standard_normal(L)
    t = {"some": 0.7, "none": 1e9, "all": 0.0}[hits]
    res = tail_one(block_chain(np.zeros((L, 1))), lambda b: values, t, lw)
    estimate, ess = tail_estimate(values, t, lw)
    # abs covers weights that underflow to subnormals, where exp rounds coarsely.
    assert res.estimate == pytest.approx(estimate, rel=1e-13, abs=1e-300)
    assert res.ess == pytest.approx(ess, rel=1e-13, abs=0)
    if hits != "some":
        assert res.estimate == estimate == {"none": 0.0, "all": 1.0}[hits]


def test_multi_test_targets_equal_single_estimates_bit_for_bit(identity_spec):
    beta0 = np.zeros(2)
    trial = TrialSpec(sigma2_dagger=5.0, lambda_dagger=0.4)
    chain = sample_trial(identity_spec, beta0, trial, 500, 11)
    stat = coefficient_statistic("l1")
    lambda_stars = np.array([0.3, 0.7, 1.2, 2.0])
    t_stars = np.array([0.2, 0.6, 1.0, 1.5])
    multi = multi_test(
        chain, identity_spec, None, 1.0, lambda_stars, stat, t_stars, trial, beta0
    )
    values = stat(chain.beta_matrix())
    for lam, t, res in zip(lambda_stars.tolist(), t_stars.tolist(), multi):
        lw = chain_log_weights(chain, identity_spec, None, 1.0, lam, trial, beta0)
        single = tail_one(chain, stat, t, lw, lambda_star=lam)
        assert (res.estimate, res.ess, res.degenerate) == (
            single.estimate,
            single.ess,
            single.degenerate,
        )
        estimate, ess = tail_estimate(values, t, lw)
        assert res.estimate == pytest.approx(estimate, rel=1e-13, abs=0)
        assert res.ess == pytest.approx(ess, rel=1e-13)


@pytest.mark.parametrize(
    "lambda_stars, t_stars, kwargs",
    [
        ([0.6, 0.8], [0.5], {}),
        ([0.6], [0.5, 0.7], {"replicates": 3, "workers": 2}),
        ([[0.6]], [[0.5]], {}),
        ([0.6], [[0.5]], {}),
        (0.6, 0.5, {}),
        ([], [], {}),
    ],
    ids=["short-t", "short-lambda", "2-d", "2-d-t", "scalar", "empty"],
)
def test_malformed_targets_fail_before_any_sampling(identity_spec, monkeypatch, lambda_stars,
                                                    t_stars, kwargs):
    calls = []
    monkeypatch.setattr(imp, "sample_trial", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="1-D, non-empty lambda_stars and t_stars"):
        multi_pvalue_study(identity_spec, np.zeros(2), 1.0, lambda_stars,
                           coefficient_statistic("l1"), t_stars, 200, 3, **kwargs)
    assert calls == []


def test_named_statistics_pickle(rng):
    block = rng.standard_normal((30, 4))
    for name in ("l1", "linf", "abs-coord"):
        stat = coefficient_statistic(name, 2, p=4)
        copy = pickle.loads(pickle.dumps(stat))
        np.testing.assert_array_equal(copy(block), stat(block))


def test_study_workers_match_in_process_replicates(identity_spec):
    stat = coefficient_statistic("abs-coord", 1, p=2)
    lambda_stars, t_stars = [0.6, 0.9], [0.4, 0.7]
    runs = {
        workers: multi_pvalue_study(identity_spec, np.zeros(2), 1.0, lambda_stars, stat,
                                    t_stars, 200, 17, l_pilot=20, replicates=3,
                                    workers=workers)
        for workers in (1, 2)
    }
    for k, (lam, t) in enumerate(zip(lambda_stars, t_stars)):
        single = pvalue_study(identity_spec, np.zeros(2), 1.0, lam, stat, t, 200, 17,
                              l_pilot=20, replicates=3)
        for res in (runs[1][k], runs[2][k]):
            assert (res.estimate, res.cv, res.ess, res.degenerate, res.lambda_star) == (
                single.estimate, single.cv, single.ess, single.degenerate, single.lambda_star,
            )
            assert res.trial.lambda_dagger == single.trial.lambda_dagger
            np.testing.assert_array_equal(res.log_weights, single.log_weights)
