from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import multivariate_normal, multivariate_t, norm

import lassodist.samplers
from lassodist import (
    ConfigError,
    DataError,
    Gaussian,
    NumericalError,
    StudentT,
    build_problem,
    conditional_mh_sample,
    default_sampler_config,
    direct_sample,
    mh_sample,
    read_chain_csv,
    solve_lasso,
    write_chain_csv,
    write_chain_meta,
)
from lassodist.density import (
    EmpiricalElliptical,
    qform_log_density,
    radial_log_norm,
    radial_log_pdf,
    sample_errors,
    validate_state,
)
from lassodist.rng import generator, seed_sequence
from lassodist.problem import synthetic_dataset
from lassodist.samplers import _CAP_SLACK, SamplerConfig, _normal_cdf
from lassodist.solver import lambda_max

from conftest import duplicated_column_design, random_instance
from oracles import (
    ReferenceMhEngine,
    assemble_jacobian,
    cell_probability,
    reference_mh_chain,
    state_score,
)


def identity_problem(lam=0.5, n=2):
    X = np.sqrt(n) * np.eye(n)[:, :2]
    return build_problem(X, 1.0, lam)


def mh_engine(spec, active=()):
    """An engine at theta = 0.5 on ``active``, subgradients 0 elsewhere."""
    mask = np.zeros(spec.p, dtype=bool)
    mask[list(active)] = True
    engine = ReferenceMhEngine(spec, np.zeros(spec.p), Gaussian(1.0), np.ones(spec.p))
    engine.set_state(np.where(mask, 0.5, 0.0), mask)
    return engine


def oracle_log_det(spec, mask):
    D = assemble_jacobian(spec.gram, spec.weights, spec.lam, np.flatnonzero(mask))
    return np.linalg.slogdet(D)[1]


def oracle_log_jac(engine):
    return oracle_log_det(engine.spec, engine.active)


def test_direct_sample_is_reproducible(identity_spec):
    a = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 50, 42)
    b = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 50, 42)
    np.testing.assert_array_equal(a.thetas, b.thetas)
    np.testing.assert_array_equal(a.active, b.active)


def test_direct_sample_hits_phi_product_cell():
    spec = identity_problem(lam=0.5)
    beta = np.array([0.6, 0.0])
    sd = 1.0 / np.sqrt(spec.n)
    chain = direct_sample(spec, beta, Gaussian(1.0), 20000, 7)
    target = cell_probability(beta, 0.5, sd, np.array([0]), np.array([1.0]))
    mask = chain.active
    hits = mask[:, 0] & ~mask[:, 1]
    signs_ok = chain.thetas[:, 0] > 0
    est = np.mean(hits & signs_ok)
    se = np.sqrt(target * (1 - target) / len(chain))
    assert abs(est - target) < 3 * se + 1e-12


def test_direct_sample_states_are_valid(small_spec):
    chain = direct_sample(small_spec, np.zeros(5), Gaussian(1.0), 25, 3)
    for i in range(len(chain)):
        validate_state(chain.thetas[i], chain.active[i], small_spec.p)
    assert chain.max_kkt_residual <= 1e-8


def test_mls_matches_direct_on_selection_probability():
    spec = identity_problem(lam=0.45)
    beta = np.array([0.5, -0.2])
    model = Gaussian(1.0)
    direct = direct_sample(spec, beta, model, 20000, 11)
    config = default_sampler_config(
        spec, 12, iters=25000, burn_in=2000, beta_ref=beta, sigma2_hat=1.0
    )
    chain = mh_sample(spec, beta, model, config)
    p_direct = direct.active.mean(axis=0)
    p_mls = chain.active.mean(axis=0)
    np.testing.assert_allclose(p_mls, p_direct, atol=0.03)


def test_normal_cdf_matches_ndtr():
    x = np.concatenate([np.linspace(-38.0, 38.0, 7601), [-38.0, -1e-300, 0.0, 1e-300, 38.0]])
    got, want = _normal_cdf(x), ndtr(x)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    resolved = want > 1e-300
    assert resolved.sum() > 7000
    np.testing.assert_allclose(got[resolved], want[resolved], rtol=1e-12, atol=0.0)
    assert np.all(got[x == 0.0] == 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 20.0))
def test_default_config_weights_match_ndtr_oracle(seed, sigma2_hat):
    gen = np.random.default_rng(seed)
    spec = random_instance(gen, 30, 6)[0]
    beta_ref = gen.standard_normal(6) * gen.choice([0.0, 0.1, 1.0, 10.0], 6)
    config = default_sampler_config(
        spec, 1, iters=10, burn_in=0, beta_ref=beta_ref, sigma2_hat=sigma2_hat
    )
    zeta = np.sqrt(sigma2_hat * np.diag(spec.gram_inv) / spec.n)
    omega = ndtr(-np.abs(beta_ref) / zeta)
    alpha = omega + omega.sum() / (5.0 * spec.p)
    np.testing.assert_allclose(config.alpha, alpha / alpha.sum(), rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(config.tau, 2.0 * zeta)


def test_mls_equilibrium_init_keeps_all_sweeps(identity_spec):
    config = default_sampler_config(
        identity_spec, 5, iters=40, burn_in=25, equilibrium_init=True
    )
    chain = mh_sample(identity_spec, np.zeros(2), Gaussian(1.0), config)
    assert len(chain) == 40
    assert chain.iterations[0] == 1


def test_mls_burn_in_drops_prefix(identity_spec):
    config = default_sampler_config(identity_spec, 5, iters=40, burn_in=25)
    chain = mh_sample(identity_spec, np.zeros(2), Gaussian(1.0), config)
    assert len(chain) == 15
    assert chain.iterations[0] == 26


def test_mls_rejects_wide_problem(wide_spec):
    config = default_sampler_config(wide_spec, 1, iters=10, burn_in=0)
    with pytest.raises(ConfigError):
        mh_sample(wide_spec, np.zeros(wide_spec.p), Gaussian(1.0), config)


@pytest.mark.parametrize("equilibrium_init", [False, True], ids=["given-start", "equilibrium"])
@pytest.mark.parametrize("conditional", [False, True], ids=["joint", "conditional"])
def test_mh_chains_reject_a_singular_gram(conditional, equilibrium_init):
    """p <= n with a duplicated column: the engine's set-up raises before any sweep.

    ``build_problem`` flags the design rank-deficient (the duplicate's
    Cholesky pivot is exactly zero), so ``log_det_gram`` raises.  Exact draws do not need a PD Gram, so an
    equilibrium start gets as far as the engine.
    """
    X = 2.0 * np.eye(4)[:, [0, 1, 2, 1]]
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        spec = build_problem(X, 1.0, 0.5)
    beta = np.array([3.0, 0.0, -3.0, 0.0])
    config = default_sampler_config(
        spec, 4, iters=20, burn_in=0, equilibrium_init=equilibrium_init
    )
    with pytest.raises(NumericalError, match="not positive definite"):
        if conditional:
            conditional_mh_sample(spec, beta, Gaussian(1.0), np.array([0, 2]), config)
        else:
            mh_sample(spec, beta, Gaussian(1.0), config)


@pytest.mark.parametrize("seed", [9, 11, 13])
def test_mh_chains_reject_a_rank_deficient_design(seed):
    """A duplicated column whose Cholesky pivot rounds to a tiny positive value.

    ``build_problem`` flags these designs, yet LAPACK factors their Gram:
    at seeds 9 and 13 the chain used to end in a raw ``LinAlgError``, and
    at seed 11 it ran on the singular Gram without an error.
    """
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        spec = build_problem(duplicated_column_design(seed)[0], 1.0, 0.3)
    beta = np.array([1.0, 0.5, 0.0, 0.0, -1.0])
    config = default_sampler_config(spec, 1, iters=20, burn_in=0)
    with pytest.raises(NumericalError, match="rank-deficient"):
        mh_sample(spec, beta, Gaussian(1.0), config)
    with pytest.raises(NumericalError, match="rank-deficient"):
        conditional_mh_sample(spec, beta, Gaussian(1.0), np.array([0, 4]), config)


def test_mh_chains_reject_a_gram_with_a_nonpositive_inverse_diagonal():
    """A near-duplicate column that neither the rank check nor Cholesky catches.

    Whether rounding makes a diagonal entry of the computed inverse
    non-positive depends on the LAPACK build, so the test takes the first
    of a few such designs where it does (on x86-64 OpenBLAS, the first,
    with an entry near -8e15).  A joint chain used to end there in a raw
    ``ValueError`` (the log of a drop move's cap), and a conditional chain
    ran on that inverse without an error.
    """
    for seed, digits in [(2, 7.5), (18, 7.75), (4, 8.0), (26, 8.0)]:
        gen = np.random.default_rng(seed)
        p = int(gen.integers(2, 10))
        X = gen.standard_normal((p + int(gen.integers(1, 25)), p))
        X[:, 1] = X[:, 0] + 10**-digits * gen.standard_normal(X.shape[0])
        spec = build_problem(X, 1.0, 0.3)
        try:
            spec.gram_cholesky  # noqa: B018
        except NumericalError:
            continue
        inv = np.linalg.solve(spec.gram, np.eye(p))
        if np.all(np.diag(inv) > 0.0):
            continue
        assert not spec.rank_deficient
        config = SamplerConfig(K=p, alpha=np.ones(p), tau=np.ones(p), iters=50, burn_in=0, seed=2)
        with pytest.raises(NumericalError, match="non-positive diagonal"):
            mh_sample(spec, np.zeros(p), Gaussian(1.0), config)
        with pytest.raises(NumericalError, match="non-positive diagonal"):
            conditional_mh_sample(spec, np.zeros(p), Gaussian(1.0), np.array([2]), config)
        return
    pytest.skip("no candidate design gives a non-positive inverse diagonal with this LAPACK")


@pytest.mark.parametrize("conditional", [False, True], ids=["joint", "conditional"])
def test_mh_chains_reject_a_nonfinite_start(small_spec, conditional):
    """A NaN start used to pass validation and give all-NaN rows with no acceptance."""
    config = default_sampler_config(small_spec, 3, iters=20, burn_in=0)
    start = np.array([0.5, math.nan, 0.2, 0.0, 0.1]), np.isin(np.arange(5), [0])
    with pytest.raises(DataError, match="finite"):
        if conditional:
            conditional_mh_sample(
                small_spec, np.zeros(5), Gaussian(1.0), np.array([0]), config, init=start
            )
        else:
            mh_sample(small_spec, np.zeros(5), Gaussian(1.0), config, init=start)


def test_mls_states_remain_valid(small_spec):
    config = default_sampler_config(
        small_spec, 9, iters=300, burn_in=0, equilibrium_init=True
    )
    chain = mh_sample(small_spec, np.zeros(5), Gaussian(1.0), config)
    for i in range(0, len(chain), 37):
        validate_state(chain.thetas[i], chain.active[i], small_spec.p)


@pytest.mark.parametrize("sigma2_hat", [math.nan, math.inf])
def test_nonfinite_sigma2_hat_config_is_rejected(small_spec, sigma2_hat):
    """A NaN tuning used to pass the ``<= 0`` checks and reject every move."""
    beta = np.array([0.5, 0.0, -0.3, 0.0, 0.2])
    config = default_sampler_config(
        small_spec, 1, iters=20, burn_in=5, beta_ref=beta, sigma2_hat=sigma2_hat
    )
    with pytest.raises(ConfigError, match="alpha|tau"):
        mh_sample(small_spec, beta, Gaussian(1.0), config)


def test_sampler_config_validation(identity_spec):
    with pytest.raises(ConfigError):
        mh_sample(
            identity_spec,
            np.zeros(2),
            Gaussian(1.0),
            SamplerConfig(
                K=0,
                alpha=np.ones(2),
                tau=np.ones(2),
                iters=10,
                burn_in=0,
                seed=1,
            ),
        )
    with pytest.raises(ConfigError):
        mh_sample(
            identity_spec,
            np.zeros(2),
            Gaussian(1.0),
            SamplerConfig(
                K=1,
                alpha=np.ones(2),
                tau=np.ones(2),
                iters=5,
                burn_in=9,
                seed=1,
            ),
        )


def test_conditional_chain_keeps_active_set_fixed(identity_spec):
    config = default_sampler_config(identity_spec, 21, iters=500, burn_in=50)
    chain = conditional_mh_sample(
        identity_spec, np.array([1.0, 0.0]), Gaussian(1.0), np.array([0]), config
    )
    expected = np.array([True, False])
    assert np.all(chain.active == expected)
    assert np.all(chain.thetas[:, 0] != 0)
    assert np.all(np.abs(chain.thetas[:, 1]) <= 1.0)


@pytest.mark.parametrize("A_star", [[-1], [7], [0, 0]], ids=["negative", "past-p", "duplicate"])
def test_conditional_rejects_bad_active_set(small_spec, A_star):
    config = default_sampler_config(small_spec, 4, iters=10, burn_in=0)
    with pytest.raises(ConfigError):
        conditional_mh_sample(small_spec, np.zeros(5), Gaussian(1.0), np.array(A_star), config)


def test_conditional_equilibrium_init_draws_matching_state(identity_spec):
    config = default_sampler_config(
        identity_spec, 33, iters=60, burn_in=10, equilibrium_init=True
    )
    chain = conditional_mh_sample(
        identity_spec, np.array([1.0, 0.0]), Gaussian(1.0), np.array([0]), config
    )
    assert len(chain) == 60
    assert np.all(chain.active == np.array([True, False]))


def test_studentt_direct_sampling_variance(identity_spec):
    chain = direct_sample(
        identity_spec, np.zeros(2), StudentT(dof=8.0, scale=1.0), 4000, 5
    )
    assert len(chain) == 4000


def test_seed_types_agree(identity_spec):
    a = direct_sample(identity_spec, np.zeros(2), Gaussian(1.0), 20, 9)
    b = direct_sample(
        identity_spec, np.zeros(2), Gaussian(1.0), 20, np.random.SeedSequence(9)
    )
    np.testing.assert_array_equal(a.thetas, b.thetas)


def test_bitmask_round_trip(tmp_path):
    gen = np.random.default_rng(2)
    for p in (3, 64, 70):
        active = gen.random((6, p)) < 0.4
        active[0] = False
        chain = lassodist.samplers.Chain(
            thetas=gen.standard_normal((6, p)), active=active, iterations=np.arange(6)
        )
        path = tmp_path / f"mask{p}.csv"
        write_chain_csv(chain, path)
        cells = [line.split(",")[1] for line in path.read_text().splitlines()]
        # bit j of the hex integer is set exactly when coordinate j is active
        assert cells == [format(sum(1 << int(j) for j in np.flatnonzero(m)), "x") for m in active]
        np.testing.assert_array_equal(read_chain_csv(path).active, active)


def test_chain_csv_round_trip(tmp_path, small_spec):
    chain = direct_sample(small_spec, np.zeros(5), Gaussian(1.0), 30, 17)
    path = tmp_path / "chain.csv"
    write_chain_csv(chain, path)
    loaded = read_chain_csv(path)
    np.testing.assert_array_equal(loaded.thetas, chain.thetas)
    np.testing.assert_array_equal(loaded.active, chain.active)
    np.testing.assert_array_equal(loaded.iterations, chain.iterations)
    second = tmp_path / "again.csv"
    write_chain_csv(loaded, second)
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "1,3,0.5,0.2\n2,1,0.5\n", "1,3\n2,1\n", b"1,1,0.5,\xff\n"],
    ids=["empty", "blank", "ragged", "no-theta", "not-utf8"],
)
def test_read_chain_csv_rejects_malformed_files(tmp_path, text):
    """A file that is not UTF-8 raised a bare UnicodeDecodeError."""
    path = tmp_path / "chain.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(DataError):
        read_chain_csv(path)


def test_chain_meta_sidecar(tmp_path, identity_spec):
    config = default_sampler_config(identity_spec, 1, iters=30, burn_in=5)
    chain = mh_sample(identity_spec, np.zeros(2), Gaussian(1.0), config)
    meta_path = tmp_path / "meta.json"
    write_chain_meta(chain, meta_path, config_echo={"iters": 30})
    meta = json.loads(meta_path.read_text())
    assert meta["n_states"] == 25
    assert meta["p"] == 2
    assert meta["config"]["iters"] == 30
    assert set(meta["proposal_counts"]) <= {
        "coef_update",
        "subgrad_update",
        "drop_coord",
        "add_coord",
    }


def test_solver_consistency_inside_direct_sampler(small_spec):
    beta_center = solve_lasso(small_spec, np.ones(small_spec.n)).beta_hat
    chain = direct_sample(small_spec, beta_center, Gaussian(0.5), 10, 23)
    assert chain.max_kkt_residual <= 1e-8


def test_conditional_init_takes_first_matching_draw(small_spec):
    beta = np.array([0.8, 0.0, -0.5, 0.0, 0.0])
    A = np.array([0, 2])
    target = np.isin(np.arange(5), A)
    model = Gaussian(1.0)
    config = default_sampler_config(small_spec, 22, iters=30, burn_in=0, equilibrium_init=True)
    chain = conditional_mh_sample(small_spec, beta, model, A, config)
    # Reference: one exact draw at a time from the init stream.  For this
    # seed the first hit is draw 79, past the first batches of the search.
    rng = generator(seed_sequence(22).spawn(2)[0])
    for tries in range(1, 200):
        eps = sample_errors(model, small_spec.n, 1, rng)[0]
        fit = solve_lasso(small_spec, small_spec.X @ beta + eps)
        if np.array_equal(fit.active, target):
            break
    assert tries == 80
    start = np.where(target, fit.beta_hat, fit.subgrad), target
    ref = conditional_mh_sample(
        small_spec, beta, model, A, replace(config, equilibrium_init=False), init=start
    )
    np.testing.assert_array_equal(chain.active, ref.active)
    np.testing.assert_allclose(chain.thetas, ref.thetas, atol=1e-6)


def test_add_move_ratio_half_correlated_pair():
    gram_x = np.array([[1.0, 0.5], [0.5, 1.0]])
    X = np.linalg.cholesky(2 * gram_x).T
    spec = build_problem(X, 1.0, 1.0)
    engine = mh_engine(spec, [0])
    before = engine.log_jac
    engine.add_coord(1, 0.5, -math.inf)
    assert engine.active.tolist() == [True, True]
    # |det D| ratio: det([[1,.5],[.5,1]]) / (det([[1]]) * lam * w_1) = 0.75
    assert math.exp(engine.log_jac - before) == pytest.approx(0.75)
    assert engine.log_jac == pytest.approx(oracle_log_jac(engine), abs=1e-12)


def test_add_drop_walk_matches_fresh_determinants():
    gen = np.random.default_rng(23)
    p, n = 12, 40
    X = gen.standard_normal((n, p))
    w = gen.uniform(0.5, 1.5, p)
    spec = build_problem(X, w, 0.4)
    engine = mh_engine(spec, [0, 3])
    start = oracle_log_jac(engine)
    log_ratio_sum = 0.0
    for _ in range(200):
        j = int(gen.integers(0, p))
        before = engine.log_jac
        if engine.active[j]:
            engine.drop_coord(j, 0.0, -math.inf)
        else:
            engine.add_coord(j, 0.5, -math.inf)
        log_ratio_sum += engine.log_jac - before
    assert engine.accepts["add_coord"] + engine.accepts["drop_coord"] == 200
    end = oracle_log_jac(engine)
    assert engine.log_jac == pytest.approx(end, abs=1e-9)
    assert log_ratio_sum == pytest.approx(end - start, abs=1e-8)


def test_singular_move_is_counted_and_rejected(small_spec, monkeypatch):
    engine = mh_engine(small_spec, [1, 3])
    theta, active, log_jac = engine.theta.copy(), engine.active.copy(), engine.log_jac

    def singular(A, spec):
        raise NumericalError("active Gram block is singular")

    monkeypatch.setattr(lassodist.samplers, "log_det_jacobian", singular)
    engine.add_coord(0, 0.7, -math.inf)
    engine.drop_coord(1, 0.2, -math.inf)
    assert engine.attempts["add_coord"] == 1 and engine.attempts["drop_coord"] == 1
    assert engine.accepts["add_coord"] == 0 and engine.accepts["drop_coord"] == 0
    np.testing.assert_array_equal(engine.theta, theta)
    np.testing.assert_array_equal(engine.active, active)
    assert engine.log_jac == log_jac


def _cap(spec, inv_gram, j, adding):
    """Schur-complement cap on the log-determinant term of an add/drop move on j."""
    lw = spec.lam * spec.weights[j]
    return math.log(spec.gram[j, j] / lw) if adding else math.log(inv_gram[j, j] * lw)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_toggle_log_det_ratio_within_schur_bounds(seed, ill):
    """The oracle determinant ratio of every add/drop lies between the two Schur bounds.

    Adding j multiplies det by s / (lam w_j) with 1/(C^-1)_jj <= s <= C_jj;
    dropping j divides by such a ratio.  The engine's caps are these upper
    bounds, and the slack it adds to them covers the rounding, also on
    designs whose Gram condition number reaches 1e8 or more.
    """
    gen = np.random.default_rng(seed)
    p = int(gen.integers(2, 9))
    n = p + int(gen.integers(1, 20))
    X = gen.standard_normal((n, p))
    if ill:
        X[:, 1] = X[:, 0] + 1e-3 * gen.standard_normal(n)
    spec = build_problem(X, gen.uniform(0.5, 2.0, p), float(gen.uniform(0.05, 1.0)))
    inv_gram = np.linalg.inv(spec.gram)
    for _ in range(8):
        mask = gen.random(spec.p) < 0.5
        j = int(gen.integers(spec.p))
        toggled = mask.copy()
        toggled[j] = not mask[j]
        ratio = oracle_log_det(spec, toggled) - oracle_log_det(spec, mask)
        adding = not mask[j]
        upper = _cap(spec, inv_gram, j, adding)
        lower = -_cap(spec, inv_gram, j, not adding)
        assert lower - _CAP_SLACK <= ratio <= upper + _CAP_SLACK
        # the engine's drop cap reads the library's own inverse
        assert ratio <= _cap(spec, spec.gram_inv, j, adding) + _CAP_SLACK


def _oracle_log_ratio(spec, beta, tau, state, move, inv_gram):
    """Exact log MH ratio of an add/drop move at center ``beta`` under Gaussian(1) noise.

    Returns the ratio; the cap the engine may reject against before any
    log-determinant, which is the ratio with its determinant term replaced
    by the Schur bound; and the magnitude of the terms summed, the scale of
    the ratio's rounding.
    """
    theta, mask = state
    j, value = move
    new_theta, new_mask = theta.copy(), mask.copy()
    new_theta[j] = value
    new_mask[j] = not mask[j]

    def qform(th, m):
        return state_score(spec.gram, spec.weights, spec.lam, beta, th, m)[1]

    q_new, q_old = qform(new_theta, new_mask), qform(theta, mask)
    dlik = -0.5 * spec.n * (q_new - q_old)
    if mask[j]:
        proposal = norm.logpdf(theta[j], scale=tau[j]) - math.log(0.5)
    else:
        proposal = math.log(0.5) - norm.logpdf(value, scale=tau[j])
    log_det_new, log_det_old = oracle_log_det(spec, new_mask), oracle_log_det(spec, mask)
    rest = dlik + proposal
    scale = 0.5 * spec.n * (q_new + q_old) + abs(log_det_new) + abs(log_det_old) + spec.p
    return rest + log_det_new - log_det_old, rest + _cap(spec, inv_gram, j, not mask[j]), scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_add_drop_decisions_match_oracle_ratio(seed, orthogonal):
    """The engine accepts exactly when log u <= the oracle's exact log ratio.

    The nearest offsets from the ratio are 1e-12, or the ratio's rounding
    scale where that is larger, so they sit far inside the cap's slack; on
    an orthogonal design the determinant term equals its cap, so there the
    cap cannot decide and the exact ratio must.  The designs are well
    conditioned: on an ill-conditioned one the log-likelihood difference
    itself is not resolved to that precision.
    """
    gen = np.random.default_rng(seed)
    p = int(gen.integers(2, 9))
    X = gen.standard_normal((4 * p + 10, p))
    if orthogonal:
        X = np.linalg.qr(X)[0] * gen.uniform(2.0, 4.0, p)
    spec = build_problem(X, gen.uniform(0.5, 2.0, p), float(gen.uniform(0.05, 1.0)))
    inv_gram = np.linalg.inv(spec.gram)
    engine = ReferenceMhEngine(spec, np.zeros(spec.p), Gaussian(1.0), np.ones(spec.p))
    for _ in range(6):
        mask = gen.random(spec.p) < 0.5
        theta = np.where(mask, 0.6 * gen.standard_normal(spec.p), gen.uniform(-1, 1, spec.p))
        j = int(gen.integers(spec.p))
        value = gen.uniform(-1, 1) if mask[j] else 0.8 * gen.standard_normal()
        exact, capped, scale = _oracle_log_ratio(
            spec, engine.beta, engine.tau, (theta, mask), (j, value), inv_gram
        )
        assert exact <= capped + _CAP_SLACK
        near = max(1e-12, 64 * np.finfo(float).eps * scale)
        gap = capped - exact
        offsets = [-1e-6, -near, near, 1e-6, gap + 0.5 * _CAP_SLACK, gap + 2 * _CAP_SLACK]
        if gap > 2 * near:
            offsets.append(0.5 * gap)
        for offset in offsets:
            log_u = exact + offset
            engine.set_state(theta, mask)
            engine.accepts = dict.fromkeys(engine.accepts, 0)
            if mask[j]:
                engine.drop_coord(j, value, log_u)
            else:
                engine.add_coord(j, value, log_u)
            accepted = engine.accepts["add_coord"] + engine.accepts["drop_coord"] == 1
            assert accepted == (log_u <= exact), (offset, exact, capped)
            assert bool(engine.active[j]) == (mask[j] != accepted)


def test_cap_rejections_skip_log_determinants(monkeypatch):
    """On the README problem a log-determinant is taken only when the cap cannot decide.

    The test replays every add/drop proposal of a 2000-sweep chain against
    its own cap (oracle quadratic forms, an explicit inverse) and counts
    the proposals the cap leaves undecided; the sampler must call
    log_det_jacobian once per such proposal plus once at the start.  The
    proposals are replayed on the reference engine, whose chain the
    sampler's must equal.
    """
    X, y, _ = synthetic_dataset(100, 20, rho=0.25, sigma2=1.0, signal=6, seed=11)
    lam = 0.3 * float(lambda_max(build_problem(X, 1.0, 1.0), y))
    spec = build_problem(X, 1.0, lam)
    center = solve_lasso(spec, y).beta_hat
    inv_gram = np.linalg.inv(spec.gram)
    counts = {"log_det": 0, "undecided": 0}
    real_log_det = lassodist.samplers.log_det_jacobian

    def counted(A, spec_):
        counts["log_det"] += 1
        return real_log_det(A, spec_)

    def replayed(move, adding):
        def wrapper(self, j, value, log_u):
            if not (adding and value == 0.0):
                state = (self.theta.copy(), self.active.copy())
                _, capped, _ = _oracle_log_ratio(
                    spec, center, self.tau, state, (j, value), inv_gram
                )
                counts["undecided"] += log_u <= capped + _CAP_SLACK
            return move(self, j, value, log_u)

        return wrapper

    config = default_sampler_config(
        spec, 5, iters=2000, burn_in=100, beta_ref=center, sigma2_hat=1.0
    )
    with monkeypatch.context() as patch:
        patch.setattr(ReferenceMhEngine, "add_coord", replayed(ReferenceMhEngine.add_coord, True))
        patch.setattr(
            ReferenceMhEngine, "drop_coord", replayed(ReferenceMhEngine.drop_coord, False)
        )
        reference = reference_mh_chain(spec, center, Gaussian(1.0), config)
    monkeypatch.setattr(lassodist.samplers, "log_det_jacobian", counted)
    chain = mh_sample(spec, center, Gaussian(1.0), config)
    np.testing.assert_array_equal(chain.thetas, reference[0])
    np.testing.assert_array_equal(chain.active, reference[1])
    moves = chain.proposal_counts["add_coord"] + chain.proposal_counts["drop_coord"]
    accepts = chain.accept_counts["add_coord"] + chain.accept_counts["drop_coord"]
    assert counts["log_det"] == 1 + counts["undecided"]
    assert accepts <= counts["undecided"]
    assert counts["log_det"] < moves / 20


def _error_model(family: str, p: int):
    if family == "gaussian":
        return Gaussian(0.8)
    if family == "studentt":
        return StudentT(7.0, 1.3)
    gap = family == "elliptical-gap"
    # "elliptical-gap" has zero density at whitened radii in [2, 4), where many states lie.
    edges = np.linspace(0.0, 8.0 if gap else 2.0, 5)
    counts = np.array([1.0, 0.0 if gap else 4.0, 6.0, 2.0])
    log_norm = radial_log_norm(edges, counts, p, -3.0, 1.0)
    return EmpiricalElliptical(edges, counts, -3.0, 1.0, p, log_norm)


def _reference_loglik(model, u: np.ndarray, q: float, spec) -> float:
    """Log density of the score u, from scipy or the radial profile at sqrt(q)."""
    scale_matrix = spec.gram / spec.n
    if isinstance(model, Gaussian):
        return float(multivariate_normal(cov=model.sigma2 * scale_matrix).logpdf(u))
    if isinstance(model, StudentT):
        return float(multivariate_t(shape=model.scale * scale_matrix, df=model.dof).logpdf(u))
    return radial_log_pdf(model, math.sqrt(q)) - 0.5 * np.linalg.slogdet(spec.gram)[1]


def _random_move(gen, theta, mask, j):
    """A proposal on coordinate j: (move name, proposed value)."""
    if mask[j]:
        kind = ("coef_update", "coef_flip", "drop_coord")[int(gen.integers(3))]
        if kind == "drop_coord":
            return kind, float(gen.uniform(-1.0, 1.0))
        sign = -1.0 if kind == "coef_flip" else 1.0
        return "coef_update", sign * theta[j] * float(gen.uniform(0.2, 2.0))
    if gen.random() < 0.5:
        return "subgrad_update", float(gen.uniform(-1.0, 1.0))
    return "add_coord", float(gen.standard_normal())


def _moved(theta, mask, j, kind, value):
    theta, mask = theta.copy(), mask.copy()
    theta[j] = value
    if kind in ("drop_coord", "add_coord"):
        mask[j] = not mask[j]
    return theta, mask


class _RecordingKernel:
    """Wraps an engine's q -> log-likelihood kernel and records each call."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.calls: list[tuple[float, float]] = []

    def __call__(self, q: float) -> float:
        value = self.kernel(q)
        self.calls.append((q, value))
        return value


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["gaussian", "studentt", "elliptical"]))
def test_candidate_loglik_matches_oracle_qform(seed, family):
    """Every move's candidate log-likelihood is the density at the moved state's score.

    The engine forms the candidate from its tracked q and a scalar dq; the
    reference recomputes u = C(b_hat - beta) + lam W s of the moved state and
    u'C^{-1}u by a dense solve.  With log u = +inf every proposal is
    rejected after its candidate is formed, so the state must not change.
    """
    gen = np.random.default_rng(seed)
    p = int(gen.integers(1, 9))
    n = p + int(gen.integers(2, 30))
    spec = build_problem(
        gen.standard_normal((n, p)), gen.uniform(0.5, 2.0, p), float(gen.uniform(0.05, 1.0))
    )
    model = _error_model(family, p)
    beta = np.where(gen.random(p) < 0.6, gen.standard_normal(p), 0.0)
    engine = ReferenceMhEngine(spec, beta, model, gen.uniform(0.2, 1.0, p))
    recorder = engine.log_f = _RecordingKernel(engine.log_f)
    for _ in range(10):
        mask = gen.random(p) < 0.5
        theta = np.where(mask, gen.standard_normal(p), gen.uniform(-1.0, 1.0, p))
        engine.set_state(theta, mask)
        recorder.calls.clear()
        j = int(gen.integers(p))
        kind, value = _random_move(gen, theta, mask, j)
        getattr(engine, kind)(j, value, math.inf)
        moved = _moved(theta, mask, j, kind, value)
        u, q = state_score(spec.gram, spec.weights, spec.lam, beta, *moved)
        [(q_candidate, loglik)] = recorder.calls
        assert q_candidate == pytest.approx(q, rel=1e-9, abs=1e-12)
        assert loglik == pytest.approx(_reference_loglik(model, u, q, spec), rel=1e-9, abs=1e-9)
        assert sum(engine.accepts.values()) == 0
        np.testing.assert_array_equal(engine.theta, theta)
        np.testing.assert_array_equal(engine.active, mask)


@pytest.mark.parametrize("family", ["gaussian", "studentt", "elliptical"])
def test_forced_accept_walk_keeps_q_on_the_oracle(family):
    """After 2000 accepted moves of all four kinds, q is the final state's oracle form."""
    gen = np.random.default_rng(61)
    p, n = 9, 40
    spec = build_problem(gen.standard_normal((n, p)), gen.uniform(0.5, 2.0, p), 0.3)
    model = _error_model(family, p)
    beta = np.where(gen.random(p) < 0.5, gen.standard_normal(p), 0.0)
    engine = ReferenceMhEngine(spec, beta, model, np.ones(p))
    mask = gen.random(p) < 0.5
    engine.set_state(np.where(mask, 0.7, 0.1), mask)
    kinds = set()
    for _ in range(2000):
        j = int(gen.integers(p))
        kind, value = _random_move(gen, engine.theta, engine.active, j)
        getattr(engine, kind)(j, value, -math.inf)
        kinds.add(kind)
    assert kinds == {"coef_update", "subgrad_update", "drop_coord", "add_coord"}
    assert sum(engine.accepts.values()) == 2000
    _, q = state_score(spec.gram, spec.weights, spec.lam, beta, engine.theta, engine.active)
    assert engine.q == pytest.approx(q, rel=1e-10)
    assert engine.loglik == qform_log_density(model, p, spec.log_det_gram, spec.n)(engine.q)


def _singular_with(pair):
    """``log_det_jacobian`` that finds every active block holding both of ``pair`` singular."""
    real = lassodist.samplers.log_det_jacobian

    def log_det(A, spec):
        A = np.asarray(A)
        mask = A if A.dtype == bool else np.isin(np.arange(spec.p), A)
        if mask[list(pair)].all():
            raise NumericalError("active Gram block is singular")
        return real(A, spec)

    return log_det


def _chain_outcome(run):
    """A chain's rows and tallies as bytes and dicts, or the error it raised."""
    try:
        thetas, active, accepts, proposals = run()
    except (ConfigError, NumericalError) as err:
        return type(err).__name__, str(err)
    return thetas.tobytes(), active.tobytes(), accepts, list(proposals.items())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["gaussian", "studentt", "elliptical", "elliptical-gap"]),
    st.sampled_from(["joint", "conditional"]),
    st.sampled_from(["default", "init", "equilibrium"]),
    st.sampled_from(["random", "singular-pair", "duplicate"]),
)
def test_sweep_loop_is_bit_identical_to_the_reference(seed, family, chain, start, design):
    """``mh_sample`` and ``conditional_mh_sample`` equal the per-move reference bit for bit.

    Rows, active sets and both tallies must be identical (the rows as raw
    bytes), or both must raise the same error.  Under "elliptical-gap" a
    state can have zero density, so a log ratio can be NaN, which rejects.  "singular-pair" makes
    every active block that holds columns 0 and 1 singular, as a duplicated
    column would, so those add/drop moves reject on the log-determinant;
    "duplicate" duplicates a column, which both reject at set-up.
    """
    gen = np.random.default_rng(seed)
    p = int(gen.integers(1, 10))
    n = p + int(gen.integers(1, 25))
    X = gen.standard_normal((n, p))
    if design == "duplicate" and p >= 2:
        X[:, 1] = X[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        spec = build_problem(X, gen.uniform(0.5, 2.0, p), float(gen.uniform(0.05, 1.0)))
    model = _error_model(family, p)
    beta = np.where(gen.random(p) < 0.5, gen.standard_normal(p), 0.0)
    iters = int(gen.integers(1, 80))
    config = SamplerConfig(
        K=int(gen.integers(1, p + 1)),
        alpha=gen.uniform(0.05, 1.0, p),
        tau=gen.uniform(0.05, 2.0, p),
        iters=iters,
        burn_in=int(gen.integers(0, iters)),
        seed=int(gen.integers(2**31)),
        equilibrium_init=start == "equilibrium",
    )
    mask = gen.random(p) < 0.5
    A_star = np.flatnonzero(mask) if chain == "conditional" else None
    init = None
    if start == "init":
        init = np.where(mask, gen.standard_normal(p), gen.uniform(-1.0, 1.0, p)), mask

    def library():
        if A_star is None:
            out = mh_sample(spec, beta, model, config, init=init)
        else:
            out = conditional_mh_sample(spec, beta, model, A_star, config, init, 500)
        return out.thetas, out.active, out.accept_counts, out.proposal_counts

    def reference():
        return reference_mh_chain(spec, beta, model, config, init, A_star, 500)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if design == "singular-pair" and p >= 2:
            patch.setattr(lassodist.samplers, "log_det_jacobian", _singular_with((0, 1)))
        assert _chain_outcome(library) == _chain_outcome(reference)
