"""End-to-end acceptance suite.

Thirteen release checks, each printing a single verdict line of the form
``[criterion NN] PASS/FAIL label: details``.  Every tolerance is fixed
here, seeds are pinned, and the oracles come from closed forms or the
independent reimplementations in ``oracles.py``; nothing is calibrated
against the library's own output.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import replace

import numpy as np
from scipy.stats import kstest, ks_2samp, norm, ortho_group

from lassodist import (
    Gaussian,
    build_problem,
    chain_diagnostics,
    coefficient_statistic,
    conditional_mh_sample,
    default_sampler_config,
    direct_sample,
    inactive_null_basis,
    log_density,
    log_density_rowspace,
    mh_sample,
    multi_pvalue_study,
    posterior_decision_sample,
    pvalue_study,
    recentered_minimizer,
    rowspace_residual,
    score_map,
    sign_consistency_prob,
    solve_lasso,
    spectral_decompose,
)
from lassodist.density import log_det_rowspace_jacobian
from lassodist.samplers import _MhEngine

from oracles import (
    ar1_series,
    assemble_jacobian,
    cell_probability,
    mixed_density_integral,
    split_normal_cdf,
    state_from_arrays,
)


def _verdict(num: int, ok: bool, label: str, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _identity_design(p: int, n: int) -> np.ndarray:
    """n x p design whose scaled Gram matrix is exactly the identity."""
    X = np.zeros((n, p))
    X[:p, :p] = math.sqrt(float(n)) * np.eye(p)
    return X


def _solution_state(sol):
    mask = np.zeros(sol.beta_hat.shape[0], dtype=bool)
    mask[sol.active] = True
    theta = np.where(mask, sol.beta_hat, sol.subgrad)
    return state_from_arrays(theta, mask)


def test_c01_kkt_and_score_round_trip():
    """Solver output inverts back to the score vector in both regimes."""
    start = time.perf_counter()
    gen = np.random.default_rng(101)
    worst_kkt = 0.0
    worst_score = 0.0
    worst_constraint = 0.0
    for n, p in ((50, 20), (10, 30)):
        for _ in range(200):
            X = gen.standard_normal((n, p))
            w = gen.uniform(0.6, 1.4, p)
            lam = float(gen.uniform(0.15, 0.8))
            spec = build_problem(X, w, lam)
            b_star = np.zeros(p)
            hot = gen.choice(p, size=3, replace=False)
            b_star[hot] = gen.standard_normal(3)
            y = X @ b_star + gen.standard_normal(n)
            sol = solve_lasso(spec, y, kkt_tol=1e-10)
            worst_kkt = max(worst_kkt, sol.kkt_residual)
            state = _solution_state(sol)
            rebuilt = score_map(state, np.zeros(p), spec)
            gap = float(np.max(np.abs(rebuilt - X.T @ y / n)))
            worst_score = max(worst_score, gap)
            if p > n:
                basis = spectral_decompose(spec)
                worst_constraint = max(
                    worst_constraint, rowspace_residual(state, basis, spec)
                )
    elapsed = time.perf_counter() - start
    ok = (
        worst_kkt <= 1e-8
        and worst_score <= 1e-8
        and worst_constraint <= 1e-8
        and elapsed < 60.0
    )
    _verdict(
        1,
        ok,
        "kkt and score round trip",
        f"kkt {worst_kkt:.1e}, score {worst_score:.1e}, "
        f"constraint {worst_constraint:.1e}, {elapsed:.1f}s over 400 instances",
    )


def test_c02_selection_cells_match_gaussian_products():
    """Exact-draw cell frequencies vs the closed-form products, identity Gram."""
    lam, sd, L = 0.5, 0.5, 100_000
    configs = [
        (np.array([0.6, 0.0]), 21),
        (np.array([0.3, -0.4]), 22),
        (np.array([0.0, 0.0]), 23),
        (np.array([0.6]), 24),
        (np.array([0.0]), 25),
    ]
    hits = 0
    total = 0
    for beta, seed in configs:
        p = beta.shape[0]
        spec = build_problem(_identity_design(p, 4), 1.0, lam)
        chain = direct_sample(spec, beta, Gaussian(1.0), L, seed)
        codes = np.where(chain.active, np.sign(chain.thetas), 0.0).astype(int)
        for cell in itertools.product((-1, 0, 1), repeat=p):
            pattern = np.array(cell)
            active = np.nonzero(pattern != 0)[0]
            q = cell_probability(beta, lam, sd, active, pattern[active])
            freq = float(np.mean(np.all(codes == pattern, axis=1)))
            hits += abs(freq - q) <= 3.0 * math.sqrt(q * (1.0 - q) / L)
            total += 1
    ok = hits / total >= 0.95
    _verdict(
        2,
        ok,
        "selection cell probabilities",
        f"{hits}/{total} cells within 3 Monte Carlo SEs",
    )


def test_c03_density_mass_is_unit():
    """Numerical integral of the mixed density over the whole state space."""
    X1 = np.ones((5, 1))
    spec1 = build_problem(X1, np.array([1.1]), 0.6)
    beta1 = np.array([0.4])
    total1 = mixed_density_integral(
        spec1.gram,
        spec1.weights,
        spec1.lam,
        beta1,
        0.9,
        5,
        lambda state: log_density(state, beta1, Gaussian(0.9), spec1),
        state_from_arrays,
        grid=200,
        span=6.0,
    )
    corr = np.array([[1.0, 0.3], [0.3, 1.0]])
    X2 = np.zeros((6, 2))
    X2[:2] = np.linalg.cholesky(6.0 * corr).T
    spec2 = build_problem(X2, np.array([1.0, 1.3]), 0.7)
    beta2 = np.array([0.8, -0.4])
    total2 = mixed_density_integral(
        spec2.gram,
        spec2.weights,
        spec2.lam,
        beta2,
        1.2,
        6,
        lambda state: log_density(state, beta2, Gaussian(1.2), spec2),
        state_from_arrays,
        grid=144,
        span=5.0,
    )
    ok = abs(total1 - 1.0) <= 0.02 and abs(total2 - 1.0) <= 0.02
    _verdict(
        3,
        ok,
        "density normalization",
        f"mass {total1:.5f} (p=1), {total2:.5f} (p=2), tolerance 2%",
    )


def test_c04_walk_sampler_matches_direct_draws():
    """Chain marginals vs exact draws: selection rates, tail quantiles, bands."""
    start = time.perf_counter()
    # balanced +/-1 signals on an equicorrelated design, plus two borderline
    # 0.18 coefficients that carry the add/drop traffic; their negative branch
    # holds about 1% mass, so the 2.5% quantile sits at the zero atom for both
    # samplers and the quantile comparison stays tight there
    gen = np.random.default_rng(404)
    shared = gen.standard_normal((50, 1))
    X = np.sqrt(0.75) * gen.standard_normal((50, 10)) + np.sqrt(0.25) * shared
    beta0 = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 0.18, 0.18])
    spec = build_problem(X, 1.0, 0.15)
    model = Gaussian(1.0)
    L = 50_000
    ref = direct_sample(spec, beta0, model, L, 1404)
    config = default_sampler_config(
        spec,
        3406,
        iters=L,
        burn_in=0,
        beta_ref=beta0,
        sigma2_hat=1.0,
        equilibrium_init=True,
    )
    walk = mh_sample(spec, beta0, model, config)
    assert len(walk) == L
    ref_beta = ref.beta_matrix()
    walk_beta = walk.beta_matrix()
    prob_gap = float(np.max(np.abs(ref.active.mean(0) - walk.active.mean(0))))
    sd = np.maximum(ref_beta.std(axis=0), 1e-12)
    q_gap = 0.0
    for q in (0.025, 0.975):
        dq = np.abs(
            np.quantile(ref_beta, q, axis=0) - np.quantile(walk_beta, q, axis=0)
        )
        q_gap = max(q_gap, float(np.max(dq / sd)))
    add_rate = walk.acceptance_rate("add_coord")
    drop_rate = walk.acceptance_rate("drop_coord")
    elapsed = time.perf_counter() - start
    ok = (
        prob_gap <= 0.02
        and q_gap <= 0.05
        and 0.1 <= add_rate <= 0.6
        and 0.1 <= drop_rate <= 0.6
        and elapsed < 300.0
    )
    _verdict(
        4,
        ok,
        "walk sampler vs exact draws",
        f"prob gap {prob_gap:.4f} (<=0.02), quantile gap {q_gap:.4f} SD (<=0.05), "
        f"add/drop acceptance {add_rate:.2f}/{drop_rate:.2f} in [0.1,0.6], {elapsed:.0f}s",
    )


def test_c05_conditional_chain_matches_two_branch_law():
    """Fixed-support chain marginal vs the censored-normal closed form."""
    spec = build_problem(_identity_design(2, 4), 1.0, 0.5)
    beta = np.array([0.6, 0.0])
    config = default_sampler_config(
        spec,
        505,
        iters=50_000,
        burn_in=0,
        beta_ref=beta,
        sigma2_hat=1.0,
        equilibrium_init=True,
    )
    chain = conditional_mh_sample(spec, beta, Gaussian(1.0), np.array([0]), config)
    assert np.all(chain.active[:, 0]) and not np.any(chain.active[:, 1])

    def cdf(x):
        x = np.asarray(x, dtype=float)
        neg_mass = norm.cdf(-(0.6 + 0.5) / 0.5)
        pos_mass = norm.sf(-(0.6 - 0.5) / 0.5)
        below = norm.cdf((x - 1.1) / 0.5)
        above = neg_mass + norm.cdf((x - 0.1) / 0.5) - norm.cdf(-0.1 / 0.5)
        return np.where(x <= 0.0, below, above) / (neg_mass + pos_mass)

    probe = np.linspace(-2.5, 3.5, 41)
    drift = max(
        abs(float(cdf(v)) - split_normal_cdf(float(v), 0.6, 0.5, 0.5)) for v in probe
    )
    assert drift < 1e-12
    stat = float(kstest(chain.thetas[:, 0], cdf).statistic)
    ok = stat < 0.02
    _verdict(
        5,
        ok,
        "conditional sampler marginal",
        f"KS distance {stat:.4f} over 50k iterations (<0.02)",
    )


def test_c06_jacobian_penalty_scaling_and_basis_invariance():
    """Penalty power law of the wide-regime Jacobian; basis rotation neutrality."""
    gen = np.random.default_rng(606)
    X = gen.standard_normal((8, 20))
    w = gen.uniform(0.7, 1.3, 20)
    spec_unit = build_problem(X, w, 1.0)
    basis = spectral_decompose(spec_unit)
    worst_scale = 0.0
    for _ in range(100):
        k = int(gen.integers(0, 9))
        A = np.sort(gen.choice(20, size=k, replace=False))
        lam = float(gen.uniform(0.1, 3.0))
        spec_lam = replace(spec_unit, lam=lam)
        diff = (
            log_det_rowspace_jacobian(A, spec_lam, basis)
            - log_det_rowspace_jacobian(A, spec_unit, basis)
            - (8 - k) * math.log(lam)
        )
        worst_scale = max(worst_scale, abs(diff))
    spec = replace(spec_unit, lam=0.7)
    beta0 = np.zeros(20)
    model = Gaussian(1.0)
    chain = direct_sample(spec, beta0, model, 5, 616)
    worst_rot = 0.0
    checked = 0
    for i in range(len(chain)):
        state = state_from_arrays(chain.thetas[i], chain.active[i])
        dim = 8 - state.active.size
        if dim < 1:
            continue
        inactive = np.setdiff1d(np.arange(20), state.active)
        B = inactive_null_basis(inactive, basis, spec)
        Q = ortho_group.rvs(dim, random_state=620 + i)
        ld_ref = log_density_rowspace(state, beta0, model, spec, basis)
        ld_rot = log_density_rowspace(state, beta0, model, spec, basis, null_span=B @ Q)
        worst_rot = max(worst_rot, abs(ld_ref - ld_rot))
        checked += 1
    ok = worst_scale < 1e-10 and worst_rot < 1e-10 and checked >= 3
    _verdict(
        6,
        ok,
        "jacobian scaling and rotation invariance",
        f"scaling defect {worst_scale:.1e}, rotation defect {worst_rot:.1e} "
        f"over {checked} states (<1e-10)",
    )


def test_c07_sweep_ratios_track_exact_determinants():
    """500-step add/drop walk of the MH engine: tracked log Jacobians vs the oracle.

    Every move is forced through (log u = -inf).  After each one the
    engine's log Jacobian must match log|det D(A)| of the dense oracle
    assembly, and the summed per-move ratios must match the oracle's
    end-to-start difference.
    """
    gen = np.random.default_rng(707)
    X = gen.standard_normal((80, 50))
    spec = build_problem(X, gen.uniform(0.5, 1.5, 50), 0.35)
    engine = _MhEngine(spec, np.zeros(50), Gaussian(1.0), np.ones(50))
    engine.set_state(np.zeros(50), np.zeros(50, dtype=bool))

    def oracle_log_jac() -> tuple[float, float]:
        D = assemble_jacobian(spec.gram, spec.weights, spec.lam, np.flatnonzero(engine.active))
        return np.linalg.slogdet(D)

    _, start_exact = oracle_log_jac()
    logsum, err_step, singular, k_max = 0.0, 0.0, 0, 0
    tick = time.perf_counter()
    for _ in range(500):
        active = np.flatnonzero(engine.active)
        before = engine.log_jac
        if active.size < 50 and (active.size == 0 or gen.random() < 0.5):
            j = int(gen.choice(np.setdiff1d(np.arange(50), active)))
            engine.add_coord(j, 0.5, -math.inf)
        else:
            j = int(gen.choice(active))
            engine.drop_coord(j, 0.0, -math.inf)
        logsum += engine.log_jac - before
        sign, exact = oracle_log_jac()
        singular += sign == 0
        err_step = max(err_step, abs(engine.log_jac - exact) / max(1.0, abs(exact)))
        k_max = max(k_max, int(engine.active.sum()))
    elapsed = time.perf_counter() - tick
    delta = exact - start_exact
    err_walk = abs(logsum - delta) / max(1.0, abs(delta))
    moves = engine.accepts["add_coord"] + engine.accepts["drop_coord"]
    ok = err_walk <= 1e-8 and err_step <= 1e-8 and singular == 0 and moves == 500
    _verdict(
        7,
        ok,
        "add/drop determinant walk",
        f"walk drift {err_walk:.1e}, worst step error {err_step:.1e}, "
        f"final support {int(engine.active.sum())} (max {k_max}), "
        f"{moves} moves in {elapsed:.2f} s (rel tol 1e-8)",
    )


def test_c08_tail_estimates_hit_closed_form():
    """Reweighted tail estimates vs the exact tail, plus a moderate cross-check."""
    start = time.perf_counter()
    spec = build_problem(np.ones((20, 1)), 1.0, 0.3)
    sd = 1.0 / math.sqrt(20.0)
    stat = coefficient_statistic("linf")
    beta0 = np.zeros(1)
    details = []
    ok = True
    for i, q_star in enumerate((1e-3, 1e-6, 1e-10)):
        t_star = sd * float(norm.isf(q_star / 2.0)) - 0.3
        res = pvalue_study(
            spec, beta0, 1.0, 0.3, stat, t_star, 5_000, 800 + i, replicates=10
        )
        good = res.cv < 2.0 and abs(res.estimate - q_star) <= 3.0 * res.cv * q_star
        ok = ok and good
        details.append(f"q={q_star:.0e}: est {res.estimate:.2e} cv {res.cv:.2f}")
    t_mod = sd * float(norm.isf(0.025)) - 0.3
    res = pvalue_study(spec, beta0, 1.0, 0.3, stat, t_mod, 5_000, 850, replicates=10)
    ref = direct_sample(spec, beta0, Gaussian(1.0), 20_000, 860)
    p_hat = float(np.mean(np.abs(ref.beta_matrix()[:, 0]) >= t_mod))
    se = math.sqrt(
        (res.cv * res.estimate) ** 2 / 10.0 + p_hat * (1.0 - p_hat) / 20_000.0
    )
    agree = abs(res.estimate - p_hat) <= 3.0 * se
    elapsed = time.perf_counter() - start
    ok = ok and agree and elapsed < 120.0
    _verdict(
        8,
        ok,
        "importance-weighted tails",
        "; ".join(details)
        + f"; moderate target {res.estimate:.4f} vs exact-draw {p_hat:.4f}, {elapsed:.0f}s",
    )


def test_c09_shared_trial_reproduces_single_runs():
    """Five targets off one trial sample match five standalone runs bit for bit."""
    gen = np.random.default_rng(909)
    X = gen.standard_normal((30, 3))
    spec = build_problem(X, 1.0, 0.4)
    beta0 = np.zeros(3)
    stat = coefficient_statistic("l1")
    lambda_stars = np.array([0.25, 0.3, 0.35, 0.4, 0.5])
    t_stars = np.array([0.5, 0.6, 0.4, 0.7, 0.55])
    multi = multi_pvalue_study(spec, beta0, 1.0, lambda_stars, stat, t_stars, 500, 90)
    exact = True
    for k in range(5):
        single = pvalue_study(
            spec,
            beta0,
            1.0,
            float(lambda_stars[k]),
            stat,
            float(t_stars[k]),
            500,
            90,
        )
        exact = (
            exact
            and single.estimate == multi[k].estimate
            and np.array_equal(single.log_weights, multi[k].log_weights)
            and single.ess == multi[k].ess
        )
    _verdict(9, exact, "multi-target reuse", "5 targets reproduced bit-exactly")


def test_c10_decision_draws_match_plugin_distribution():
    """Decision-rule draws vs exact draws centered at the unpenalized fit."""
    gen = np.random.default_rng(1010)
    X = gen.standard_normal((100, 5))
    beta_t = np.array([0.8, -0.5, 0.0, 0.3, 0.0])
    sigma2 = 0.81
    y = X @ beta_t + math.sqrt(sigma2) * gen.standard_normal(100)
    spec = build_problem(X, 1.0, 0.12)
    ols = spec.gram_solve(X.T @ y / 100.0)
    post = posterior_decision_sample(spec, y, Gaussian(sigma2), 50_000, 2020)
    ref = direct_sample(spec, ols, Gaussian(sigma2), 50_000, 3030)
    post_beta = post.beta_matrix()
    ref_beta = ref.beta_matrix()
    ks_worst = max(
        float(ks_2samp(post_beta[:, j], ref_beta[:, j]).statistic) for j in range(5)
    )
    gap = float(np.max(np.abs(post.active.mean(0) - ref.active.mean(0))))
    ok = ks_worst < 0.02 and gap < 0.02
    _verdict(
        10,
        ok,
        "decision draws vs plug-in law",
        f"worst KS {ks_worst:.4f}, selection gap {gap:.4f} (<0.02 each)",
    )


def test_c11_recentered_shifts_agree_inside_ball():
    """Shift minimizers around the truth and a nearby center coincide in-ball."""
    gen = np.random.default_rng(1111)
    X = gen.standard_normal((40, 6))
    spec = build_problem(X, 1.0, 0.1)
    beta_true = np.array([2.0, -2.2, 1.9, 0.0, 0.0, 0.0])
    beta_near = np.array([1.8, -2.0, 2.1, 0.0, 0.0, 0.0])
    # relative error 0.106; min signal 1.9 > 1.5 / (1 - 0.106), so radius 1.5 conforms
    radius = 1.5
    in_ball = 0
    worst = 0.0
    for _ in range(500):
        u = X.T @ (0.5 * gen.standard_normal(40)) / 40.0
        d_true = recentered_minimizer(spec, beta_true, u)
        d_near = recentered_minimizer(spec, beta_near, u)
        if max(np.max(np.abs(d_true)), np.max(np.abs(d_near))) < radius:
            in_ball += 1
            worst = max(worst, float(np.max(np.abs(d_true - d_near))))
    ok = in_ball >= 400 and worst <= 1e-10
    _verdict(
        11,
        ok,
        "recentered minimizer determinism",
        f"{in_ball}/500 draws inside the ball, worst gap {worst:.1e} (<=1e-10)",
    )


def test_c12_inflation_factor_calibration():
    """Variance-inflation estimate on independent and AR(1) synthetic chains."""
    iid = np.random.default_rng(1212).standard_normal(100_000)
    rep_iid = chain_diagnostics(iid)
    path = ar1_series(100_000, 0.5, np.random.default_rng(1213))
    rep_ar = chain_diagnostics(path)
    ok = abs(rep_iid.psi - 1.0) <= 0.05 and abs(rep_ar.psi - 3.0) <= 0.45
    _verdict(
        12,
        ok,
        "efficiency diagnostics",
        f"iid inflation {rep_iid.psi:.3f} (1 +- 0.05), "
        f"AR(1) inflation {rep_ar.psi:.3f} (3 +- 15%)",
    )


def test_c13_sign_recovery_matches_product_formula():
    """Closed-form sign-recovery probability reproduced without any solves."""
    spec = build_problem(_identity_design(2, 4), 1.0, 0.5)
    target = float(norm.cdf(1.0) * (2.0 * norm.cdf(1.0) - 1.0))
    est = sign_consistency_prob(spec, np.array([1.0, 0.0]), 1.0, 100_000, 1313)
    margin = 3.0 * math.sqrt(target * (1.0 - target) / 100_000.0)
    ok = abs(est - target) <= margin
    _verdict(
        13,
        ok,
        "sign recovery probability",
        f"estimate {est:.4f} vs {target:.4f}, margin {margin:.4f}",
    )
