from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lassodist.samplers
import lassodist.solver
from lassodist import (
    ConfigError,
    ConvergenceError,
    DataError,
    Gaussian,
    NumericalError,
    build_problem,
    direct_sample,
    lambda_grid,
    lambda_max,
    solve_lasso,
    solve_lasso_gram,
)
from lassodist.solver import KKT_TOL

from oracles import (
    coordinate_descent,
    enumerate_lasso,
    lasso_homotopy,
    soft_threshold,
    support_solve_loop,
)


def test_identity_gram_soft_thresholds():
    beta, res = solve_lasso_gram(np.eye(2), np.array([2.0, 0.3]), np.ones(2), 0.5)
    np.testing.assert_allclose(beta, [1.5, 0.0], atol=1e-12)
    assert res <= 1e-8


def test_solution_subgradient_recovers_known_values(identity_spec):
    y = np.array([2.0, 0.3]) @ np.linalg.inv(identity_spec.X.T / identity_spec.n)
    fit = solve_lasso(identity_spec, y)
    np.testing.assert_allclose(fit.beta_hat, [1.5, 0.0], atol=1e-10)
    np.testing.assert_allclose(fit.subgrad, [1.0, 0.6], atol=1e-10)


def test_perturbed_solution_rejected(identity_spec):
    """The snap that ``solve_lasso`` applies rejects a point that is not a minimizer."""
    spec = identity_spec
    y = np.array([2.0, 0.3]) @ np.linalg.inv(spec.X.T / spec.n)
    beta = solve_lasso(spec, y).beta_hat + np.array([0.3, 0.0])
    raw = spec.X.T @ (y - spec.X @ beta) / (spec.n * spec.lam * spec.weights)
    with pytest.raises(DataError):
        lassodist.solver._snap_subgradient(beta, raw)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_matches_enumeration_oracle(seed, p):
    gen = np.random.default_rng(seed)
    n = p + int(gen.integers(1, 5))
    X = gen.standard_normal((n, p))
    weights = gen.uniform(0.5, 1.5, p)
    lam = float(gen.uniform(0.1, 0.8))
    spec = build_problem(X, weights, lam)
    y = gen.standard_normal(n)
    fit = solve_lasso(spec, y)
    xty = X.T @ y / n
    beta_ref, s_ref = enumerate_lasso(spec.gram, xty, weights, lam)
    np.testing.assert_allclose(fit.beta_hat, beta_ref, atol=1e-7)
    np.testing.assert_allclose(fit.subgrad, s_ref, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(seed=3265)
def test_kkt_residual_below_tolerance_wide(seed):
    """p > n single solves end within tolerance with exact signs on the support.

    Seed 3265 reaches supports of 6 and 7 coordinates (n = 5), whose
    support solves return huge multiples of a null vector, two of them
    uphill.  Stepping toward those unchecked never converges; the objective
    guard and the downhill orientation of the step each prevent that.
    """
    gen = np.random.default_rng(seed)
    n, p = 5, 9
    X = gen.standard_normal((n, p))
    spec = build_problem(X, 1.0, float(gen.uniform(0.1, 0.6)))
    y = gen.standard_normal(n)
    fit = solve_lasso(spec, y)
    assert fit.kkt_residual <= 1e-8
    assert np.all(np.abs(fit.subgrad) <= 1.0 + 1e-12)
    on = fit.beta_hat != 0
    np.testing.assert_array_equal(fit.subgrad[on], np.sign(fit.beta_hat[on]))


def test_orthonormal_solution_is_soft_threshold():
    gen = np.random.default_rng(3)
    z = gen.standard_normal(6)
    beta, _ = solve_lasso_gram(np.eye(6), z, np.ones(6), 0.35)
    np.testing.assert_allclose(beta, soft_threshold(z, 0.35), atol=1e-10)


def test_lambda_max_zero_response(small_spec):
    assert lambda_max(small_spec, np.zeros(small_spec.n)) == 0.0


def test_solution_vanishes_at_lambda_max(small_spec):
    gen = np.random.default_rng(8)
    y = gen.standard_normal(small_spec.n)
    lmax = lambda_max(small_spec, y)
    spec_hi = build_problem(small_spec.X, small_spec.weights, lmax * 1.000001)
    fit = solve_lasso(spec_hi, y)
    np.testing.assert_array_equal(fit.beta_hat, np.zeros(small_spec.p))
    spec_lo = build_problem(small_spec.X, small_spec.weights, lmax * 0.95)
    assert np.any(solve_lasso(spec_lo, y).beta_hat != 0)


def test_lambda_grid_spans_requested_range(small_spec):
    gen = np.random.default_rng(4)
    y = gen.standard_normal(small_spec.n)
    grid = lambda_grid(small_spec, y, num=20, min_frac=0.05)
    assert grid.shape == (20,)
    assert grid[0] == pytest.approx(lambda_max(small_spec, y))
    assert grid[-1] == pytest.approx(0.05 * grid[0])
    assert np.all(np.diff(grid) < 0)


def test_lambda_grid_rejects_zero_top(small_spec):
    from lassodist import NumericalError

    with pytest.raises(NumericalError):
        lambda_grid(small_spec, np.zeros(small_spec.n), num=5)


def test_convergence_error_carries_iterate(small_spec):
    gen = np.random.default_rng(12)
    y = gen.standard_normal(small_spec.n) * 5
    with pytest.raises(ConvergenceError) as exc_info:
        solve_lasso(small_spec, y, kkt_tol=1e-16, max_iter=1)
    err = exc_info.value
    assert err.beta.shape == (small_spec.p,)
    assert err.residual > 1e-16


def test_bad_grid_size_rejected(small_spec):
    with pytest.raises(ConfigError):
        lambda_grid(small_spec, np.ones(small_spec.n), num=0)


def _batch_instance(seed, n_lo, n_hi, p_lo, p_hi, L):
    gen = np.random.default_rng(seed)
    p = int(gen.integers(p_lo, p_hi + 1))
    n = int(gen.integers(n_lo, n_hi + 1))
    X = gen.standard_normal((n, p))
    spec = build_problem(X, gen.uniform(0.5, 1.5, p), float(gen.uniform(0.05, 0.8)))
    Y = X @ (gen.standard_normal(p) * gen.integers(0, 2, p)) + gen.standard_normal((L, n))
    return spec, Y


def _stopping_bounds(spec, active):
    """How far a solve stopped by the KKT rule may sit from the exact solution.

    The solver stops once each coordinate's KKT defect is at most KKT_TOL.
    On the support A that means g_A = c_A - C_AA b_A - lam W_A s_A has
    ||g_A||_inf <= KKT_TOL, where c = X'y/n; off it, b is zero.  The exact
    solution b* has the same support and signs and solves
    C_AA b*_A = c_A - lam W_A s_A, so C_AA (b*_A - b_A) = g_A and

        ||b* - b||_inf <= KKT_TOL * ||C_AA^-1||_inf.

    An inactive subgradient is (c_j - C_jA b_A) / (lam w_j), clipped to
    [-1, 1], so it moves by at most sum_a |C_ja| / (lam w_j) times that.
    Active subgradients are exact signs in both.  The slack covers
    rounding in the oracle's own solve and in X'y/n, not solver error.
    Returns (coefficient bound, subgradient bound).
    """
    if not active.any():
        return 0.0, 1e-12
    inv = np.linalg.inv(spec.gram[np.ix_(active, active)])
    coef = KKT_TOL * float(np.abs(inv).sum(axis=1).max()) * (1 + 1e-6)
    coupling = np.abs(spec.gram[np.ix_(~active, active)]).sum(axis=1)
    lam_w = spec.lam * spec.weights[~active]
    return coef, coef * float(np.max(coupling / lam_w, initial=0.0)) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(177)
@example(1367)
def test_batch_matches_enumeration_oracle(seed):
    """Every batch row matches the enumeration oracle within the stopping rule's bounds.

    See _stopping_bounds for the derivation.  No fixed tolerance follows
    from the stopping rule: seeds 177 and 1367 have ||C_AA^-1||_inf near
    35 and sit 2e-7 from the exact coefficients.
    """
    spec, Y = _batch_instance(seed, 5, 9, 2, 4, 12)
    fit = solve_lasso(spec, Y)
    assert fit.beta_hat.shape == (12, spec.p)
    for i, y in enumerate(Y):
        xty = spec.X.T @ y / spec.n
        beta_ref, s_ref = enumerate_lasso(spec.gram, xty, spec.weights, spec.lam)
        np.testing.assert_array_equal(fit.active[i], beta_ref != 0)
        coef, subgrad = _stopping_bounds(spec, beta_ref != 0)
        np.testing.assert_allclose(fit.beta_hat[i], beta_ref, rtol=0, atol=coef)
        np.testing.assert_allclose(fit.subgrad[i], s_ref, rtol=0, atol=subgrad)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(132)
@example(173)
@example(8040)
def test_batch_rows_equal_single_solves(seed):
    """Each batch row matches its one-row solve within twice the stopping rule's bounds.

    Both solves lie within the bounds of _stopping_bounds of the exact
    solution on their common support, so within twice them of each other.
    Seeds 132 and 173 differ by 2.5e-7 and 6.4e-7 in a coefficient, and
    seed 8040 by 1.1e-6 in an inactive subgradient.
    """
    spec, Y = _batch_instance(seed, 8, 30, 2, 12, 25)
    batch = solve_lasso(spec, Y)
    for i, y in enumerate(Y):
        one = solve_lasso(spec, y)
        np.testing.assert_array_equal(batch.active[i], one.active)
        coef, subgrad = _stopping_bounds(spec, one.active)
        np.testing.assert_allclose(batch.beta_hat[i], one.beta_hat, rtol=0, atol=2 * coef)
        np.testing.assert_allclose(batch.subgrad[i], one.subgrad, rtol=0, atol=2 * subgrad)
        assert one.kkt_residual <= batch.kkt_residual + KKT_TOL


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_kkt_residual_below_tolerance_wide(seed):
    spec, Y = _batch_instance(seed, 4, 10, 12, 30, 30)
    assert spec.p > spec.n
    xty = Y @ spec.X / spec.n
    beta, worst = solve_lasso_gram(spec.gram, xty, spec.weights, spec.lam)
    lam_w = spec.lam * spec.weights
    grad = xty - beta @ spec.gram
    on = beta != 0
    defect = np.where(
        on, np.abs(grad - lam_w * np.sign(beta)), np.maximum(np.abs(grad) - lam_w, 0.0)
    )
    assert worst <= KKT_TOL
    assert np.all(defect <= KKT_TOL * (1 + 1e-6))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_direct_sample_prefix_matches_shorter_run(seed, k):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((15, 6))
    spec = build_problem(X, gen.uniform(0.5, 1.5, 6), 0.3)
    beta = gen.standard_normal(6) * gen.integers(0, 2, 6)
    full = direct_sample(spec, beta, Gaussian(1.0), 40, seed)
    head = direct_sample(spec, beta, Gaussian(1.0), k, seed)
    np.testing.assert_array_equal(full.active[:k], head.active)
    np.testing.assert_allclose(full.thetas[:k], head.thetas, atol=1e-6)


def test_batch_convergence_error_names_draws(small_spec):
    gen = np.random.default_rng(5)
    Y = gen.standard_normal((6, small_spec.n)) * 5
    Y[[1, 4]] = 0.0  # all-zero fits satisfy the KKT conditions before any pass
    with pytest.raises(ConvergenceError) as exc_info:
        solve_lasso(small_spec, Y, kkt_tol=1e-16, max_iter=1)
    err = exc_info.value
    np.testing.assert_array_equal(err.draws, [0, 2, 3, 5])
    assert err.residuals.shape == (4,)
    assert np.all(err.residuals > 1e-16)
    assert err.residual == err.residuals.max()
    assert err.beta.shape == (6, small_spec.p)


def test_direct_sample_convergence_error_carries_seed(small_spec, monkeypatch):
    def one_pass(spec, y):
        return solve_lasso(spec, y, max_iter=1)

    monkeypatch.setattr(lassodist.samplers, "solve_lasso", one_pass)
    with pytest.raises(ConvergenceError) as exc_info:
        direct_sample(small_spec, np.ones(small_spec.p), Gaussian(1.0), 30, 77)
    err = exc_info.value
    assert err.seed == 77
    assert err.draws.size > 0
    assert np.all((0 <= err.draws) & (err.draws < 30))
    assert np.all(err.residuals > KKT_TOL)
    assert "seed 77" in str(err)


def test_small_penalty_direct_sample_snaps_subgradient():
    # Criterion-04 design at a penalty where a KKT residual of KKT_TOL
    # alone would leave a subgradient error of about KKT_TOL / lam > S_TOL.
    gen = np.random.default_rng(404)
    shared = gen.standard_normal((50, 1))
    X = np.sqrt(0.75) * gen.standard_normal((50, 10)) + np.sqrt(0.25) * shared
    beta0 = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 0.18, 0.18])
    spec = build_problem(X, 1.0, 1e-3)
    chain = direct_sample(spec, beta0, Gaussian(1.0), 200, 1404)
    assert chain.max_kkt_residual <= KKT_TOL
    inactive = chain.thetas[~chain.active]
    assert np.all(np.abs(inactive) <= 1.0)


def _c04_spec(lam):
    """Criterion-04 design (n=50, p=10) at penalty ``lam``, with its beta0."""
    gen = np.random.default_rng(404)
    shared = gen.standard_normal((50, 1))
    X = np.sqrt(0.75) * gen.standard_normal((50, 10)) + np.sqrt(0.25) * shared
    beta0 = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 0.18, 0.18])
    return build_problem(X, 1.0, lam), beta0


def test_unresolvable_penalty_is_numerical_error():
    # Criterion-04 design at a penalty below what double precision resolves:
    # the solver's own solution cannot be snapped, which is not a data error.
    # Support solves resolve this design down to lam = 1e-9 and fail from
    # 7.9e-10 down; 1e-11 keeps a margin below that limit.
    spec, beta0 = _c04_spec(1e-11)
    with pytest.raises(NumericalError) as info:
        direct_sample(spec, beta0, Gaussian(1.0), 200, 1404)
    assert "1e-11" in str(info.value)


def test_small_penalty_now_resolves():
    # At lam = 1e-9 the KKT tolerance sits at the rounding floor, which
    # coordinate descent alone cannot reach; the exact support solve does.
    spec, beta0 = _c04_spec(1e-9)
    chain = direct_sample(spec, beta0, Gaussian(1.0), 200, 1404)
    assert chain.max_kkt_residual <= KKT_TOL
    gen = np.random.default_rng(1404)
    Y = spec.X @ beta0 + gen.standard_normal((3, spec.n))
    fit = solve_lasso(spec, Y)
    for i, y in enumerate(Y):
        beta_ref, s_ref = enumerate_lasso(spec.gram, spec.X.T @ y / spec.n, spec.weights, spec.lam)
        np.testing.assert_array_equal(fit.active[i], beta_ref != 0)
        coef, subgrad = _stopping_bounds(spec, beta_ref != 0)
        np.testing.assert_allclose(fit.beta_hat[i], beta_ref, rtol=0, atol=coef)
        np.testing.assert_allclose(fit.subgrad[i], s_ref, rtol=0, atol=subgrad)


def test_singular_support_block_falls_back_to_coordinate_descent():
    # Coordinates 0 and 1 are duplicate columns with weights 2 and 1: coordinate
    # descent puts both in row 0's support, whose block is singular.
    # Coordinates 2 and 3 are correlated at 0.9, so row 1 needs many
    # coordinate-descent passes but only one support solve.  Row 2 has a
    # smaller support, so its block is padded.
    gram = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.9],
        [0.0, 0.0, 0.9, 1.0],
    ])
    weights = np.array([2.0, 1.0, 1.0, 1.0])
    xty = np.array([[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, -1.0], [0.0, 0.0, 0.8, 0.0]])
    refs = [enumerate_lasso(gram, c, weights, 0.5)[0] for c in xty]

    # Near the iterate after two passes: row 0 sits on the singular face {0, 1}.
    B = np.array([[0.5, 1.0, 0.0, 0.0], [0.0, 0.0, 3.165, -3.3485], [0.0, 0.0, 0.3, 0.0]]).T
    lam_w = 0.5 * weights[:, None]
    cand = lassodist.solver._support_solve(gram, xty.T.copy(), lam_w, B)
    assert np.isnan(cand[:2, 0]).all()
    np.testing.assert_array_equal(cand[2:, 0], 0.0)
    for i in (1, 2):
        A = np.flatnonzero(B[:, i])
        rhs = xty[i, A] - lam_w[A, 0] * np.sign(B[A, i])
        np.testing.assert_array_equal(cand[A, i], np.linalg.solve(gram[np.ix_(A, A)], rhs))
        np.testing.assert_array_equal(np.delete(cand[:, i], A), 0.0)

    beta, worst = solve_lasso_gram(gram, xty, weights, 0.5)
    assert worst <= KKT_TOL
    np.testing.assert_allclose(beta, refs, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.integers(1, 40),
    st.booleans(),
)
def test_support_solve_equals_per_row_solves(seed, p, L, singular):
    """The one-gather support solve equals ``support_solve_loop`` bit for bit.

    The last column has a full support (k = p) and column 0 an empty one.
    With ``singular``, coordinates 0 and 1 are duplicate columns of a
    unit-diagonal Gram, and column 1, the last column and about half the
    others hold both, among other coordinates.  Their blocks' first pivot
    is 1, which makes LAPACK's elimination of the duplicate row exact, so
    they are exactly singular: the batched solve fails, the other blocks
    are solved in one batch again, and the singular ones get NaN.
    """
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((p + int(gen.integers(0, 5)), p))
    gram = X.T @ X / len(X)
    target = gen.standard_normal((p, L))
    B = gen.standard_normal((p, L)) * (gen.random((p, L)) < gen.random())
    B[:, -1] = gen.standard_normal(p)
    if L > 1:
        B[:, 0] = 0.0
    pair = np.zeros(L, dtype=bool)
    if singular and p >= 2 and L >= 3:
        X /= np.linalg.norm(X, axis=0)
        gram = X.T @ X
        gram[1], gram[:, 1] = gram[0], gram[:, 0]
        gram[:2, :2] = 1.0
        pair = gen.random(L) < 0.5
        pair[[0, 1, -1]] = False, True, True
        size = (2, int(pair.sum()))
        B[:2, pair] = gen.choice([-1.0, 1.0], size) * gen.uniform(0.1, 1.0, size)
    lam_w = gen.uniform(0.1, 1.0, (p, 1))
    cand = lassodist.solver._support_solve(gram, target, lam_w, B)
    assert cand.tobytes() == support_solve_loop(gram, target, lam_w, B).tobytes()
    assert np.isnan(cand[:2, pair]).all()
    if L > 1:
        assert not cand[:, 0].any()


def test_orthant_step_cases():
    """One column per case of the line search after a support solve.

    0: the candidate keeps the iterate's signs and is taken bit for bit.
    1: it flips coordinate 2, so the step stops where that coordinate
       reaches zero and sets it to exactly zero.
    2: it overshoots the minimizer on the face threefold, which would raise
       the objective, so the iterate stays.
    3: it lies uphill, through the iterate from the minimizer, so the step
       runs the other way and ends at the minimizer.
    4: it is NaN (a singular block), so the iterate stays.
    """
    gram = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]])
    c = np.array([1.0, -0.5, 0.4])
    lam_w = np.full((3, 1), 0.1)
    exact = np.linalg.solve(gram, c - 0.1 * np.array([1.0, -1.0, 1.0]))
    near = exact + np.array([0.01, -0.02, 0.015])
    B = np.column_stack([near, [0.8, -0.3, -0.05], near, near, near])
    target = np.repeat(c[:, None], 5, axis=1)
    cand = lassodist.solver._support_solve(gram, target, lam_w, B)
    cand[:, 2] = near + 3 * (exact - near)
    cand[:, 3] = 2 * near - exact
    cand[:, 4] = np.nan
    grad = target - gram @ B
    cand_grad = target - gram @ cand

    def objective(b):
        return 0.5 * b @ gram @ b - c @ b + 0.1 * np.abs(b).sum()

    step, step_grad = lassodist.solver._orthant_step(B, grad, cand, cand_grad, lam_w)
    assert cand[2, 1] > 0 > B[2, 1]
    assert step.flags.c_contiguous and step_grad.flags.c_contiguous
    assert step[:, 0].tobytes() == cand[:, 0].tobytes()
    assert step_grad[:, 0].tobytes() == cand_grad[:, 0].tobytes()
    t = B[2, 1] / (B[2, 1] - cand[2, 1])
    assert step[2, 1] == 0.0
    np.testing.assert_allclose(step[:2, 1], (1 - t) * B[:2, 1] + t * cand[:2, 1], rtol=1e-15)
    np.testing.assert_array_equal(step[:, [2, 4]], B[:, [2, 4]])
    np.testing.assert_array_equal(step_grad[:, [2, 4]], grad[:, [2, 4]])
    np.testing.assert_allclose(step[:, 3], exact, rtol=0, atol=1e-15)
    for j in range(5):
        assert objective(step[:, j]) <= objective(B[:, j])
    np.testing.assert_allclose(step_grad, target - gram @ step, rtol=0, atol=1e-15)


def _retiring_wide_batch():
    """A p > n batch (n=20, p=50, 30 rows) whose rows retire at different passes.

    Rows 0 and 7 are zero and retire before the first pass, so the working
    arrays are compacted before any coordinate step.  The whole batch
    solves in 13 passes; caps of 8 to 12 passes leave 23, 19, 13, 6 and 3
    rows unresolved.
    """
    gen = np.random.default_rng(2024)
    X = gen.standard_normal((20, 50))
    spec = build_problem(X, gen.uniform(0.5, 1.5, 50), 0.3)
    beta = gen.standard_normal(50) * (gen.random(50) < 0.15)
    Y = X @ beta + gen.standard_normal((30, 20))
    Y[[0, 7]] = 0.0
    return spec, Y @ X / spec.n


def test_memory_order_of_inputs_leaves_results_bit_identical():
    """F-ordered and strided inputs give the C-ordered result bit for bit.

    The solver copies its inputs into C-ordered working arrays, so no layout
    may change a coordinate step or a support solve.  A cap of 10 passes
    stops the solve while some rows have retired and others have not, and
    it turns a stall into a ConvergenceError instead of a hang.
    """
    spec, xty = _retiring_wide_batch()
    with pytest.raises(ConvergenceError) as info:
        solve_lasso_gram(spec.gram, xty, spec.weights, spec.lam, max_iter=10)
    assert 2 < info.value.draws.size < len(xty)  # rows retire at different passes

    ref, ref_worst = solve_lasso_gram(spec.gram, xty, spec.weights, spec.lam, max_iter=200)
    assert ref_worst <= KKT_TOL
    big = np.zeros((xty.shape[0], 2 * spec.p))
    big[:, ::2] = xty
    layouts = {
        "F-ordered gram": (np.asfortranarray(spec.gram), xty),
        "F-ordered xty": (spec.gram, np.asfortranarray(xty)),
        "strided xty": (spec.gram, big[:, ::2]),
    }
    for name, (gram, block) in layouts.items():
        beta, worst = solve_lasso_gram(gram, block, spec.weights, spec.lam, max_iter=200)
        assert beta.tobytes() == ref.tobytes(), name
        assert worst == ref_worst, name


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_wide_batch_matches_coordinate_descent_oracle(seed):
    """p > n batches, p up to 40, match scalar coordinate descent within the stopping bounds.

    Enumeration is infeasible at these sizes; the oracle runs plain
    coordinate descent to a KKT defect of 1e-14 (see _stopping_bounds).
    """
    spec, Y = _batch_instance(seed, 5, 12, 16, 40, 6)
    assert spec.p > spec.n
    fit = solve_lasso(spec, Y)
    for i, y in enumerate(Y):
        xty = spec.X.T @ y / spec.n
        beta_ref, s_ref = coordinate_descent(spec.gram, xty, spec.weights, spec.lam)
        np.testing.assert_array_equal(fit.active[i], beta_ref != 0)
        coef, subgrad = _stopping_bounds(spec, beta_ref != 0)
        np.testing.assert_allclose(fit.beta_hat[i], beta_ref, rtol=0, atol=coef)
        np.testing.assert_allclose(fit.subgrad[i], s_ref, rtol=0, atol=subgrad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_homotopy_oracle_matches_enumeration(seed):
    """The path oracle agrees with enumeration (n >= p) or descent (p > n).

    All three are exact up to rounding (descent stops at a defect of
    1e-14); 1e-9 leaves room for ill-conditioned blocks.
    """
    gen = np.random.default_rng(seed)
    p, n = int(gen.integers(1, 6)), int(gen.integers(1, 9))
    X = gen.standard_normal((n, p))
    weights = gen.uniform(0.5, 1.5, p)
    xty = X.T @ gen.standard_normal(n) / n
    gram = X.T @ X / n
    lam = float(np.max(np.abs(xty) / weights) * gen.uniform(0.01, 1.2))
    beta, subgrad = lasso_homotopy(gram, xty, weights, lam)
    if n >= p:
        beta_ref, s_ref = enumerate_lasso(gram, xty, weights, lam)
    else:  # enumeration needs invertible blocks; p <= 5 keeps descent quick
        beta_ref, s_ref = coordinate_descent(gram, xty, weights, lam)
    np.testing.assert_array_equal(beta != 0, beta_ref != 0)
    np.testing.assert_allclose(beta, beta_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(subgrad, s_ref, rtol=0, atol=1e-9)


def _saturated_wide_batch(seed):
    """A small p > n batch (n <= 6, p <= 12, 8 rows) at a penalty where supports reach n.

    The penalty is 0.5-5% of the largest lambda_max of the rows, and the
    weights are not uniform.  On the way there coordinate descent visits
    supports larger than n, whose blocks are singular or nearly so.
    """
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 7))
    p = int(gen.integers(n + 1, 13))
    X = gen.standard_normal((n, p))
    weights = gen.uniform(0.5, 1.5, p)
    Y = X @ (gen.standard_normal(p) * gen.integers(0, 2, p)) + gen.standard_normal((8, n))
    top = float(np.max(np.abs(Y @ X / n) / weights))
    return build_problem(X, weights, top * float(gen.uniform(0.005, 0.05))), Y


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(56)
def test_saturated_wide_batch_matches_homotopy_oracle(seed):
    """Rows whose supports reach n solve within MAX_ITER and match the path oracle.

    The line search after each support solve must never raise the objective
    and must run downhill on singular blocks.  In seed 56 two rows reach a
    five-coordinate support of the n=4 design whose face slopes by only
    6e-7 along the null vector of its block: coordinate descent alone, or a
    step toward a candidate that lies uphill, stays there for 100,000
    passes.  So the oracle follows the solution path exactly instead of
    running coordinate descent.  Bounds as in _stopping_bounds.
    """
    spec, Y = _saturated_wide_batch(seed)
    fit = solve_lasso(spec, Y)
    assert fit.kkt_residual <= KKT_TOL
    for i, y in enumerate(Y):
        beta_ref, s_ref = lasso_homotopy(spec.gram, spec.X.T @ y / spec.n, spec.weights, spec.lam)
        np.testing.assert_array_equal(fit.active[i], beta_ref != 0)
        coef, subgrad = _stopping_bounds(spec, beta_ref != 0)
        np.testing.assert_allclose(fit.beta_hat[i], beta_ref, rtol=0, atol=coef)
        np.testing.assert_allclose(fit.subgrad[i], s_ref, rtol=0, atol=subgrad)


def _valid_gram_inputs():
    gen = np.random.default_rng(31)
    X = gen.standard_normal((8, 20))
    spec = build_problem(X, 1.0, 0.2)
    return spec.gram, gen.standard_normal((5, 8)) @ X / 8, spec.weights, spec.lam


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_correlation_is_data_error_naming_its_row(bad):
    gram, xty, weights, lam = _valid_gram_inputs()
    xty[3, 7] = bad
    start = time.perf_counter()
    with pytest.raises(DataError, match="row 3") as info:
        solve_lasso_gram(gram, xty, weights, lam)
    assert time.perf_counter() - start < 1.0
    assert info.value.exit_code == 2


@pytest.mark.parametrize(
    "case",
    ["non-square gram", "gram against xty", "gram against weights", "non-finite gram"],
)
def test_malformed_gram_inputs_are_data_errors(case):
    gram, xty, weights, lam = _valid_gram_inputs()
    if case == "non-square gram":
        gram = gram[:, :-1]
    elif case == "gram against xty":
        xty = xty[:, :-1]
    elif case == "gram against weights":
        weights = weights[:-1]
    else:
        gram = gram.copy()
        gram[2, 5] = np.nan
    with pytest.raises(DataError) as info:
        solve_lasso_gram(gram, xty, weights, lam)
    assert info.value.exit_code == 2


@pytest.mark.parametrize("lam", [-1.0, 0.0, np.nan, np.inf])
def test_nonpositive_or_nonfinite_penalty_is_config_error(lam):
    gram, xty, weights, _ = _valid_gram_inputs()
    with pytest.raises(ConfigError) as info:
        solve_lasso_gram(gram, xty, weights, lam)
    assert info.value.exit_code == 1


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_nonpositive_or_nonfinite_weight_is_config_error(bad):
    gram, xty, weights, lam = _valid_gram_inputs()
    weights = weights.copy()
    weights[4] = bad
    with pytest.raises(ConfigError) as info:
        solve_lasso_gram(gram, xty, weights, lam)
    assert info.value.exit_code == 1
