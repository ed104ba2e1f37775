"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: sign-pattern enumeration instead
of coordinate descent, dense matrix assembly instead of incremental
updates, quadrature instead of sampling.  Tests compare the package
against these, never against itself.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import norm


def enumerate_lasso(
    gram: np.ndarray, xty: np.ndarray, weights: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact weighted-lasso solution by enumerating all sign patterns.

    For each candidate (active set, sign) pattern, solve the stationarity
    equations and keep the pattern whose solution is self-consistent.
    Exponential in p; use only for p <= 8 or so.
    """
    p = gram.shape[0]
    best = None
    for pattern in itertools.product((-1, 0, 1), repeat=p):
        s = np.array(pattern, dtype=float)
        active = np.nonzero(s != 0.0)[0]
        inactive = np.nonzero(s == 0.0)[0]
        beta = np.zeros(p)
        if active.size:
            caa = gram[np.ix_(active, active)]
            rhs = xty[active] - lam * weights[active] * s[active]
            try:
                b = np.linalg.solve(caa, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(b) != s[active]):
                continue
            beta[active] = b
        subgrad = s.copy()
        if inactive.size:
            resid = xty[inactive] - gram[np.ix_(inactive, active)] @ beta[active]
            s_in = resid / (lam * weights[inactive])
            if np.any(np.abs(s_in) > 1.0 + 1e-9):
                continue
            subgrad[inactive] = s_in
        # objective value breaks ties between numerically close patterns
        obj = 0.5 * beta @ gram @ beta - xty @ beta + lam * np.sum(
            weights * np.abs(beta)
        )
        if best is None or obj < best[0] - 1e-12:
            best = (obj, beta, subgrad)
    if best is None:
        raise RuntimeError("no self-consistent sign pattern found")
    return best[1], best[2]


def soft_threshold(z: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form lasso solution for identity Gram and unit weights."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)


def cell_probability(
    beta: np.ndarray, lam: float, noise_sd: float, active: np.ndarray, signs: np.ndarray
) -> float:
    """P(active set and signs) for identity Gram: a product of Phi terms.

    Coordinate j is active with sign s iff s*(beta_j + u_j) > lam with
    u_j ~ N(0, noise_sd^2) independent; inactive iff |beta_j + u_j| <= lam.
    """
    p = beta.shape[0]
    mask = np.zeros(p, dtype=bool)
    mask[active] = True
    prob = 1.0
    for j in range(p):
        if mask[j]:
            s = signs[np.nonzero(active == j)[0][0]]
            prob *= norm.sf((lam - s * beta[j]) / noise_sd)
        else:
            hi = norm.cdf((lam - beta[j]) / noise_sd)
            lo = norm.cdf((-lam - beta[j]) / noise_sd)
            prob *= hi - lo
    return float(prob)


def split_normal_cdf(x: float, mean: float, lam: float, sd: float) -> float:
    """CDF of the active-coordinate conditional law for identity Gram.

    The active coefficient is the soft-threshold image of U ~ N(mean, sd^2)
    given |U| > lam, so its density is phi((b - mean - lam) / sd) for b < 0
    and phi((b - mean + lam) / sd) for b > 0, renormalized.
    """
    neg_mass = norm.cdf((0.0 - (mean + lam)) / sd)
    pos_mass = norm.sf((0.0 - (mean - lam)) / sd)
    total = neg_mass + pos_mass
    if x <= 0:
        return norm.cdf((x - (mean + lam)) / sd) / total
    return (neg_mass + norm.cdf((x - (mean - lam)) / sd) - norm.cdf((0.0 - (mean - lam)) / sd)) / total


def assemble_jacobian(
    gram: np.ndarray, weights: np.ndarray, lam: float, active: np.ndarray
) -> np.ndarray:
    """Dense (C_A | lam W_I) column block, active columns first."""
    p = gram.shape[0]
    mask = np.zeros(p, dtype=bool)
    mask[active] = True
    cols = [gram[:, j] for j in active]
    for j in range(p):
        if not mask[j]:
            e = np.zeros(p)
            e[j] = lam * weights[j]
            cols.append(e)
    return np.column_stack(cols) if cols else np.zeros((p, 0))


def state_score(
    gram: np.ndarray,
    weights: np.ndarray,
    lam: float,
    beta: np.ndarray,
    theta: np.ndarray,
    active: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Score u = C(b_hat - beta) + lam W s of a state and its form u'C^{-1}u.

    ``theta`` holds the coefficient where ``active`` is True and the
    subgradient value elsewhere; the form comes from a dense solve.
    """
    b_hat = np.where(active, theta, 0.0)
    subgrad = np.where(active, np.sign(theta), theta)
    u = gram @ (b_hat - beta) + lam * weights * subgrad
    return u, float(u @ np.linalg.solve(gram, u))


def assemble_rowspace_jacobian(
    X: np.ndarray,
    weights: np.ndarray,
    lam: float,
    active: np.ndarray,
    row_basis: np.ndarray,
    null_basis: np.ndarray,
) -> np.ndarray:
    """Dense row-space Jacobian via an explicit inactive null-space basis."""
    n, p = X.shape
    gram = X.T @ X / n
    mask = np.zeros(p, dtype=bool)
    mask[active] = True
    inactive = np.nonzero(~mask)[0]
    left = row_basis.T @ gram[:, active] if active.size else np.zeros((n, 0))
    vw = null_basis[inactive, :].T * weights[inactive]
    from scipy.linalg import null_space

    B = null_space(vw)
    right = lam * (row_basis[inactive, :].T @ (weights[inactive, None] * B))
    return np.column_stack([left, right])


def rowspace_qform(X: np.ndarray, u: np.ndarray) -> float:
    """u' G^+ u for G = X'X/n with full row rank, from the design itself.

    G^+ = n X'(XX')^{-2} X, so u' G^+ u = n |(XX')^{-1} X u|^2; no
    eigendecomposition of G is involved.
    """
    n = X.shape[0]
    a = np.linalg.solve(X @ X.T, X @ u)
    return float(n * a @ a)


def gaussian_radial_logpdf(r: np.ndarray, dim: int, scale2: float) -> np.ndarray:
    """Log density of ||Z|| for Z ~ N(0, scale2 * I_dim)."""
    r = np.asarray(r, dtype=float)
    return (
        (dim - 1) * np.log(r)
        - r**2 / (2.0 * scale2)
        - (dim / 2.0 - 1.0) * math.log(2.0)
        - math.lgamma(dim / 2.0)
        - dim / 2.0 * math.log(scale2)
    )


def ar1_series(n: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(1) path with unit innovation variance."""
    x = np.empty(n)
    x[0] = rng.standard_normal() / math.sqrt(1.0 - rho**2)
    eps = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    return x


def mixed_density_integral(
    gram: np.ndarray,
    weights: np.ndarray,
    lam: float,
    beta: np.ndarray,
    sigma2: float,
    n: int,
    log_density,
    grid: int = 160,
    span: float = 10.0,
) -> float:
    """Total mass of the augmented density, summed over all active sets.

    For each active set the continuous block (b_A, s_I) is integrated on a
    trapezoid grid; coefficient axes run over +-span around the mean,
    subgradient axes over [-1, 1].  ``log_density(theta, active)`` is the
    log density at a grid point, as a mixed vector and a bool mask.
    """
    trapz = getattr(np, "trapezoid", None) or np.trapz
    p = gram.shape[0]
    total = 0.0
    for r in range(p + 1):
        for active in itertools.combinations(range(p), r):
            active = np.array(active, dtype=int)
            axes = []
            for j in range(p):
                if j in active:
                    # split at the density jump across b = 0
                    half = grid // 2
                    eps = 1e-9
                    axes.append(
                        np.concatenate(
                            [
                                np.linspace(beta[j] - span, -eps, half),
                                np.linspace(eps, beta[j] + span, half),
                            ]
                        )
                    )
                else:
                    axes.append(np.linspace(-1.0, 1.0, grid))
            mesh = np.meshgrid(*axes, indexing="ij") if p > 1 else [axes[0]]
            vals = np.zeros(mesh[0].shape)
            it = np.nditer(mesh[0], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                theta = np.array([m[idx] for m in mesh])
                mask = np.zeros(p, dtype=bool)
                mask[active] = True
                if np.any(theta[mask] == 0.0):
                    vals[idx] = 0.0
                    continue
                vals[idx] = math.exp(log_density(theta, mask))
            for axis in reversed(range(p)):
                vals = trapz(vals, axes[axis], axis=axis)
            total += float(vals)
    return total


def tail_estimate(values, t: float, lw) -> tuple[float, float]:
    """Self-normalised tail estimate P(|T| >= t) and weight ESS, summed exactly.

    Each log weight is shifted by the largest before exponentiating (the
    log-sum-exp normalisation), then the Python floats are summed with
    ``math.fsum``.  A -inf log weight is a zero weight.
    """
    lw = [float(x) for x in lw]
    top = max(lw)
    w = [math.exp(x - top) for x in lw]
    total = math.fsum(w)
    hit = math.fsum(wi for wi, v in zip(w, values) if abs(float(v)) >= t)
    return hit / total, total * total / math.fsum(wi * wi for wi in w)


def coordinate_descent(
    gram: np.ndarray,
    xty: np.ndarray,
    weights: np.ndarray,
    lam: float,
    tol: float = 1e-14,
    max_sweeps: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted lasso for one response by scalar cyclic coordinate descent.

    Feasible where enumeration is not (p > n, p in the tens).  Plain Python
    floats, one coordinate at a time: each update recomputes its partial
    residual from scratch with ``math.fsum``, and sweeps stop once the KKT
    defect, recomputed the same way, is at most ``tol`` on every coordinate.
    Returns the coefficients and the subgradient read off them.
    """
    C = [[float(v) for v in row] for row in np.asarray(gram)]
    c = [float(v) for v in xty]
    t = [lam * float(w) for w in weights]
    p = len(c)
    b = [0.0] * p

    def gradient(j: int) -> float:
        return c[j] - math.fsum(C[j][k] * b[k] for k in range(p) if b[k] != 0.0)

    for _ in range(max_sweeps):
        for j in range(p):
            rho = gradient(j) + C[j][j] * b[j]
            if rho > t[j]:
                b[j] = (rho - t[j]) / C[j][j]
            elif rho < -t[j]:
                b[j] = (rho + t[j]) / C[j][j]
            else:
                b[j] = 0.0
        grad = [gradient(j) for j in range(p)]
        defect = max(
            abs(g - math.copysign(tj, bj)) if bj != 0.0 else max(abs(g) - tj, 0.0)
            for g, tj, bj in zip(grad, t, b)
        )
        if defect <= tol:
            break
    else:
        raise RuntimeError(f"coordinate descent left KKT defect {defect:.3e} above {tol:g}")
    subgrad = [
        math.copysign(1.0, bj) if bj != 0.0 else min(1.0, max(-1.0, g / tj))
        for g, tj, bj in zip(grad, t, b)
    ]
    return np.array(b), np.array(subgrad)


def lasso_homotopy(
    gram: np.ndarray, xty: np.ndarray, weights: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted lasso for one response by following its solution path in the penalty.

    The lasso modification of LARS (Osborne, Presnell and Turlach 2000;
    Efron et al. 2004): start at lambda_max, where the solution is zero, and
    walk the piecewise-linear path down to ``lam``.  On each piece the active
    set A and signs s are fixed and b_A(l) = C_AA^-1 (c_A - l W_A s_A); the
    piece ends where an active coefficient reaches zero (it leaves) or an
    inactive correlation c_j - C_jA b_A(l) reaches +-l w_j (it joins with
    that sign).  Each piece costs two linear solves and nothing iterates to
    a tolerance, so nearly flat faces that stall coordinate descent cost
    nothing here.  Assumes the design is in general position, so |A| <= n
    and every C_AA met on the path is invertible.  Returns the coefficients
    and the subgradient read off them.
    """
    C = np.asarray(gram, dtype=float)
    c = np.asarray(xty, dtype=float)
    w = np.asarray(weights, dtype=float)
    p = len(c)
    level = float(np.max(np.abs(c) / w))
    active = np.zeros(p, dtype=bool)
    sign = np.zeros(p)
    beta = np.zeros(p)
    # The coordinate that changed last and the sign it had before: its own
    # linear crossing lies at the current level, so it is no event.
    last = (-1, 0.0)
    if level > lam:
        j = int(np.argmax(np.abs(c) / w))
        active[j], sign[j] = True, np.sign(c[j])
        last = (j, 0.0)
    while level > lam:
        A, inactive = np.flatnonzero(active), np.flatnonzero(~active)
        caa = C[np.ix_(A, A)]
        u = np.linalg.solve(caa, c[A])
        v = np.linalg.solve(caa, w[A] * sign[A])
        # Inactive correlations are a + l g along the piece.
        a = c[inactive] - C[np.ix_(inactive, A)] @ u
        g = C[np.ix_(inactive, A)] @ v
        events = []  # (level, coordinate, sign it joins with, or 0 to leave)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, (uk, vk) in enumerate(zip(u, v)):
                events.append((uk / vk, int(A[k]), 0.0))
            for k, (ak, gk) in enumerate(zip(a, g)):
                for s in (1.0, -1.0):
                    events.append((ak / (s * w[inactive[k]] - gk), int(inactive[k]), s))
        below = [e for e in events if e[1:] != last and np.isfinite(e[0]) and e[0] < level]
        nxt = max(below, default=(-np.inf, -1, 0.0))
        if nxt[0] <= lam:
            beta[A] = u - lam * v
            break
        level, j, s = nxt
        last = (j, sign[j])
        active[j], sign[j] = s != 0.0, s
    grad = c - C @ beta
    subgrad = np.where(active, sign, np.clip(grad / (lam * w), -1.0, 1.0))
    return beta, subgrad
