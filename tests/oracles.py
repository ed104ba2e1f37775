"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: sign-pattern enumeration instead
of coordinate descent, dense matrix assembly instead of incremental
updates, quadrature instead of sampling.  Tests compare the package
against these, never against itself.  The two exceptions are
``ReferenceMhEngine``, the MH move kernel one proposal at a time, which
shares the sampler's density kernel, seeds and start, and against which
the sampler's inlined sweep loop is required to be bit-identical; and
``support_solve_loop``, the solver's support solve one column at a time,
against which its batched solve is required to be bit-identical.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import norm

from lassodist import samplers
from lassodist.density import qform_log_density, scores
from lassodist.errors import NumericalError
from lassodist.problem import _active_mask
from lassodist.rng import generator, seed_sequence


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


def summarize_chain_by_column(chain, log_weights=None):
    """Chain summaries one column and one state at a time: the reference for the block code.

    Returns (select_prob, quantile_lo, quantile_hi, cond_mean, cond_sd,
    model_freq).  Weights are exp(lw - max lw) normalized to sum 1 (uniform
    without log weights).  Unweighted quantiles are ``np.quantile`` per
    column; weighted ones sort the column and ``np.interp`` its cumulative
    weights, divided by their total.  Conditional moments renormalize the
    weights over the column's active rows, NaN where these weigh nothing.
    Models are keyed by the hex bitmask of their active set, built bit by
    bit, in order of first visit, with their weights summed in chain order.
    """
    L, p = chain.thetas.shape
    betas = np.where(chain.active, chain.thetas, 0.0)
    if log_weights is None:
        w = np.full(L, 1.0 / L)
    else:
        lw = np.asarray(log_weights, dtype=float)
        w = np.exp(lw - lw.max())
        w = w / w.sum()
    select_prob = chain.active.astype(float).T @ w
    quantiles = np.empty((2, p))
    cond_mean = np.full(p, np.nan)
    cond_sd = np.full(p, np.nan)
    for j in range(p):
        if log_weights is None:
            quantiles[:, j] = np.quantile(betas[:, j], [0.025, 0.975])
        else:
            order = np.argsort(betas[:, j])
            cdf = np.cumsum(w[order])
            cdf = cdf / cdf[-1]
            quantiles[:, j] = [np.interp(q, cdf, betas[order, j]) for q in (0.025, 0.975)]
        on = chain.active[:, j]
        if w[on].sum() > 0:
            wj = w[on] / w[on].sum()
            vals = betas[on, j]
            m = float(vals @ wj)
            cond_mean[j] = m
            cond_sd[j] = math.sqrt(max(float((vals - m) ** 2 @ wj), 0.0))
    model_freq: dict[str, float] = {}
    for row, wi in zip(chain.active, w.tolist()):
        key = format(sum(1 << int(j) for j in np.flatnonzero(row)), "x")
        model_freq[key] = model_freq.get(key, 0.0) + wi
    return select_prob, quantiles[0], quantiles[1], cond_mean, cond_sd, model_freq


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


def support_solve_loop(
    gram: np.ndarray, target: np.ndarray, lam_w: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """Each column's exact minimizer on its support A and signs s, solved alone.

    The reference for ``solver._support_solve``: column i solves
    ``C_AA b_A = c_A - lam W_A s_A`` with ``np.linalg.solve``, its block
    gathered with ``np.ix_`` and padded with the identity up to the
    largest support, as the batched solve pads it, because LAPACK's
    rounding depends on the block size.  A column whose block is singular
    gets NaN on its support.
    """
    k = int((B != 0).sum(axis=0).max(initial=0))
    ref = np.zeros_like(B)
    for i in range(B.shape[1]):
        A = np.flatnonzero(B[:, i])
        block = np.eye(k)
        block[: A.size, : A.size] = gram[np.ix_(A, A)]
        rhs = np.zeros(k)
        rhs[: A.size] = target[A, i] - lam_w[A, 0] * np.sign(B[A, i])
        try:
            ref[A, i] = np.linalg.solve(block, rhs)[: A.size]
        except np.linalg.LinAlgError:
            ref[A, i] = np.nan
    return ref


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


_LOG_HALF = math.log(0.5)


def _normal_logpdf(x: float, sd: float) -> float:
    return -0.5 * math.log(2.0 * math.pi) - math.log(sd) - 0.5 * (x / sd) ** 2


class ReferenceMhEngine:
    """The MH move kernel one proposal at a time: the scalar reference of the sweep loop.

    ``lassodist.samplers._MhEngine.run`` makes every sweep of a chain in one
    inlined loop; this class makes the same moves through one method per
    proposal kind and one shared ``_move``, with the state in numpy arrays,
    and ``reference_mh_chain`` feeds it the same random draws.  Chains from
    the two must be bit-identical.  The log-determinant is looked up on the
    sampler module at call time, so a test that replaces it there reaches
    both implementations.

    ``set_state`` computes the score image ``H``, ``G = C^{-1} H``,
    ``q = H'G``, ``loglik = f(q)`` and ``log_jac``.  A move on j that
    changes the coefficient by db and lam w_j s_j by d has candidate form
    q + dq with dq = 2 (db H_j + d G_j) + db^2 C_jj + 2 db d + d^2 (C^{-1})_jj.
    An add/drop proposal is rejected at once when log u exceeds the rest of
    its ratio plus the Schur cap (``log(C_jj / (lam w_j))`` for an add,
    ``log((C^{-1})_jj lam w_j)`` for a drop) plus ``_CAP_SLACK``; otherwise
    the exact ratio, with a fresh log-determinant, decides, and a singular
    new active block rejects.
    """

    def __init__(self, spec, beta, model, tau) -> None:
        self.spec = spec
        self.beta = np.asarray(beta, dtype=float)
        self.tau = np.asarray(tau, dtype=float).tolist()
        self.accepts = dict.fromkeys(samplers.MOVE_KINDS, 0)
        self.attempts = dict.fromkeys(samplers.MOVE_KINDS, 0)
        self.log_f = qform_log_density(model, spec.p, spec.log_det_gram, spec.n)
        self.c_diag = np.diag(spec.gram).tolist()
        self.cinv_diag = np.diag(spec.gram_inv).tolist()
        self.lw = (spec.lam * spec.weights).tolist()

    def set_state(self, theta, active) -> None:
        spec = self.spec
        self.theta = np.array(theta, dtype=float)
        self.active = np.array(active, dtype=bool)
        self.H = scores(self.theta, self.active, self.beta, spec)
        self.G = spec.gram_inv @ self.H
        self._settle()
        self.log_jac = samplers.log_det_jacobian(np.flatnonzero(self.active), spec)

    def _settle(self) -> None:
        self.q = float(self.H @ self.G)
        self.loglik = self.log_f(self.q)

    def _move(self, kind, j, value, db, d, log_u, toggle=None) -> None:
        """Set theta_j = value if log u passes the move's log MH ratio.

        ``toggle = (plus, minus, cap)`` marks an add/drop move: its ratio
        gains ``plus - minus`` from the proposal densities and the
        determinant term that ``cap`` bounds.
        """
        H, G = self.H, self.G
        dq = (
            2.0 * (db * H.item(j) + d * G.item(j))
            + db * db * self.c_diag[j]
            + 2.0 * db * d
            + d * d * self.cinv_diag[j]
        )
        log_ratio = self.log_f(self.q + dq) - self.loglik
        if toggle is not None:
            plus, minus, cap = toggle
            if log_u > log_ratio + plus - minus + cap + samplers._CAP_SLACK:
                return
            mask = self.active.copy()
            mask[j] = not mask[j]
            try:
                log_jac_new = samplers.log_det_jacobian(np.flatnonzero(mask), self.spec)
            except NumericalError:
                return
            log_ratio = log_ratio + (log_jac_new - self.log_jac) + plus - minus
        if log_u <= log_ratio:
            spec = self.spec
            self.theta[j] = value
            if db != 0.0:
                H += spec.gram[:, j] * db
                G[j] += db
            if d != 0.0:
                H[j] += d
                G += d * spec.gram_inv[:, j]
            if toggle is not None:
                self.active[j] = not self.active[j]
                self.log_jac = log_jac_new
            self._settle()
            self.accepts[kind] += 1

    def coef_update(self, j, b_new, log_u) -> None:
        self.attempts["coef_update"] += 1
        if b_new != 0.0:
            b_old = self.theta.item(j)
            ds = math.copysign(1.0, b_new) - math.copysign(1.0, b_old)
            self._move("coef_update", j, b_new, b_new - b_old, self.lw[j] * ds, log_u)

    def subgrad_update(self, j, s_new, log_u) -> None:
        self.attempts["subgrad_update"] += 1
        d = self.lw[j] * (s_new - self.theta.item(j))
        self._move("subgrad_update", j, s_new, 0.0, d, log_u)

    def drop_coord(self, j, s_new, log_u) -> None:
        self.attempts["drop_coord"] += 1
        b_old, lw = self.theta.item(j), self.lw[j]
        d = lw * (s_new - math.copysign(1.0, b_old))
        toggle = (_normal_logpdf(b_old, self.tau[j]), _LOG_HALF, math.log(self.cinv_diag[j] * lw))
        self._move("drop_coord", j, s_new, -b_old, d, log_u, toggle)

    def add_coord(self, j, b_new, log_u) -> None:
        self.attempts["add_coord"] += 1
        if b_new != 0.0:
            lw = self.lw[j]
            d = lw * (math.copysign(1.0, b_new) - self.theta.item(j))
            toggle = (_LOG_HALF, _normal_logpdf(b_new, self.tau[j]), math.log(self.c_diag[j] / lw))
            self._move("add_coord", j, b_new, b_new, d, log_u, toggle)

    def sweep(self, model_mask, normals, unifs, log_u) -> None:
        """One sweep: add/drop on the ``model_mask`` coordinates, then the rest."""
        for j in range(len(self.theta)):
            if not model_mask[j]:
                continue
            if self.active[j]:
                self.drop_coord(j, unifs[j], log_u[j])
            else:
                self.add_coord(j, self.tau[j] * normals[j], log_u[j])
        for j in range(len(self.theta)):
            if model_mask[j]:
                continue
            if self.active[j]:
                self.coef_update(j, self.theta.item(j) + self.tau[j] * normals[j], log_u[j])
            else:
                self.subgrad_update(j, unifs[j], log_u[j])


def weighted_subset(log_alpha: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of K coordinates sampled without replacement prop. to alpha.

    Top-K of Gumbel-perturbed log-weights is distributed exactly as
    sequential draws without replacement with renormalization.
    """
    p = log_alpha.shape[0]
    u = rng.random(p)
    with np.errstate(divide="ignore"):
        keys = log_alpha - np.log(-np.log(u))
    mask = np.zeros(p, dtype=bool)
    mask[np.argpartition(keys, p - K)[p - K :]] = True
    return mask


def reference_mh_chain(spec, beta, model, config, init=None, A_star=None, max_init_draws=10_000):
    """``mh_sample`` (or, with ``A_star``, ``conditional_mh_sample``) by ``ReferenceMhEngine``.

    The seeds and the starting state are the sampler's own; each sweep
    draws its add/drop subset (joint chains only), normals, uniforms and
    log u in the sampler's order and hands them to ``sweep``.  Returns
    (thetas, active, accept_counts, proposal_counts) of the kept rows.
    """
    beta = np.asarray(beta, dtype=float)
    target = None if A_star is None else _active_mask(A_star, spec.p)
    init_seed, moves_seq = seed_sequence(config.seed).spawn(2)
    theta0, active0, burn_in = samplers._initial_state(
        spec, beta, model, config, init, init_seed, target, max_init_draws
    )
    engine = ReferenceMhEngine(spec, beta, model, config.tau)
    engine.set_state(theta0, active0)
    rng = generator(moves_seq)
    p = spec.p
    log_alpha = np.log(np.asarray(config.alpha, dtype=float))
    thetas, active = [], []
    for t in range(config.iters):
        if target is None:
            model_mask = weighted_subset(log_alpha, config.K, rng)
        else:
            model_mask = np.zeros(p, dtype=bool)
        normals = rng.standard_normal(p).tolist()
        unifs = rng.uniform(-1.0, 1.0, p).tolist()
        log_u = np.log(rng.random(p)).tolist()
        engine.sweep(model_mask, normals, unifs, log_u)
        if t >= burn_in:
            thetas.append(engine.theta.copy())
            active.append(engine.active.copy())
    tried = {k: v for k, v in engine.attempts.items() if v > 0}
    accepted = {k: engine.accepts[k] for k in tried}
    return np.array(thetas).reshape(-1, p), np.array(active).reshape(-1, p), accepted, tried
