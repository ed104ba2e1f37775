"""Plug-in estimation, chain summaries and efficiency diagnostics.

Covers the pieces around the samplers: noise-scale and elliptical error
fits, the thresholded plug-in estimator, a no-solve sign-recovery
probability, the posterior decision draw that reproduces the sampling
law, and autocorrelation-based efficiency reports.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .density import EmpiricalElliptical, Gaussian, StudentT, _assemble_jacobian, radial_log_norm
from .errors import ConfigError, ConvergenceError, DataError, NumericalError, check_positive
from .importance import _statistic_values
from .problem import ProblemSpec
from .rng import Seed, generator
from .samplers import Chain, active_bitmask
from .solver import solve_lasso, solve_lasso_gram

__all__ = [
    "SummaryStats",
    "EfficiencyReport",
    "estimate_sigma2",
    "fit_elliptical_model",
    "threshold_estimator",
    "sign_consistency_prob",
    "posterior_decision_sample",
    "recentered_minimizer",
    "summarize_chain",
    "chain_diagnostics",
    "coefficient_histogram",
    "acceptance_band_report",
]


@dataclass(eq=False)
class SummaryStats:
    """Per-coordinate and per-model summaries of a chain.

    ``cond_mean``/``cond_sd`` describe the coefficient conditional on it
    being nonzero (NaN where a coordinate is never active).  ``model_freq``
    maps active-set bitmasks (hex) to empirical frequencies.
    """

    select_prob: np.ndarray
    quantile_lo: np.ndarray
    quantile_hi: np.ndarray
    cond_mean: np.ndarray
    cond_sd: np.ndarray
    model_freq: dict[str, float]


@dataclass(eq=False)
class EfficiencyReport:
    """Autocorrelation-based efficiency of a chain statistic.

    ``psi`` is the truncated estimate of the limiting variance-inflation
    sum, ``ess`` the implied effective sample size (capped at N), and
    ``gamma`` the efficiency relative to independent draws that cost
    ``cost_ratio`` times as much each.
    """

    acf: np.ndarray
    psi: float
    ess: float
    gamma: float
    truncation_lag: int
    n: int


def estimate_sigma2(spec: ProblemSpec, y: np.ndarray, beta_check: np.ndarray) -> float:
    """Residual-based noise variance: ||y - X beta_check||^2 / (n - p)."""
    if spec.p >= spec.n:
        raise ConfigError("residual variance estimation requires p < n")
    y = np.asarray(y, dtype=float)
    beta_check = np.asarray(beta_check, dtype=float)
    resid = y - spec.X @ beta_check
    return float(resid @ resid / (spec.n - spec.p))


def fit_elliptical_model(
    spec: ProblemSpec,
    y: np.ndarray,
    beta_check: np.ndarray,
    n_samples: int = 1000,
    bins: int | np.ndarray = 30,
    seed: Seed = 0,
) -> EmpiricalElliptical:
    """Bootstrap radial fit of an elliptically symmetric score density.

    Residuals of the plug-in fit are centered and resampled into synthetic
    noise vectors; the whitened scores' radii are histogrammed over
    ``bins``, and the log density beyond the last edge is extrapolated
    linearly from the last bins.  ``bins`` is an edge vector starting at 0,
    or a count M of equal-count bins: edges 0, the radii quantiles k/M for
    k = 1, ..., M - 1, and a top edge just above the largest radius.
    """
    if spec.p > spec.n:
        raise ConfigError("the elliptical fit requires p <= n")
    y = np.asarray(y, dtype=float)
    resid = y - spec.X @ np.asarray(beta_check, dtype=float)
    resid = resid - resid.mean()
    if not np.any(resid != 0.0):
        raise DataError("residuals are identically zero; nothing to resample")
    if n_samples < 1:
        raise ConfigError("need at least one bootstrap sample")

    rng = generator(seed)
    noise = rng.choice(resid, size=(n_samples, spec.n), replace=True)
    scores = noise @ spec.X / spec.n
    # whitened radius: ||L^{-1} u|| with C = L L'
    white = np.linalg.solve(spec.gram_cholesky, scores.T)
    radii = np.sqrt(np.sum(white * white, axis=0))

    if np.isscalar(bins) or np.ndim(bins) == 0:
        m = int(bins)
        if m < 1:
            raise ConfigError("need at least one histogram bin")
        top = float(radii.max()) * (1.0 + 1e-12)
        if top <= 0:
            raise DataError("all bootstrap radii are zero")
        edges = np.concatenate(([0.0], np.quantile(radii, np.arange(1, m) / m), [top]))
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or edges[0] != 0.0:
            raise ConfigError("bin edges must be a vector starting at 0")
        if np.any(np.diff(edges) <= 0):
            raise ConfigError("bin edges must be strictly increasing")
        if np.any(radii >= edges[-1]):
            raise DataError(
                "bootstrap radii fall beyond the last bin edge; extend the edges"
            )
    idx = np.searchsorted(edges, radii, side="right") - 1
    counts = np.bincount(np.clip(idx, 0, edges.size - 2), minlength=edges.size - 1)
    M = counts.size
    if M > 1 and np.any(counts == 0):
        empty = np.nonzero(counts == 0)[0]
        raise DataError(
            f"empty histogram bin(s) {empty.tolist()}: use fewer bins or more samples"
        )

    if M == 1:
        tail_slope = -math.inf
        tail_intercept = 0.0
    else:
        dim = spec.p
        centers = (edges[:-1] + edges[1:]) / 2.0
        log_dens = np.log(counts) - np.log(edges[1:] ** dim - edges[:-1] ** dim)
        use = min(3, M)
        coeffs = np.polyfit(centers[-use:], log_dens[-use:], 1)
        tail_slope = float(coeffs[0])
        tail_intercept = float(coeffs[1])
        if tail_slope >= 0:
            raise NumericalError("radial log-density tail is not decreasing")

    log_norm = radial_log_norm(edges, counts, spec.p, tail_slope, tail_intercept)
    return EmpiricalElliptical(
        edges=edges,
        counts=counts.astype(float),
        tail_slope=tail_slope,
        tail_intercept=tail_intercept,
        dim=spec.p,
        log_norm=log_norm,
        residual_pool=resid,
    )


def threshold_estimator(beta_hat: np.ndarray, b_th: float) -> np.ndarray:
    """Hard-threshold the estimate: keep entries strictly above ``b_th``."""
    check_positive("threshold b_th", b_th)
    beta_hat = np.asarray(beta_hat, dtype=float)
    return np.where(np.abs(beta_hat) > b_th, beta_hat, 0.0)


def sign_consistency_prob(
    spec: ProblemSpec,
    beta0: np.ndarray,
    sigma2: float,
    L: int,
    seed: Seed,
) -> float:
    """Probability that the fit recovers the support and signs of ``beta0``.

    Uses the affine characterization: the selection event is a box/orthant
    event for an affine image of the score vector, so each Monte Carlo
    draw costs one linear solve rather than an optimization.  Valid in
    both regimes as long as the active Gram block is nonsingular.
    """
    check_positive("noise variance sigma2", sigma2, zero_ok=True)
    if L < 1:
        raise ConfigError("need at least one draw")
    beta0 = np.asarray(beta0, dtype=float)
    if beta0.shape != (spec.p,):
        raise DataError(f"beta0 must have shape ({spec.p},), got {beta0.shape}")
    support = np.nonzero(beta0)[0]
    if support.size > spec.n:
        raise ConfigError("a support larger than n is never recoverable")
    signs = np.sign(beta0[support])
    inactive = np.nonzero(beta0 == 0)[0]
    k = support.size

    # Affine center of the mapped score, active block then inactive block.
    mu = np.zeros(spec.p)
    if k:
        ws = spec.weights[support] * signs
        try:
            caa_inv_ws = np.linalg.solve(spec.gram[np.ix_(support, support)], ws)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("active Gram block is singular") from exc
        if not np.all(np.isfinite(caa_inv_ws)):
            raise NumericalError("active Gram block is singular")
        mu[:k] = beta0[support] - spec.lam * caa_inv_ws
        if inactive.size:
            mu[k:] = (
                spec.gram[np.ix_(inactive, support)] @ caa_inv_ws
            ) / spec.weights[inactive]

    jac = _assemble_jacobian(support, spec)
    # slogdet's LU meets an exactly zero pivot where solve's does, so a
    # singular Jacobian fails here, before the first draw.
    if np.linalg.slogdet(jac)[0] == 0.0:
        raise NumericalError("state-to-score Jacobian is singular")

    rng = generator(seed)
    sd = math.sqrt(sigma2)
    hits = 0
    block = 100_000
    done = 0
    while done < L:
        m = min(block, L - done)
        eps = sd * rng.standard_normal((m, spec.n))
        scores = eps @ spec.X / spec.n
        z = np.linalg.solve(jac, scores.T).T + mu
        ok = np.all(np.abs(z[:, k:]) <= 1.0, axis=1)
        if k:
            ok &= np.all(z[:, :k] * signs > 0.0, axis=1)
        hits += int(ok.sum())
        done += m
    return hits / L


def posterior_decision_sample(
    spec: ProblemSpec,
    y: np.ndarray,
    model: Gaussian | StudentT,
    L: int,
    seed: Seed,
    lam: float | None = None,
    kkt_tol: float = 1e-10,
) -> Chain:
    """Sample the Bayes decision under the penalized decision loss.

    Each posterior draw of the coefficient vector (flat prior; Gaussian
    known-variance or t marginal) is mapped to the minimizer of the
    penalized quadratic decision loss, together with the subgradient that
    the stationarity condition pins down.  The resulting law coincides
    with the plug-in sampling distribution of the penalized estimator
    centered at the unpenalized fit.

    ``lam`` overrides the penalty level; 0 is allowed and returns the raw
    posterior draws.
    """
    if spec.p >= spec.n:
        raise ConfigError("the posterior draw requires p < n")
    if L < 1:
        raise ConfigError("need at least one draw")
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.n,):
        raise DataError(f"response must have shape ({spec.n},), got {y.shape}")
    lam_eff = spec.lam if lam is None else float(lam)
    if lam_eff < 0:
        raise ConfigError("penalty override must be nonnegative")

    xty = spec.X.T @ y / spec.n
    ols = spec.gram_solve(xty)
    chol = spec.gram_cholesky

    rng = generator(seed)
    z = rng.standard_normal((L, spec.p))
    if isinstance(model, Gaussian):
        check_positive("Gaussian variance sigma2", model.sigma2)
        scale = math.sqrt(model.sigma2 / spec.n)
        mix = np.ones(L)
    elif isinstance(model, StudentT):
        check_positive("StudentT dof", model.dof)
        check_positive("StudentT scale", model.scale)
        scale = math.sqrt(model.scale / spec.n)
        mix = 1.0 / np.sqrt(rng.chisquare(model.dof, size=L) / model.dof)
    else:
        raise ConfigError("posterior draws support Gaussian or StudentT models")

    spread = np.linalg.solve(chol.T, z.T).T
    draws = ols + scale * spread * mix[:, None]

    if lam_eff == 0.0:
        thetas, active, worst = draws, draws != 0.0, 0.0
    else:
        # The decision for a draw b is the lasso fit to the noiseless response X b.
        try:
            sol = solve_lasso(replace(spec, lam=lam_eff), draws @ spec.X.T, kkt_tol=kkt_tol)
        except ConvergenceError as err:
            err.seed = seed
            raise
        thetas = np.where(sol.active, sol.beta_hat, sol.subgrad)
        active, worst = sol.active, sol.kkt_residual
    return Chain(
        thetas=thetas,
        active=active,
        iterations=np.arange(L),
        seed=seed if isinstance(seed, int) else None,
        max_kkt_residual=worst,
    )


def recentered_minimizer(
    spec: ProblemSpec,
    center: np.ndarray,
    u: np.ndarray,
    kkt_tol: float = 1e-12,
) -> np.ndarray:
    """Shift of the penalized minimizer when the problem is centered at ``center``.

    Solves the penalized quadratic with linear term ``C center + u`` and
    returns the difference from ``center``: the minimizer of the recentred
    objective in the shift variable.
    """
    center = np.asarray(center, dtype=float)
    u = np.asarray(u, dtype=float)
    xty = spec.gram @ center + u
    beta, _ = solve_lasso_gram(spec.gram, xty, spec.weights, spec.lam, kkt_tol=kkt_tol)
    return beta - center


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    cdf = np.cumsum(w)
    cdf = cdf / cdf[-1]
    return float(np.interp(q, cdf, v))


def summarize_chain(chain: Chain, log_weights: np.ndarray | None = None) -> SummaryStats:
    """Selection probabilities, coefficient quantiles and model frequencies.

    With ``log_weights`` the summaries are importance-weighted (weights
    normalized in log space first).
    """
    L = len(chain)
    if L == 0:
        raise DataError("empty chain")
    betas = chain.beta_matrix()
    active = chain.active
    p = chain.p

    if log_weights is not None:
        lw = np.asarray(log_weights, dtype=float)
        if lw.shape != (L,):
            raise DataError("need one log-weight per state")
        w = np.exp(lw - lw.max())
        w = w / w.sum()
    else:
        w = np.full(L, 1.0 / L)

    select_prob = active.astype(float).T @ w
    if log_weights is None:
        q_lo, q_hi = np.quantile(betas, [0.025, 0.975], axis=0)
    else:
        q_lo = np.empty(p)
        q_hi = np.empty(p)
    cond_mean = np.full(p, np.nan)
    cond_sd = np.full(p, np.nan)
    for j in range(p):
        if log_weights is not None:
            q_lo[j] = _weighted_quantile(betas[:, j], w, 0.025)
            q_hi[j] = _weighted_quantile(betas[:, j], w, 0.975)
        on = active[:, j]
        if on.any():
            wj = w[on]
            wj = wj / wj.sum()
            vals = betas[on, j]
            m = float(vals @ wj)
            cond_mean[j] = m
            cond_sd[j] = math.sqrt(max(float((vals - m) ** 2 @ wj), 0.0))
    # Models in order of first visit; bincount adds each model's weights in
    # chain order, as a running sum would.
    models, first, which = np.unique(active, axis=0, return_index=True, return_inverse=True)
    mass = np.bincount(which.ravel(), weights=w, minlength=len(models))
    freq = {active_bitmask(models[m]): float(mass[m]) for m in np.argsort(first)}
    return SummaryStats(
        select_prob=select_prob,
        quantile_lo=q_lo,
        quantile_hi=q_hi,
        cond_mean=cond_mean,
        cond_sd=cond_sd,
        model_freq=freq,
    )


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    x = x - x.mean()
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real / n
    if acov[0] <= 0:
        raise NumericalError("statistic has zero variance along the chain")
    return acov / acov[0]


def chain_diagnostics(
    chain: Chain | np.ndarray,
    g=None,
    cost_ratio: float = 1.0,
) -> EfficiencyReport:
    """Variance-inflation estimate for a scalar chain statistic.

    ``g`` maps the (L, p) coefficient block to shape (L,) in one call, the
    contract of the named statistics registry; pass a precomputed series
    (as ``chain`` or as ``g``) for anything else.  The autocorrelation is
    truncated at the first lag indistinguishable from zero
    (|rho| < 2/sqrt(N)); the inflation factor, effective sample size and
    relative efficiency are derived from the truncated sum.
    """
    check_positive("cost_ratio", cost_ratio)
    if isinstance(chain, np.ndarray):
        series = np.asarray(chain, dtype=float)
    elif g is None:
        raise ConfigError("provide a statistic g when passing a Chain")
    elif callable(g):
        series = _statistic_values(chain, g)
    else:
        series = np.asarray(g, dtype=float)
    N = series.shape[0]
    if N < 10:
        raise DataError("need at least 10 states for diagnostics")
    rho = _autocorrelation(series)
    cut = 2.0 / math.sqrt(N)
    below = np.flatnonzero(np.abs(rho[1:]) < cut)
    trunc = int(below[0]) + 1 if below.size else N - 1
    lags = np.arange(1, trunc)
    psi = float(1.0 + 2.0 * np.sum((1.0 - lags / N) * rho[1:trunc]))
    ess = min(float(N), N / psi) if psi > 0 else float(N)
    gamma = cost_ratio / psi if psi > 0 else math.inf
    return EfficiencyReport(
        acf=rho[: trunc + 1],
        psi=psi,
        ess=ess,
        gamma=gamma,
        truncation_lag=trunc,
        n=N,
    )


def coefficient_histogram(
    chain: Chain, coord: int, bins: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Plot-ready histogram of one coefficient: (bin centers, masses).

    The zero atom from unselected states lands in whichever bin covers 0.
    """
    if not 0 <= coord < chain.p:
        raise ConfigError(f"coordinate must be in [0, {chain.p})")
    if bins < 1:
        raise ConfigError("need at least one histogram bin")
    values = chain.beta_matrix()[:, coord]
    counts, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts / counts.sum()


ACCEPTANCE_BANDS = {
    "coef_update": (0.15, 0.6),
    "drop_coord": (0.1, 0.6),
    "add_coord": (0.1, 0.6),
    "subgrad_update": (0.2, 1.0),
}


def acceptance_band_report(chain: Chain) -> list[str]:
    """Messages for proposal families whose acceptance rate looks off.

    Advisory only: well-mixing runs typically land inside these bands, but
    nothing fails on a miss.
    """
    messages = []
    for kind, (lo, hi) in ACCEPTANCE_BANDS.items():
        tried = chain.proposal_counts.get(kind, 0)
        if not tried:
            continue
        rate = chain.accept_counts.get(kind, 0) / tried
        if not lo <= rate <= hi:
            messages.append(
                f"{kind} acceptance {rate:.2f} outside [{lo:.2f}, {hi:.2f}]; "
                "consider retuning proposal scales or selection weights"
            )
    for msg in messages:
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return messages
