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

from .density import (
    EmpiricalElliptical,
    Gaussian,
    StudentT,
    _assemble_jacobian,
    gaussian_moments,
    radial_log_norm,
    sample_errors,
)
from .errors import ConfigError, DataError, NumericalError, check_positive, check_vector
from .importance import _relative_weights, _statistic_values
from .problem import ProblemSpec
from .rng import Seed, generator
from .samplers import Chain, _hex_bitmasks, _solved_chain
from .solver import solve_lasso_gram

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
    resid = check_vector("y", y, spec.n) - spec.X @ check_vector("beta_check", beta_check, spec.p)
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
    resid = check_vector("y", y, spec.n) - spec.X @ check_vector("beta_check", beta_check, spec.p)
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
    if L < 1:
        raise ConfigError("need at least one draw")
    beta0 = check_vector("beta0", beta0, spec.p)
    support = np.nonzero(beta0)[0]
    if support.size > spec.n:
        raise ConfigError("a support larger than n is never recoverable")
    signs = np.sign(beta0[support])
    k = support.size
    # The Gaussian mean of the state (b_A, s_I), active block first, is the
    # state at score 0; a singular Jacobian fails there, before any draw.
    mu, _ = gaussian_moments(support, signs, beta0, sigma2, spec)
    jac = _assemble_jacobian(support, spec)

    rng = generator(seed)
    hits = 0
    block = 100_000
    done = 0
    while done < L:
        m = min(block, L - done)
        eps = sample_errors(Gaussian(sigma2), spec.n, m, rng)
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
    y = check_vector("response", y, spec.n)
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
        return Chain(
            thetas=draws,
            active=draws != 0.0,
            iterations=np.arange(L),
            seed=seed if isinstance(seed, int) else None,
            max_kkt_residual=0.0,
        )
    # The decision for a draw b is the lasso fit to the noiseless response X b.
    return _solved_chain(replace(spec, lam=lam_eff), draws @ spec.X.T, seed, kkt_tol=1e-10)


def recentered_minimizer(
    spec: ProblemSpec,
    center: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Shift of the penalized minimizer when the problem is centered at ``center``.

    Solves the penalized quadratic with linear term ``C center + u`` and
    returns the difference from ``center``: the minimizer of the recentred
    objective in the shift variable.
    """
    center = check_vector("center", center, spec.p)
    xty = spec.gram @ center + check_vector("u", u, spec.p)
    beta, _ = solve_lasso_gram(spec.gram, xty, spec.weights, spec.lam, kkt_tol=1e-12)
    return beta - center


def _interp_columns(q: float, cdf: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.interp(q, cdf[:, j], values[:, j])`` for every column j of two sorted blocks."""
    j = np.count_nonzero(cdf <= q, axis=0) - 1  # from -1 to L - 2, as cdf[-1] is 1 > q
    rows = np.clip(j + np.array([[0], [1]]), 0, len(cdf) - 1)
    (x0, x1), (v0, v1) = (np.take_along_axis(a, rows, axis=0) for a in (cdf, values))
    inside = (j >= 0) & (x0 != q)
    slope = np.divide(v1 - v0, x1 - x0, out=np.zeros_like(v0), where=inside)
    return np.where(inside, slope * (q - x0) + v0, v0)


def _finite_betas(chain: Chain) -> np.ndarray:
    """The (L, p) coefficient block; ``DataError`` names the first row with a non-finite theta."""
    finite = np.isfinite(chain.thetas).all(axis=1)
    if not finite.all():
        raise DataError(f"chain row {int(np.argmin(finite))} has a non-finite theta")
    return chain.beta_matrix()


def summarize_chain(chain: Chain, log_weights: np.ndarray | None = None) -> SummaryStats:
    """Selection probabilities, coefficient quantiles and model frequencies.

    With ``log_weights`` the summaries are importance-weighted by exp(lw - max lw),
    and quantiles interpolate each column's weighted CDF as ``np.interp`` does;
    NaN and +inf log weights raise ``NumericalError``, -inf is a zero weight.
    """
    L = len(chain)
    if L == 0:
        raise DataError("empty chain")
    betas = _finite_betas(chain)
    if log_weights is None:
        w = np.full(L, 1.0 / L)
        q_lo, q_hi = np.quantile(betas, [0.025, 0.975], axis=0)
    else:
        lw = np.asarray(log_weights, dtype=float)
        if lw.shape != (L,):
            raise DataError("need one log-weight per state")
        w = _relative_weights(lw)
        w = w / w.sum()
        order = np.argsort(betas, axis=0)
        cdf = np.cumsum(w[order], axis=0)
        cdf /= cdf[-1]
        sorted_betas = np.take_along_axis(betas, order, axis=0)
        q_lo, q_hi = (_interp_columns(q, cdf, sorted_betas) for q in (0.025, 0.975))
    select_prob = chain.active.astype(float).T @ w
    # Column weights normalized over their active rows (NaN where none).  Rows of the (p, L)
    # transposes sum pairwise; sums down (L, p) columns round ~400x worse on long chains.
    on = np.ascontiguousarray(np.where(chain.active, w[:, None], 0.0).T)
    with np.errstate(invalid="ignore"):
        on /= on.sum(axis=1, keepdims=True)
    cols = np.ascontiguousarray(betas.T)
    cond_mean = np.sum(on * cols, axis=1)
    cond_sd = np.sqrt(np.sum(on * (cols - cond_mean[:, None]) ** 2, axis=1))
    # Models in order of first visit; bincount adds each model's weights in
    # chain order, as a running sum would.
    packed = np.packbits(chain.active, axis=1, bitorder="little")
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    mass = np.bincount(which, weights=w)
    visit = np.argsort(first)
    freq = dict(zip(_hex_bitmasks(chain.active[first[visit]]), mass[visit].tolist()))
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
    as ``chain`` for anything else.  A non-finite value raises ``DataError``.
    The autocorrelation is truncated at the first lag indistinguishable from zero
    (|rho| < 2/sqrt(N)); the inflation factor, effective sample size and
    relative efficiency are derived from the truncated sum.
    """
    check_positive("cost_ratio", cost_ratio)
    if isinstance(chain, np.ndarray):
        series = np.asarray(chain, dtype=float)
    elif not callable(g):
        raise ConfigError("provide a callable statistic g when passing a Chain")
    else:
        series = _statistic_values(chain, g)
    N = series.shape[0]
    if N < 10:
        raise DataError("need at least 10 states for diagnostics")
    series = check_vector("statistic series", series, N)
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
    values = _finite_betas(chain)[:, coord]
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
