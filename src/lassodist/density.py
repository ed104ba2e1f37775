"""Closed-form joint density of the penalized estimator and its subgradient.

The augmented estimator lives on a union of faces indexed by the active
set: coefficients on the active coordinates, subgradient values on the
rest.  This module evaluates its exact density in both regimes, p <= n
(full score space) and p > n (row-space coordinates plus a linear
constraint on the subgradient).  Every active (or inactive) set argument
holds indices or is a (p,) bool mask, read by ``problem._active_mask``.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError, check_positive, check_vector
from .problem import ProblemSpec, SpectralBasis, _active_mask, log_det_jacobian

__all__ = [
    "Gaussian",
    "StudentT",
    "EmpiricalElliptical",
    "ErrorModel",
    "C_TOL",
    "scores",
    "score_qform",
    "qform_log_density",
    "gaussian_moments",
    "log_density",
    "inactive_null_basis",
    "log_density_rowspace",
    "rowspace_residual",
    "log_det_rowspace_jacobian",
    "sample_errors",
]

C_TOL = 1e-6


def validate_state(theta: np.ndarray, active: np.ndarray, p: int) -> None:
    """Check membership in the augmented space for a p-dimensional problem.

    ``theta`` holds the mixed coordinates (coefficient where the bool mask
    ``active`` is True, subgradient value elsewhere), as in a ``Chain`` row.
    """
    theta, active = np.asarray(theta), np.asarray(active)
    if theta.shape != (p,) or active.shape != (p,) or active.dtype != bool:
        raise DataError(f"a state is a ({p},) theta and a ({p},) bool mask")
    if not np.all(np.isfinite(theta)):
        raise DataError("state coordinates must be finite")
    if np.any(theta[active] == 0.0):
        raise DataError("active coefficients must be nonzero")
    if np.any(np.abs(theta[~active]) > 1.0):
        raise DataError("inactive subgradient values must lie in [-1, 1]")


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Gaussian error model: score vector distributed N(0, sigma2 * C / n)."""

    sigma2: float


@dataclass(frozen=True, eq=False)
class StudentT:
    """Multivariate-t score model with ``dof`` degrees of freedom.

    The scale matrix is ``scale * C / n``; ``dof = n - p`` and
    ``scale = sigma2_hat`` give the posterior-matching model.
    """

    dof: float
    scale: float


@dataclass(frozen=True, eq=False)
class EmpiricalElliptical:
    """Elliptically symmetric score model fit as a radial histogram.

    The density of the whitened score depends only on its Euclidean norm:
    piecewise constant over ``edges`` shells with occupancy ``counts``, and
    log-linear (slope ``tail_slope``, intercept ``tail_intercept``) beyond
    the last edge.  ``log_norm`` normalizes the whole thing over R^dim.
    ``residual_pool`` holds centered residuals for bootstrap noise draws.
    """

    edges: np.ndarray
    counts: np.ndarray
    tail_slope: float
    tail_intercept: float
    dim: int
    log_norm: float
    residual_pool: np.ndarray | None = None


ErrorModel = Gaussian | StudentT | EmpiricalElliptical


def log_unit_ball_volume(dim: int) -> float:
    """log volume of the unit ball in R^dim."""
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)


def _log_upper_gamma_q(dim: int, x: float) -> float:
    """log Q(dim, x), the regularized upper incomplete gamma at integer ``dim``.

    Q(dim, x) = e^{-x} sum_{k<dim} x^k / k!, summed in log space with a
    max-shift, so the result stays finite where Q itself underflows.
    """
    log_terms = np.concatenate(([0.0], np.cumsum(np.log(x / np.arange(1.0, dim)))))
    top = float(log_terms.max())
    return -x + top + math.log(float(np.sum(np.exp(log_terms - top))))


def radial_log_norm(
    edges: np.ndarray, counts: np.ndarray, dim: int, tail_slope: float, tail_intercept: float
) -> float:
    """Log normalizing constant of the piecewise radial density in R^dim."""
    log_cp = log_unit_ball_volume(dim)
    interior = log_cp + math.log(float(np.sum(counts)))
    if not math.isfinite(tail_slope) or tail_slope >= 0:
        if tail_slope >= 0:
            raise NumericalError("radial tail slope must be negative for integrability")
        return interior
    h_last = float(edges[-1])
    tail = (
        tail_intercept
        + math.log(dim)
        + log_cp
        + math.lgamma(dim)
        + _log_upper_gamma_q(dim, -tail_slope * h_last)
        - dim * math.log(-tail_slope)
    )
    return float(np.logaddexp(interior, tail))


def radial_log_pdf(model: EmpiricalElliptical, radius: float) -> float:
    """Normalized log density (in R^dim) at whitened radius ``radius``."""
    edges = model.edges
    h_last = float(edges[-1])
    if radius >= h_last:
        if not math.isfinite(model.tail_slope):
            return -math.inf
        return model.tail_intercept + model.tail_slope * radius - model.log_norm
    m = int(np.searchsorted(edges, radius, side="right")) - 1
    m = max(m, 0)
    count = float(model.counts[m])
    if count <= 0:
        return -math.inf
    dim = model.dim
    lo, hi = float(edges[m]), float(edges[m + 1])
    log_width = dim * math.log(hi)
    if lo > 0.0:
        log_width += math.log1p(-((lo / hi) ** dim))
    return math.log(count) - log_width - model.log_norm


def qform_log_density(
    model: ErrorModel, dim: int, log_det: float, n: int
) -> Callable[[float], float]:
    """Log density of a ``dim``-dimensional score with scale matrix S/n, as a function of q.

    All three error models are elliptical in the whitened score, so the
    Mahalanobis form q = u'S^{-1}u is a sufficient argument.  ``log_det`` is
    log det S; the whitening contributes ``-log_det / 2``.  The model is
    validated and every term that does not involve q is computed here, once;
    the returned function only adds the q term.
    """
    if isinstance(model, Gaussian):
        check_positive("Gaussian variance sigma2", model.sigma2)
        sigma2 = model.sigma2
        const = float(-0.5 * dim * math.log(2.0 * math.pi * sigma2 / n) - 0.5 * log_det)
        half_n = 0.5 * n
        return lambda q: const - half_n * q / sigma2
    if isinstance(model, StudentT):
        check_positive("StudentT dof", model.dof)
        check_positive("StudentT scale", model.scale)
        nu = float(model.dof)
        scale = model.scale
        log_det_scale = dim * math.log(scale / n) + log_det
        const = float(
            math.lgamma(0.5 * (nu + dim))
            - math.lgamma(0.5 * nu)
            - 0.5 * dim * math.log(nu * math.pi)
            - 0.5 * log_det_scale
        )
        half_nu_dim = 0.5 * (nu + dim)
        return lambda q: const - half_nu_dim * math.log1p(n * q / scale / nu)
    if isinstance(model, EmpiricalElliptical):
        if model.dim != dim:
            raise ConfigError(
                f"elliptical model dimension {model.dim} does not match the score dimension {dim}"
            )
        half_log_det = 0.5 * log_det
        return lambda q: radial_log_pdf(model, math.sqrt(max(q, 0.0))) - half_log_det
    raise ConfigError(f"unknown error model {type(model).__name__}")


def scores(
    thetas: np.ndarray,
    active: np.ndarray,
    beta: np.ndarray,
    spec: ProblemSpec,
) -> np.ndarray:
    """Score vectors ``C (beta_hat - beta) + lam * w * S`` of states.

    ``thetas`` (mixed coordinates) and ``active`` (mask) describe one state,
    shape (p,), or a block of states, shape (L, p); the result has the same
    shape.
    """
    coef, subgrad = _score_parts(thetas, active, beta, spec)
    return coef + spec.lam * spec.weights * subgrad


def _score_parts(
    thetas: np.ndarray, active: np.ndarray, beta: np.ndarray, spec: ProblemSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The penalty-free parts ``C (beta_hat - beta)`` and ``S`` of :func:`scores`."""
    beta = check_vector("beta", beta, spec.p)
    thetas = np.asarray(thetas, dtype=float)
    beta_hat = np.where(active, thetas, 0.0)
    subgrad = np.where(active, np.sign(thetas), thetas)
    return (spec.gram @ (beta_hat - beta).T).T, subgrad


def score_qform(
    u: np.ndarray, spec: ProblemSpec, basis: SpectralBasis | None = None
) -> np.ndarray:
    """Mahalanobis form of score vectors, one value per row of ``u``.

    Without ``basis`` this is ``u'C^{-1}u`` (p <= n).  With the spectral
    basis of a p > n design it is ``sum((V'u)^2 / ell)`` over the n
    row-space eigenpairs (V, ell), the form of the row-space density.
    """
    u = np.asarray(u, dtype=float)
    if basis is None:
        return np.sum(u * spec.gram_solve(u.T).T, axis=-1)
    return np.sum((u @ basis.row_basis) ** 2 / basis.eigenvalues, axis=-1)


def _assemble_jacobian(A: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """The p x p matrix sending (b_A, s_I) to the score: (C_A | lam W_I)."""
    mask = _active_mask(A, spec.p)
    k = np.count_nonzero(mask)
    D = np.zeros((spec.p, spec.p))
    D[:, :k] = spec.gram[:, mask]
    D[~mask, np.arange(k, spec.p)] = spec.lam * spec.weights[~mask]
    return D


def gaussian_moments(
    A: np.ndarray,
    s_active: np.ndarray,
    beta: np.ndarray,
    sigma2: float,
    spec: ProblemSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of (b_A, s_I) under the Gaussian score model.

    Coordinates are ordered active block first (ascending index, the
    order of ``s_active``), then inactive block.  Requires a nonsingular
    active Gram block, which a p > n design allows for |A| <= n; the
    covariance is then singular.
    """
    mask = _active_mask(A, spec.p)
    s_active = check_vector("s_active", s_active, np.count_nonzero(mask))
    beta = check_vector("beta", beta, spec.p)
    D = _assemble_jacobian(mask, spec)
    rhs = spec.gram @ beta
    rhs[mask] -= spec.lam * spec.weights[mask] * s_active
    try:
        Dinv = np.linalg.inv(D)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("state-to-score Jacobian is singular") from exc
    mu = Dinv @ rhs
    cov = (sigma2 / spec.n) * (Dinv @ spec.gram @ Dinv.T)
    cov = (cov + cov.T) / 2.0
    return mu, cov


def log_density(
    theta: np.ndarray,
    active: np.ndarray,
    beta: np.ndarray,
    model: ErrorModel,
    spec: ProblemSpec,
) -> float:
    """Log joint density of the augmented estimator for p <= n.

    The density is the score density evaluated at the mapped state times
    the absolute Jacobian determinant of the map.
    """
    validate_state(theta, active, spec.p)
    qform = float(score_qform(scores(theta, active, beta, spec), spec))
    log_f = qform_log_density(model, spec.p, spec.log_det_gram, spec.n)
    return log_f(qform) + log_det_jacobian(active, spec)


def inactive_null_basis(
    I: np.ndarray, basis: SpectralBasis, spec: ProblemSpec
) -> np.ndarray:
    """Orthonormal basis of the inactive-subgradient directions kept by the constraint.

    Returns a |I| x (n - |A|) matrix B with V_IN' W_II B = 0.
    """
    inactive = _active_mask(I, spec.p, "inactive")
    n_active = spec.p - np.count_nonzero(inactive)
    target_dim = spec.n - n_active
    if target_dim < 0:
        raise ConfigError("active set larger than n has no constrained density")
    M = basis.null_basis[inactive, :].T * spec.weights[inactive]
    _, sv, vh = np.linalg.svd(M)
    # scipy.linalg.null_space's rank rule: singular values above max(M, N) eps s_max.
    rank = int(np.sum(sv > max(M.shape) * np.finfo(float).eps * np.max(sv, initial=0.0)))
    B = vh[rank:].T
    if B.shape != (spec.p - n_active, target_dim):
        raise NumericalError(
            "null-space dimension mismatch: design violates the "
            "every-n-columns-independent assumption"
        )
    return B


def rowspace_residual(
    theta: np.ndarray, active: np.ndarray, basis: SpectralBasis, spec: ProblemSpec
) -> float:
    """Max-norm violation of the row-space constraint on the subgradient."""
    validate_state(theta, active, spec.p)
    subgrad = np.where(active, np.sign(theta), theta)
    v = basis.null_basis.T @ (spec.weights * subgrad)
    return float(np.max(np.abs(v), initial=0.0))


def log_det_rowspace_jacobian(
    A: np.ndarray,
    spec: ProblemSpec,
    basis: SpectralBasis,
    null_span: np.ndarray | None = None,
) -> float:
    """Log |det| of the n x n Jacobian of the row-space coordinate map.

    ``null_span`` overrides the internally computed orthonormal basis of
    the constrained inactive directions; any orthonormal basis of the same
    subspace gives the same value.
    """
    mask = _active_mask(A, spec.p)
    inactive, k = ~mask, np.count_nonzero(mask)
    B = inactive_null_basis(inactive, basis, spec) if null_span is None else null_span
    if B.shape != (spec.p - k, spec.n - k):
        raise ConfigError("null_span has the wrong shape for this active set")
    T = np.empty((spec.n, spec.n))
    T[:, :k] = basis.row_basis.T @ spec.gram[:, mask]
    T[:, k:] = spec.lam * ((basis.row_basis[inactive, :].T * spec.weights[inactive]) @ B)
    sign, logdet = np.linalg.slogdet(T)
    if sign == 0 or not np.isfinite(logdet):
        raise NumericalError("row-space Jacobian is singular")
    return float(logdet)


def log_density_rowspace(
    theta: np.ndarray,
    active: np.ndarray,
    beta: np.ndarray,
    model: ErrorModel,
    spec: ProblemSpec,
    basis: SpectralBasis,
    null_span: np.ndarray | None = None,
) -> float:
    """Log joint density in row-space coordinates for p > n.

    The state must satisfy the subgradient constraint to within ``C_TOL``.
    Supported error models: Gaussian, or an elliptical radial model of
    dimension n describing the whitened row-space score.  ``null_span``
    passes through to the Jacobian computation.
    """
    if spec.p <= spec.n:
        raise ConfigError("row-space density applies only to p > n designs")
    resid = rowspace_residual(theta, active, basis, spec)  # validates the state
    if resid > C_TOL:
        raise DataError(
            f"subgradient violates the row-space constraint ({resid:.3e} > {C_TOL:g})"
        )
    if isinstance(model, StudentT):
        raise ConfigError("StudentT error model is not supported on the p > n path")
    qform = float(score_qform(scores(theta, active, beta, spec), spec, basis))
    log_f = qform_log_density(
        model, spec.n, float(np.sum(np.log(basis.eigenvalues))), spec.n
    )(qform)
    return log_f + log_det_rowspace_jacobian(active, spec, basis, null_span=null_span)


def sample_errors(
    model: ErrorModel, n: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` noise vectors of length n from the error model."""
    if isinstance(model, Gaussian):
        check_positive("Gaussian variance sigma2", model.sigma2, zero_ok=True)
        return math.sqrt(model.sigma2) * rng.standard_normal((size, n))
    if isinstance(model, StudentT):
        check_positive("StudentT dof", model.dof)
        check_positive("StudentT scale", model.scale)
        z = rng.standard_normal((size, n))
        g = rng.chisquare(model.dof, size=size) / model.dof
        return math.sqrt(model.scale) * z / np.sqrt(g)[:, None]
    if isinstance(model, EmpiricalElliptical):
        if model.residual_pool is None:
            raise ConfigError(
                "elliptical model has no stored residual pool to resample from"
            )
        return rng.choice(model.residual_pool, size=(size, n), replace=True)
    raise ConfigError(f"unknown error model {type(model).__name__}")
