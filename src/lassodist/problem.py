"""Regression problem context: Gram matrix, spectral bases, Jacobian determinants.

Everything downstream (solver, densities, samplers) works against the
objects defined here.  ``ProblemSpec`` is immutable and cheap to share
between chains; :func:`log_det_jacobian` is the one log-determinant of
the state-to-score map, used by the densities and by every MH move.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, NumericalError, check_positive

__all__ = [
    "ProblemSpec",
    "SpectralBasis",
    "build_problem",
    "spectral_decompose",
    "log_det_jacobian",
    "synthetic_dataset",
]


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Fixed design context for a weighted lasso problem.

    Attributes
    ----------
    X : ndarray of shape (n, p)
        Design matrix.
    weights : ndarray of shape (p,)
        Positive penalty weights (diagonal of the weight matrix).
    lam : float
        Penalty level, strictly positive.
    gram : ndarray of shape (p, p)
        Scaled Gram matrix ``X.T @ X / n``, symmetrized.
    rank_deficient : bool
        True when the numerical rank of ``X`` is below ``min(n, p)``.
    """

    X: np.ndarray
    weights: np.ndarray
    lam: float
    gram: np.ndarray
    rank_deficient: bool = False

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def gram_cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the Gram matrix (requires p <= n and a full-rank design)."""
        if self.rank_deficient:
            raise NumericalError("Gram matrix is not positive definite: rank-deficient design")
        try:
            return np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("Gram matrix is not positive definite") from exc

    @cached_property
    def gram_inv(self) -> np.ndarray:
        """Inverse Gram matrix, from one ``gram_solve`` of the identity.

        On a Gram that Cholesky accepts but that is singular to working
        precision, rounding can leave a diagonal entry of the inverse
        non-positive; that raises NumericalError, as a failed Cholesky does.
        """
        inv = self.gram_solve(np.eye(self.p))
        inv = (inv + inv.T) / 2.0
        if not np.all(np.diag(inv) > 0.0):
            raise NumericalError(
                "Gram matrix is numerically singular: its inverse has a non-positive diagonal"
            )
        return inv

    @cached_property
    def log_det_gram(self) -> float:
        return float(2.0 * np.sum(np.log(np.diag(self.gram_cholesky))))

    @cached_property
    def log_weights(self) -> np.ndarray:
        """``log w``, which every :func:`log_det_jacobian` call gathers from."""
        return np.log(self.weights)

    @cached_property
    def log_lam(self) -> float:
        return float(np.log(self.lam))

    def gram_solve(self, u: np.ndarray) -> np.ndarray:
        """Solve ``gram @ x = u`` (vector or stacked columns) by one O(p^3) LU.

        Callers run it O(1) times per run: ``gram_inv``, ``score_qform``, the posterior fit.
        """
        self.gram_cholesky  # noqa: B018 - fail fast if the Gram is not PD
        return np.linalg.solve(self.gram, u)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Row-space/null-space eigenstructure of the Gram matrix when p > n.

    ``eigenvalues`` holds the n positive eigenvalues in descending order,
    ``row_basis`` the matching orthonormal eigenvectors (p x n), and
    ``null_basis`` an orthonormal basis of the null space (p x (p - n)).
    """

    eigenvalues: np.ndarray
    row_basis: np.ndarray
    null_basis: np.ndarray


def build_problem(X: np.ndarray, w: np.ndarray | float, lam: float) -> ProblemSpec:
    """Validate inputs and assemble the immutable problem context.

    Parameters
    ----------
    X : array_like of shape (n, p)
        Design matrix.
    w : array_like of shape (p,) or scalar
        Positive penalty weights; a scalar is broadcast to all coordinates.
    lam : float
        Penalty level, strictly positive.

    Raises
    ------
    DataError
        If ``X`` is not a finite 2-D array or shapes disagree.
    ConfigError
        If any weight or ``lam`` is not strictly positive.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"design matrix must be 2-D and nonempty, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("design matrix contains non-finite entries")
    n, p = X.shape

    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        w = np.full(p, float(w))
    if w.shape != (p,):
        raise DataError(f"weights must have shape ({p},), got {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ConfigError("all penalty weights must be finite and positive")

    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0:
        raise ConfigError(f"penalty level must be finite and positive, got {lam}")

    gram = X.T @ X / n
    gram = (gram + gram.T) / 2.0

    rank = int(np.linalg.matrix_rank(X))
    rank_deficient = rank < min(n, p)
    if rank_deficient:
        warnings.warn(
            "design matrix is numerically rank-deficient; "
            "uniqueness of the lasso solution is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )

    return ProblemSpec(X=X, weights=w, lam=lam, gram=gram, rank_deficient=rank_deficient)


def eigen_cut(spec: ProblemSpec, eigenvalues: np.ndarray) -> float:
    """Numerical-rank threshold separating row-space from null eigenvalues."""
    return max(spec.n, spec.p) * np.finfo(float).eps * float(np.max(eigenvalues))


def spectral_decompose(spec: ProblemSpec) -> SpectralBasis:
    """Split the Gram eigenstructure into row space and null space (p > n).

    Raises
    ------
    ConfigError
        If p <= n (the low-dimensional path has no use for this object).
    NumericalError
        If the number of eigenvalues above the rank threshold is not
        exactly n, i.e. the design is rank-deficient.
    """
    if spec.p <= spec.n:
        raise ConfigError("spectral basis is only defined for p > n designs")
    vals, vecs = np.linalg.eigh(spec.gram)
    cut = eigen_cut(spec, vals)
    above = vals > cut
    if int(above.sum()) != spec.n:
        raise NumericalError(
            f"expected {spec.n} eigenvalues above the rank threshold, "
            f"found {int(above.sum())}; design appears rank-deficient"
        )
    order = np.argsort(vals[above])[::-1]
    row_vals = vals[above][order]
    row_basis = vecs[:, above][:, order]
    null_basis = vecs[:, ~above]
    return SpectralBasis(eigenvalues=row_vals, row_basis=row_basis, null_basis=null_basis)


def _active_mask(A: np.ndarray, p: int) -> np.ndarray:
    """Boolean (p,) mask of an active set given by its indices or by such a mask."""
    A = np.asarray(A)
    if A.dtype == bool:
        if A.shape != (p,):
            raise ConfigError(f"an active-set mask must have shape ({p},), got {A.shape}")
        return A
    idx = A.astype(int).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= p):
        raise ConfigError(f"active-set indices must lie in [0, {p})")
    mask = np.zeros(p, dtype=bool)
    mask[idx] = True
    if np.count_nonzero(mask) != idx.size:
        raise ConfigError("active-set indices must be distinct")
    return mask


def log_det_jacobian(A: np.ndarray, spec: ProblemSpec) -> float:
    """Log absolute determinant of the state-to-score Jacobian for active set A.

    Equals ``log det C_AA + |I| log(lam) + sum_{j notin A} log w_j`` where I
    is the inactive set.  ``A`` holds the active indices or is the (p,)
    bool mask of a state; a mask skips the index checks, which is what the
    MH chains pass.  One factorisation of the active Gram block, so a
    one-coordinate move's determinant ratio is the difference of two calls.

    Raises
    ------
    NumericalError
        If the active Gram block is singular.
    """
    mask = _active_mask(A, spec.p)
    block = spec.gram.compress(mask, axis=0).compress(mask, axis=1)
    logdet = 0.0
    if block.size:
        sign, logdet = np.linalg.slogdet(block)
        if sign <= 0 or not math.isfinite(logdet):
            raise NumericalError("active Gram block is singular")
    k = block.shape[0]
    return float(logdet + (spec.p - k) * spec.log_lam + spec.log_weights[~mask].sum())


def synthetic_dataset(
    n: int,
    p: int,
    rho: float = 0.25,
    sigma2: float = 1.0,
    signal: int | None = None,
    amplitude: float = 1.0,
    seed=0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equicorrelated Gaussian design with a sparse two-sign coefficient vector.

    Rows of X are N(0, S) with unit diagonal and constant off-diagonal
    ``rho``.  The first ``signal`` coordinates of the truth carry
    ``+amplitude`` (first half) and ``-amplitude`` (second half); the rest
    are zero.  Returns (X, y, beta0) with y = X beta0 + noise.
    """
    from .rng import generator

    if n < 1 or p < 1:
        raise ConfigError("n and p must be positive")
    if not -1.0 / max(p - 1, 1) < rho < 1.0:
        raise ConfigError("rho outside the positive-definite range")
    check_positive("noise variance sigma2", sigma2, zero_ok=True)
    if signal is None:
        signal = min(10, p)
    if not 0 <= signal <= p:
        raise ConfigError(f"signal size must be in [0, {p}]")

    rng = generator(seed)
    z = rng.standard_normal((n, p))
    if rho >= 0:
        shared = rng.standard_normal((n, 1))
        X = np.sqrt(1.0 - rho) * z + np.sqrt(rho) * shared
    else:
        cov = (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
        X = z @ np.linalg.cholesky(cov).T
    beta0 = np.zeros(p)
    head = (signal + 1) // 2
    beta0[:head] = amplitude
    beta0[head:signal] = -amplitude
    y = X @ beta0 + np.sqrt(sigma2) * rng.standard_normal(n)
    return X, y, beta0
