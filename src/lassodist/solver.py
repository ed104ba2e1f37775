"""Weighted lasso solver: coordinate descent, exact support solves, KKT stopping.

The solver works on the Gram scale: it needs only ``C = X'X/n`` and the
correlation vectors ``X'y/n``, which lets the same core serve the data-space
problem, the posterior decision draw, and recentred objectives.  One
response and a block of responses (one row per draw) go through the same
coordinate descent, vectorised over the rows: a coordinate step
soft-thresholds one product of the coordinate's scaled Gram row with the
stacked iterates and targets.  Coordinate descent finds each row's
support and signs; after every pass from the second on, one batched
linear solve on blocks taken with one gather gives each row the exact
minimizer on them, and each row steps toward it as far as its signs
allow, if that does not raise its objective.  The KKT check alone
decides when a row retires.  The working arrays hold one column per row
in C order, which ``compress`` keeps, so a coordinate's row is contiguous.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, DataError, NumericalError
from .problem import ProblemSpec

__all__ = [
    "LassoSolution",
    "solve_lasso",
    "solve_lasso_gram",
    "lambda_max",
    "lambda_grid",
]

KKT_TOL = 1e-8
S_TOL = 1e-6
MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class LassoSolution:
    """Minimizer of the penalized loss together with its subgradient.

    ``subgrad`` equals the sign of ``beta_hat`` on the active set (the
    boolean mask ``active``) and lies in [-1, 1] elsewhere;
    ``kkt_residual`` is the max-norm defect of the stationarity condition.
    For a block of responses each array has one row per response and
    ``kkt_residual`` is the largest over the rows.
    """

    beta_hat: np.ndarray
    subgrad: np.ndarray
    active: np.ndarray
    kkt_residual: float


def solve_lasso_gram(
    gram: np.ndarray,
    xty: np.ndarray,
    weights: np.ndarray,
    lam: float,
    kkt_tol: float = KKT_TOL,
    max_iter: int = MAX_ITER,
) -> tuple[np.ndarray, float]:
    """Minimize ``beta'C beta/2 - xty'beta + lam * sum(w |beta|)``.

    ``xty`` is one correlation vector (p,) or a block of them (L, p), and
    each row is solved independently.  Cyclic coordinate descent visits
    the coordinates in ascending order, which resolves boundary ties
    deterministically, and updates every unconverged row at once: the
    step on coordinate j soft-thresholds ``(xty_j - C_j b) / C_jj``, with
    the diagonal entry left out of ``C_j``, which one product with the
    stacked ``[b; xty]`` gives for every row.  A
    coordinate that is zero and satisfies its KKT condition in every
    unconverged row sits out the pass.

    Coordinate descent only has to find the support A and signs s: after
    each pass but the first and the last, one batched solve of
    ``C_AA b_A = xty_A - lam W_A s_A`` gives every unconverged row the
    exact minimizer on its current A and s (Osborne, Presnell and Turlach,
    2000).  Each row then steps from its iterate toward that minimizer
    until a coordinate reaches zero, which it sets to exactly zero, and
    only if its objective does not rise (``_orthant_step``); a row whose
    signs hold takes the minimizer whole.  An exactly singular block
    (duplicate columns) makes the batched solve fail; that pass then
    solves the nonsingular blocks in one batch again, and a row whose own
    block is singular keeps its iterate.  The KKT residual of every row is
    recomputed after each pass, and rows within tolerance retire: the KKT
    check is the only stopping rule.

    The tolerance on coordinate j is ``min(kkt_tol, S_TOL * lam * w_j / 2)``:
    at small penalties the KKT residual alone would leave the subgradient
    read off the solution further than ``S_TOL`` from its snapped value.
    It is never below 16 rounding units of ``max |xty|``, about where
    rounding in the gradient stalls coordinate descent; at penalties that
    small the snap fails instead.

    Returns the minimizers (shaped like ``xty``) and the largest KKT
    residual.

    Raises
    ------
    DataError
        If ``gram`` is not square, does not match the last axis of ``xty``
        or the shape of ``weights``, or if ``gram`` or ``xty`` has a
        non-finite entry (the message names the first such row of ``xty``).
    ConfigError
        If ``lam`` or a weight is not finite and positive.
    ConvergenceError
        After ``max_iter`` passes with rows above tolerance; the error
        carries the iterate, the indices of those rows and their residuals.
    """
    gram = np.ascontiguousarray(gram, dtype=float)
    xty = np.asarray(xty, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.shape[0] < 1:
        raise DataError(f"Gram matrix must be square and nonempty, got shape {gram.shape}")
    p = gram.shape[0]
    if xty.ndim not in (1, 2) or xty.shape[-1] != p:
        raise DataError(f"correlations must have shape ({p},) or (L, {p}), got {xty.shape}")
    if weights.shape != (p,):
        raise DataError(f"weights must have shape ({p},), got {weights.shape}")
    if not np.all(np.isfinite(gram)):
        raise DataError("Gram matrix contains non-finite entries")
    top = np.abs(xty).max(initial=0.0)
    if not np.isfinite(top):
        bad = int(np.argmin(np.isfinite(xty.reshape(-1, p)).all(axis=1)))
        raise DataError(f"correlation row {bad} contains non-finite entries")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ConfigError("all penalty weights must be finite and positive")
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0:
        raise ConfigError(f"penalty level must be finite and positive, got {lam}")

    lam_w = lam * weights[:, None]
    floor = 16 * np.finfo(float).eps * top
    tol = np.minimum(kkt_tol, np.maximum(0.5 * S_TOL * lam_w, floor))
    diag = gram.diagonal()
    inv_diag = np.divide(1.0, diag, out=np.zeros(p), where=diag > 0)
    # Row j maps the stacked [B; xty] to coordinate j's partial residual over
    # C_jj: -C_jk / C_jj for k != j, then 1 / C_jj at xty_j.
    step_rows = np.hstack([(np.diag(diag) - gram) * inv_diag[:, None], np.diag(inv_diag)])
    thresh = (lam_w[:, 0] * inv_diag).tolist()

    def kkt_defect(B, grad):
        # Per-coordinate KKT defect of every column of B.
        dev = np.abs(grad - lam_w * np.sign(B))
        return np.where(B != 0, dev, np.maximum(dev - lam_w, 0.0))

    # One column per unconverged row, in C order, which ``compress`` keeps;
    # boolean column indexing would make every row access strided.
    target = xty.reshape(-1, p).T
    stack = np.concatenate([np.zeros_like(target), target])
    B, target = stack[:p], stack[p:]
    out = np.zeros((target.shape[1], p))
    res = np.zeros(len(out))
    rows = np.arange(len(out))
    grad = target
    passes = 0
    while True:
        defect = kkt_defect(B, grad)
        done = (defect <= tol).all(axis=0)
        if done.any():
            out[rows[done]] = B[:, done].T
            res[rows[done]] = defect[:, done].max(axis=0)
            keep = ~done
            rows = rows[keep]
            stack, grad, defect = (a.compress(keep, axis=1) for a in (stack, grad, defect))
            B, target = stack[:p], stack[p:]
        if rows.size == 0:
            return out.reshape(xty.shape), float(res.max(initial=0.0))
        if passes == max_iter:
            break
        live = ((B != 0) | (defect > 0)).any(axis=1)
        for j in np.flatnonzero(live).tolist():
            rho = step_rows[j] @ stack
            B[j] = rho - np.minimum(np.maximum(rho, -thresh[j]), thresh[j])
        passes += 1
        grad = target - gram @ B
        if passes == 1 or passes == max_iter:
            # No support solve after the first pass (its support is too rough
            # to retire many rows) nor after the last, whose rows a capped
            # solve reports as coordinate descent left them.
            continue
        # Each row steps toward the exact minimizer on its support and signs
        # as far as those signs allow, in place in ``stack``; a row that
        # reaches it and passes the KKT check retires at the top of the loop.
        cand = _support_solve(gram, target, lam_w, B)
        B[:], grad = _orthant_step(B, grad, cand, target - gram @ cand, lam_w)

    out[rows] = B.T
    stuck = defect.max(axis=0)
    worst = float(stuck.max())
    raise ConvergenceError(
        f"coordinate descent left {rows.size} of {len(out)} rows above tolerance "
        f"{kkt_tol:g} after {max_iter} passes (worst residual {worst:.3e}, "
        f"rows {rows[:10].tolist()}{' ...' if rows.size > 10 else ''})",
        beta=out.reshape(xty.shape),
        residual=worst,
        draws=rows,
        residuals=stuck,
    )


def _support_solve(
    gram: np.ndarray, target: np.ndarray, lam_w: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """Exact minimizer of every column of ``B`` on its support A and signs s.

    Solves ``C_AA b_A = c_A - lam W_A s_A`` for all columns in one batched
    call: each support is gathered into a (L, k, k) block padded with the
    identity up to the largest |A|.  A column whose block is singular gets
    NaN on its support, which no step takes.

    Column i's index row holds its support in ascending order, then the
    distinct indices p + |A_i| .. p + k - 1 of a k x k identity bordering
    C, so the block and the right-hand side each come from one gather.
    """
    active = B != 0
    count = active.sum(axis=0)
    k = int(count.max(initial=0))
    cand = np.zeros_like(B)
    if k == 0:
        return cand
    p, L = B.shape
    col, coord = np.nonzero(active.T)
    pos = np.arange(col.size) - (np.cumsum(count) - count)[col]
    idx = np.tile(np.arange(p, p + k), (L, 1))
    idx[col, pos] = coord
    bordered = np.zeros((p + k, p + k))
    bordered[:p, :p] = gram
    bordered[p:, p:] = np.eye(k)
    block = bordered[idx[:, :, None], idx[:, None, :]]
    side = np.concatenate([target - lam_w * np.sign(B), np.zeros((k, L))])
    rhs = side[idx, np.arange(L)[:, None]]
    try:
        sol = np.linalg.solve(block, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # slogdet's LU meets an exactly zero pivot where solve's does.
        sol = np.full_like(rhs, np.nan)
        ok = np.linalg.slogdet(block)[0] != 0
        sol[ok] = np.linalg.solve(block[ok], rhs[ok, :, None])[:, :, 0]
    cand.T[col, coord] = sol[col, pos]
    return cand


def _orthant_step(
    B: np.ndarray,
    grad: np.ndarray,
    cand: np.ndarray,
    cand_grad: np.ndarray,
    lam_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Line search from each column of ``B`` toward its support-solve candidate.

    The feature-sign step of Lee, Battle, Raina and Ng (NIPS 2007): the
    step b + t (cand - b) runs to t = 1 unless a coordinate reaches zero
    first, at t = b_j / (b_j - cand_j); that coordinate is then set to
    exactly zero.  Up to there |b| is linear, so with d = cand - b the
    objective changes by ``t * slope + t**2 * curv / 2``, where ``slope`` is
    its derivative along d and ``curv = d'C d``.  ``C d = grad - cand_grad``
    comes from the gradients ``c - C b`` already formed, and the new
    gradient interpolates them, so no product with C is needed.

    A column steps only if its objective does not rise: on a nearly
    singular block the computed candidate need not be the minimizer on its
    face, and a NaN candidate never steps.  On a singular block (|A| > n
    when p > n) the face has no minimizer, and the candidate is a huge
    multiple of a null vector whose sign is rounding noise; when it lies
    uphill (slope > 0) the step runs the other way, through the iterate.
    Returns the new iterate and its gradient.
    """
    d = cand - B
    slope = ((lam_w * np.sign(B) - grad) * d).sum(axis=0)
    curv = (d * (grad - cand_grad)).sum(axis=0)
    way = np.where(slope > 0, -1.0, 1.0)
    down = way * d
    cross = B * down < 0
    frac = np.divide(B, -down, out=np.ones_like(B), where=cross)
    t = np.minimum(frac.min(axis=0), 1.0)
    take = way * slope + 0.5 * t * curv <= 0
    # (1 - t) b + t cand is exactly cand at t = 1, as the retiring check needs.
    wt = way * t
    keep = 1 - wt
    step = np.where(cross & (frac <= t), 0.0, keep * B + wt * cand)
    return (
        np.where(take, step, B),
        np.where(take, keep * grad + wt * cand_grad, grad),
    )


def _snap_subgradient(beta: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Pin active coordinates to exact signs and clip the rest into [-1, 1]."""
    nz = beta != 0
    sign = np.sign(beta)
    if np.any(np.abs(raw - sign)[nz] > S_TOL):
        raise DataError("subgradient disagrees with coefficient signs; not a minimizer")
    if np.any(np.abs(raw)[~nz] > 1.0 + S_TOL):
        raise DataError("inactive subgradient exceeds 1; not a minimizer")
    return np.where(nz, sign, np.clip(raw, -1.0, 1.0))


def solve_lasso(
    spec: ProblemSpec,
    y: np.ndarray,
    kkt_tol: float = KKT_TOL,
    max_iter: int = MAX_ITER,
) -> LassoSolution:
    """Solve the weighted lasso for data ``y`` and extract (beta_hat, S).

    ``y`` is one response (n,) or a block of responses (L, n).

    Raises
    ------
    NumericalError
        If the subgradient read off the solution cannot be snapped, which
        happens when the penalty is too small for double precision.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != spec.n:
        raise DataError(f"response must have shape ({spec.n},) or (L, {spec.n}), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise DataError("response contains non-finite entries")
    xty = y @ spec.X / spec.n
    beta, res = solve_lasso_gram(
        spec.gram, xty, spec.weights, spec.lam, kkt_tol=kkt_tol, max_iter=max_iter
    )
    raw = (xty - beta @ spec.gram) / (spec.lam * spec.weights)
    try:
        subgrad = _snap_subgradient(beta, raw)
    except DataError as exc:
        raise NumericalError(
            f"penalty {spec.lam:g} is too small to resolve the subgradient "
            f"in double precision ({exc})"
        ) from exc
    return LassoSolution(beta_hat=beta, subgrad=subgrad, active=beta != 0, kkt_residual=res)


def lambda_max(spec: ProblemSpec, y: np.ndarray) -> float | np.ndarray:
    """Smallest penalty level at which the lasso solution is identically zero.

    ``y`` is one response (n,) or a block of responses (L, n); a block
    gives one level per row.
    """
    y = np.asarray(y, dtype=float)
    top = np.max(np.abs(spec.X.T @ y.T).T / (spec.n * spec.weights), axis=-1, initial=0.0)
    return float(top) if y.ndim == 1 else top


def lambda_grid(
    spec: ProblemSpec, y: np.ndarray, num: int = 50, min_frac: float = 0.01
) -> np.ndarray:
    """Log-spaced penalty grid from ``lambda_max`` down to a fraction of it."""
    if num < 1:
        raise ConfigError("grid needs at least one point")
    if not 0.0 < min_frac <= 1.0:
        raise ConfigError("min_frac must lie in (0, 1]")
    top = lambda_max(spec, y)
    if top <= 0:
        raise NumericalError("lambda_max is zero; no meaningful penalty grid")
    if num == 1:
        return np.array([top])
    return np.geomspace(top, min_frac * top, num)
