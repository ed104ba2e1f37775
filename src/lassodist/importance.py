"""Importance sampling for tail probabilities of coefficient statistics.

Draws come from a trial distribution with inflated noise variance and a
retuned penalty; each draw is reweighted by the exact ratio of augmented
densities, so p-values far below Monte Carlo reach (1e-10 and beyond)
remain estimable with a few thousand draws.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .density import Gaussian, _score_parts, score_qform
from .errors import ConfigError, DataError, NumericalError, check_positive, check_vector
from .problem import ProblemSpec, SpectralBasis, spectral_decompose
from .rng import Seed, generator, seed_sequence
from .samplers import Chain, direct_sample
from .solver import lambda_max

__all__ = [
    "TrialSpec",
    "ISResult",
    "tune_trial",
    "chain_log_weights",
    "multi_test",
    "sample_trial",
    "pool_results",
    "pvalue_study",
    "multi_pvalue_study",
    "coefficient_statistic",
    "DEGENERACY_FRACTION",
]

DEGENERACY_FRACTION = 0.001


@dataclass(frozen=True, eq=False)
class TrialSpec:
    """Trial-distribution parameters: inflated variance and retuned penalty."""

    sigma2_dagger: float
    lambda_dagger: float
    m_dagger: float = 5.0
    l_pilot: int = 100


@dataclass(eq=False)
class ISResult:
    """Importance-sampling estimate with its weight diagnostics.

    ``cv`` is populated only by replicate studies; ``degenerate`` flags
    effective sample sizes below ``DEGENERACY_FRACTION`` of L.
    """

    estimate: float
    log_weights: np.ndarray
    cv: float | None
    ess: float
    degenerate: bool = False
    lambda_star: float | None = None
    trial: TrialSpec | None = None


def tune_trial(
    spec: ProblemSpec,
    sigma2_0: float,
    m_dagger: float = 5.0,
    l_pilot: int = 100,
    seed: Seed = 0,
) -> TrialSpec:
    """Pilot-tune the trial distribution.

    The trial variance is ``m_dagger * sigma2_0``.  The trial penalty is
    the first quartile (linear-interpolation convention) of the zero-fit
    penalty thresholds of ``l_pilot`` pure-noise pilot responses, which
    puts the all-zero model near 25% trial probability.
    """
    check_positive("null variance sigma2_0", sigma2_0)
    check_positive("trial variance multiplier m_dagger", m_dagger)
    if l_pilot < 1:
        raise ConfigError("need at least one pilot draw")
    sigma2_dagger = m_dagger * sigma2_0
    pilots = math.sqrt(sigma2_dagger) * generator(seed).standard_normal((l_pilot, spec.n))
    thresholds = lambda_max(spec, pilots)
    lam_dagger = float(np.quantile(thresholds, 0.25))
    if lam_dagger <= 0:
        raise NumericalError("pilot tuning produced a zero trial penalty")
    return TrialSpec(
        sigma2_dagger=sigma2_dagger,
        lambda_dagger=lam_dagger,
        m_dagger=m_dagger,
        l_pilot=l_pilot,
    )


def chain_log_weights(
    chain: Chain,
    spec: ProblemSpec,
    basis: SpectralBasis | None,
    sigma2_0: float,
    lambda_star: float | np.ndarray,
    trial: TrialSpec,
    beta0: np.ndarray,
) -> np.ndarray:
    """Log ratio of target to trial augmented densities at every state of a chain.

    The target has penalty ``lambda_star`` and Gaussian noise ``sigma2_0``;
    the trial has ``trial.lambda_dagger`` and ``trial.sigma2_dagger``.
    With ``basis`` given the ratio is taken between row-space densities
    (p > n); otherwise between full-space densities (p <= n).  Everything
    except the score terms and the penalty power of the Jacobian cancels.
    A scalar ``lambda_star`` gives shape (L,); a vector of T target
    penalties gives shape (T, L).  The score is affine in the penalty, so
    its Gram product is computed once, and its quadratic form once per
    distinct penalty (the trial's included): repeated target penalties
    share one.
    """
    k = chain.active.sum(axis=1)
    if np.any(k > spec.n):
        raise DataError("active set larger than n has zero density in both laws")
    lambda_stars = np.asarray(lambda_star, dtype=float)
    beta0 = check_vector("beta0", beta0, spec.p)
    coef, subgrad = _score_parts(chain.thetas, chain.active, beta0, spec)
    qforms: dict[float, np.ndarray] = {}

    def qform(lam: float) -> np.ndarray:
        # The score at penalty lam, formed as density.scores forms it; one
        # quadratic form per distinct penalty.
        if lam not in qforms:
            qforms[lam] = score_qform(coef + lam * spec.weights * subgrad, spec, basis)
        return qforms[lam]

    dim = spec.p if basis is None else spec.n
    n = spec.n
    trial_term = 0.5 * n * qform(trial.lambda_dagger) / trial.sigma2_dagger
    log_weights = [
        trial_term
        - 0.5 * n * qform(lam) / sigma2_0
        + (dim - k) * math.log(lam / trial.lambda_dagger)
        + 0.5 * dim * math.log(trial.sigma2_dagger / sigma2_0)
        for lam in lambda_stars.ravel().tolist()
    ]
    return np.reshape(log_weights, lambda_stars.shape + k.shape)


def _l1(b):
    return np.sum(np.abs(b), axis=-1)


def _linf(b):
    return np.max(np.abs(b), axis=-1, initial=0.0)


def _abs_coord(b, j: int):
    return np.abs(b[..., j])


def coefficient_statistic(name: str, coord: int | None = None, p: int | None = None):
    """Named statistics of the coefficient vector, on one state or a block.

    Each returned function maps a (p,) vector to a scalar and an (L, p)
    block to shape (L,), reducing over the last axis.  ``l1`` and ``linf``
    are the usual norms; ``abs-coord`` is the absolute value of one
    coordinate (requires ``coord``, which must lie in [0, p) when the
    dimension ``p`` is given and be nonnegative in any case).  The
    functions pickle, so they can cross to worker processes.
    """
    if name == "l1":
        return _l1
    if name == "linf":
        return _linf
    if name == "abs-coord":
        if coord is None:
            raise ConfigError("abs-coord statistic needs a coordinate index")
        j = int(coord)
        if j < 0 or (p is not None and j >= p):
            raise ConfigError(f"abs-coord coordinate {j} is outside [0, {p or 'p'})")
        return functools.partial(_abs_coord, j=j)
    raise ConfigError(f"unknown statistic {name!r}; choose l1, linf or abs-coord")


def _statistic_values(chain: Chain, statistic) -> np.ndarray:
    """One call of ``statistic`` on the (L, p) coefficient block of ``chain``."""
    values = np.asarray(statistic(chain.beta_matrix()), dtype=float)
    if values.shape != (len(chain),):
        raise ConfigError(f"statistic must map an (L, p) block to shape (L,); got {values.shape}")
    return values


def _relative_weights(lw: np.ndarray) -> np.ndarray:
    """``exp(lw - max)`` along the last axis; NaN, +inf and all -inf log weights are errors."""
    bad = np.isnan(lw) | np.isposinf(lw)
    if bad.any():
        *target, i = np.argwhere(bad)[0]
        where = f"state {i}" + "".join(f" of target {k}" for k in target)
        raise NumericalError(f"{bad.sum()} nan or +inf log weights; first at {where}")
    top = lw.max(axis=-1, keepdims=True)
    if np.any(np.isneginf(top)):
        raise NumericalError("all importance weights are zero")
    return np.exp(lw - top)


def _tail_estimate(
    values: np.ndarray, t_stars, log_weights: np.ndarray, lambda_stars, trial=None
) -> list[ISResult]:
    """Tail estimates for T targets from statistic values and (T, L) log weights.

    Each row is reduced by ``np.sum`` along its last axis, so a row of a
    block gives bit for bit what it gives alone.  Weights come from
    :func:`_relative_weights`.
    """
    L = len(values)
    lw = np.atleast_2d(np.asarray(log_weights, dtype=float))
    if lw.shape != (len(t_stars), L):
        raise DataError("need one log-weight per state")
    w = _relative_weights(lw)
    hit = np.abs(values) >= np.asarray(t_stars, dtype=float)[:, None]
    total = np.sum(w, axis=-1)
    estimates = np.sum(np.where(hit, w, 0.0), axis=-1) / total
    esses = total**2 / np.sum(w * w, axis=-1)
    results = []
    for row, estimate, ess, lam in zip(lw, estimates.tolist(), esses.tolist(), lambda_stars):
        degenerate = ess / L < DEGENERACY_FRACTION
        if degenerate:
            msg = f"importance weights are degenerate (ess {ess:.2f} of {L})"
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
        results.append(
            ISResult(estimate=estimate, log_weights=row, cv=None, ess=ess,
                     degenerate=degenerate, lambda_star=lam, trial=trial)
        )
    return results


def multi_test(
    chain: Chain,
    spec: ProblemSpec,
    basis: SpectralBasis | None,
    sigma2_0: float,
    lambda_stars: np.ndarray,
    statistic,
    t_stars: np.ndarray,
    trial: TrialSpec,
    beta0: np.ndarray,
) -> list[ISResult]:
    """Reuse one trial sample for several target penalties/thresholds.

    Element k is exactly what a single-target run on the same chain would
    produce for ``(lambda_stars[k], t_stars[k])``.
    """
    lambda_stars = np.atleast_1d(np.asarray(lambda_stars, dtype=float))
    t_stars = np.atleast_1d(np.asarray(t_stars, dtype=float))
    if lambda_stars.shape != t_stars.shape:
        raise ConfigError("lambda_stars and t_stars must have matching length")
    log_weights = chain_log_weights(chain, spec, basis, sigma2_0, lambda_stars, trial, beta0)
    values = _statistic_values(chain, statistic)
    return _tail_estimate(values, t_stars, log_weights, lambda_stars.tolist(), trial)


def sample_trial(
    spec: ProblemSpec,
    beta0: np.ndarray,
    trial: TrialSpec,
    L: int,
    seed: Seed,
) -> Chain:
    """Exact draws from the trial distribution (trial penalty and variance)."""
    trial_spec = replace(spec, lam=trial.lambda_dagger)
    beta0 = check_vector("beta0", beta0, spec.p)
    return direct_sample(trial_spec, beta0, Gaussian(trial.sigma2_dagger), L, seed)


def pool_results(runs: list[ISResult]) -> ISResult:
    """Combine replicate runs: mean estimate, relative spread, mean ess."""
    if not runs:
        raise ConfigError("nothing to pool")
    estimates = np.array([r.estimate for r in runs])
    mean = float(estimates.mean())
    if len(runs) > 1:
        cv = float(estimates.std(ddof=1) / mean) if mean > 0 else math.inf
    else:
        cv = runs[0].cv
    return ISResult(
        estimate=mean,
        log_weights=runs[0].log_weights,
        cv=cv,
        ess=float(np.mean([r.ess for r in runs])),
        degenerate=any(r.degenerate for r in runs),
        lambda_star=runs[0].lambda_star,
        trial=runs[0].trial,
    )


def _study_replicate(seed, spec, beta0, sigma2_0, lambda_stars, statistic, t_stars, L,
                     basis, m_dagger, l_pilot) -> list[ISResult]:
    """One replicate: tune the trial, sample it once, reweight per target."""
    tune_seq, sample_seq = seed_sequence(seed).spawn(2)
    trial = tune_trial(spec, sigma2_0, m_dagger, l_pilot, tune_seq)
    chain = sample_trial(spec, beta0, trial, L, sample_seq)
    return multi_test(
        chain, spec, basis, sigma2_0, lambda_stars, statistic, t_stars, trial, beta0
    )


def multi_pvalue_study(
    spec: ProblemSpec,
    beta0: np.ndarray,
    sigma2_0: float,
    lambda_stars: np.ndarray,
    statistic,
    t_stars: np.ndarray,
    L: int,
    seed: Seed,
    basis: SpectralBasis | None = None,
    m_dagger: float = 5.0,
    l_pilot: int = 100,
    replicates: int = 1,
    workers: int = 1,
) -> list[ISResult]:
    """Full pipeline for T targets: tune the trial, sample it once, reweight per target.

    Element k agrees bit for bit with a one-target run at
    ``(lambda_stars[k], t_stars[k])`` on the same seed.  With
    ``replicates`` > 1 the whole pipeline reruns on seeds spawned from
    ``seed``; each target's estimate is the replicate mean and ``cv`` its
    relative standard deviation across runs, the usual quality metric for
    tail targets.  ``workers`` > 1 runs the replicates in a pool of
    ``min(workers, replicates)`` processes, with the same results; then
    ``statistic`` must pickle, as the named ones do.  Targets that are not
    two 1-D, non-empty arrays of equal length, a target penalty that is
    not finite and positive, or a NaN threshold is a ConfigError, and a
    ``beta0`` that is not p finite values a DataError, before any sampling.
    """
    beta0 = check_vector("beta0", beta0, spec.p)
    lambda_stars = np.asarray(lambda_stars, dtype=float)
    t_stars = np.asarray(t_stars, dtype=float)
    if lambda_stars.ndim != 1 or lambda_stars.size == 0 or t_stars.shape != lambda_stars.shape:
        raise ConfigError(
            "need 1-D, non-empty lambda_stars and t_stars of equal length, got shapes "
            f"{lambda_stars.shape} and {t_stars.shape}"
        )
    for lam in lambda_stars.tolist():
        if not 0 < lam < math.inf:
            raise ConfigError(f"target penalty must be finite and positive, got {lam}")
    if np.isnan(t_stars).any():
        raise ConfigError("tail threshold must be a number, got nan")
    if replicates < 1:
        raise ConfigError("need at least one replicate")
    if workers < 1:
        raise ConfigError("need at least one worker")
    if basis is None and spec.p > spec.n:
        basis = spectral_decompose(spec)
    run = functools.partial(
        _study_replicate, spec=spec, beta0=beta0, sigma2_0=sigma2_0,
        lambda_stars=lambda_stars, statistic=statistic, t_stars=t_stars, L=L,
        basis=basis, m_dagger=m_dagger, l_pilot=l_pilot,
    )
    seeds = seed_sequence(seed).spawn(replicates) if replicates > 1 else [seed]
    if workers > 1 and replicates > 1:
        # Imported here, so that importing the package loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # A fork-started pool forks all max_workers children at its first submit.
        with ProcessPoolExecutor(max_workers=min(workers, replicates)) as pool:
            runs = list(pool.map(run, seeds))
    else:
        runs = [run(s) for s in seeds]
    return [pool_results(list(target)) for target in zip(*runs)]


def pvalue_study(
    spec: ProblemSpec,
    beta0: np.ndarray,
    sigma2_0: float,
    lambda_star: float,
    statistic,
    t_star: float,
    L: int,
    seed: Seed,
    basis: SpectralBasis | None = None,
    m_dagger: float = 5.0,
    l_pilot: int = 100,
    replicates: int = 1,
) -> ISResult:
    """The one-target case of :func:`multi_pvalue_study`, run in-process."""
    return multi_pvalue_study(
        spec, beta0, sigma2_0, [lambda_star], statistic, [t_star], L, seed,
        basis=basis, m_dagger=m_dagger, l_pilot=l_pilot, replicates=replicates,
    )[0]
