"""Samplers for the augmented-estimator distribution.

Exact direct sampling (simulate noise, re-solve), and two
Metropolis-Hastings chains for a fixed design: over the full augmented
space, and conditioned on a fixed active set.  The chains share one
start-up (``_mh_chain``) and one loop that makes every sweep and every
coefficient, subgradient, drop and add move of a chain
(``_MhEngine.run``; a conditional chain sweeps with no add/drop
coordinates).  What is fixed for the chain is computed once, before the
first sweep; a sweep draws its random inputs as three or four vectors;
a move is scalar Python arithmetic, and only an accepted one touches a
numpy vector.  The chains are bit-identical to the per-move reference
engine in ``tests/oracles.py``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .density import (
    ErrorModel,
    qform_log_density,
    sample_errors,
    scores,
    validate_state,
)
from .errors import ConfigError, ConvergenceError, DataError, NumericalError, check_vector
from .problem import ProblemSpec, _active_mask, log_det_jacobian
from .rng import Seed, generator, seed_sequence
from .solver import solve_lasso

__all__ = [
    "SamplerConfig",
    "Chain",
    "default_sampler_config",
    "direct_sample",
    "mh_sample",
    "conditional_mh_sample",
    "write_chain_csv",
    "read_chain_csv",
    "write_chain_meta",
]

COEF_UPDATE = "coef_update"
SUBGRAD_UPDATE = "subgrad_update"
DROP_COORD = "drop_coord"
ADD_COORD = "add_coord"
MOVE_KINDS = (COEF_UPDATE, SUBGRAD_UPDATE, DROP_COORD, ADD_COORD)
# Margin on the determinant caps of add/drop moves, far above the rounding
# of the log-determinants they bound, so a cap never rejects a move that the
# computed exact ratio would accept.  That rounding grows with the Gram
# condition number: the computed ratio exceeded its cap by up to 8e-9 on
# random designs with condition numbers up to 1.6e8 and by 9e-7 up to 1.6e10.
_CAP_SLACK = 1e-6
_LOG_HALF = math.log(0.5)


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    """Chain length, proposal scales and selection weights for the MH samplers.

    ``K`` coordinates per iteration receive add/drop proposals, chosen
    without replacement with probability proportional to ``alpha``; the
    rest receive coefficient/subgradient updates with scales ``tau``.
    ``equilibrium_init`` starts the chain from one exact draw and forces
    ``burn_in`` to zero.
    """

    K: int
    alpha: np.ndarray
    tau: np.ndarray
    iters: int
    burn_in: int
    seed: int
    equilibrium_init: bool = False


@dataclass(eq=False)
class Chain:
    """Sampler output: kept states in dense arrays plus acceptance tallies.

    Row i of ``thetas`` holds the mixed coordinates of the i-th kept state
    (coefficient where ``active`` is True, subgradient value elsewhere);
    ``iterations`` maps rows to sweep indices of the generating run.
    """

    thetas: np.ndarray
    active: np.ndarray
    iterations: np.ndarray
    accept_counts: dict[str, int] = field(default_factory=dict)
    proposal_counts: dict[str, int] = field(default_factory=dict)
    seed: int | None = None
    max_kkt_residual: float | None = None

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def p(self) -> int:
        return self.thetas.shape[1]

    def beta_matrix(self) -> np.ndarray:
        """Coefficient vectors, zeros on inactive coordinates; shape (L, p)."""
        return np.where(self.active, self.thetas, 0.0)

    def subgrad_matrix(self) -> np.ndarray:
        return np.where(self.active, np.sign(self.thetas), self.thetas)

    def acceptance_rate(self, kind: str) -> float:
        tried = self.proposal_counts.get(kind, 0)
        return self.accept_counts.get(kind, 0) / tried if tried else math.nan


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-D array, erfc(-x / sqrt 2) / 2 (scipy's ``ndtr``)."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])


def default_sampler_config(
    spec: ProblemSpec,
    seed: int,
    iters: int = 5500,
    burn_in: int = 500,
    beta_ref: np.ndarray | None = None,
    sigma2_hat: float = 1.0,
    K: int | None = None,
    equilibrium_init: bool = False,
) -> SamplerConfig:
    """Recommended proposal tuning.

    With a reference estimate, selection weights favor coordinates whose
    coefficients are small relative to their unpenalized standard errors
    (those switch models most often), and proposal scales are twice those
    standard errors.  Without one, weights are uniform and scales fall back
    to ``2 * sigma_hat / sqrt(n * C_jj)``.
    """
    p = spec.p
    k = K if K is not None else math.ceil(p / 5)
    if beta_ref is not None and spec.p <= spec.n:
        zeta = np.sqrt(sigma2_hat * np.diag(spec.gram_inv) / spec.n)
        omega = _normal_cdf(-np.abs(check_vector("beta_ref", beta_ref, p)) / zeta)
        omega0 = float(omega.sum()) / (5.0 * p)
        alpha = omega + omega0
        tau = 2.0 * zeta
    else:
        alpha = np.ones(p)
        tau = 2.0 * math.sqrt(sigma2_hat) / np.sqrt(spec.n * np.diag(spec.gram))
    alpha = alpha / alpha.sum()
    return SamplerConfig(
        K=k,
        alpha=alpha,
        tau=tau,
        iters=iters,
        burn_in=burn_in,
        seed=seed,
        equilibrium_init=equilibrium_init,
    )


def _validate_config(config: SamplerConfig, p: int) -> None:
    if not 1 <= config.K <= p:
        raise ConfigError(f"K must be in [1, {p}], got {config.K}")
    alpha = np.asarray(config.alpha, dtype=float)
    tau = np.asarray(config.tau, dtype=float)
    # Written so that NaN fails: it compares False with everything.
    if alpha.shape != (p,) or not np.all((alpha > 0) & (alpha < np.inf)):
        raise ConfigError("alpha must be a p-vector of finite positive selection weights")
    if tau.shape != (p,) or not np.all((tau > 0) & (tau < np.inf)):
        raise ConfigError("tau must be a p-vector of finite positive proposal scales")
    if config.iters < 1 or config.burn_in < 0 or config.burn_in >= config.iters:
        raise ConfigError("need 0 <= burn_in < iters")


def direct_sample(
    spec: ProblemSpec,
    beta: np.ndarray,
    model: ErrorModel,
    L: int,
    seed: Seed | np.random.Generator,
) -> Chain:
    """Exact independent draws: simulate noise, solve, keep (beta_hat, S).

    Valid in both regimes (p <= n and p > n).  The noise of all L draws
    comes from one ``sample_errors`` call and the L responses are solved
    as one block.  A Generator seed is drawn from as is.
    """
    if L < 1:
        raise ConfigError("need at least one draw")
    beta = check_vector("beta", beta, spec.p)
    noise = sample_errors(model, spec.n, L, generator(seed))
    return _solved_chain(spec, spec.X @ beta + noise, seed)


def _solved_chain(
    spec: ProblemSpec, responses: np.ndarray, seed: Seed | np.random.Generator, **solve_kwargs
) -> Chain:
    """Lasso fits of a block of responses as ``Chain`` rows; a ConvergenceError gets ``seed``."""
    try:
        sol = solve_lasso(spec, responses, **solve_kwargs)
    except ConvergenceError as err:
        err.seed = seed
        raise
    return Chain(
        thetas=np.where(sol.active, sol.beta_hat, sol.subgrad),
        active=sol.active,
        iterations=np.arange(len(responses)),
        seed=seed if isinstance(seed, int) else None,
        max_kkt_residual=sol.kkt_residual,
    )


class _MhEngine:
    """The one MH sweep loop of both samplers, over state held in Python scalars.

    Per chain, the constructor builds the error model's log density f of q
    (``qform_log_density``), and ``run`` computes the rows of C and C^{-1}
    (which are also their columns, as both are exactly symmetric), diag C,
    diag C^{-1}, lam w, the add/drop caps and the proposals' log normal
    constants before its first sweep.  ``run`` then makes every sweep of the
    chain in one loop.  It holds theta and the active set as Python lists,
    the score image ``H`` of the state and ``G = C^{-1} H`` as numpy
    vectors, and ``q = H'G`` (the Mahalanobis form the log-likelihood
    ``f(q)`` depends on) and the log Jacobian ``log_jac`` of the active set
    as floats.

    Per sweep, the loop draws its inputs: for a joint chain the K add/drop
    coordinates (``random(p)``, top-K Gumbel keys of log alpha), then
    ``standard_normal(p)``, ``uniform(-1, 1, p)`` and ``random(p)`` for log u.
    It visits the add/drop coordinates and then the rest, each in ascending
    order.  A conditional chain (K = 0) draws no add/drop coordinates.

    Per move on coordinate j: the move changes the coefficient by db and the
    penalty term lam w_j s_j by d = lam w_j ds, so H' = H + db C_j + d e_j and
    G' = G + db e_j + d (C^{-1})_j.  Since C_j'G = H_j and (C^{-1})_j'H = G_j,
    the candidate form is q + dq with

        dq = 2 (db H_j + d G_j) + db^2 C_jj + 2 db d + d^2 (C^{-1})_jj,

    a scalar computed with no array.  Only an accepted move updates H and G
    (in place) and then resets q = H'G and f(q), so rounding in dq never
    accumulates.

    An add/drop move also flips j's membership, adding proposal terms and
    a determinant term to the log ratio; the latter is bounded before it is
    computed.  Adding j to A multiplies the Jacobian determinant by
    s / (lam w_j), where s = C_jj - C_jA C_AA^{-1} C_Aj is a Schur complement
    of the positive definite Gram C, so 1 / (C^{-1})_jj <= s <= C_jj; a drop
    divides by the same kind of ratio.  Hence

        add j:   log_jac_new - log_jac <= log(C_jj / (lam w_j))
        drop j:  log_jac_new - log_jac <= log((C^{-1})_jj lam w_j)

    The move is rejected at once when log u exceeds the rest of its log
    ratio plus that cap plus ``_CAP_SLACK``.  Only otherwise is
    ``log_det_jacobian`` of the new active set taken from scratch and log u
    compared with the exact ratio; a singular new active block rejects.  The
    caps are upper bounds, so every decision is the exact ratio's.
    """

    def __init__(
        self, spec: ProblemSpec, beta: np.ndarray, model: ErrorModel, tau: np.ndarray
    ) -> None:
        self.spec = spec
        self.beta = beta
        # log_det_gram raises NumericalError when the Gram is not PD.
        self.log_f = qform_log_density(model, spec.p, spec.log_det_gram, spec.n)
        self.tau = np.asarray(tau, dtype=float).tolist()

    def run(
        self, theta: np.ndarray, active: np.ndarray, rng: np.random.Generator,
        iters: int, burn_in: int, log_alpha: np.ndarray, K: int,
    ) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
        """All sweeps from (theta, active): the rows kept after ``burn_in``.

        Also returns the proposals and the accepted moves per kind, in
        ``MOVE_KINDS`` order.
        """
        spec, log_f, tau, p = self.spec, self.log_f, self.tau, self.spec.p
        c_rows, cinv_rows = list(spec.gram), list(spec.gram_inv)
        c_diag, cinv_diag = np.diag(spec.gram).tolist(), np.diag(spec.gram_inv).tolist()
        lws = (spec.lam * spec.weights).tolist()
        add_cap = [math.log(c / lw) for c, lw in zip(c_diag, lws)]
        drop_cap = [math.log(c * lw) for c, lw in zip(cinv_diag, lws)]
        # The first two terms of the proposals' normal log density.
        log_norm = [-0.5 * math.log(2.0 * math.pi) - math.log(sd) for sd in tau]
        mask = np.array(active, dtype=bool)
        H = scores(np.asarray(theta, dtype=float), mask, self.beta, spec)
        G = spec.gram_inv @ H
        q = float(H @ G)
        loglik = log_f(q)
        log_jac = log_det_jacobian(mask, spec)
        # The active set twice: a list for scalar reads, a mask for log_det_jacobian.
        theta, act = np.array(theta, dtype=float).tolist(), mask.tolist()
        h_at, g_at, copysign = H.item, G.item, math.copysign
        tried, accepted = [0] * 4, [0] * 4  # indexed by kind, the MOVE_KINDS position
        kept_theta = np.empty((iters - burn_in, p))
        kept_active = np.empty(kept_theta.shape, dtype=bool)
        order = list(range(p))
        # A uniform draw of exactly 0 gives an infinite Gumbel key, not a warning.
        with np.errstate(divide="ignore"):
            for t in range(iters):
                if K:
                    # Top-K Gumbel keys: K draws without replacement, prop. to alpha.
                    keys = log_alpha - np.log(-np.log(rng.random(p)))
                    toggles = sorted(keys.argpartition(p - K)[p - K :].tolist())
                    chosen = set(toggles)
                    order = toggles + [j for j in range(p) if j not in chosen]
                normals = rng.standard_normal(p).tolist()
                unifs = rng.uniform(-1.0, 1.0, p).tolist()
                log_u = np.log(rng.random(p)).tolist()
                for visit, j in enumerate(order):
                    lw, toggle = lws[j], visit < K
                    if toggle and act[j]:
                        kind, b_old, value = 2, theta[j], unifs[j]
                        db, d = -b_old, lw * (value - copysign(1.0, b_old))
                        plus, minus = log_norm[j] - 0.5 * (b_old / tau[j]) ** 2, _LOG_HALF
                        cap = drop_cap[j]
                    elif toggle:
                        kind, value = 3, tau[j] * normals[j]
                        db, d = value, lw * (copysign(1.0, value) - theta[j])
                        plus, minus = _LOG_HALF, log_norm[j] - 0.5 * (value / tau[j]) ** 2
                        cap = add_cap[j]
                    elif act[j]:
                        kind, b_old = 0, theta[j]
                        value = b_old + tau[j] * normals[j]
                        db = value - b_old
                        d = lw * (copysign(1.0, value) - copysign(1.0, b_old))
                    else:
                        kind, value, db = 1, unifs[j], 0.0
                        d = lw * (value - theta[j])
                    tried[kind] += 1
                    if value == 0.0 and toggle != act[j]:
                        continue  # a zero coefficient: counted, and no state to move to
                    dq = (
                        2.0 * (db * h_at(j) + d * g_at(j))
                        + db * db * c_diag[j]
                        + 2.0 * db * d
                        + d * d * cinv_diag[j]
                    )
                    log_ratio = log_f(q + dq) - loglik
                    if toggle:
                        # plus and minus (proposal log densities) are added one at a
                        # time, so every sum rounds as it always has.
                        if log_u[j] > log_ratio + plus - minus + cap + _CAP_SLACK:
                            continue
                        flipped = mask.copy()
                        flipped[j] = not act[j]
                        try:
                            log_jac_new = log_det_jacobian(flipped, spec)
                        except NumericalError:
                            continue
                        log_ratio = log_ratio + (log_jac_new - log_jac) + plus - minus
                    if not log_u[j] <= log_ratio:
                        continue
                    theta[j] = value
                    if db != 0.0:
                        H += c_rows[j] * db
                        G[j] += db
                    if d != 0.0:
                        H[j] += d
                        G += d * cinv_rows[j]
                    if toggle:
                        act[j] = mask[j] = not act[j]
                        log_jac = log_jac_new
                    q = float(H.dot(G))  # H @ G, at half the call cost
                    loglik = log_f(q)
                    accepted[kind] += 1
                if t >= burn_in:
                    kept_theta[t - burn_in] = theta
                    kept_active[t - burn_in] = act
        return kept_theta, kept_active, tried, accepted


def _initial_state(
    spec: ProblemSpec, beta: np.ndarray, model: ErrorModel, config: SamplerConfig,
    init: tuple[np.ndarray, np.ndarray] | None, init_seed: np.random.SeedSequence,
    target: np.ndarray | None, max_init_draws: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Resolve the starting point and effective burn-in.

    A ``target`` mask restricts the start to that active set: an
    equilibrium start is then the first exact draw that hits it.
    """
    if config.equilibrium_init and target is None:
        start = direct_sample(spec, beta, model, 1, init_seed)
        return start.thetas[0], start.active[0], 0
    if config.equilibrium_init:
        # Exact draws in growing batches that continue one noise stream; with
        # Gaussian errors the first hit is the draw a one-at-a-time search finds.
        rng_init = generator(init_seed)
        tried, size = 0, 16
        while tried < max_init_draws:
            batch = direct_sample(spec, beta, model, min(size, max_init_draws - tried), rng_init)
            hits = np.flatnonzero(np.all(batch.active == target, axis=1))
            if hits.size:
                return batch.thetas[hits[0]], target, 0
            tried += len(batch)
            size *= 2
        raise NumericalError(
            f"no exact draw hit the conditioning active set in {max_init_draws} tries"
        )
    if init is not None:
        theta, mask = init
        validate_state(theta, mask, spec.p)
        if target is not None and not np.array_equal(mask, target):
            raise ConfigError("initial state must have the conditioning active set")
        return theta, mask, config.burn_in
    if target is not None:
        return np.where(target, spec.lam, 0.0), target, config.burn_in
    # Deterministic default: start at the centering vector itself,
    # inactive subgradients at zero.
    mask = beta != 0.0
    return np.where(mask, beta, 0.0), mask, config.burn_in


def _mh_chain(
    spec: ProblemSpec, beta: np.ndarray, model: ErrorModel, config: SamplerConfig,
    init: tuple[np.ndarray, np.ndarray] | None, wide_message: str,
    target: np.ndarray | None = None, max_init_draws: int = 0,
) -> Chain:
    """Checks, seeds, starting state, engine and sweeps of every MH sampler.

    A ``target`` mask conditions the chain on that active set, so no
    add/drop coordinates are drawn.
    """
    if spec.p > spec.n:
        raise ConfigError(wide_message)
    _validate_config(config, spec.p)
    beta = check_vector("beta", beta, spec.p)
    init_seed, moves_seq = seed_sequence(config.seed).spawn(2)
    theta0, active0, burn_in = _initial_state(
        spec, beta, model, config, init, init_seed, target, max_init_draws
    )
    K = 0 if target is not None else config.K
    thetas, active, tried, accepted = _MhEngine(spec, beta, model, config.tau).run(
        theta0, active0, generator(moves_seq), config.iters, burn_in,
        np.log(np.asarray(config.alpha, dtype=float)), K,
    )
    proposed = [i for i in range(4) if tried[i]]
    return Chain(
        thetas=thetas,
        active=active,
        iterations=np.arange(burn_in + 1, config.iters + 1),
        accept_counts={MOVE_KINDS[i]: accepted[i] for i in proposed},
        proposal_counts={MOVE_KINDS[i]: tried[i] for i in proposed},
        seed=config.seed if isinstance(config.seed, int) else None,
    )


def mh_sample(
    spec: ProblemSpec,
    beta: np.ndarray,
    model: ErrorModel,
    config: SamplerConfig,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> Chain:
    """Metropolis-Hastings chain over the full augmented space (p <= n).

    Each iteration proposes add/drop moves on K weighted-sampled
    coordinates and coefficient/subgradient updates on the others.
    ``init`` is a (theta, active) start, as in a ``Chain`` row.
    """
    return _mh_chain(
        spec, beta, model, config, init,
        "the MH sampler requires p <= n; use direct_sample instead",
    )


def conditional_mh_sample(
    spec: ProblemSpec,
    beta: np.ndarray,
    model: ErrorModel,
    A_star: np.ndarray,
    config: SamplerConfig,
    init: tuple[np.ndarray, np.ndarray] | None = None,
    max_init_draws: int = 10_000,
) -> Chain:
    """MH chain conditioned on a fixed active set.

    Only coefficient and subgradient updates are proposed, so the log
    Jacobian is computed once, at the start.  With ``equilibrium_init``
    the starting point is found by rejection: exact draws until one hits
    ``A_star``.  Indices in ``A_star`` must be distinct and lie in [0, p).
    """
    return _mh_chain(
        spec, beta, model, config, init,
        "the conditional sampler requires p <= n",
        target=_active_mask(A_star, spec.p),
        max_init_draws=max_init_draws,
    )


def _hex_bitmasks(active: np.ndarray) -> list[str]:
    """Lowercase hex encodings of the rows of an (L, p) active-set block."""
    packed = np.packbits(active, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    return [
        format(int.from_bytes(buf[i : i + width], "little"), "x")
        for i in range(0, len(buf), width)
    ]


def active_bitmask(mask: np.ndarray) -> str:
    """Lowercase hex encoding of the active set (bit j set when j active)."""
    return _hex_bitmasks(np.asarray(mask, dtype=bool)[None, :])[0]


def write_chain_csv(chain: Chain, path: str | Path) -> None:
    """Headerless CSV: iteration, active-set hex bitmask, p theta columns."""
    row = "%d,%s" + ",%.17g" * chain.p + "\n"
    masks = _hex_bitmasks(chain.active)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            row % (it, mask, *theta)
            for it, mask, theta in zip(chain.iterations.tolist(), masks, chain.thetas.tolist())
        )


def _row_fault(cells: list[str], p: int) -> str | None:
    """Why one chain CSV row does not parse, or None if it does."""
    try:
        int(cells[0])
    except ValueError:
        return f"iteration {cells[0]!r} is not an integer"
    try:
        mask = int(cells[1], 16)
    except ValueError:
        return f"active-set bitmask {cells[1]!r} is not hexadecimal"
    if not 0 <= mask < 1 << p:
        return f"active-set bitmask {cells[1]!r} sets bits at or above p={p}"
    try:
        np.array(cells[2:], dtype=float)
    except ValueError:
        return "a theta cell is not a number"
    return None


def read_chain_csv(path: str | Path) -> Chain:
    """Read a chain written by :func:`write_chain_csv`.

    An unreadable or malformed file raises DataError; a bad row is named by its line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(map(str.strip, fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read chain CSV {path}: {exc}") from exc
    rows = [line.split(",") for line in lines if line]
    if not rows:
        raise DataError("chain CSV is empty")
    if len({len(cells) for cells in rows}) != 1:
        raise DataError("inconsistent column count in chain CSV")
    p = len(rows[0]) - 2
    if p < 1:
        raise DataError("chain CSV rows need an iteration, a bitmask and theta columns")
    try:
        iterations = np.array([int(cells[0]) for cells in rows], dtype=int)
        masks = [int(cells[1], 16) for cells in rows]
        thetas = np.array([cells[2:] for cells in rows], dtype=float)
        parsed = min(masks) >= 0 and max(masks) >> p == 0
    except ValueError:
        parsed = False
    if not parsed:
        i, fault = next((i, f) for i, cells in enumerate(rows) if (f := _row_fault(cells, p)))
        line = [k for k, text in enumerate(lines, 1) if text][i]
        raise DataError(f"chain CSV line {line}: {fault}")
    width = (p + 7) // 8
    masks = b"".join(m.to_bytes(width, "little") for m in masks)
    active = np.unpackbits(
        np.frombuffer(masks, dtype=np.uint8).reshape(len(rows), width),
        axis=1,
        count=p,
        bitorder="little",
    ).astype(bool)
    return Chain(thetas=thetas, active=active, iterations=iterations)


def write_chain_meta(
    chain: Chain, path: str | Path, config_echo: dict | None = None
) -> None:
    """JSON sidecar: acceptance tallies and a config echo."""
    meta = {
        "accept_counts": {k: int(v) for k, v in chain.accept_counts.items()},
        "proposal_counts": {k: int(v) for k, v in chain.proposal_counts.items()},
        "n_states": len(chain),
        "p": chain.p,
        "seed": chain.seed,
        "config": config_echo or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
