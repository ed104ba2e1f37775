"""Command-line front end: CSV/JSON plumbing around the library.

Subcommands cover dataset generation, joint and conditional sampler runs,
importance-sampled tail probabilities (single and multi-target), chain
diagnostics, and the posterior decision check.  Every run writes a
``manifest.json`` echoing the resolved configuration, so outputs are
reproducible from the manifest alone.  No numerics live here.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .density import Gaussian, StudentT
from .errors import ConfigError, DataError, LassodistError, check_positive, check_vector
from .estimation import (
    acceptance_band_report,
    chain_diagnostics,
    coefficient_histogram,
    estimate_sigma2,
    fit_elliptical_model,
    posterior_decision_sample,
    summarize_chain,
    threshold_estimator,
)
from .importance import coefficient_statistic, multi_pvalue_study
from .problem import build_problem, synthetic_dataset
from .rng import seed_sequence
from .samplers import (
    conditional_mh_sample,
    default_sampler_config,
    direct_sample,
    mh_sample,
    read_chain_csv,
    write_chain_csv,
    write_chain_meta,
)
from .solver import lambda_grid, lambda_max, solve_lasso

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the package errors."""

    def error(self, message: str):
        raise ConfigError(message)


def _load_vector(path: str) -> np.ndarray:
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=float)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read vector from {path}: {exc}") from exc
    return np.atleast_1d(arr)


def _save_array(path: Path, arr: np.ndarray) -> None:
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, args: argparse.Namespace, outputs: list[str]) -> None:
    config = {
        k: v for k, v in vars(args).items() if k not in ("func", "command") and not k.startswith("_")
    }
    _write_json(
        out_dir / "manifest.json",
        {
            "command": args.command,
            "config": config,
            "outputs": sorted(outputs + ["manifest.json"]),
            "version": __version__,
        },
    )


def _out_dir(args: argparse.Namespace) -> Path:
    """Create --out-dir; called after every check, just before the first write."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_design(args: argparse.Namespace):
    """The design --x and its penalty weights --weights (all 1 when absent)."""
    try:
        X = np.loadtxt(args.x, delimiter=",", dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read matrix from {args.x}: {exc}") from exc
    return X, _load_vector(args.weights) if args.weights else 1.0


def _load_problem(args: argparse.Namespace):
    """Penalty-1 problem of --x/--weights, the response --y, and the problem
    at --lambda or at --lambda-frac times lambda_max (None without either).

    ``build_problem`` runs once; the penalty is set with ``replace``, which
    skips its check, so the penalty is checked here.
    """
    X, weights = _load_design(args)
    y = _load_vector(args.y)
    unit = build_problem(X, weights, 1.0)
    y = check_vector("response", y, unit.n)
    if args.lam is not None:
        check_positive("--lambda", args.lam)
        lam = float(args.lam)
    elif args.lambda_frac is not None:
        check_positive("--lambda-frac", args.lambda_frac)
        lam = float(args.lambda_frac * lambda_max(unit, y))
        # lambda_max is 0 for a response orthogonal to every column.
        check_positive("--lambda-frac times lambda_max", lam)
    else:
        return unit, y, None
    return unit, y, replace(unit, lam=lam)


def _resolve_center(args: argparse.Namespace, spec, y: np.ndarray) -> np.ndarray:
    """Coefficient vector the sampled law is centered at."""
    if getattr(args, "beta", None) is not None:
        return check_vector("--beta", _load_vector(args.beta), spec.p)
    fit = solve_lasso(spec, y)
    if getattr(args, "b_th", None) is not None:
        return threshold_estimator(fit.beta_hat, args.b_th)
    return fit.beta_hat


def _resolve_sigma2(args: argparse.Namespace, spec, y: np.ndarray, center: np.ndarray) -> float:
    if args.sigma2 is not None:
        check_positive("--sigma2 (noise variance)", args.sigma2)
        return float(args.sigma2)
    if getattr(args, "estimate_sigma2", False):
        return estimate_sigma2(spec, y, center)
    raise ConfigError("provide --sigma2 or --estimate-sigma2")


def _resolve_model(args: argparse.Namespace, spec, y, center, sigma2, seed_seq):
    name = args.model
    if name == "gaussian":
        return Gaussian(sigma2)
    if name == "studentt":
        if args.dof is None:
            raise ConfigError("--dof is required with the studentt model")
        return StudentT(dof=float(args.dof), scale=sigma2)
    if name == "elliptical":
        return fit_elliptical_model(
            spec, y, center, n_samples=args.boot_samples, bins=args.bins, seed=seed_seq
        )
    raise ConfigError(f"unknown error model {name!r}")


def _resolve_law(args: argparse.Namespace, spec, y: np.ndarray):
    """Center, noise variance, error model and run seed of a sampler run."""
    center = _resolve_center(args, spec, y)
    sigma2 = _resolve_sigma2(args, spec, y, center)
    fit_seq, run_seq = seed_sequence(args.seed).spawn(2)
    model = _resolve_model(args, spec, y, center, sigma2, fit_seq)
    return center, sigma2, model, run_seq


def _sampler_config(args: argparse.Namespace, spec, run_seq, center, sigma2: float):
    return default_sampler_config(
        spec,
        run_seq,
        iters=args.iters,
        burn_in=args.burnin,
        beta_ref=center,
        sigma2_hat=sigma2,
        K=args.K,
        equilibrium_init=args.equilibrium_init,
    )


def _write_chain_outputs(
    out: Path,
    args: argparse.Namespace,
    chain,
    lam: float,
    sigma2: float,
    echo: dict,
    outputs: list[str] | tuple[str, ...] = (),
    noun: str = "states",
) -> int:
    """Write chain.csv, chain_meta.json and the manifest of a sampler run."""
    write_chain_csv(chain, out / "chain.csv")
    echo = {"lambda": lam, "sigma2": sigma2, "model": args.model, "seed": args.seed, **echo}
    write_chain_meta(chain, out / "chain_meta.json", config_echo=echo)
    _write_manifest(out, args, [*outputs, "chain.csv", "chain_meta.json"])
    print(f"wrote chain.csv ({len(chain)} {noun}) and chain_meta.json to {out}")
    return 0


def _add_data_args(p: _Parser) -> None:
    p.add_argument("--x", required=True, help="design matrix CSV (n rows, p columns)")
    p.add_argument("--y", required=True, help="response CSV (n values)")
    p.add_argument("--weights", default=None, help="penalty weight CSV (p values, default all 1)")
    lam = p.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", type=float, default=None, help="penalty level")
    lam.add_argument(
        "--lambda-frac",
        type=float,
        default=None,
        help="penalty as a fraction of the smallest all-zero penalty",
    )


def _add_tail_args(p: _Parser) -> None:
    p.add_argument("--x", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--null-beta", default="zero", help='"zero" or a CSV path')
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--stat", choices=["l1", "linf", "abs-coord"], default="l1")
    p.add_argument("--coord", type=int, default=None)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m-dagger", type=float, default=5.0)
    p.add_argument("--l-pilot", type=int, default=100)


def _add_model_args(p: _Parser, elliptical: bool = True) -> None:
    choices = ["gaussian", "studentt"] + (["elliptical"] if elliptical else [])
    p.add_argument("--model", choices=choices, default="gaussian")
    p.add_argument("--dof", type=float, default=None, help="degrees of freedom (studentt)")
    p.add_argument("--sigma2", type=float, default=None, help="noise variance")
    p.add_argument(
        "--estimate-sigma2",
        action="store_true",
        help="estimate the noise variance from residuals (needs p < n)",
    )
    if elliptical:
        p.add_argument("--boot-samples", type=int, default=1000, help="bootstrap size (elliptical)")
        p.add_argument("--bins", type=int, default=30, help="radial histogram bins (elliptical)")


def _add_sampler_args(p: _Parser) -> None:
    p.add_argument("--beta", default=None, help="CSV with the centering coefficients")
    p.add_argument(
        "--b-th",
        type=float,
        default=None,
        help="threshold the fit to get the centering coefficients",
    )
    p.add_argument("--iters", type=int, default=5500, help="total sweeps")
    p.add_argument("--burnin", type=int, default=500, help="sweeps discarded from the front")
    p.add_argument("--K", type=int, default=None, help="membership proposals per sweep")
    p.add_argument(
        "--equilibrium-init",
        action="store_true",
        help="start from one exact draw and keep every sweep",
    )


def _cmd_gen_data(args: argparse.Namespace) -> int:
    X, y, beta0 = synthetic_dataset(
        n=args.n,
        p=args.p,
        rho=args.rho,
        sigma2=args.sigma2,
        signal=args.signal,
        amplitude=args.amplitude,
        seed=args.seed,
    )
    out = _out_dir(args)
    _save_array(out / "X.csv", X)
    _save_array(out / "y.csv", y)
    _save_array(out / "beta0.csv", beta0)
    _write_manifest(out, args, ["X.csv", "y.csv", "beta0.csv"])
    print(f"wrote X.csv ({args.n}x{args.p}), y.csv, beta0.csv to {out}")
    return 0


def _cmd_sample_joint(args: argparse.Namespace) -> int:
    unit, y, spec = _load_problem(args)
    if spec is None and args.lambda_grid is None:
        raise ConfigError("provide --lambda or --lambda-frac (or just --lambda-grid)")

    if args.lambda_grid is not None:
        grid = lambda_grid(unit, y, num=args.lambda_grid, min_frac=args.lambda_min_frac)
    if spec is not None:
        center, sigma2, model, run_seq = _resolve_law(args, spec, y)
        if args.method == "direct":
            chain = direct_sample(spec, center, model, args.iters, run_seq)
        else:
            config = _sampler_config(args, spec, run_seq, center, sigma2)
            chain = mh_sample(spec, center, model, config)

    out = _out_dir(args)
    outputs = []
    if args.lambda_grid is not None:
        _save_array(out / "lambda_grid.csv", grid)
        outputs.append("lambda_grid.csv")
        if spec is None:
            _write_manifest(out, args, outputs)
            print(f"wrote lambda_grid.csv ({args.lambda_grid} values) to {out}")
            return 0
    echo = {"method": args.method, "iters": args.iters, "burnin": args.burnin}
    return _write_chain_outputs(out, args, chain, spec.lam, sigma2, echo, outputs)


def _cmd_sample_cond(args: argparse.Namespace) -> int:
    _, y, spec = _load_problem(args)
    if spec is None:
        raise ConfigError("provide --lambda or --lambda-frac")

    if args.active.strip():
        try:
            active = np.array(sorted(int(tok) for tok in args.active.split(",")))
        except ValueError as exc:
            raise ConfigError(f"cannot parse --active {args.active!r}") from exc
    else:
        active = np.array([], dtype=int)

    center, sigma2, model, run_seq = _resolve_law(args, spec, y)
    config = _sampler_config(args, spec, run_seq, center, sigma2)
    chain = conditional_mh_sample(spec, center, model, active, config)
    echo = {"active": active.tolist(), "iters": args.iters, "burnin": args.burnin}
    return _write_chain_outputs(_out_dir(args), args, chain, spec.lam, sigma2, echo)


def _null_beta(args: argparse.Namespace, p: int) -> np.ndarray:
    if args.null_beta == "zero":
        return np.zeros(p)
    return check_vector("--null-beta", _load_vector(args.null_beta), p)


def _tail_payload(args: argparse.Namespace, results, t_stars) -> dict:
    """Fields of pvalue.json and pvalue_multi.json: the per-target ones under
    ``targets``, then the statistic, L, trial and coord they share."""
    payload = {
        "targets": [
            {
                "estimate": r.estimate,
                "log10_estimate": float(np.log10(r.estimate)) if r.estimate > 0 else None,
                "ess": r.ess,
                "degenerate": bool(r.degenerate),
                "lambda_star": r.lambda_star,
                "t_star": float(t),
            }
            for r, t in zip(results, t_stars)
        ],
        "statistic": args.stat,
        "L": args.L,
        "trial": {
            "sigma2_dagger": results[0].trial.sigma2_dagger,
            "lambda_dagger": results[0].trial.lambda_dagger,
        },
    }
    if args.stat == "abs-coord":
        payload["coord"] = args.coord
    return payload


def _tail_study(args: argparse.Namespace, lambda_stars, t_stars, **kwargs):
    """Build the problem at the first target penalty and run the tail study."""
    X, weights = _load_design(args)
    spec = build_problem(X, weights, float(lambda_stars[0]))
    beta0 = _null_beta(args, spec.p)
    statistic = coefficient_statistic(args.stat, args.coord, p=spec.p)
    return multi_pvalue_study(
        spec, beta0, args.sigma2, lambda_stars, statistic, t_stars, args.L, args.seed,
        m_dagger=args.m_dagger, l_pilot=args.l_pilot, **kwargs,
    )


def _cmd_pvalue(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    (res,) = _tail_study(
        args, [args.lambda_star], [args.t_star],
        replicates=args.replicates, workers=args.workers,
    )
    payload = _tail_payload(args, [res], [args.t_star])
    (target,) = payload.pop("targets")
    cv = None if res.cv is None or not np.isfinite(res.cv) else res.cv
    out = _out_dir(args)
    _write_json(out / "pvalue.json", {**target, **payload, "cv": cv, "replicates": args.replicates})
    _write_manifest(out, args, ["pvalue.json"])
    print(f"estimate {res.estimate:.6g} (ess {res.ess:.1f}); wrote pvalue.json to {out}")
    return 0


def _cmd_pvalue_multi(args: argparse.Namespace) -> int:
    try:
        lambda_stars = [float(tok) for tok in args.lambda_stars.split(",")]
        t_stars = [float(tok) for tok in args.t_stars.split(",")]
    except ValueError as exc:
        raise ConfigError("cannot parse --lambda-stars / --t-stars") from exc
    results = _tail_study(args, lambda_stars, t_stars)
    out = _out_dir(args)
    _write_json(out / "pvalue_multi.json", _tail_payload(args, results, t_stars))
    _write_manifest(out, args, ["pvalue_multi.json"])
    print(f"wrote pvalue_multi.json ({len(lambda_stars)} targets) to {out}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    chain = read_chain_csv(args.chain)
    if args.meta:
        try:
            with open(args.meta, encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read meta JSON {args.meta}: {exc}") from exc
        chain.accept_counts = {k: int(v) for k, v in meta.get("accept_counts", {}).items()}
        chain.proposal_counts = {
            k: int(v) for k, v in meta.get("proposal_counts", {}).items()
        }

    statistic = coefficient_statistic(args.g, args.coord, p=chain.p)
    # Everything is computed before --out-dir is created, so a bad
    # --hist-coord or --hist-bins leaves no partial results.
    histogram = (
        None if args.hist_coord is None
        else coefficient_histogram(chain, args.hist_coord, args.hist_bins)
    )
    report = chain_diagnostics(chain, statistic, cost_ratio=args.cost_ratio)
    notes = acceptance_band_report(chain) if args.meta else []
    stats = summarize_chain(chain)
    out = _out_dir(args)
    _write_json(
        out / "diagnostics.json",
        {
            "psi": report.psi,
            "ess": report.ess,
            "gamma": report.gamma,
            "truncation_lag": report.truncation_lag,
            "n": report.n,
            "acf_head": [float(v) for v in report.acf[: min(11, report.acf.size)]],
            "statistic": args.g,
            "cost_ratio": args.cost_ratio,
            "acceptance_notes": notes,
        },
    )
    _write_json(
        out / "summary.json",
        {
            "select_prob": stats.select_prob.tolist(),
            "quantile_lo": stats.quantile_lo.tolist(),
            "quantile_hi": stats.quantile_hi.tolist(),
            "cond_mean": [None if np.isnan(v) else float(v) for v in stats.cond_mean],
            "cond_sd": [None if np.isnan(v) else float(v) for v in stats.cond_sd],
            "model_freq": stats.model_freq,
        },
    )
    outputs = ["diagnostics.json", "summary.json"]
    if histogram is not None:
        _save_array(out / "histogram.csv", np.column_stack(histogram))
        outputs.append("histogram.csv")
    _write_manifest(out, args, outputs)
    print(
        f"psi {report.psi:.3f}, ess {report.ess:.1f}, gamma {report.gamma:.4f}; "
        f"wrote {', '.join(outputs)} to {out}"
    )
    return 0


def _cmd_posterior_check(args: argparse.Namespace) -> int:
    _, y, spec = _load_problem(args)
    if spec is None:
        raise ConfigError("provide --lambda or --lambda-frac")

    ols = spec.gram_solve(spec.X.T @ y / spec.n)
    sigma2 = _resolve_sigma2(args, spec, y, ols)
    model = _resolve_model(args, spec, y, ols, sigma2, None)
    chain = posterior_decision_sample(
        spec, y, model, args.L, args.seed, lam=args.decision_lambda
    )
    echo = {"L": args.L, "decision_lambda": args.decision_lambda}
    return _write_chain_outputs(_out_dir(args), args, chain, spec.lam, sigma2, echo, noun="draws")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process.

    Building it takes milliseconds, as long as a short command; parsing
    returns a fresh namespace and leaves the parser as it was.
    """
    parser = _Parser(
        prog="lassodist",
        description="Sampling-distribution toolkit for penalized regression estimates",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate an equicorrelated synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.25)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--signal", type=int, default=None, help="number of nonzero coefficients")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("sample-joint", help="sample the joint law of the augmented estimator")
    _add_data_args(p)
    p.add_argument("--method", choices=["mls", "direct"], default="mls")
    _add_model_args(p)
    _add_sampler_args(p)
    p.add_argument("--lambda-grid", type=int, default=None, help="also write a penalty grid CSV")
    p.add_argument("--lambda-min-frac", type=float, default=0.01)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_sample_joint)

    p = sub.add_parser("sample-cond", help="sample conditionally on a fixed active set")
    _add_data_args(p)
    p.add_argument("--active", required=True, help="comma-separated 0-based active indices")
    _add_model_args(p)
    _add_sampler_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_sample_cond)

    p = sub.add_parser("pvalue", help="importance-sampled tail probability")
    _add_tail_args(p)
    p.add_argument("--lambda-star", type=float, required=True)
    p.add_argument("--t-star", type=float, required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_pvalue)

    p = sub.add_parser("pvalue-multi", help="several tail targets sharing one trial sample")
    _add_tail_args(p)
    p.add_argument("--lambda-stars", required=True, help="comma-separated target penalties")
    p.add_argument("--t-stars", required=True, help="comma-separated thresholds")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_pvalue_multi)

    p = sub.add_parser("diagnose", help="chain summaries and efficiency diagnostics")
    p.add_argument("--chain", required=True, help="chain CSV from a sampler run")
    p.add_argument("--meta", default=None, help="chain_meta.json for acceptance notes")
    p.add_argument("--g", choices=["l1", "linf", "abs-coord"], default="l1")
    p.add_argument("--coord", type=int, default=None)
    p.add_argument("--cost-ratio", type=float, default=1.0)
    p.add_argument("--hist-coord", type=int, default=None)
    p.add_argument("--hist-bins", type=int, default=50)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("posterior-check", help="posterior decision draws for comparison")
    _add_data_args(p)
    _add_model_args(p, elliptical=False)
    p.add_argument("--decision-lambda", type=float, default=None, help="override the decision penalty")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_posterior_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except LassodistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
