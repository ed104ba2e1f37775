"""The public API: every exported name resolves, and every exported function's
parameters are pinned.

A removal from a module cannot leave a stale export, and a parameter added
to, renamed in or removed from an exported function, or an exported
function added or removed, fails ``test_exported_signatures_are_pinned``
until the snapshot below is edited in the same change, where review sees it.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import lassodist

MODULES = ["lassodist"] + [
    f"lassodist.{info.name}" for info in pkgutil.iter_modules(lassodist.__path__)
]

# Parameter names, in order, of every function in some module's ``__all__``,
# keyed by where it is defined.
SIGNATURES = {
    "lassodist.cli.main": ("argv",),
    "lassodist.density.gaussian_moments": ("A", "s_active", "beta", "sigma2", "spec"),
    "lassodist.density.inactive_null_basis": ("I", "basis", "spec"),
    "lassodist.density.log_density": ("theta", "active", "beta", "model", "spec"),
    "lassodist.density.log_density_rowspace": (
        "theta", "active", "beta", "model", "spec", "basis", "null_span",
    ),
    "lassodist.density.log_det_rowspace_jacobian": ("A", "spec", "basis", "null_span"),
    "lassodist.density.qform_log_density": ("model", "dim", "log_det", "n"),
    "lassodist.density.radial_log_norm": ("edges", "counts", "dim", "tail_slope", "tail_intercept"),
    "lassodist.density.radial_log_pdf": ("model", "radius"),
    "lassodist.density.rowspace_residual": ("theta", "active", "basis", "spec"),
    "lassodist.density.sample_errors": ("model", "n", "size", "rng"),
    "lassodist.density.score_qform": ("u", "spec", "basis"),
    "lassodist.density.scores": ("thetas", "active", "beta", "spec"),
    "lassodist.density.validate_state": ("theta", "active", "p"),
    "lassodist.estimation.acceptance_band_report": ("chain",),
    "lassodist.estimation.chain_diagnostics": ("chain", "g", "cost_ratio"),
    "lassodist.estimation.coefficient_histogram": ("chain", "coord", "bins"),
    "lassodist.estimation.estimate_sigma2": ("spec", "y", "beta_check"),
    "lassodist.estimation.fit_elliptical_model": (
        "spec", "y", "beta_check", "n_samples", "bins", "seed",
    ),
    "lassodist.estimation.posterior_decision_sample": ("spec", "y", "model", "L", "seed", "lam"),
    "lassodist.estimation.recentered_minimizer": ("spec", "center", "u"),
    "lassodist.estimation.sign_consistency_prob": ("spec", "beta0", "sigma2", "L", "seed"),
    "lassodist.estimation.summarize_chain": ("chain", "log_weights"),
    "lassodist.estimation.threshold_estimator": ("beta_hat", "b_th"),
    "lassodist.importance.chain_log_weights": (
        "chain", "spec", "basis", "sigma2_0", "lambda_star", "trial", "beta0",
    ),
    "lassodist.importance.coefficient_statistic": ("name", "coord", "p"),
    "lassodist.importance.multi_pvalue_study": (
        "spec", "beta0", "sigma2_0", "lambda_stars", "statistic", "t_stars", "L", "seed", "basis",
        "m_dagger", "l_pilot", "replicates", "workers",
    ),
    "lassodist.importance.multi_test": (
        "chain", "spec", "basis", "sigma2_0", "lambda_stars", "statistic", "t_stars", "trial",
        "beta0",
    ),
    "lassodist.importance.pool_results": ("runs",),
    "lassodist.importance.pvalue_study": (
        "spec", "beta0", "sigma2_0", "lambda_star", "statistic", "t_star", "L", "seed", "basis",
        "m_dagger", "l_pilot", "replicates",
    ),
    "lassodist.importance.sample_trial": ("spec", "beta0", "trial", "L", "seed"),
    "lassodist.importance.tune_trial": ("spec", "sigma2_0", "m_dagger", "l_pilot", "seed"),
    "lassodist.problem.build_problem": ("X", "w", "lam"),
    "lassodist.problem.log_det_jacobian": ("A", "spec"),
    "lassodist.problem.spectral_decompose": ("spec",),
    "lassodist.problem.synthetic_dataset": (
        "n", "p", "rho", "sigma2", "signal", "amplitude", "seed",
    ),
    "lassodist.samplers.conditional_mh_sample": (
        "spec", "beta", "model", "A_star", "config", "init", "max_init_draws",
    ),
    "lassodist.samplers.default_sampler_config": (
        "spec", "seed", "iters", "burn_in", "beta_ref", "sigma2_hat", "K", "equilibrium_init",
    ),
    "lassodist.samplers.direct_sample": ("spec", "beta", "model", "L", "seed"),
    "lassodist.samplers.mh_sample": ("spec", "beta", "model", "config", "init"),
    "lassodist.samplers.read_chain_csv": ("path",),
    "lassodist.samplers.write_chain_csv": ("chain", "path"),
    "lassodist.samplers.write_chain_meta": ("chain", "path", "config_echo"),
    "lassodist.solver.lambda_grid": ("spec", "y", "num", "min_frac"),
    "lassodist.solver.lambda_max": ("spec", "y"),
    "lassodist.solver.solve_lasso": ("spec", "y", "kkt_tol", "max_iter"),
    "lassodist.solver.solve_lasso_gram": ("gram", "xty", "weights", "lam", "kkt_tol", "max_iter"),
}


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def test_exported_signatures_are_pinned():
    found = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                key = f"{obj.__module__}.{obj.__qualname__}"
                found[key] = tuple(inspect.signature(obj).parameters)
    assert found == SIGNATURES
