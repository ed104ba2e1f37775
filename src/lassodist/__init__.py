"""Sampling-distribution toolkit for weighted lasso estimates.

The package evaluates the exact joint density of the penalized
coefficients together with their subgradient, simulates that law by
direct draws (p <= n and p > n) or Metropolis-Hastings chains (joint
and conditional; p <= n only), estimates far-tail probabilities by
importance sampling (p <= n and p > n), and ships the estimation and
diagnostic helpers needed around those samplers.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .density import (
    EmpiricalElliptical,
    Gaussian,
    StudentT,
    gaussian_moments,
    inactive_null_basis,
    log_density,
    log_density_rowspace,
    radial_log_norm,
    radial_log_pdf,
    rowspace_residual,
    validate_state,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    LassodistError,
    NumericalError,
)
from .estimation import (
    EfficiencyReport,
    SummaryStats,
    acceptance_band_report,
    chain_diagnostics,
    coefficient_histogram,
    estimate_sigma2,
    fit_elliptical_model,
    posterior_decision_sample,
    recentered_minimizer,
    sign_consistency_prob,
    summarize_chain,
    threshold_estimator,
)
from .importance import (
    ISResult,
    TrialSpec,
    coefficient_statistic,
    estimate_pvalue,
    multi_pvalue_study,
    multi_test,
    pvalue_study,
    tune_trial,
)
from .problem import (
    ProblemSpec,
    SpectralBasis,
    build_problem,
    log_det_jacobian,
    spectral_decompose,
    synthetic_dataset,
)
from .samplers import (
    Chain,
    SamplerConfig,
    conditional_mh_sample,
    default_sampler_config,
    direct_sample,
    mh_sample,
    read_chain_csv,
    write_chain_csv,
    write_chain_meta,
)
from .solver import (
    LassoSolution,
    lambda_grid,
    lambda_max,
    solve_lasso,
    solve_lasso_gram,
    subgradient_of,
)

__all__ = [
    "__version__",
    "Chain",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "EfficiencyReport",
    "EmpiricalElliptical",
    "Gaussian",
    "ISResult",
    "LassoSolution",
    "LassodistError",
    "NumericalError",
    "ProblemSpec",
    "SamplerConfig",
    "SpectralBasis",
    "StudentT",
    "SummaryStats",
    "TrialSpec",
    "acceptance_band_report",
    "build_problem",
    "chain_diagnostics",
    "coefficient_histogram",
    "coefficient_statistic",
    "conditional_mh_sample",
    "default_sampler_config",
    "direct_sample",
    "estimate_pvalue",
    "estimate_sigma2",
    "fit_elliptical_model",
    "gaussian_moments",
    "inactive_null_basis",
    "lambda_grid",
    "lambda_max",
    "log_density",
    "log_density_rowspace",
    "log_det_jacobian",
    "mh_sample",
    "multi_pvalue_study",
    "multi_test",
    "posterior_decision_sample",
    "pvalue_study",
    "radial_log_norm",
    "radial_log_pdf",
    "read_chain_csv",
    "recentered_minimizer",
    "rowspace_residual",
    "sign_consistency_prob",
    "solve_lasso",
    "solve_lasso_gram",
    "spectral_decompose",
    "subgradient_of",
    "summarize_chain",
    "synthetic_dataset",
    "threshold_estimator",
    "tune_trial",
    "validate_state",
    "write_chain_csv",
    "write_chain_meta",
]
