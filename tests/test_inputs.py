"""One check per input of the sampled law.

Every entry point that takes a centre vector or a response rejects a wrong
length, NaN and +-inf with a ``DataError`` naming the argument, before any
random draw; every reader of an active set takes its indices or its (p,)
bool mask, with bit-identical results, and rejects negative, out-of-range
and duplicate indices and a wrong-shape mask with a ``ConfigError``.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

import lassodist.estimation
import lassodist.importance
import lassodist.samplers
from lassodist import (
    Chain,
    ConfigError,
    DataError,
    Gaussian,
    conditional_mh_sample,
    default_sampler_config,
    direct_sample,
    estimate_sigma2,
    fit_elliptical_model,
    gaussian_moments,
    inactive_null_basis,
    log_density,
    log_density_rowspace,
    log_det_jacobian,
    mh_sample,
    multi_pvalue_study,
    posterior_decision_sample,
    pvalue_study,
    recentered_minimizer,
    sign_consistency_prob,
    spectral_decompose,
)
from lassodist.density import _assemble_jacobian, log_det_rowspace_jacobian, scores
from lassodist.importance import TrialSpec, chain_log_weights, coefficient_statistic, sample_trial


# name -> (argument the message names, regime, call taking the bad vector v).
# The "small" problem is the 20 x 5 small_spec, the "wide" one the 4 x 7 wide_spec.
ENTRY_POINTS = {
    "direct_sample": ("beta", "small", lambda s, v: direct_sample(s, v, Gaussian(1.0), 5, 1)),
    "mh_sample": ("beta", "small", lambda s, v: mh_sample(
        s, v, Gaussian(1.0), default_sampler_config(s, 1, iters=50, burn_in=0))),
    "conditional_mh_sample": ("beta", "small", lambda s, v: conditional_mh_sample(
        s, v, Gaussian(1.0), [0], default_sampler_config(s, 1, iters=50, burn_in=0))),
    "default_sampler_config": ("beta_ref", "small",
                               lambda s, v: default_sampler_config(s, 1, beta_ref=v)),
    "scores": ("beta", "small", lambda s, v: scores(np.zeros(s.p), np.zeros(s.p, bool), v, s)),
    "log_density": ("beta", "small", lambda s, v: log_density(
        np.zeros(s.p), np.zeros(s.p, bool), v, Gaussian(1.0), s)),
    "log_density_rowspace": ("beta", "wide", lambda s, v: log_density_rowspace(
        np.zeros(s.p), np.zeros(s.p, bool), v, Gaussian(1.0), s, spectral_decompose(s))),
    "chain_log_weights": ("beta0", "small", lambda s, v: chain_log_weights(
        Chain(np.zeros((2, s.p)), np.zeros((2, s.p), bool), np.arange(2)), s, None, 1.0, 0.3,
        TrialSpec(5.0, 0.2), v)),
    "sample_trial": ("beta0", "small", lambda s, v: sample_trial(s, v, TrialSpec(5.0, 0.2), 5, 1)),
    "gaussian_moments": ("beta", "small", lambda s, v: gaussian_moments([0], [1.0], v, 1.0, s)),
    "gaussian_moments s_active": ("s_active", "small", lambda s, v: gaussian_moments(
        np.arange(s.p), v, np.zeros(s.p), 1.0, s)),
    "sign_consistency_prob": ("beta0", "small",
                              lambda s, v: sign_consistency_prob(s, v, 1.0, 10, 1)),
    "posterior_decision_sample": ("response", "small", lambda s, v: posterior_decision_sample(
        s, v, Gaussian(1.0), 5, 1)),
    "estimate_sigma2 y": ("y", "small", lambda s, v: estimate_sigma2(s, v, np.zeros(s.p))),
    "estimate_sigma2 beta_check": ("beta_check", "small",
                                   lambda s, v: estimate_sigma2(s, np.ones(s.n), v)),
    "fit_elliptical_model y": ("y", "small",
                               lambda s, v: fit_elliptical_model(s, v, np.zeros(s.p))),
    "fit_elliptical_model beta_check": ("beta_check", "small", lambda s, v: fit_elliptical_model(
        s, np.arange(s.n, dtype=float), v)),
    "recentered_minimizer center": ("center", "small",
                                    lambda s, v: recentered_minimizer(s, v, np.zeros(s.p))),
    "recentered_minimizer u": ("u", "small",
                               lambda s, v: recentered_minimizer(s, np.zeros(s.p), v)),
    "multi_pvalue_study": ("beta0", "small", lambda s, v: multi_pvalue_study(
        s, v, 1.0, [0.3], coefficient_statistic("linf"), [0.5], 20, 1, l_pilot=10)),
    "pvalue_study wide": ("beta0", "wide", lambda s, v: pvalue_study(
        s, v, 1.0, 0.3, coefficient_statistic("linf"), 0.5, 20, 1, l_pilot=10)),
}


def _size(name, spec):
    """Length of the vector argument the entry point expects."""
    arg = ENTRY_POINTS[name][0]
    return {"response": spec.n, "y": spec.n, "s_active": spec.p}.get(arg, spec.p)


@pytest.fixture
def no_draws(monkeypatch):
    """Make every random generator the samplers, estimators and tail studies build fail."""
    def refuse(seed):
        raise AssertionError("a random draw was made before the input check")

    for module in (lassodist.samplers, lassodist.estimation, lassodist.importance):
        monkeypatch.setattr(module, "generator", refuse)


@pytest.mark.parametrize("fault", ["short", "long", "nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_centre_and_response_checks_name_the_argument(small_spec, wide_spec, no_draws,
                                                      entry, fault):
    """Before, a NaN centre ran on (mh_sample gave NaN states, sign_consistency_prob 0.0)
    and a wrong length raised a bare numpy ValueError or a differently worded error."""
    arg, regime, call = ENTRY_POINTS[entry]
    spec = small_spec if regime == "small" else wide_spec
    size = _size(entry, spec)
    if fault in ("short", "long"):
        value = np.ones(size - 1 if fault == "short" else size + 1)
        message = f"{arg} must hold {size} values, got shape {value.shape}"
    else:
        value = np.ones(size)
        value[size // 2] = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}[fault]
        message = f"{arg} contains non-finite entries"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call(spec, value)


def _conditional(small, wide, A):
    config = default_sampler_config(small, 3, iters=40, burn_in=5)
    chain = conditional_mh_sample(small, np.full(5, 0.5), Gaussian(1.0), A, config)
    return chain.thetas, chain.active


# name -> (p, unsorted valid indices, call taking (small_spec, wide_spec, set)).  For
# inactive_null_basis the set is the inactive one.
READERS = {
    "log_det_jacobian": (5, [3, 0, 1], lambda small, wide, A: log_det_jacobian(A, small)),
    "_assemble_jacobian": (5, [3, 0, 1], lambda small, wide, A: _assemble_jacobian(A, small)),
    "gaussian_moments": (5, [3, 0, 1], lambda small, wide, A: gaussian_moments(
        A, [1.0, -1.0, 1.0], np.full(5, 0.5), 1.0, small)),
    "conditional_mh_sample": (5, [3, 0, 1], _conditional),
    "log_det_rowspace_jacobian": (7, [3, 0], lambda small, wide, A: log_det_rowspace_jacobian(
        A, wide, spectral_decompose(wide))),
    "inactive_null_basis": (7, [6, 0, 3, 2, 5], lambda small, wide, I: inactive_null_basis(
        I, spectral_decompose(wide), wide)),
}


def _raw(result):
    """The bytes of a reader's result: a float, an array or a tuple of arrays."""
    parts = result if isinstance(result, tuple) else (result,)
    return [np.asarray(part).tobytes() for part in parts]


@pytest.mark.parametrize("reader", list(READERS))
def test_active_set_readers_take_indices_or_a_mask(small_spec, wide_spec, reader):
    """Before, the density readers sorted raw indices: a mask raised IndexError, -1 and
    duplicates ran on another set, and the row-space Jacobian read [-1] as [p - 1].
    The error names the set read: inactive_null_basis called its set "active"."""
    p, indices, call = READERS[reader]
    mask = np.isin(np.arange(p), indices)
    assert _raw(call(small_spec, wide_spec, indices)) == _raw(call(small_spec, wide_spec, mask))
    kind = "inactive" if reader == "inactive_null_basis" else "active"
    for bad in ([-1, 0, 1], [0, 1, p], [0, 1, 1], np.append(mask, False)):
        with pytest.raises(ConfigError, match=f"^(an )?{kind}-set "):
            call(small_spec, wide_spec, bad)
