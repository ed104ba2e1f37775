"""Exception hierarchy shared across the package, and its parameter and vector checks."""
from __future__ import annotations

import math

import numpy as np


class LassodistError(Exception):
    """Base class for package errors; `exit_code` drives the CLI exit status."""

    exit_code = 1


class ConfigError(LassodistError):
    """Invalid configuration or parameter choice."""

    exit_code = 1


class DataError(LassodistError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class NumericalError(LassodistError):
    """Numerical failure: singular system, degenerate fit, lost positivity."""

    exit_code = 3


class ConvergenceError(NumericalError):
    """Iterative solver stopped before reaching tolerance.

    Carries the last iterate and its worst residual so callers can inspect
    how close the solver got; for a block of draws, also the indices of the
    draws left above tolerance (``draws``) and their residuals.  Samplers
    set ``seed`` to the seed of the run that produced the draws.
    """

    def __init__(
        self,
        message: str,
        *,
        beta: np.ndarray | None = None,
        residual: float | None = None,
        draws: np.ndarray | None = None,
        residuals: np.ndarray | None = None,
        seed: object = None,
    ) -> None:
        super().__init__(message)
        self.beta = beta
        self.residual = residual
        self.draws = draws
        self.residuals = residuals
        self.seed = seed

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.seed is None else f"{text} (seed {self.seed})"


def check_positive(name: str, value: float, *, zero_ok: bool = False) -> None:
    """Raise ``ConfigError`` naming ``name`` unless ``value`` is finite and positive.

    ``zero_ok`` also admits 0.  NaN fails every comparison, so a bare
    ``value <= 0`` test would let it through.
    """
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        bound = "nonnegative" if zero_ok else "positive"
        raise ConfigError(f"{name} must be finite and {bound}, got {value}")


def check_vector(name: str, value, size: int) -> np.ndarray:
    """``value`` as a float (size,) array; ``DataError`` naming ``name`` otherwise.

    The one check of a centre vector or a response: it must hold ``size``
    finite values.
    """
    vector = np.asarray(value, dtype=float)
    if vector.shape != (size,):
        raise DataError(f"{name} must hold {size} values, got shape {vector.shape}")
    if not np.all(np.isfinite(vector)):
        raise DataError(f"{name} contains non-finite entries")
    return vector
