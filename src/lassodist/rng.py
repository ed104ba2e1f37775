"""Counter-based random number plumbing.

Every stochastic entry point takes a seed (int or SeedSequence) and builds
its own Philox generator, so chains own independent streams and replicate
fans are reproducible regardless of scheduling.  A Generator passed as the
seed is used as is, so that successive calls continue one stream.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError

Seed = int | np.random.SeedSequence


def seed_sequence(seed: Seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if int(seed) < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(int(seed))


def generator(seed: Seed | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed_sequence(seed)))
