"""The package-wide random generator."""

from __future__ import annotations

import numpy as np


def rng_from(seed: int) -> np.random.Generator:
    """The package-wide named generator (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))
