"""Reproducible random number streams.

All randomness in the package flows through here.  Streams use the Philox
counter-based bit generator, keyed by (seed, *stream indices), so that any
number of parallel chains or sweep points get independent, reproducible
streams regardless of worker count.  Gaussian draws use the inverse-CDF
method on open-interval uniforms.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

ALGORITHM = "philox4x64 + inverse-cdf gaussian"

_TWO53 = float(1 << 53)


def stream(seed: int, *indices: int) -> np.random.Generator:
    """An independent generator for (seed, indices)."""
    ss = np.random.SeedSequence([int(seed), *[int(i) for i in indices]])
    return np.random.Generator(np.random.Philox(ss))


def point_seed(seed: int, index: int) -> int:
    """A 32-bit seed for item ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def gaussian(rng: np.random.Generator, size: int, sigma: float) -> np.ndarray:
    """N(0, sigma^2) draws via the inverse CDF, strictly inside (0, 1).

    The uniform map, ``ndtri`` and the scaling run in place on one array.
    """
    k = rng.integers(0, 1 << 53, size=size)
    if sigma == 0.0:
        return np.zeros(size)
    u = k.astype(np.float64)
    u += 0.5
    u /= _TWO53
    ndtri(u, out=u)
    u *= sigma
    return u
