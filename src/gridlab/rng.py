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
_BELOW_ONE = 1.0 - 2.0 ** -53


def stream(seed: int, *indices: int) -> np.random.Generator:
    """An independent generator for (seed, indices)."""
    ss = np.random.SeedSequence([int(seed), *[int(i) for i in indices]])
    return np.random.Generator(np.random.Philox(ss))


def point_seed(seed: int, index: int) -> int:
    """A 32-bit seed for item ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def gaussian(rng: np.random.Generator, size: int, sigma: float) -> np.ndarray:
    """N(0, sigma^2) draws via the inverse CDF of uniforms strictly inside (0, 1).

    Each uniform is u = (k + 0.5) / 2^53 for an integer k drawn from
    [0, 2^53), rounded to the nearest double.  For k >= 2^52 the sum
    k + 0.5 is a tie and rounds to the even neighbour, so u is k / 2^53 or
    (k + 1) / 2^53 there; only k = 2^53 - 1 would round to 1.0, where
    ``ndtri`` is +inf, and its u is clamped to 1 - 2^-53, a value no other
    k gives.  The uniform map, ``ndtri`` and the scaling run in place on
    one array.
    """
    k = rng.integers(0, 1 << 53, size=size)
    if sigma == 0.0:
        return np.zeros(size)
    u = k.astype(np.float64)
    u += 0.5
    u /= _TWO53
    np.minimum(u, _BELOW_ONE, out=u)
    ndtri(u, out=u)
    u *= sigma
    return u
