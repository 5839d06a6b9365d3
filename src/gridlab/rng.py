"""Reproducible random number streams.

All randomness in the package flows through here.  Streams use the Philox
counter-based bit generator, keyed by (seed, *stream indices), so that any
number of parallel chains or sweep points get independent, reproducible
streams regardless of worker count.  Gaussian draws use the inverse-CDF
method on open-interval uniforms, through a numpy port of cephes ``ndtri``
(the routine behind ``scipy.special.ndtri``) that gives its bits, so the
package needs no scipy at run time.
"""

from __future__ import annotations

import math
import sys

import numpy as np
# Imported here, not on first use (numpy imports numpy.random lazily), so
# that its import is part of start-up, like the rest of the package's.
from numpy.random import Generator, Philox, SeedSequence

ALGORITHM = "philox4x64 + inverse-cdf gaussian"

_TWO53 = float(1 << 53)
_BELOW_ONE = 1.0 - 2.0 ** -53

# Uniforms mapped through the ndtri port at a time, as many as the chain
# runner draws at once (``montecarlo.KERNEL_BLOCK``).  A block's uniforms
# and the port's temporaries take about 55 bytes per element, so about
# 0.23 MB whatever the size of the draw.
_NDTRI_BLOCK = 4096

# cephes ndtri: its coefficients, highest power first, and branch points.
# Q0, Q1 and Q2 omit their leading coefficient 1.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# For 2 <= x = sqrt(-2 log y) < 8, that is exp(-32) < y <= exp(-2).
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# For x >= 8, that is y <= exp(-32).
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)

# Where long double is the x87 format (a 64-bit significand, stored little
# endian), ``np.log`` of it rounds to libm's double ``log`` unless it lies
# within _MIDPOINT_MARGIN x87 units in the last place of a midpoint between
# two doubles: 1/32 of a double ulp covers glibc's 0.519-ulp error bound
# for ``log`` plus the error of ``logl``.  Those elements, and every
# element on other formats, take ``math.log``, which is libm's ``log``.
_X87 = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_MIDPOINT_MARGIN = 64


def stream(seed: int, *indices: int) -> Generator:
    """An independent generator for (seed, indices)."""
    ss = SeedSequence([int(seed), *[int(i) for i in indices]])
    return Generator(Philox(ss))


def point_seed(seed: int, index: int) -> int:
    """A 32-bit seed for item ``index`` of a run seeded with ``seed``."""
    return int(SeedSequence([seed, index]).generate_state(1)[0])


def _log(v: np.ndarray) -> np.ndarray:
    """libm's ``log`` of each element of the float64 array ``v``, bit for
    bit, as the compiled ``ndtri`` computes it."""
    if _X87:
        wide = np.log(v.astype(np.longdouble))
        out = wide.astype(np.float64)
        # The 11 significand bits below double precision, in the lowest
        # bytes of each element; 0x400 is a rounding midpoint.  Less than
        # 0x400 - _MIDPOINT_MARGIN wraps round to a large uint16.
        below = wide.view(np.uint16)[::wide.itemsize // 2] & 0x7FF
        below -= 0x400 - _MIDPOINT_MARGIN
        redo = np.flatnonzero(below <= 2 * _MIDPOINT_MARGIN)
    else:
        out = np.empty_like(v)
        redo = np.arange(v.size)
    out[redo] = list(map(math.log, v[redo].tolist()))
    return out


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """cephes ``polevl``: Horner's rule from the highest coefficient."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """cephes ``p1evl``: ``polevl`` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each element of the 1-D float64
    array ``u``, all strictly inside (0, 1).

    The arithmetic of cephes ``ndtri`` step for step, so each result has
    the bits of ``scipy.special.ndtri`` linked against the same libm.  The
    central branch runs on every element, which is cheaper than selecting
    its 73%, and the tail elements then overwrite theirs.
    """
    v = u - 0.5
    v2 = v * v
    out = _polevl(v2, _P0)
    out *= v2
    out /= _p1evl(v2, _Q0)
    out *= v
    out += v
    out *= _S2PI

    tail = np.flatnonzero((u <= _EXPM2) | (u > 1.0 - _EXPM2))
    y = u[tail]
    flip = y > 1.0 - _EXPM2
    np.subtract(1.0, y, out=y, where=flip)
    x = _log(y)
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x1 = _polevl(z, _P1)
    x1 *= z
    x1 /= _p1evl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x -= _log(x) / x
    x -= x1
    np.negative(x, out=x, where=~flip)
    out[tail] = x
    return out


def standard_normal(k: np.ndarray) -> np.ndarray:
    """The N(0, 1) draw of each integer in ``k``, all in [0, 2^53).

    Each integer maps to the uniform u = (k + 0.5) / 2^53, rounded to the
    nearest double.  For k >= 2^52 the sum k + 0.5 is a tie and rounds to
    the even neighbour, so u is k / 2^53 or (k + 1) / 2^53 there; only
    k = 2^53 - 1 would round to 1.0, where the quantile is +inf, and its u
    is clamped to 1 - 2^-53, a value no other k gives.  The map is
    elementwise and runs ``_NDTRI_BLOCK`` elements at a time, so the
    result has the same shape and bits whatever the shape of ``k``.
    """
    out = np.empty(k.shape)
    flat_k, flat_out = k.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_k.size, _NDTRI_BLOCK):
        u = flat_k[lo:lo + _NDTRI_BLOCK].astype(np.float64)
        u += 0.5
        u /= _TWO53
        np.minimum(u, _BELOW_ONE, out=u)
        flat_out[lo:lo + _NDTRI_BLOCK] = _ndtri(u)
    return out


def gaussians(rngs: list[Generator], size: int, sigmas: list[float]) -> np.ndarray:
    """A (size, len(rngs)) block of N(0, sigma^2) draws via the inverse CDF
    of uniforms strictly inside (0, 1): column c from ``rngs[c]`` and
    ``sigmas[c]``.

    Each generator gives ``size`` raw 64-bit Philox words.  Their top 53
    bits, which ``Generator.integers(0, 2**53)`` would also give, one word
    each, :func:`standard_normal` maps to N(0, 1), scaled by the column's
    sigma; sigma = 0 gives +0.0 draws.  The map is elementwise, so a
    column has the same bits in any block.
    """
    k = np.empty((size, len(rngs)), dtype=np.uint64)
    for c, rng in enumerate(rngs):
        k[:, c] = rng.bit_generator.random_raw(size)
    k >>= np.uint64(11)
    sigmas = np.array(sigmas, dtype=np.float64)
    out = standard_normal(k)
    out *= sigmas
    out[:, sigmas == 0.0] = 0.0
    return out


def gaussian(rng: Generator, size: int, sigma: float) -> np.ndarray:
    """``size`` N(0, sigma^2) draws from ``rng``: :func:`gaussians`' one
    column."""
    return gaussians([rng], size, [sigma])[:, 0]
