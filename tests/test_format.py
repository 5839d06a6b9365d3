"""fmt_floats, the array formatter of trajectory.csv, against fmt_float."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gridlab import floatfmt
from gridlab.config import fmt_float
from gridlab.floatfmt import FIELD_BYTES, fmt_floats


def texts(x: np.ndarray) -> list[str]:
    """The text of each field fmt_floats lays out for x."""
    fields = fmt_floats(x)
    assert fields.shape == x.shape + (FIELD_BYTES,)
    assert not fields[..., -3:].any()  # the spare bytes a writer fills
    return [f.tobytes().translate(None, b"\0").decode("ascii") for f in fields]


def ties() -> list[float]:
    """Doubles exactly halfway between two 17-digit decimals.

    m / 2**(k + 1) with m odd is such a tie where m * 5**k has 18 digits.
    For k <= 22, 10**k is a double and the scaling is exact; k = 23 and 24
    (m * 2**-24, 2**-25) are the only ties whose scaling is not.
    """
    out = []
    for k in range(25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** k), min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        for m in {lo, lo + 1, (lo + hi) // 2, hi - 2, hi - 1}:
            if lo <= m < hi and m % 2 == 1:
                out.append(math.ldexp(m, -(k + 1)))
    return out


def near_powers_of_ten() -> list[float]:
    """The double nearest 10**k and its two neighbours.  Some of them
    round up to the next power of ten at 17 digits (1e-14, 1e+98)."""
    out = []
    for k in range(-323, 309):
        x = float(f"1e{k}")
        out += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return out


# m * 2**s whose scaled value |x| * 10**(16 - e) lies within 3e-17 of a
# half-integer, where 10**(16 - e) is not a double (found from the
# continued fractions of 2**s * 10**(16 - e)).  The fast path's error may
# exceed that distance, so these must be declined; scaled without the
# decline, each rounds the wrong way.  The last four rows are pre-scaled
# by 2**200 (|x| < 1e-270) and by 2**-200 (|x| >= 1e300).
NEAR_TIES = [math.ldexp(m, s) for m, s in [
    (6441135414609811, -299), (8469462325972807, -837),
    (8471560222857494, -672), (6339747139821773, -416),
    (5428001180936280, 484), (6785001476170350, 487),
    (8684801889498048, 480), (8571084786099026, 403),
    (8944262675275217, -1003), (8365196608024178, -1055),
    (8759223328667059, -1074), (8937789144900153, -1014),
    (7297662880581139, 949), (5752540900043051, 946),
    (7430561974493262, 962), (6063084534881332, 955)]]

ADVERSARIAL = np.array([
    *near_powers_of_ten(), *ties(), *NEAR_TIES,
    5e-324, -5e-324, 1e-270, math.nextafter(1e-270, 0.0), 1e300, -1e300,
    math.nextafter(1e300, math.inf), 2.0 ** 53 + 1, 0.0, -0.0,
    math.nan, math.inf, -math.inf, 1e-4, 1e-5, 1e16, 1e17,
    math.nextafter(1e17, 0.0), 123.0, 0.1, -2.5,
])


@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=64))
def test_fields_are_fmt_float(bits):
    # Any 64-bit pattern: NaNs of every payload, infinities, subnormals,
    # and normals of every exponent and sign, after the fixed cases.
    x = np.concatenate([ADVERSARIAL,
                        np.array(bits, dtype=np.uint64).view(np.float64)])
    assert texts(x) == [fmt_float(v) for v in x]


# Doubles that fmt_floats scales by a power of two first, and the edges
# of the unscaled range: biased exponent fields 0-130 (subnormals and
# |x| < 3e-269, which holds 1e-270) and 2019-2046 (|x| >= 6.7e299,
# which holds 1e300).
PRE_SCALED = st.builds(lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
                       st.integers(0, 1),
                       st.one_of(st.integers(0, 130), st.integers(2019, 2046)),
                       st.integers(0, 2 ** 52 - 1))


@given(st.lists(PRE_SCALED, min_size=1, max_size=64))
def test_pre_scaled_fields_are_fmt_float(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert texts(x) == [fmt_float(v) for v in x]


def test_fields_follow_the_array_shape():
    x = np.array([[1.0, -0.0, 1e-7], [np.nan, 2.0 ** -25, 1e22]])
    assert [texts(row) for row in x] == [[fmt_float(v) for v in row] for row in x]
    assert fmt_floats(np.empty((0, 7))).shape == (0, 7, FIELD_BYTES)


def test_only_exact_ties_of_ordinary_values_reach_fmt_float(monkeypatch):
    # N(0, 1) * 10**k over the decimal exponents scaled without a power of
    # two first (-270 <= e <= 299).  The one scaling settles every value
    # but the exact ties, |x| * 10**(16 - e) = n + 1/2, where that scaling
    # is inexact (e outside -6..16).
    calls = []
    monkeypatch.setattr(floatfmt, "fmt_float", lambda v: calls.append(v) or fmt_float(v))
    rng = np.random.default_rng(27)
    for k in range(-270, 300):
        fmt_floats(rng.standard_normal(500) * 10.0 ** k)
    assert len(calls) < 1000
    for v in calls:
        scaled = Fraction(abs(v)) * Fraction(10) ** (16 - math.floor(math.log10(abs(v))))
        assert 10 ** 16 <= scaled < 10 ** 17 and scaled.denominator == 2, v


def test_exact_ties_of_an_exact_scaling_stay_in_the_vector_path(monkeypatch):
    # Where 10**(16 - e) is a double (-6 <= e <= 16), p + q is exact and
    # rint rounds an exact tie half to even, as %.17g does.  N(0, 1) *
    # 10**k for 12 <= k <= 16 holds many ties (a third of the draws near
    # 1e15), and none of its values reaches fmt_float.
    calls = []
    monkeypatch.setattr(floatfmt, "fmt_float", lambda v: calls.append(v) or fmt_float(v))
    rng = np.random.default_rng(28)
    x = np.concatenate([rng.standard_normal(2000) * 10.0 ** k for k in range(12, 17)])
    assert texts(x) == [fmt_float(v) for v in x]
    assert calls == []
    exponents = np.floor(np.log10(np.abs(x))).astype(int)
    assert (exponents >= -6).all() and (exponents <= 16).all()
    scaled = [Fraction(abs(v)) * Fraction(10) ** (16 - int(e)) for v, e in zip(x, exponents)]
    assert sum(s.denominator == 2 for s in scaled) > 500
