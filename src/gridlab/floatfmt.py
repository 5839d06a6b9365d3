"""fmt_float for whole arrays: the float fields of trajectory.csv.

:func:`fmt_floats` lays out ``config.fmt_float(x)`` for every element
of an array, byte for byte, from one decimal scaling of each value and
a few lookup tables.  Every value that scaling cannot settle goes to
``fmt_float`` itself: NaN, the infinities, and each finite value whose
scaling lands off its decade or on 10**17, or is inexact and lands near
a rounding tie.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import fmt_float

# Bytes per field of fmt_floats: a sign and "0.000" (for 1e-4 <= |x| < 0.1),
# 17 digits each followed by a "." slot, then "e+XXX" and three NULs.
FIELD_BYTES = 48

# fmt_floats scales by 10**k for _P10_MIN <= k <= _P10_MAX (k = 16 - e for
# the decimal exponents -324 <= e <= 308 of nonzero doubles).  Outside
# _P10_UNSCALED (e < -270 or e > 299) it first scales the value by 2**_PRE
# or 2**-_PRE, exactly, so that it, 10**k and their Veltkamp splits are
# finite normal doubles.
# The tables are built on fmt_floats' first call, so a command that
# writes no trajectory pays for none of them.
_P10_MIN, _P10_MAX = -292, 340
_P10_UNSCALED = range(-283, 287)
_PRE = 200
_VELTKAMP = 134217729.0  # 2**27 + 1


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into two halves of at most 26 bits, so that the
    product of two halves is exact."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """(pre, hi, hi's Veltkamp halves, lo) by k - _P10_MIN: the power of
    two pre that a value is scaled by first, and 10**k / pre as a
    double-double hi + lo, both parts rounded from exact integer
    arithmetic, so lo is 0 just where 10**k / pre is a double (pre = 1
    and 0 <= k <= 22)."""
    pre, hi, lo = [], [], []
    for k in range(_P10_MIN, _P10_MAX + 1):
        s = 0 if k in _P10_UNSCALED else _PRE if k > 0 else -_PRE
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        num, den = num << max(-s, 0), den << max(s, 0)  # 10**k / 2**s
        h = num / den  # int true division is correctly rounded
        a, b = h.as_integer_ratio()
        pre.append(2.0 ** s)
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    return (np.array(pre), hi, *_veltkamp(hi), np.array(lo))


def _words(texts: list[bytes]) -> np.ndarray:
    """Each text NUL-padded to 8 bytes, as one uint64 word."""
    return np.frombuffer(b"".join(s.ljust(8, b"\0") for s in texts), np.uint64)


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """By 4-digit group abcd: "a.b.c.d." as a uint64 word, and its
    trailing zero digits (all four for 0)."""
    group = np.arange(10_000, dtype=np.int16)
    chars = np.full((10_000, 8), ord("."), np.uint8)
    zeros = np.zeros(10_000, np.int8)
    for j, place in enumerate((1000, 100, 10, 1)):
        chars[:, 2 * j] = ord("0") + group // place % 10
        zeros += group % (10 * place) == 0
    return chars.view(np.uint64).ravel(), zeros


# Field words: [sign "0.000" d0 .], four groups of [d . d . d . d .]
# (_group_tables), and the exponent, by lead digit, 4-digit group and
# exponent + _EXP_BIAS.
_LEAD = _words([b"-0.000%d." % d for d in range(10)])
_EXP_BIAS = 325
_EXPS = _words([b"e%+03d" % e for e in range(-_EXP_BIAS, 311)])
# %g writes 1e-4 <= |x| < 1e17 without an exponent: layouts 0..20 are
# those decimal exponents -4..16, layout 21 is e-notation.
_LAYOUTS = 22


@functools.cache
def _keep_table() -> np.ndarray:
    """The 0xFF mask of the bytes a field keeps, as 6 uint64 words, by
    (layout, index of the last nonzero digit, sign bit)."""
    layout = np.arange(_LAYOUTS)[:, None, None, None]
    last = np.arange(17)[:, None, None]
    neg = np.arange(2)[:, None]
    col = np.arange(FIELD_BYTES)
    exponent, fixed = layout - 4, layout < _LAYOUTS - 1
    point = np.where(fixed, exponent, 0)  # the digit the point follows
    digit = (col - 6) // 2  # digit j at column 6 + 2j, its "." slot after it
    body = (col >= 6) & (col < 40)
    keep = ((col == 0) & (neg == 1)
            | (col >= 1) & (col < 6) & (col <= 1 - exponent) & (exponent < 0)
            | body & (col % 2 == 0) & (digit <= np.maximum(last, point))
            | body & (col % 2 == 1) & (digit == point) & (last > point)
            | (col >= 40) & ~fixed)
    return (keep * np.uint8(0xFF)).reshape(-1, FIELD_BYTES).view(np.uint64)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, q): p + q is a * 10**(16 - e) and p is it rounded to a double.
    The sum is exact where the table's 10**(16 - e) / pre is a double
    (Dekker's product) and within 1e-14 of the product elsewhere."""
    k = 16 - _P10_MIN - e
    pre, hi, b_hi, b_lo, lo = (table[k] for table in _pow10_table())
    a = a * pre
    p = a * hi
    a_hi, a_lo = _veltkamp(a)
    q = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * lo
    s = p + q
    return s, q - (s - p)


def _divmod(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod`` for non-negative integers, without its slow modulo."""
    quotient = a // b
    return quotient, a - quotient * b


def _outside(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Where p + q lies outside [1e16, 1e17)."""
    return ((p < 1e16) | (p == 1e16) & (q < 0.0)
            | (p > 1e17) | (p == 1e17) & (q >= 0.0))


def fmt_floats(x: np.ndarray) -> np.ndarray:
    """:func:`fmt_float` of every element of a float array, as a uint8
    array of shape ``x.shape + (FIELD_BYTES,)``.

    Each field holds the characters of ``fmt_float(x[i])`` in order,
    with NUL bytes between and after them, so that
    ``field.tobytes().translate(None, b"\\0")`` is that text.  Its last
    three bytes are always NUL.

    The 17 correctly rounded digits come from the decimal scaling
    p + q = |x| * 10**(16 - e), e = floor(log10|x|): d = p + rint(q),
    half to even, since p is an even integer in [1e16, 1e17).  Values
    below 1e-270, subnormals included, and from 1e300 up are first
    scaled by a power of two, exactly, and multiplied by 10**(16 - e)
    over that power.  Where the factor is not a double, p + q may be off
    by 1e-14.  So ``fmt_float`` lays out, and nothing else does, the
    elements that are NaN or infinite, those whose p + q lies outside
    [1e16, 1e17) (log10 rounded across a power of ten, or the error did,
    as for 1e20), those whose d rounds up to 10**17, and those whose q
    lies within 1e-9 of a half-integer where 10**(16 - e) is not a double
    (e outside -6..16).  Inside that range p + q is exact, so rint
    settles an exact tie, as half the doubles from 1.2e15 to 2.2e15 are.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    fast = (a > 0.0) & (a < np.inf)  # finite and nonzero
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, e)
    r = np.rint(q)
    d = p.astype(np.int64) + r.astype(np.int64)
    slow = (~fast & (flat != 0.0) | _outside(p, q) | (d == 10 ** 17)
            | (np.abs(q - r) > 0.5 - 1e-9) & ((e < -6) | (e > 16)))
    del a, p, q, r  # each temporary goes as soon as it is dead
    d = np.where(fast & ~slow, d, 0)  # a zero's e is 0, from a = 1

    lead, rest = _divmod(d, 10 ** 16)
    upper, lower = _divmod(rest, 10 ** 8)
    groups = [*_divmod(upper, 10_000), *_divmod(lower, 10_000)]
    del d, rest, upper, lower
    words = np.empty((flat.size, FIELD_BYTES // 8), np.uint64)
    group_words, group_zeros = _group_tables()
    words[:, 0] = _LEAD[lead]
    for i, group in enumerate(groups, 1):
        words[:, i] = group_words[group]
    words[:, 5] = _EXPS[e + _EXP_BIAS]
    # Trailing zeros of d: those of its last nonzero group, plus 4 for
    # each zero group after it.
    zeros = np.full(flat.size, 16)
    for i, group in enumerate(groups):
        zeros = np.where(group != 0, group_zeros[group] + 12 - 4 * i, zeros)
    del lead, groups
    layout = np.where((e >= -4) & (e <= 16), e + 4, _LAYOUTS - 1)
    shape = (layout * 17 + 16 - zeros) * 2 + np.signbit(flat)
    del e, zeros, layout
    words &= _keep_table().take(shape, axis=0)

    fields = words.view(np.uint8)
    for i in np.flatnonzero(slow):
        text = fmt_float(flat[i]).encode("ascii")
        fields[i] = 0
        fields[i, :len(text)] = np.frombuffer(text, np.uint8)
    return fields.reshape(x.shape + (FIELD_BYTES,))
