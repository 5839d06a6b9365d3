"""The piecewise-affine Markov chain: parameters, state, regions, one-step maps.

The chain lives on S = R x R+ with state x = (R, Z): reserve and latent
backlogged demand.  On each of the four reserve intervals D1..D4, cut at
``breakpoints(p)``, the transition is affine, x' = A_i x + b_i + (N, 0),
with N a Gaussian noise draw supplied by the caller.

Only this module knows the map, and it defines it once: the table
``affine_piece`` of (A_i, b_i), on the regions cut by ``breakpoints``.
The branch kernel ``iterate`` (every single-chain Monte Carlo run)
evaluates it a scalar step at a time; ``step_matrix`` (and so ``step``),
the drift routes and the lockstep kernel ``iterate_columns`` as matrices.

The two kernels share one contract.  Each is a generator that takes
(params, r0, z0, blocks), a stream of noise blocks, sets itself up once
and carries the chain from block to block, and yields (r, z, bad) per
block: the block's states, its start state first (z0 as given, though a
backlog of -0.0 steps on as +0.0), and -1 or the row of the first state
beyond OVERFLOW_GUARD, by the one guard rule of ``_first_beyond``.  The
caller chooses the block sizes.
"""

from __future__ import annotations

import enum
import math
import struct
from bisect import bisect_right
from dataclasses import astuple, dataclass
from typing import Iterator

import numpy as np

from .errors import ParamError

__all__ = [
    "OVERFLOW_GUARD",
    "PARAM_KEYS",
    "Regime",
    "Params",
    "State",
    "Region",
    "AffinePiece",
    "is_finite_number",
    "validate_params",
    "breakpoints",
    "classify_region",
    "region_codes",
    "ramp_control",
    "frustrated_demand",
    "expressed_backlog",
    "iterate",
    "iterate_columns",
    "step",
    "step_matrix",
    "affine_piece",
]


# The kernel stops a trajectory once |R| or Z exceeds this.
OVERFLOW_GUARD = 1e300

# The config ``params`` keys, in validate_params' and Params' order.
PARAM_KEYS = ("lambda", "mu", "zeta", "xi", "r_star", "sigma")


class Regime(str, enum.Enum):
    """Stability regime implied by the sign of the evaporation rate."""

    POSITIVE = "positive"            # mu > 0: stabilizable
    ZERO = "zero"                    # mu == 0: open case
    NEGATIVE_MILD = "negative-mild"  # -lambda < mu < 0: unstable
    NEGATIVE_TRIVIAL = "negative-trivial"  # mu <= -lambda: Z monotone


class Region(str, enum.Enum):
    """Which reserve interval the state occupies (left-closed, right-open)."""

    D1 = "D1"  # r < 0: frustration active, ramp-up saturated
    D2 = "D2"  # 0 <= r < r* - zeta: ramp-up saturated
    D3 = "D3"  # r* - zeta <= r < r* + xi: target reachable in one step
    D4 = "D4"  # r >= r* + xi: ramp-down saturated


_REGIONS = tuple(Region)


@dataclass(frozen=True)
class Params:
    """Validated model constants.  Build via :func:`validate_params`."""

    lam: float      # inverse re-expression delay, 0 < lam < 1
    mu: float       # evaporation rate, lam + mu < 1
    zeta: float     # ramp-up limit, > 0
    xi: float       # ramp-down limit, > 0
    r_star: float   # target reserve, > zeta
    sigma: float    # noise standard deviation, > 0
    gamma: float    # derived: 1 - lam - mu
    regime: Regime

    def as_dict(self) -> dict:
        """The six constants under their ``PARAM_KEYS``."""
        return dict(zip(PARAM_KEYS, astuple(self)))


State = tuple[float, float]  # (r, z) with z >= 0


@dataclass(frozen=True)
class AffinePiece:
    """One affine branch of the transition: x' = a @ x + b (+ noise on r)."""

    a: tuple[tuple[float, float], tuple[float, float]]
    b: tuple[float, float]


def is_finite_number(v) -> bool:
    """The one number rule: a finite int or float, and not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def validate_params(
    lam: float,
    mu: float,
    zeta: float,
    xi: float,
    r_star: float,
    sigma: float,
) -> Params:
    """Check the parameter constraints and derive gamma and the regime.

    Raises :class:`ParamError` naming, by ``PARAM_KEYS``, the first value
    not :func:`is_finite_number`, or the first broken constraint.  Any mu
    with lam + mu < 1 passes; mu <= -lam is the trivially unstable regime.
    """
    vals = (lam, mu, zeta, xi, r_star, sigma)
    for name, v in zip(PARAM_KEYS, vals):
        if not is_finite_number(v):
            raise ParamError(name, "must be a finite number")
    if not 0.0 < lam < 1.0:
        raise ParamError("lambda", "must satisfy 0 < lambda < 1")
    if lam + mu >= 1.0:
        raise ParamError("mu", "lambda+mu must be < 1")
    if zeta <= 0.0:
        raise ParamError("zeta", "must be > 0")
    if xi <= 0.0:
        raise ParamError("xi", "must be > 0")
    if r_star <= zeta:
        raise ParamError("r_star", "must be > zeta")
    if sigma < 0.0:
        # sigma == 0 is allowed: deterministic runs are used as oracles.
        raise ParamError("sigma", "must be >= 0")

    if mu > 0.0:
        regime = Regime.POSITIVE
    elif mu == 0.0:
        regime = Regime.ZERO
    elif mu > -lam:
        regime = Regime.NEGATIVE_MILD
    else:
        regime = Regime.NEGATIVE_TRIVIAL

    gamma = 1.0 - lam - mu
    return Params(*map(float, vals), gamma, regime)


def breakpoints(p: Params) -> tuple[float, float, float]:
    """Left ends of D2, D3 and D4 on the reserve axis: (0, r* - zeta, r* + xi)."""
    return (0.0, p.r_star - p.zeta, p.r_star + p.xi)


def classify_region(p: Params, x: State) -> Region:
    """Map a state to the unique region containing it (NaN reserve: D4)."""
    return _REGIONS[bisect_right(breakpoints(p), x[0])]


def region_codes(p: Params, r: np.ndarray) -> np.ndarray:
    """Region index 0..3 (D1..D4) of each reserve value; NaN lands in D4."""
    return np.searchsorted(breakpoints(p), r, side="right")


def ramp_control(p: Params, r):
    """Threshold control: steer reserve to r*, clipped to [-xi, zeta]."""
    # The same bits as np.clip, at half its cost on a scalar.
    return np.minimum(np.maximum(p.r_star - r, -p.xi), p.zeta)


def frustrated_demand(r):
    """F = [-R]+ : demand denied satisfaction this slot."""
    return np.maximum(-r, 0.0)


def expressed_backlog(p: Params, z):
    """B = lam * Z : backlog re-entering demand this slot."""
    return p.lam * z


def affine_piece(p: Params, region: Region) -> AffinePiece:
    """The (A_i, b_i) pair for one region."""
    llm = p.lam * (p.lam + p.mu)
    g = p.gamma
    if region is Region.D1:
        return AffinePiece(((1.0 + p.lam, llm), (-1.0, g)), (p.zeta, 0.0))
    if region is Region.D2:
        return AffinePiece(((1.0, llm), (0.0, g)), (p.zeta, 0.0))
    if region is Region.D3:
        return AffinePiece(((0.0, llm), (0.0, g)), (p.r_star, 0.0))
    return AffinePiece(((1.0, llm), (0.0, g)), (-p.xi, 0.0))


def _first_beyond(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The guard rule, per column of the states r and z (rows are steps):
    -1, or the first row after row 0 with R > G, R < -G or Z > G, G =
    OVERFLOW_GUARD.  A NaN alone never counts.  No abs() copy of R."""
    beyond = r > OVERFLOW_GUARD
    beyond |= r < -OVERFLOW_GUARD
    beyond |= z > OVERFLOW_GUARD
    beyond[0] = False
    return np.where(beyond.any(axis=0), beyond.argmax(axis=0), -1)


def iterate(p: Params, r0: float, z0: float, blocks
            ) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """The kernel contract (see the module) for one chain: 1-D noise
    blocks, and bad a number.  The block in which the guard fires ends at
    that state, and no further block is read.

    One branch per region evaluates :func:`affine_piece`'s table, which
    iterate_columns gathers per column, a scalar step at a time, adding in
    step_matrix's order without the terms of its 0 entries.  The loop runs
    on Python floats (numpy scalar arithmetic costs twice as much per
    step), so the caller's block size bounds its Python objects.
    Iterating a memoryview of the noise makes each draw a float as it is
    read, 7 ns a step less than ``tolist``.  The states go to two lists
    through ``block_r.append(r)``, a call form the interpreter specialises
    (a bound ``append`` in a local is not).  ``struct`` packs each list
    into C doubles that ``np.frombuffer`` views (6 to 8 ns per state
    against 15 to 21 for ``np.fromiter``, with the floats' own bits).
    States computed past the guard are dropped, as float ``+`` and ``*``
    give inf or NaN there without raising.  Python floats and numpy
    float64 are both IEEE binary64, round to nearest, with no fused
    multiply-add: numpy's bits.  A block's noise and lists are let go
    before the next block is read.
    """
    (one_lam, llm), (_, gamma) = affine_piece(p, Region.D1).a
    zeta, rs, neg_xi = (affine_piece(p, region).b[0] for region in _REGIONS[1:])
    b1, b2, b3 = breakpoints(p)
    r, z = float(r0), float(z0)
    for noise in blocks:
        block_r, block_z = [r], [z]
        z += 0.0  # a backlog of -0.0 steps on as +0.0
        for n in memoryview(noise):
            # A NaN reserve fails every test and steps as D4.
            if r < b2:
                if r < b1:
                    r, z = ((one_lam * r + llm * z) + zeta) + n, -r + gamma * z
                else:
                    r, z = ((r + llm * z) + zeta) + n, gamma * z
            elif r < b3:
                r, z = (llm * z + rs) + n, gamma * z
            else:
                r, z = ((r + llm * z) + neg_xi) + n, gamma * z
            block_r.append(r)
            block_z.append(z)
        del noise
        pack = struct.Struct(f"{len(block_r)}d").pack
        states_r = np.frombuffer(pack(*block_r))
        states_z = np.frombuffer(pack(*block_z))
        del block_r, block_z
        bad = int(_first_beyond(states_r, states_z))
        if bad >= 0:
            yield states_r[:bad + 1], states_z[:bad + 1], bad
            return
        yield states_r, states_z, bad


def iterate_columns(ps, r0, z0, blocks
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The kernel contract (see the module) for one chain per column, in
    lockstep: column c has params ps[c], noise blocks have shape (steps,
    K), K = len(ps), r0 and z0 are scalars or K values, and bad has one
    row per column.

    Column c gets the states that :func:`iterate` gives it.  Past its
    guard row a column steps on, with numpy's overflow and invalid
    warnings off, so its later rows are no result.  r and z are views of
    two buffers that the next block overwrites, allocated for the first
    block and again only for a longer one.  Each step gathers every
    column's piece of :func:`affine_piece` by its region and evaluates it
    as :func:`step_matrix` does.
    """
    k = len(ps)
    # The table is built once per distinct Params (a sweep's seeds share
    # them).  Row 4c + j holds column c's piece for the region with j of
    # its breakpoints above the reserve: D4, D3, D2, D1 for j = 0..3.  A
    # NaN reserve is above none of them and lands in D4, as in
    # region_codes.
    distinct: dict[Params, int] = {}
    col = [distinct.setdefault(p, len(distinct)) for p in ps]
    pieces = np.array([[(*piece.a[0], *piece.a[1], *piece.b)
                        for piece in (affine_piece(p, region)
                                      for region in reversed(_REGIONS))]
                       for p in distinct])
    table = pieces[col].reshape(4 * k, 6)
    cuts = np.array([breakpoints(p) for p in distinct])[col].T.copy()
    first_row = np.arange(0, 4 * k, 4)
    above = np.empty((3, k), dtype=bool)
    count = above.view(np.uint8)
    j = np.empty(k, dtype=np.uint8)
    rows = np.empty(k, dtype=np.intp)
    term = np.empty(k)
    buf_r, buf_z = np.empty((1, k)), np.empty((1, k))
    buf_r[0], buf_z[0] = r0, z0
    last = 0
    for noise in blocks:
        steps = len(noise)
        start = buf_r[last], buf_z[last]
        if steps >= len(buf_r):
            buf_r, buf_z = np.empty((steps + 1, k)), np.empty((steps + 1, k))
        buf_r[0], buf_z[0] = start
        # Not around the yield, which would lend it to the caller.
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, steps + 1):
                r, z, rp, zp = buf_r[t - 1], buf_z[t - 1], buf_r[t], buf_z[t]
                np.greater(cuts, r, out=above)
                np.add(count[0], count[1], out=j)
                np.add(j, count[2], out=j)
                np.add(first_row, j, out=rows)
                a00, a01, a10, a11, b0, b1 = table.take(rows, axis=0).T
                np.multiply(a00, r, out=rp)
                np.multiply(a01, z, out=term)
                rp += term
                rp += b0
                rp += noise[t - 1]
                np.multiply(a11, z, out=zp)
                # step_matrix drops a zero a10 term, which keeps Z finite
                # past a NaN reserve.
                np.multiply(a10, r, out=term)
                np.add(term, zp, out=zp, where=a10 != 0.0)
                zp += b1
        del noise
        last = steps
        r, z = buf_r[:steps + 1], buf_z[:steps + 1]
        yield r, z, _first_beyond(r, z)


def step(p: Params, x: State, n: float) -> tuple[State, Region]:
    """One transition of the chain with an explicit noise draw: the next
    state and the region whose piece moved x.

    Pure: all randomness is the caller's responsibility.  The update is
    :func:`step_matrix`, which tests pin bit for bit to one step of
    :func:`iterate`, as a pair of Python floats.  B, F and the control at
    x come from the helpers :func:`expressed_backlog`,
    :func:`frustrated_demand` and :func:`ramp_control`.
    """
    r1, z1 = step_matrix(p, x, n)
    return (float(r1), float(z1)), classify_region(p, x)


def step_matrix(p: Params, x: State, n) -> State:
    """One transition via the generic matrix form A_i x + b_i + (n, 0).

    n may be an array of draws; the next reserve is then an array too.
    """
    r, z = x
    piece = affine_piece(p, classify_region(p, x))
    (a00, a01), (a10, a11) = piece.a
    b0, b1 = piece.b
    rp = ((a00 * r + a01 * z) + b0) + n
    # A zero a10 drops its term, as the kernel does: 0.0 * r is NaN at an
    # infinite or NaN reserve, and only a signed zero at a finite one.
    zp = (a11 * z + b1) if a10 == 0.0 else (a10 * r + a11 * z) + b1
    return (rp, zp)
