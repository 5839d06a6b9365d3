"""The piecewise-affine Markov chain: parameters, state, regions, one-step maps.

The chain lives on S = R x R+ with state x = (R, Z): reserve and latent
backlogged demand.  On each of the four reserve intervals D1..D4, cut at
``breakpoints(p)``, the transition is affine, x' = A_i x + b_i + (N, 0),
with N a Gaussian noise draw supplied by the caller.

Only this module knows the map, and it has two routes: the branch kernel
``iterate``, which every single-chain Monte Carlo run uses, and the
matrix table ``affine_piece``, which ``step_matrix`` (and so ``step``),
the drift routes and the lockstep kernel ``iterate_columns`` evaluate.
Tests pin the routes to each other bit for bit, breakpoints included.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ParamError

__all__ = [
    "OVERFLOW_GUARD",
    "Regime",
    "Params",
    "State",
    "Region",
    "AffinePiece",
    "StepRecord",
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

# Noise steps that iterate converts to Python floats at a time.
KERNEL_BLOCK = 4096

# Chains that callers of iterate_columns advance at a time: enough to
# spread numpy's per-call cost, few enough that one block's noise and
# states (about 3 MB at 500 steps) leave peak RSS where it was.
COLUMN_BLOCK = 256


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
        """The six constants under their config ``params`` keys."""
        return {"lambda": self.lam, "mu": self.mu, "zeta": self.zeta,
                "xi": self.xi, "r_star": self.r_star, "sigma": self.sigma}


State = tuple[float, float]  # (r, z) with z >= 0


@dataclass(frozen=True)
class AffinePiece:
    """One affine branch of the transition: x' = a @ x + b (+ noise on r)."""

    a: tuple[tuple[float, float], tuple[float, float]]
    b: tuple[float, float]


@dataclass(frozen=True)
class StepRecord:
    """Observables attached to one transition."""

    t: int
    state: State
    region: Region
    noise: float
    b_expr: float        # expressed backlog B = lam * Z
    f_frustrated: float  # frustrated demand F = max(-R, 0)
    h_control: float     # real-time purchase increment


def validate_params(
    lam: float,
    mu: float,
    zeta: float,
    xi: float,
    r_star: float,
    sigma: float,
) -> Params:
    """Check the parameter constraints and derive gamma and the regime.

    Raises :class:`ParamError` naming the first violated constraint.  Any
    sign of mu is accepted as long as lam + mu < 1; mu <= -lam is merely
    tagged as the trivially unstable regime.
    """
    vals = dict(lam=lam, mu=mu, zeta=zeta, xi=xi, r_star=r_star, sigma=sigma)
    for name, v in vals.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
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
    return Params(float(lam), float(mu), float(zeta), float(xi),
                  float(r_star), float(sigma), gamma, regime)


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


def iterate(p: Params, r0: float, z0: float, noise, out_r, out_z) -> int:
    """Write the states visited from (r0, z0) under the noise into out_r/out_z.

    Returns -1, or the index of the first state beyond OVERFLOW_GUARD, where
    the run stops: nothing past that index is written.  Each branch adds in
    the order of :func:`step_matrix`.  out_z[0] keeps z0 as given, but the
    run starts from z0 + 0.0, so a backlog of -0.0 steps on as +0.0, as in
    step_matrix.

    noise may be any sequence of floats.

    The loop runs on Python floats, ``KERNEL_BLOCK`` steps at a time.
    Arithmetic on numpy scalars costs about twice as much per step, and
    converting the whole noise array at once would hold about 32 bytes per
    step in Python objects.  Each block's states go to two Python lists
    through ``block_r.append(r)``, a call form the interpreter specialises
    (a bound ``append`` held in a local is not), where one item store per
    step into the outputs costs more; each list becomes an array once, and
    one slice store writes it.  The first guard step is then found by one
    vectorised scan per block (three array operations) instead of an
    ``abs()`` call and two comparisons per step.  States the loop computes
    past the guard inside its block are dropped: Python float ``+`` and
    ``*`` give inf or NaN there without raising.  Python floats and numpy
    float64 are both IEEE binary64 with round-to-nearest and no fused
    multiply-add, so every state has the bits that numpy arithmetic gives.
    """
    lam, zeta, xi, gamma = p.lam, p.zeta, p.xi, p.gamma
    llm = lam * (lam + p.mu)
    b1, b2, b3 = breakpoints(p)
    rs = p.r_star
    one_lam = 1.0 + lam
    guard = OVERFLOW_GUARD
    noise = np.asarray(noise, dtype=np.float64)
    r = float(r0)
    z = float(z0)
    out_r[0] = r
    out_z[0] = z
    z += 0.0
    for lo in range(0, len(noise), KERNEL_BLOCK):
        block_r = []
        block_z = []
        for n in noise[lo:lo + KERNEL_BLOCK].tolist():
            # A NaN reserve fails every test and steps as D4.
            if r < b2:
                if r < b1:
                    r, z = ((one_lam * r + llm * z) + zeta) + n, -r + gamma * z
                else:
                    r, z = ((r + llm * z) + zeta) + n, gamma * z
            elif r < b3:
                r, z = (llm * z + rs) + n, gamma * z
            else:
                r, z = ((r + llm * z) + (-xi)) + n, gamma * z
            block_r.append(r)
            block_z.append(z)
        states_r = np.fromiter(block_r, np.float64, len(block_r))
        states_z = np.fromiter(block_z, np.float64, len(block_z))
        # fmax skips a NaN operand, so this is |R| > guard or Z > guard at
        # every step, NaN included.
        beyond = np.fmax(np.abs(states_r), states_z) > guard
        first = int(beyond.argmax())
        if beyond[first]:
            out_r[lo + 1:lo + first + 2] = states_r[:first + 1]
            out_z[lo + 1:lo + first + 2] = states_z[:first + 1]
            return lo + first + 1
        out_r[lo + 1:lo + len(block_r) + 1] = states_r
        out_z[lo + 1:lo + len(block_r) + 1] = states_z
    return -1


def iterate_columns(ps, r0, z0, noise, out_r, out_z) -> np.ndarray:
    """Run one chain per column in lockstep, column c with params ps[c].

    noise has shape (steps, K) and out_r/out_z shape (steps + 1, K), with
    K = len(ps); r0 and z0 are the start states, scalars or K values.
    Column c gets the states that ``iterate(ps[c], r0[c], z0[c],
    noise[:, c], ...)`` writes, and the returned array holds, per column,
    what that call returns: -1, or the index of the first state beyond
    OVERFLOW_GUARD.  Past that index a column steps on, with numpy's
    overflow and invalid warnings off, so its later rows are no result.

    Each step gathers every column's piece of :func:`affine_piece` by its
    region and evaluates it as :func:`step_matrix` does.
    """
    k = len(ps)
    out_r[0] = r0
    out_z[0] = z0
    if len(noise) == 0:
        return np.full(k, -1)
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
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, len(noise) + 1):
            r, z, rp, zp = out_r[t - 1], out_z[t - 1], out_r[t], out_z[t]
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
            # step_matrix drops a zero a10 term, which keeps Z finite past
            # a NaN reserve.
            np.multiply(a10, r, out=term)
            np.add(term, zp, out=zp, where=a10 != 0.0)
            zp += b1
    beyond = out_r[1:] > OVERFLOW_GUARD  # |R| > guard without an abs() copy
    beyond |= out_r[1:] < -OVERFLOW_GUARD
    beyond |= out_z[1:] > OVERFLOW_GUARD
    first = beyond.argmax(axis=0)
    return np.where(beyond[first, np.arange(k)], first + 1, -1)


def step(p: Params, x: State, n: float, t: int = 0) -> tuple[State, StepRecord]:
    """One transition of the chain with an explicit noise draw.

    Pure: all randomness is the caller's responsibility.  The update is
    :func:`step_matrix`, which tests pin bit for bit to one step of
    :func:`iterate` without its per-block array work, and the next state
    is a pair of Python floats, as are the record's observables.
    """
    r, z = x
    r1, z1 = step_matrix(p, x, n)
    record = StepRecord(
        t=t,
        state=(r, z),
        region=classify_region(p, x),
        noise=n,
        b_expr=float(expressed_backlog(p, z)),
        f_frustrated=float(frustrated_demand(r)),
        h_control=float(ramp_control(p, r)),
    )
    return (float(r1), float(z1)), record


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
