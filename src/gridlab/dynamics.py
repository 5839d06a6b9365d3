"""The piecewise-affine Markov chain: parameters, state, regions, one-step maps.

The chain lives on S = R x R+ with state x = (R, Z): reserve and latent
backlogged demand.  On each of the four reserve intervals D1..D4, cut at
``breakpoints(p)``, the transition is affine, x' = A_i x + b_i + (N, 0),
with N a Gaussian noise draw supplied by the caller.

Only this module knows the map, and it has two routes: the branch kernel
``iterate``, which ``step`` and every Monte Carlo trajectory run, and the
matrix table ``affine_piece``, which ``step_matrix`` and the drift routes
evaluate.  Tests pin the two to each other bit for bit, breakpoints
included.
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
    "step",
    "step_matrix",
    "affine_piece",
]


# The kernel stops a trajectory once |R| or Z exceeds this.
OVERFLOW_GUARD = 1e300

# Noise steps that iterate converts to Python floats at a time.
KERNEL_BLOCK = 4096


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
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "zeta": self.zeta,
            "xi": self.xi,
            "r_star": self.r_star,
            "sigma": self.sigma,
            "gamma": self.gamma,
            "regime": self.regime.value,
        }


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
    the run stops.  Each branch adds in the order of :func:`step_matrix`.

    noise may be any sequence of floats; ``step`` passes a 1-tuple.

    The loop runs on Python floats, converting the noise ``KERNEL_BLOCK``
    steps at a time.  Arithmetic on numpy scalars costs about twice as much
    per step, and converting the whole array at once would hold about 32
    bytes per step in Python objects.  Python floats and numpy float64 are
    both IEEE binary64 with round-to-nearest and no fused multiply-add, so
    every state has the bits that numpy arithmetic gives.
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
    for lo in range(0, len(noise), KERNEL_BLOCK):
        for t, n in enumerate(noise[lo:lo + KERNEL_BLOCK].tolist(), lo + 1):
            if r < b1:
                rp = ((one_lam * r + llm * z) + zeta) + n
                zp = -r + gamma * z
            elif r < b2:
                rp = ((r + llm * z) + zeta) + n
                zp = gamma * z
            elif r < b3:
                rp = (llm * z + rs) + n
                zp = gamma * z
            else:
                rp = ((r + llm * z) + (-xi)) + n
                zp = gamma * z
            r = rp
            z = zp
            out_r[t] = r
            out_z[t] = z
            if abs(r) > guard or z > guard:
                return t
    return -1


def step(p: Params, x: State, n: float, t: int = 0) -> tuple[State, StepRecord]:
    """One transition of the chain with an explicit noise draw.

    Pure: all randomness is the caller's responsibility.  The update is
    one step of :func:`iterate`.
    """
    r, z = x
    out_r = [r, r]
    out_z = [z, z]
    iterate(p, r, z, (n,), out_r, out_z)
    record = StepRecord(
        t=t,
        state=(r, z),
        region=classify_region(p, x),
        noise=n,
        b_expr=expressed_backlog(p, z),
        f_frustrated=frustrated_demand(r),
        h_control=ramp_control(p, r),
    )
    return (out_r[1], out_z[1]), record


def step_matrix(p: Params, x: State, n) -> State:
    """One transition via the generic matrix form A_i x + b_i + (n, 0).

    n may be an array of draws; the next reserve is then an array too.
    """
    r, z = x
    piece = affine_piece(p, classify_region(p, x))
    (a00, a01), (a10, a11) = piece.a
    b0, b1 = piece.b
    rp = ((a00 * r + a01 * z) + b0) + n
    zp = (a10 * r + a11 * z) + b1
    return (rp, zp)
