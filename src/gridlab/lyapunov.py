"""Lyapunov functions, coordinate changes, and one-step drifts.

The quadratic function H(x) = (r + lam*z)^2 + (r + (lam+mu)*z)^2 has
negative one-step drift outside a compact set when mu > 0.  This module
computes the drift three independent ways:

* ``drift_exact``      -- closed form H(A_i x + b_i) + 2 sigma^2 - H(x);
* ``drift_paper``      -- the region-wise expressions written in the
                          eigenbasis of each affine piece (exact in D1 and
                          D2, upper bounds in D3 and D4 for mu > 0);
* ``empirical_drift``  -- Monte Carlo sampling of one step.

It also exposes the geometry of the sets C1..C4 where the drift may exceed
-1, and the logarithmic function used to certify instability for
-lam < mu < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Params, Region, State, classify_region, step_matrix
from .errors import GeometryUndefined, TransformUndefined
from .rng import gaussian, stream

__all__ = [
    "Basis",
    "DriftReport",
    "NegativeDriftGeometry",
    "quad_form",
    "lyap_h",
    "basis",
    "to_y1",
    "from_y1",
    "w1",
    "to_y2",
    "w2",
    "drift_exact",
    "drift_paper",
    "empirical_drift",
    "negative_drift_geometry",
    "in_c_union",
    "log_lyap",
    "log_drift_numeric",
    "drift_report",
]

Mat2 = tuple[tuple[float, float], tuple[float, float]]

# drift_report's agreement tolerances are artifact choices: the paper
# formula must match the exact drift to this relative error (or bound it
# from above), and the Monte Carlo mean must lie within this many
# standard errors of it.
PAPER_REL_TOL = 1e-9
MC_SIGMAS = 4.0


@dataclass(frozen=True)
class Basis:
    """Eigendecompositions A1 = M1 L1 M1^-1 and A2 = M2 L2 M2^-1."""

    m1: Mat2
    m1_inv: Mat2
    lambda1: tuple[float, float]  # diag(1, 1 - mu)
    m2: Mat2
    m2_inv: Mat2
    lambda2: tuple[float, float]  # diag(1, 1 - lam - mu)


@dataclass(frozen=True)
class DriftReport:
    """Exact, paper-formula, and Monte Carlo drift at one state: a row of
    drift_report.csv, field for field, with the state as r and z."""

    state: State
    region: Region
    exact: float
    paper_formula: float | None  # None when undefined (mu == 0 in D1)
    paper_kind: str  # "exact", "upper_bound", "expression", "not-applicable"
    mc_mean: float
    mc_stderr: float
    agree_paper: bool | None     # None where nothing is claimed
    agree_mc: bool


@dataclass(frozen=True)
class NegativeDriftGeometry:
    """Coefficients of the boundary curves of C1..C4 (mu > 0 only).

    C1 = D1 states with u < g1(v) in M1 coordinates; C2 = D2 states with
    z < v_plus; C3 = D3 states inside the ellipse; C4 = D4 states with
    r + lam*z < g4(z).  Outside the union the drift of H is <= -1.
    """

    g1_coeffs: tuple[float, float, float]   # g1(v) = c2 v^2 + c1 v + c0
    v_plus: float
    g4_coeffs: tuple[float, float, float]
    alpha: float
    beta: float
    radius_const: float  # rhs of the ellipse equation

    def g1(self, v):
        return _quadratic(self.g1_coeffs, v)

    def g4(self, v):
        return _quadratic(self.g4_coeffs, v)

    def as_dict(self) -> dict:
        return {"g1_coeffs": list(self.g1_coeffs), "v_plus": self.v_plus,
                "g4_coeffs": list(self.g4_coeffs),
                "ellipse": {"alpha": self.alpha, "beta": self.beta,
                            "radius_const": self.radius_const}}

    def inside_ellipse(self, r, z) -> bool:
        d = z - self.beta / self.alpha
        return 2.0 * r * r + self.alpha * d * d < self.radius_const


def _quadratic(coeffs: tuple[float, float, float], v):
    c2, c1, c0 = coeffs
    return c2 * v * v + c1 * v + c0


def quad_form(p: Params) -> Mat2:
    """The symmetric matrix Q with H(x) = x^T Q x."""
    lm = p.lam + p.mu
    q01 = 2.0 * p.lam + p.mu
    return ((2.0, q01), (q01, p.lam * p.lam + lm * lm))


def lyap_h(p: Params, x: State) -> float:
    """H(x) = (r + lam z)^2 + (r + (lam+mu) z)^2; r and z may be arrays."""
    r, z = x
    a = r + p.lam * z
    b = r + (p.lam + p.mu) * z
    return a * a + b * b


def basis(p: Params) -> Basis:
    """Both eigenbases.  M1^-1 carries a 1/mu factor, so mu must be nonzero."""
    if p.mu == 0.0:
        raise TransformUndefined("M1 is singular when mu == 0")
    lam, mu = p.lam, p.mu
    inv = 1.0 / mu
    return Basis(
        m1=((-lam - mu, -lam), (1.0, 1.0)),
        m1_inv=((-inv, -lam * inv), (inv, (lam + mu) * inv)),
        lambda1=(1.0, 1.0 - mu),
        m2=((1.0, -lam), (0.0, 1.0)),
        m2_inv=((1.0, lam), (0.0, 1.0)),
        lambda2=(1.0, p.gamma),
    )


def to_y1(p: Params, x: State) -> tuple[float, float]:
    """y = M1^-1 x: u = -(r + lam z)/mu, v = (r + (lam+mu) z)/mu."""
    if p.mu == 0.0:
        raise TransformUndefined("M1 is singular when mu == 0")
    r, z = x
    return (-(r + p.lam * z) / p.mu, (r + (p.lam + p.mu) * z) / p.mu)


def from_y1(p: Params, y: tuple[float, float]) -> State:
    """x = M1 y: r = -(lam+mu) u - lam v, z = u + v."""
    u, v = y
    return (-(p.lam + p.mu) * u - p.lam * v, u + v)


def w1(p: Params, y: tuple[float, float]) -> float:
    """H in M1 coordinates: mu^2 (u^2 + v^2)."""
    u, v = y
    return p.mu * p.mu * (u * u + v * v)


def to_y2(p: Params, x: State) -> tuple[float, float]:
    """y = M2^-1 x: u = r + lam z, v = z (used for both D2 and D4)."""
    r, z = x
    return (r + p.lam * z, z)


def w2(p: Params, y: tuple[float, float]) -> float:
    """H in M2 coordinates: u^2 + (u + mu v)^2."""
    u, v = y
    a = u + p.mu * v
    return u * u + a * a


def drift_exact(p: Params, x: State) -> float:
    """Exact one-step expected drift of H at x.

    Noise enters only the first coordinate, and H is a sum of two squares
    each linear in r, so the noise contributes sigma^2 per square:
    D H(x) = H(A_i x + b_i) + 2 sigma^2 - H(x).
    """
    mean_next = step_matrix(p, x, 0.0)
    return lyap_h(p, mean_next) + 2.0 * p.sigma * p.sigma - lyap_h(p, x)


def empirical_drift(p: Params, x: State, n: int, seed: int) -> tuple[float, float]:
    """Sample mean and stderr of H(X(1)) - H(x) over n independent draws;
    at sigma = 0, every increment's value (drift_exact's bits) and 0."""
    noise = gaussian(stream(seed), n, p.sigma)
    incr = lyap_h(p, step_matrix(p, x, noise)) - lyap_h(p, x)
    if p.sigma == 0.0:
        return float(incr[0]), 0.0
    return float(incr.mean()), float(incr.std(ddof=1) / math.sqrt(n))


def _ratio(x: float, y: float) -> float:
    """x / y, with IEEE 754's inf or NaN where an underflowed y is zero
    and Python's float division would raise."""
    if y:
        return x / y
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(x) / y)


def _dw1(p: Params, y: tuple[float, float]) -> float:
    u, v = y
    mu, zeta, sig = p.mu, p.zeta, p.sigma
    try:
        cube = mu ** 3  # not mu * mu * mu, which rounds differently
    except OverflowError:  # where * gives inf, ** raises
        cube = math.copysign(math.inf, mu)
    return (-cube * (2.0 - mu) * v * v
            + 2.0 * zeta * mu * (1.0 - mu) * v
            - 2.0 * zeta * mu * u
            + 2.0 * (zeta * zeta + sig * sig))


def _dw2(p: Params, y: tuple[float, float]) -> float:
    # The written form duplicates the 2*zeta*u and zeta^2 + sigma^2 terms;
    # kept verbatim, it matches drift_exact in D2.
    u, v = y
    lam, mu, zeta, sig = p.lam, p.mu, p.zeta, p.sigma
    lm = lam + mu
    return (2.0 * zeta * u + zeta * zeta + sig * sig
            - mu * mu * (2.0 - lm) * lm * v * v
            - 2.0 * mu * lm * u * v
            + 2.0 * zeta * u
            + 2.0 * mu * p.gamma * zeta * v
            + zeta * zeta + sig * sig)


def _d3_bound(p: Params, x: State) -> float:
    r, z = x
    lam, mu, rs, sig = p.lam, p.mu, p.r_star, p.sigma
    lm = lam + mu
    return (2.0 * (rs * rs + sig * sig - r * r)
            + 2.0 * rs * (lam + lm * (1.0 - mu)) * z
            - lm * lm * mu * (2.0 - mu) * z * z)


def _d4_bound(p: Params, y: tuple[float, float]) -> float:
    u, v = y
    lam, mu, xi, rs, sig = p.lam, p.mu, p.xi, p.r_star, p.sigma
    lm = lam + mu
    return (2.0 * sig * sig + 2.0 * xi * xi - 4.0 * xi * u
            - (2.0 * mu * lm * rs + 2.0 * xi * mu) * v
            - mu * lm * lm * (2.0 - mu) * v * v)


def drift_paper(p: Params, x: State) -> tuple[float, str]:
    """The region-specific drift expression at x.

    Returns (value, kind): the expression is the exact drift in D1 and D2
    ("exact"), and in D3 and D4 an upper bound for mu > 0 ("upper_bound")
    and an "expression" that bounds nothing otherwise.  D1 needs the M1
    coordinates, hence mu != 0.
    """
    region = classify_region(p, x)
    if region is Region.D1:
        return _dw1(p, to_y1(p, x)), "exact"
    if region is Region.D2:
        return _dw2(p, to_y2(p, x)), "exact"
    kind = "upper_bound" if p.mu > 0.0 else "expression"
    if region is Region.D3:
        return _d3_bound(p, x), kind
    return _d4_bound(p, to_y2(p, x)), kind


def negative_drift_geometry(p: Params) -> NegativeDriftGeometry:
    """Boundary curves of the sets C1..C4; defined only for mu > 0.

    A mu or zeta so small that a divisor underflows to 0 gives inf or NaN
    coefficients, as a tiny nonzero divisor gives inf.
    """
    if p.mu <= 0.0:
        raise GeometryUndefined("negative-drift geometry requires mu > 0")
    lam, mu, zeta, xi, rs, sig = p.lam, p.mu, p.zeta, p.xi, p.r_star, p.sigma
    lm = lam + mu

    g1 = (-mu * mu * (2.0 - mu) / (2.0 * zeta),
          1.0 - mu,
          _ratio(2.0 * (zeta * zeta + sig * sig) + 1.0, 2.0 * zeta * mu))

    # D2 bound == -1 is a*v^2 - b*v - c = 0; v_plus is its positive root.
    a = mu * lm * lm * (2.0 - mu)
    b = 2.0 * zeta * (2.0 * lam + mu * p.gamma)
    c = 2.0 * sig * sig - 2.0 * zeta * zeta + 4.0 * zeta * rs + 1.0
    v_plus = _ratio(b + math.sqrt(b * b + 4.0 * a * c), 2.0 * a)

    q = 1.0 / (4.0 * xi)
    g4 = (-q * mu * lm * lm * (2.0 - mu),
          -q * (2.0 * mu * lm * rs + 2.0 * xi * mu),
          q * (2.0 * sig * sig + 2.0 * xi * xi + 1.0))

    alpha = lm * lm * mu * (2.0 - mu)
    beta = rs * (lam + lm * (1.0 - mu))
    radius = 1.0 + 2.0 * rs * rs + 2.0 * sig * sig + _ratio(beta * beta, alpha)
    return NegativeDriftGeometry(g1, v_plus, g4, alpha, beta, radius)


def in_c_union(p: Params, x: State,
               geom: NegativeDriftGeometry | None = None) -> bool:
    """Whether x lies in C1 u C2 u C3 u C4 (drift may exceed -1 there)."""
    if geom is None:
        geom = negative_drift_geometry(p)
    region = classify_region(p, x)
    if region is Region.D1:
        u, v = to_y1(p, x)
        return u < geom.g1(v)
    if region is Region.D2:
        return x[1] < geom.v_plus
    if region is Region.D3:
        return geom.inside_ellipse(x[0], x[1])
    u, v = to_y2(p, x)
    return u < geom.g4(v)


def log_lyap(p: Params, y: tuple[float, float]) -> float:
    """log v truncated at 0 below v = 1; the instability certificate."""
    if not -p.lam < p.mu < 0.0:
        raise GeometryUndefined("log Lyapunov function applies for -lambda < mu < 0")
    v = y[1]
    return math.log(v) if v >= 1.0 else 0.0


def log_drift_numeric(p: Params, v: float, n_samples: int,
                      seed: int) -> tuple[float, float]:
    """Monte Carlo drift of the truncated-log function at height v.

    Evolves V' = (1 - mu) V + (N + zeta)/mu (the D1 dynamics in M1
    coordinates) and returns (mean, stderr) of log_lyap(V') - log_lyap(v).
    The limit as v -> infinity is log(1 - mu) > 0.
    """
    if not -p.lam < p.mu < 0.0:
        raise GeometryUndefined("log drift applies for -lambda < mu < 0")
    if v < 1.0:
        raise ValueError("v must be >= 1")
    rng = stream(seed)
    n = gaussian(rng, n_samples, p.sigma)
    v_next = (1.0 - p.mu) * v + (n + p.zeta) / p.mu
    h_next = np.where(v_next >= 1.0, np.log(np.maximum(v_next, 1.0)), 0.0)
    incr = h_next - math.log(v)
    mean = float(np.mean(incr))
    stderr = float(np.std(incr, ddof=1) / math.sqrt(n_samples))
    return mean, stderr


def drift_report(p: Params, x: State, n_samples: int, seed: int) -> DriftReport:
    """Cross-check all drift routes at one state."""
    region = classify_region(p, x)
    exact = drift_exact(p, x)
    if region is Region.D1 and p.mu == 0.0:
        paper_val, kind, agree_paper = None, "not-applicable", None
    else:
        paper_val, kind = drift_paper(p, x)
        scale = max(1.0, abs(exact), abs(paper_val))
        if kind == "exact":
            agree_paper = abs(exact - paper_val) <= PAPER_REL_TOL * scale
        elif kind == "upper_bound":
            agree_paper = exact <= paper_val + PAPER_REL_TOL * scale
        else:
            agree_paper = None
    mc_mean, mc_stderr = empirical_drift(p, x, n_samples, seed)
    agree_mc = abs(exact - mc_mean) <= MC_SIGMAS * mc_stderr
    return DriftReport(x, region, exact, paper_val, kind,
                       mc_mean, mc_stderr, agree_paper, agree_mc)
