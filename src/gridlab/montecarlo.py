"""Seeded trajectory simulation and stability/instability experiments.

Every entry point takes an explicit 64-bit seed; per-chain streams are
derived from (seed, chain index) so results are reproducible and
independent of how work is distributed across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    Params,
    Region,
    State,
    expressed_backlog,
    frustrated_demand,
    iterate,
    ramp_control,
    region_codes,
    step_matrix,
    validate_params,
)
from .errors import SimulationDiverged
from .lyapunov import lyap_h
from .rng import gaussian, point_seed, stream

__all__ = [
    "SimConfig",
    "TrajectoryStats",
    "Trajectory",
    "GrowthResult",
    "StabilityVerdict",
    "SweepPoint",
    "simulate",
    "monotone_violations",
    "empirical_drift",
    "two_chain_convergence",
    "growth_slope",
    "hitting_probability",
    "sweep",
]

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

# Verdict thresholds are artifact choices, not model constants; both are
# configurable through sweep().
KS_THRESHOLD = 0.05
SLOPE_THRESHOLD = 0.03

# Default launch state for growth-rate probes: deep in the frustrated
# region, where the unstable mode (eigenvalue 1 - mu of A1) is excited.
GROWTH_X0 = (-100.0, 50.0)


@dataclass(frozen=True)
class SimConfig:
    params: Params
    x0: State
    steps: int
    burn_in: int = 0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.steps <= self.burn_in or self.burn_in < 0:
            raise ValueError("need steps > burn_in >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.x0[1] < 0.0:
            raise ValueError("initial backlog z must be >= 0")


@dataclass(frozen=True)
class TrajectoryStats:
    """Post-burn-in summary of one trajectory."""

    r_mean: float
    r_var: float
    r_min: float
    r_max: float
    r_quantiles: dict[float, float]
    z_mean: float
    z_var: float
    z_min: float
    z_max: float
    z_quantiles: dict[float, float]
    occupancy: dict[str, float]
    mean_frustrated: float
    mean_expressed: float
    final_state: State
    n_samples: int

    def as_dict(self) -> dict:
        return {
            "r": {"mean": self.r_mean, "var": self.r_var, "min": self.r_min,
                  "max": self.r_max,
                  "quantiles": {str(q): v for q, v in self.r_quantiles.items()}},
            "z": {"mean": self.z_mean, "var": self.z_var, "min": self.z_min,
                  "max": self.z_max,
                  "quantiles": {str(q): v for q, v in self.z_quantiles.items()}},
            "occupancy": self.occupancy,
            "mean_frustrated": self.mean_frustrated,
            "mean_expressed": self.mean_expressed,
            "final_state": list(self.final_state),
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class Trajectory:
    """Thinned per-step records (arrays share a common length)."""

    t: np.ndarray
    r: np.ndarray
    z: np.ndarray
    region: np.ndarray       # strings "D1".."D4"
    b_expr: np.ndarray
    f_frustrated: np.ndarray
    h_control: np.ndarray


def _run_chain_raw(p: Params, x0: State, steps: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the chain; returns (r, z, diverged_at) with diverged_at == -1
    when the overflow guard never fired.  On divergence the arrays are
    valid up to and including index diverged_at."""
    noise = gaussian(rng, steps, p.sigma)
    out_r = np.empty(steps + 1)
    out_z = np.empty(steps + 1)
    bad = iterate(p, x0[0], x0[1], noise, out_r, out_z)
    return out_r, out_z, bad


def _run_chain(p: Params, x0: State, steps: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    out_r, out_z, bad = _run_chain_raw(p, x0, steps, rng)
    if bad >= 0:
        raise SimulationDiverged(bad, (out_r[bad], out_z[bad]))
    return out_r, out_z


def monotone_violations(p: Params, x0: State, steps: int,
                        seed: int) -> tuple[int, int]:
    """Count Z decreases along one trajectory.

    Returns (violations, steps_simulated); the count covers the prefix up
    to the overflow guard if the chain diverges (expected for mu <= -lam).
    """
    r, z, bad = _run_chain_raw(p, x0, steps, stream(seed))
    end = steps + 1 if bad < 0 else bad + 1
    viol = int(np.count_nonzero(np.diff(z[:end]) < 0.0))
    return viol, end - 1


def simulate(cfg: SimConfig,
             return_records: bool = False) -> tuple[TrajectoryStats, Trajectory | None]:
    """Run one chain and summarize it.

    Deterministic given the config.  Raises :class:`SimulationDiverged`
    if |R| or Z exceeds the 1e300 guard.
    """
    p = cfg.params
    rng = stream(cfg.seed)
    r, z = _run_chain(p, cfg.x0, cfg.steps, rng)

    rs_, zs_ = r[cfg.burn_in:], z[cfg.burn_in:]
    counts = np.bincount(region_codes(p, rs_), minlength=len(Region))
    stats = TrajectoryStats(
        r_mean=float(rs_.mean()), r_var=float(rs_.var()),
        r_min=float(rs_.min()), r_max=float(rs_.max()),
        r_quantiles=dict(zip(QUANTILES, np.quantile(rs_, QUANTILES).tolist())),
        z_mean=float(zs_.mean()), z_var=float(zs_.var()),
        z_min=float(zs_.min()), z_max=float(zs_.max()),
        z_quantiles=dict(zip(QUANTILES, np.quantile(zs_, QUANTILES).tolist())),
        occupancy={region.value: float(c) / rs_.size
                   for region, c in zip(Region, counts)},
        mean_frustrated=float(frustrated_demand(rs_).mean()),
        mean_expressed=float(expressed_backlog(p, zs_.mean())),
        final_state=(float(r[-1]), float(z[-1])),
        n_samples=int(rs_.size),
    )

    traj = None
    if return_records:
        idx = np.arange(0, cfg.steps + 1, cfg.record_every)
        rr = r[idx]
        traj = Trajectory(
            t=idx,
            r=rr,
            z=z[idx],
            region=np.array([d.value for d in Region])[region_codes(p, rr)],
            b_expr=expressed_backlog(p, z[idx]),
            f_frustrated=frustrated_demand(rr),
            h_control=ramp_control(p, rr),
        )
    return stats, traj


def empirical_drift(p: Params, x: State, n: int, seed: int) -> tuple[float, float]:
    """Sample mean and stderr of H(X(1)) - H(x) over n independent draws."""
    noise = gaussian(stream(seed), n, p.sigma)
    incr = lyap_h(p, step_matrix(p, x, noise)) - lyap_h(p, x)
    mean = float(incr.mean())
    stderr = 0.0 if p.sigma == 0.0 else float(incr.std(ddof=1) / math.sqrt(n))
    return mean, stderr


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|.

    The arithmetic of ``scipy.stats.ks_2samp(a, b).statistic`` step for
    step, so the value is bit-identical, without the p-value or the cost
    of importing ``scipy.stats``.  NaN in either sample gives NaN.
    """
    a, b = np.sort(a), np.sort(b)
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # sorting puts NaN last
        return float("nan")
    both = np.concatenate([a, b])
    d = (np.searchsorted(a, both, side="right") / a.size
         - np.searchsorted(b, both, side="right") / b.size)
    lo, hi = np.clip(-d.min(), 0, 1), d.max()
    return float(lo if lo > hi else hi)


def two_chain_convergence(p: Params, x0a: State, x0b: State, steps: int,
                          burn_in: int, seed: int) -> float:
    """KS distance between post-burn-in R-marginals of two chains.

    Empirical proxy for total-variation convergence to a unique
    stationary law; meaningful for mu > 0 but runs for any parameters.
    """
    ra, _ = _run_chain(p, x0a, steps, stream(seed, 0))
    # Identical initial conditions share the stream, so the distance is
    # exactly 0 (a determinism check); distinct ones get independent noise.
    chain_b = 0 if x0b == x0a else 1
    rb, _ = _run_chain(p, x0b, steps, stream(seed, chain_b))
    return _ks_statistic(ra[burn_in:], rb[burn_in:])


@dataclass(frozen=True)
class GrowthResult:
    median_slope: float      # nan if no seed produced a usable fit
    slopes: tuple[float, ...]
    excluded: int            # seeds with Z == 0 somewhere in the window


def growth_slope(p: Params, x0: State, t_lo: int, t_hi: int,
                 n_seeds: int, seed: int = 0) -> GrowthResult:
    """Median least-squares slope of log Z(t) over [t_lo, t_hi].

    Seeds whose backlog touches 0 inside the window (log undefined) are
    excluded and counted.
    """
    slopes = []
    excluded = 0
    ts = np.arange(t_lo, t_hi + 1)
    for k in range(n_seeds):
        _, z = _run_chain(p, x0, t_hi, stream(seed, k))
        window = z[t_lo:t_hi + 1]
        if np.any(window <= 0.0):
            excluded += 1
            continue
        slope = np.polyfit(ts, np.log(window), 1)[0]
        slopes.append(float(slope))
    median = float(np.median(slopes)) if slopes else float("nan")
    return GrowthResult(median, tuple(slopes), excluded)


def hitting_probability(p: Params, x0: State,
                        target: tuple[float, float, float, float],
                        horizon: int, n_seeds: int,
                        seed: int = 0) -> tuple[float, float]:
    """Fraction of seeds entering the rectangle within the horizon.

    target is (r_min, r_max, z_min, z_max), boundaries inclusive.
    """
    r_lo, r_hi, z_lo, z_hi = target
    hits = 0
    for k in range(n_seeds):
        if horizon == 0:
            inside = r_lo <= x0[0] <= r_hi and z_lo <= x0[1] <= z_hi
        else:
            r, z = _run_chain(p, x0, horizon, stream(seed, k))
            inside = bool(np.any((r >= r_lo) & (r <= r_hi)
                                 & (z >= z_lo) & (z <= z_hi)))
        hits += inside
    est = hits / n_seeds
    stderr = math.sqrt(est * (1.0 - est) / n_seeds)
    return est, stderr


@dataclass(frozen=True)
class StabilityVerdict:
    regime: str
    ks_distance: float       # nan when a chain diverged
    logz_slope: float        # nan when no seed usable
    monotone_violations: int
    verdict: str             # stable-consistent | unstable-consistent | inconclusive


@dataclass(frozen=True)
class SweepPoint:
    index: int
    overrides: dict[str, float]
    params: Params | None
    result: StabilityVerdict | None
    error: str | None = None


def _verdict(p: Params, seed: int, steps: int, burn_in: int, n_seeds: int,
             ks_threshold: float, slope_threshold: float,
             growth_x0: State) -> StabilityVerdict:
    try:
        ks = two_chain_convergence(p, (0.0, 0.0), (-50.0, 100.0),
                                   steps, burn_in, seed)
    except SimulationDiverged:
        ks = float("nan")

    t_hi = min(500, steps)
    try:
        growth = growth_slope(p, growth_x0, t_hi * 2 // 5, t_hi, n_seeds, seed + 1)
        slope = growth.median_slope
        diverged = False
    except SimulationDiverged:
        slope = float("inf")
        diverged = True

    violations = 0
    if p.mu <= -p.lam:
        # Z is monotone nondecreasing here; count violations as evidence.
        violations, _ = monotone_violations(p, (0.0, 0.0), min(steps, 10_000),
                                            seed + 2)

    ks_ok = math.isfinite(ks) and ks < ks_threshold
    growing = diverged or (math.isfinite(slope) and slope > slope_threshold)
    # A confidently positive growth slope outweighs a small finite-horizon
    # KS distance (the distance test is pre-asymptotic on a diverging
    # chain); only failing both tests is inconclusive.
    if growing:
        verdict = "unstable-consistent"
    elif p.mu <= -p.lam and violations == 0:
        verdict = "unstable-consistent"
    elif ks_ok:
        verdict = "stable-consistent"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(p.regime.value, ks, slope, violations, verdict)


def sweep(base: Params, grid: list[dict[str, float]], steps: int,
          burn_in: int, n_seeds: int = 16, seed: int = 0,
          ks_threshold: float = KS_THRESHOLD,
          slope_threshold: float = SLOPE_THRESHOLD,
          growth_x0: State = GROWTH_X0) -> list[SweepPoint]:
    """Evaluate a stability verdict at each grid point.

    grid is a list of parameter overrides (keys among lambda, mu, zeta,
    xi, r_star, sigma).  Each point gets a seed derived from (seed, index),
    so results do not depend on evaluation order or worker count.
    Per-point failures are recorded and the sweep continues.
    """
    rows = []
    for i, overrides in enumerate(grid):
        vals = base.as_dict()
        vals.update(overrides)
        try:
            p = validate_params(vals["lambda"], vals["mu"], vals["zeta"],
                                vals["xi"], vals["r_star"], vals["sigma"])
        except Exception as exc:
            rows.append(SweepPoint(i, dict(overrides), None, None, str(exc)))
            continue
        try:
            res = _verdict(p, point_seed(seed, i), steps, burn_in, n_seeds,
                           ks_threshold, slope_threshold, growth_x0)
            rows.append(SweepPoint(i, dict(overrides), p, res))
        except Exception as exc:
            rows.append(SweepPoint(i, dict(overrides), p, None, str(exc)))
    return rows
