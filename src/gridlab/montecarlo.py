"""Seeded trajectory simulation and stability/instability experiments.

Every entry point takes an explicit 64-bit seed; per-chain streams are
derived from (seed, chain index) so results are reproducible and
independent of how work is distributed across processes.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import shutil
import signal
import tempfile
import threading
import warnings
from dataclasses import dataclass, replace
from itertools import islice
from typing import BinaryIO, Callable

import numpy as np

from .dynamics import (
    COLUMN_BLOCK,
    KERNEL_BLOCK,
    Params,
    Region,
    State,
    expressed_backlog,
    frustrated_demand,
    iterate,
    iterate_columns,
    ramp_control,
    region_codes,
    validate_params,
)
from .errors import GridlabError, SimulationDiverged
from .rng import gaussian, gaussians, point_seed, stream

__all__ = [
    "SimConfig",
    "TrajectoryStats",
    "Trajectory",
    "GrowthResult",
    "StabilityVerdict",
    "SweepPoint",
    "simulate",
    "monotone_violations",
    "two_chain_convergence",
    "growth_slope",
    "hitting_probability",
    "sweep",
    "usable_cpus",
    "forked",
]

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

# Verdict thresholds are artifact choices, not model constants: a KS
# distance below KS_THRESHOLD counts as converged, a median log Z slope
# above SLOPE_THRESHOLD as growing.
KS_THRESHOLD = 0.05
SLOPE_THRESHOLD = 0.03

# Launch state for growth-rate probes: deep in the frustrated region,
# where the unstable mode (eigenvalue 1 - mu of A1) is excited.
GROWTH_X0 = (-100.0, 50.0)


def usable_cpus() -> int:
    """How many processes gridlab may run at once: the CPUs this process
    may use (``os.sched_getaffinity``), so ``taskset`` narrows a run.

    1 where the platform cannot fork or report its CPU affinity, and 1
    while another Python thread is alive: a forked child holds only the
    forking thread, so a lock another thread held stays held in it.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def forked(what: str, units: int, job: Callable[[int, int, BinaryIO], object],
           out: BinaryIO, directory: os.PathLike | None = None) -> int:
    """Run the n = min(:func:`usable_cpus`, ``units``) shares of a job,
    at least one, and write them into ``out`` in share order; returns n.

    ``job(k, n, fh)`` writes share k into the binary file ``fh``.  Shares
    1..n-1 run in forked children, each into an anonymous file in
    ``directory``; share 0 runs in this process straight into ``out``,
    and each child's file is then appended to ``out`` in share order,
    through a bounded buffer.  Where ``os.fork`` failed, this process runs
    that share itself.  A child that exits non-zero (-N when signal N
    ended it) raises GridlabError "<what> share k+1 of n failed in a
    child process (exit status c)".  However the call ends, every child
    is killed and reaped and every file closed.

    A child ends only through ``os._exit``: 0 once ``job`` returns and
    the file is flushed, 1 on any exception, with no traceback and none
    of the parent's clean-up.  Python 3.12+ warns on forking a process
    with threads; with Python threads ruled out by ``usable_cpus`` those
    are numpy's idle BLAS pool, which no child touches.
    """
    n = max(1, min(usable_cpus(), units))
    files, pids = [], {}  # share k's file is files[k - 1]; share -> live pid
    try:
        for k in range(1, n):
            files.append(fh := tempfile.TemporaryFile(dir=directory))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                code = 1
                try:
                    job(k, n, fh)
                    fh.flush()
                    code = 0
                finally:
                    os._exit(code)
            pids[k] = pid
        job(0, n, out)
        for k, fh in enumerate(files, 1):
            if k in pids:
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(k), 0)[1])
                if code != 0:
                    raise GridlabError(f"{what} share {k + 1} of {n} failed in "
                                       f"a child process (exit status {code})")
                fh.seek(0)
                shutil.copyfileobj(fh, out)
            else:
                job(k, n, out)
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fh in files:
            fh.close()
    return n


def check_horizon(steps: int, burn_in: int) -> None:
    """The horizon rule every chain run obeys: steps > burn_in >= 0."""
    if not steps > burn_in >= 0:
        raise ValueError("need steps > burn_in >= 0")


@dataclass(frozen=True)
class SimConfig:
    params: Params
    x0: State
    steps: int
    burn_in: int = 0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        check_horizon(self.steps, self.burn_in)
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


_REGION_NAMES = np.array([region.value for region in Region])


@dataclass(frozen=True)
class Trajectory:
    """Thinned per-step records of one chain.

    Only the chain is stored: ``r`` and ``z`` hold R and Z at steps 0,
    record_every, 2 * record_every, ...  Every other column is a function
    of the state, derived when it is read: for every row from the
    attributes (``t``, ``region``, ``b_expr``, ``f_frustrated``,
    ``h_control``), or for a row range from :meth:`columns`, which gives
    each element the same bits, the region as its code.  Two trajectories
    are equal when their params, record_every and chains are, NaN equal
    to NaN.
    """

    params: Params
    record_every: int
    r: np.ndarray
    z: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.params == other.params
                and self.record_every == other.record_every
                and np.array_equal(self.r, other.r, equal_nan=True)
                and np.array_equal(self.z, other.z, equal_nan=True))

    def columns(self, lo: int, hi: int) -> list[np.ndarray]:
        """Rows lo..hi-1 of t, r, z, the region code (0..3 for D1..D4),
        b_expr, f_frustrated and h_control."""
        part = replace(self, r=self.r[lo:hi], z=self.z[lo:hi])
        return [np.arange(lo, lo + part.r.size) * self.record_every,
                part.r, part.z, region_codes(self.params, part.r),
                part.b_expr, part.f_frustrated, part.h_control]

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.r.size) * self.record_every

    @property
    def region(self) -> np.ndarray:
        """Region names "D1".."D4"."""
        return _REGION_NAMES[region_codes(self.params, self.r)]

    @property
    def b_expr(self) -> np.ndarray:
        return expressed_backlog(self.params, self.z)

    @property
    def f_frustrated(self) -> np.ndarray:
        return frustrated_demand(self.r)

    @property
    def h_control(self) -> np.ndarray:
        return ramp_control(self.params, self.r)


def _run_chain_raw(p: Params, x0: State, steps: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the chain; returns (r, z, diverged_at) with diverged_at == -1
    when the overflow guard never fired.  On divergence the arrays are
    valid up to and including index diverged_at.

    The noise is drawn ``KERNEL_BLOCK`` values at a time, which gives the
    bits of one whole-horizon draw, so no noise array for the whole
    horizon is held and a diverged chain draws nothing past its block.
    """
    out_r = np.empty(steps + 1)
    out_z = np.empty(steps + 1)
    out_r[0], out_z[0] = x0
    for lo in range(0, steps, KERNEL_BLOCK):
        hi = min(lo + KERNEL_BLOCK, steps)
        bad = iterate(p, out_r[lo], out_z[lo], gaussian(rng, hi - lo, p.sigma),
                      out_r[lo:hi + 1], out_z[lo:hi + 1])
        if bad >= 0:
            return out_r, out_z, lo + bad
    return out_r, out_z, -1


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
    if steps < 0:
        raise ValueError("steps must be >= 0")
    r, z, bad = _run_chain_raw(p, x0, steps, stream(seed))
    end = steps + 1 if bad < 0 else bad + 1
    viol = int(np.count_nonzero(np.diff(z[:end]) < 0.0))
    return viol, end - 1


def simulate(cfg: SimConfig,
             return_records: bool = False) -> tuple[TrajectoryStats, Trajectory | None]:
    """Run one chain and summarize it.

    Deterministic given the config.  Raises :class:`SimulationDiverged`
    if |R| or Z exceeds the 1e300 guard; a post-burn-in deviation past
    about 1.3e154 makes r_var and z_var inf, with numpy's "overflow
    encountered in square" RuntimeWarning (``gridlab simulate`` exits 3).
    The records hold views of the chain, every record_every-th state, and
    no other array: the chain's 16 bytes per step stay alive with them.
    Summarizing peaks at 24 bytes per step, the chain and one temporary.
    """
    p = cfg.params
    rng = stream(cfg.seed)
    r, z = _run_chain(p, cfg.x0, cfg.steps, rng)

    rs_, zs_ = r[cfg.burn_in:], z[cfg.burn_in:]
    counts = np.bincount(region_codes(p, rs_), minlength=len(Region))
    # frustrated_demand(rs_) in one temporary instead of two: the same
    # ufuncs, so the same bits.  It is freed before var and quantile take
    # theirs.
    frustrated = np.negative(rs_)
    mean_frustrated = float(np.maximum(frustrated, 0.0, out=frustrated).mean())
    del frustrated
    stats = TrajectoryStats(
        r_mean=float(rs_.mean()), r_var=float(rs_.var()),
        r_min=float(rs_.min()), r_max=float(rs_.max()),
        r_quantiles=dict(zip(QUANTILES, _quantiles(rs_, QUANTILES).tolist())),
        z_mean=float(zs_.mean()), z_var=float(zs_.var()),
        z_min=float(zs_.min()), z_max=float(zs_.max()),
        z_quantiles=dict(zip(QUANTILES, _quantiles(zs_, QUANTILES).tolist())),
        occupancy={region.value: float(c) / rs_.size
                   for region, c in zip(Region, counts)},
        mean_frustrated=mean_frustrated,
        mean_expressed=float(expressed_backlog(p, zs_.mean())),
        final_state=(float(r[-1]), float(z[-1])),
        n_samples=int(rs_.size),
    )

    traj = None
    if return_records:
        traj = Trajectory(p, cfg.record_every, r[::cfg.record_every],
                          z[::cfg.record_every])
    return stats, traj


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|.

    The arithmetic of ``scipy.stats.ks_2samp(a, b).statistic`` step for
    step, so the value is bit-identical, without the p-value or the cost
    of importing ``scipy.stats``.  NaN in either sample gives NaN.  scipy's
    d, F_a - F_b at a's elements and then at b's, needs two n-key searches.
    """
    a, b = np.sort(a), np.sort(b)
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # sorting puts NaN last
        return float("nan")
    d_a = _tie_ends(a) / a.size - np.searchsorted(b, a, side="right") / b.size
    d_b = np.searchsorted(a, b, side="right") / a.size - _tie_ends(b) / b.size
    lo = np.clip(-min(d_a.min(), d_b.min()), 0, 1)
    hi = max(d_a.max(), d_b.max())
    return float(lo if lo > hi else hi)


def _tie_ends(x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(x, x, side="right")`` of a sorted x without NaN."""
    ends = np.arange(1, x.size + 1)
    ends[:-1][x[1:] == x[:-1]] = x.size  # not the last of its tie run
    return np.minimum.accumulate(ends[::-1])[::-1]


def two_chain_convergence(p: Params, x0a: State, x0b: State, steps: int,
                          burn_in: int, seed: int) -> float:
    """KS distance between post-burn-in R-marginals of two chains.

    Empirical proxy for total-variation convergence to a unique
    stationary law; meaningful for mu > 0 but runs for any parameters.
    """
    check_horizon(steps, burn_in)
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


def _check_growth(t_lo: int, t_hi: int, n_seeds: int) -> None:
    """The growth probe's argument rule: n_seeds >= 1 and 0 <= t_lo < t_hi."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if t_lo < 0:
        raise ValueError("t_lo must be >= 0")
    if t_hi <= t_lo:
        raise ValueError("t_hi must be > t_lo")


def _slope_fit(ts: np.ndarray) -> Callable[[np.ndarray], float]:
    """The slope of ``np.polyfit(ts, y, 1)`` as a function of y.

    The scaled design matrix and rcond are built once, as polyfit builds
    them, and each call is polyfit's own ``lstsq`` call on them, so every
    slope has polyfit's bits.  A rank below 2 warns as polyfit does.
    """
    lhs = np.vander(ts + 0.0, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = len(ts) * np.finfo(np.float64).eps

    def slope(y: np.ndarray) -> float:
        c, _, rank, _ = np.linalg.lstsq(lhs, y + 0.0, rcond)
        if rank != 2:
            warnings.warn("Polyfit may be poorly conditioned",
                          np.exceptions.RankWarning, stacklevel=2)
        return float(c[0] / scale[0])

    return slope


def _growth_block(columns: list[tuple[Params, int, int]], x0: State, t_lo: int,
                  t_hi: int) -> list[float | SimulationDiverged | None]:
    """Run and fit one block of (params, seed, k) growth columns in lockstep.

    Each column gets the slope of its fit, None when its backlog touches 0
    in the window, or the SimulationDiverged of its guard step.  Column c
    draws its noise from ``stream(seed, k)`` as a column of one
    :func:`gaussians` block, which gives it the bits of
    ``gaussian(stream(seed, k), t_hi, p.sigma)``.  The block's arrays are
    freed on return, before the next block draws.
    """
    noise = gaussians([stream(seed, k) for _, seed, k in columns], t_hi,
                      [p.sigma for p, _, _ in columns])
    out_r = np.empty((t_hi + 1, len(columns)))
    out_z = np.empty((t_hi + 1, len(columns)))
    guard = iterate_columns([p for p, _, _ in columns], x0[0], x0[1], noise,
                            out_r, out_z)
    # One contiguous row per column, the layout each fit had when every
    # seed ran alone.
    windows = out_z[t_lo:].T.copy()
    touches_zero = (windows <= 0.0).any(axis=1)
    slope = _slope_fit(np.arange(t_lo, t_hi + 1))
    fits: list[float | SimulationDiverged | None] = []
    for c, bad in enumerate(guard.tolist()):
        if bad >= 0:
            fits.append(SimulationDiverged(bad, (out_r[bad, c], out_z[bad, c])))
        elif touches_zero[c]:
            fits.append(None)
        else:
            fits.append(slope(np.log(windows[c])))
    return fits


def _growth_probe(points: list[tuple[Params, int]], x0: State, t_lo: int,
                  t_hi: int, n_seeds: int) -> list[GrowthResult | SimulationDiverged]:
    """The growth probe of every (params, seed) point, in lockstep.

    Seed k of a point draws its noise from ``stream(seed, k)``.  All
    points' seeds run as columns of :func:`iterate_columns`,
    ``COLUMN_BLOCK`` at a time, so no result depends on the block size
    or on the other points.  A point's entry is its :class:`GrowthResult`,
    or the :class:`SimulationDiverged` of its lowest seed that passed the
    guard.
    """
    _check_growth(t_lo, t_hi, n_seeds)
    columns = ((p, seed, k) for p, seed in points for k in range(n_seeds))
    fits = []
    while block := list(islice(columns, COLUMN_BLOCK)):
        fits += _growth_block(block, x0, t_lo, t_hi)
    results = []
    for lo in range(0, len(fits), n_seeds):
        seeds = fits[lo:lo + n_seeds]
        diverged = [f for f in seeds if isinstance(f, SimulationDiverged)]
        slopes = tuple(f for f in seeds if isinstance(f, float))
        results.append(diverged[0] if diverged else GrowthResult(
            _median(slopes), slopes, seeds.count(None)))
    return results


def _median(values: tuple[float, ...]) -> float:
    """``np.median`` of finite values, bit for bit, and nan for none,
    without the numpy.ma import np.median makes on its first call."""
    if not values:
        return float("nan")
    ordered, mid = sorted(values), len(values) // 2
    return ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _quantiles(x: np.ndarray, qs: tuple[float, ...]) -> np.ndarray:
    """``np.quantile(x, qs)`` of a non-empty 1-D float array, bit for bit,
    without the numpy.ma import np.quantile's ``np.unique`` makes on its
    first call.

    numpy's "linear" method step for step: the virtual index (n - 1) * q,
    its floor and the next index, both -1 where it reaches n - 1; one
    partition on the sorted set of {0, -1} and those indices; numpy's
    lerp, which counts back from the upper value where the weight is at
    least 0.5.  A NaN sorts last and becomes every quantile.
    """
    n = x.size
    virtual = (n - 1) * np.asarray(qs, dtype=np.float64)
    lower = np.floor(virtual)
    upper = lower + 1
    last = virtual >= n - 1
    lower[last] = upper[last] = -1
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    ordered = np.partition(x, sorted({0, -1, *lower.tolist(), *upper.tolist()}))
    a, b = ordered[lower], ordered[upper]
    t = virtual - lower
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(ordered[-1]):
        out[:] = ordered[-1]
    return out


def growth_slope(p: Params, x0: State, t_lo: int, t_hi: int,
                 n_seeds: int, seed: int = 0) -> GrowthResult:
    """Median least-squares slope of log Z(t) over [t_lo, t_hi].

    Seeds whose backlog touches 0 inside the window (log undefined) are
    excluded and counted.  Raises ValueError unless n_seeds >= 1 and
    0 <= t_lo < t_hi, and :class:`SimulationDiverged` for the lowest seed
    that passes the overflow guard.
    """
    [res] = _growth_probe([(p, seed)], x0, t_lo, t_hi, n_seeds)
    if isinstance(res, SimulationDiverged):
        raise res
    return res


def hitting_probability(p: Params, x0: State,
                        target: tuple[float, float, float, float],
                        horizon: int, n_seeds: int,
                        seed: int = 0) -> tuple[float, float]:
    """Fraction of seeds entering the rectangle within the horizon.

    target is (r_min, r_max, z_min, z_max), boundaries inclusive.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    r_lo, r_hi, z_lo, z_hi = target
    hits = 0
    for k in range(n_seeds):
        r, z = _run_chain(p, x0, horizon, stream(seed, k))
        hits += bool(np.any((r >= r_lo) & (r <= r_hi)
                            & (z >= z_lo) & (z <= z_hi)))
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
    seeds_used: int          # growth seeds in the slope fit (n_seeds - excluded)


@dataclass(frozen=True)
class SweepPoint:
    index: int
    overrides: dict[str, float]
    params: Params | None
    result: StabilityVerdict | None
    error: str | None = None


def _verdict(p: Params, ks: float, violations: int,
             growth: GrowthResult | SimulationDiverged,
             n_seeds: int) -> StabilityVerdict:
    diverged = isinstance(growth, SimulationDiverged)
    if diverged:
        # An overflowing probe counts as growing and excludes no seed.
        slope = float("inf")
        seeds_used = n_seeds
    else:
        slope = growth.median_slope
        seeds_used = n_seeds - growth.excluded

    ks_ok = math.isfinite(ks) and ks < KS_THRESHOLD
    growing = diverged or (math.isfinite(slope) and slope > SLOPE_THRESHOLD)
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
    return StabilityVerdict(p.regime.value, ks, slope, violations, verdict,
                            seeds_used)


def _grid_point(index: int, overrides: dict[str, float],
                base: Params) -> SweepPoint:
    """A grid point with its validated params, or with the error instead."""
    vals = dict(base.as_dict(), **overrides)
    try:
        p = validate_params(vals["lambda"], vals["mu"], vals["zeta"],
                            vals["xi"], vals["r_star"], vals["sigma"])
    except Exception as exc:
        return SweepPoint(index, dict(overrides), None, None, str(exc))
    return SweepPoint(index, dict(overrides), p, None)


def _sweep_point(p: Params, seed: int, steps: int,
                 burn_in: int) -> tuple[float, int] | str:
    """A point's own legs: the two-chain KS distance (nan when a chain
    diverged) and, for mu <= -lambda, the monotone-violation count.  A
    failure comes back as its message, to be recorded on the point."""
    try:
        try:
            ks = two_chain_convergence(p, (0.0, 0.0), (-50.0, 100.0),
                                       steps, burn_in, seed)
        except SimulationDiverged:
            ks = float("nan")
        violations = 0
        if p.mu <= -p.lam:
            # Z is monotone nondecreasing here; count violations as evidence.
            violations, _ = monotone_violations(p, (0.0, 0.0),
                                                min(steps, 10_000), seed + 2)
    except Exception as exc:
        return str(exc)
    return ks, violations


def sweep(base: Params, grid: list[dict[str, float]], steps: int,
          burn_in: int, n_seeds: int = 16, seed: int = 0) -> list[SweepPoint]:
    """Evaluate a stability verdict at each grid point.

    grid is a list of parameter overrides (keys among lambda, mu, zeta,
    xi, r_star, sigma).  Each point gets a seed derived from (seed, index),
    so results do not depend on evaluation order or process count.
    Per-point failures are recorded and the sweep continues; a horizon
    that breaks :func:`check_horizon` or n_seeds < 1 raises ValueError
    before any point runs.

    The valid points are dealt into the shares of :func:`forked`, share
    k of n holding every n-th point from the k-th.  Each share computes
    its points' verdicts end to end: every point's own legs
    (:func:`_sweep_point`), then one growth probe over its points in
    lockstep (:func:`growth_slope` is the one-point case), and pickles
    its rows.  Rows come back in grid order.
    """
    check_horizon(steps, burn_in)
    t_hi = min(500, steps)
    t_lo = t_hi * 2 // 5
    _check_growth(t_lo, t_hi, n_seeds)
    rows = [_grid_point(i, overrides, base) for i, overrides in enumerate(grid)]
    runs = [row for row in rows if row.error is None]

    def share(k: int, n: int, fh: BinaryIO) -> None:
        mine = runs[k::n]
        seeds = [point_seed(seed, row.index) for row in mine]
        legs = [_sweep_point(row.params, s, steps, burn_in)
                for row, s in zip(mine, seeds)]
        growth = _growth_probe([(row.params, s + 1) for row, s in zip(mine, seeds)],
                               GROWTH_X0, t_lo, t_hi, n_seeds)
        pickle.dump([replace(row, error=leg) if isinstance(leg, str) else
                     replace(row, result=_verdict(row.params, *leg, g, n_seeds))
                     for row, leg, g in zip(mine, legs, growth)], fh)

    shares = io.BytesIO()
    n = forked("sweep", len(runs), share, shares)
    shares.seek(0)
    for _ in range(n):
        for row in pickle.load(shares):
            rows[row.index] = row
    return rows
