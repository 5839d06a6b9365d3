import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from gridlab import (
    SimConfig,
    SimulationDiverged,
    drift_exact,
    empirical_drift,
    growth_slope,
    hitting_probability,
    lyap_h,
    monotone_violations,
    simulate,
    sweep,
    two_chain_convergence,
    validate_params,
)
from gridlab import dynamics, montecarlo
from gridlab.cli import _CHUNK_ROWS, _rows
from gridlab.dynamics import (OVERFLOW_GUARD, breakpoints, expressed_backlog,
                              frustrated_demand, iterate, ramp_control,
                              region_codes)
from gridlab.montecarlo import (GROWTH_SLICE, GROWTH_X0, KERNEL_BLOCK, KS_CHUNK,
                                QUANTILES,
                                _growth_block, _growth_probe, _ks_sorted,
                                _run_chain, _select_quantiles)
from gridlab.rng import gaussian, point_seed, stream
from conftest import random_params
from test_cli import reference_trajectory_csv


class TestSimConfig:
    def test_rejects_bad_shapes(self, p0):
        with pytest.raises(ValueError):
            SimConfig(p0, (0.0, 0.0), steps=10, burn_in=10)
        with pytest.raises(ValueError):
            SimConfig(p0, (0.0, 0.0), steps=10, burn_in=-1)
        with pytest.raises(ValueError):
            SimConfig(p0, (0.0, 0.0), steps=10, record_every=0)
        with pytest.raises(ValueError):
            SimConfig(p0, (0.0, -1.0), steps=10)
        # x0 is a finite state, by the one number rule.
        for x0 in [(math.nan, 1.0), (0.0, math.inf), (10**400, 0.0)]:
            with pytest.raises(ValueError, match="x0"):
                SimConfig(p0, x0, steps=10)


B = KERNEL_BLOCK


class TestRunChainBlocks:
    """The chain runner draws its noise one kernel block at a time."""

    @pytest.mark.parametrize("steps", [B - 1, B, B + 1, 2 * B + 1])
    def test_blocks_equal_one_draw(self, p0, steps, monkeypatch):
        blocks = []

        def recording(rng, size, sigma):
            blocks.append(gaussian(rng, size, sigma))
            return blocks[-1]

        monkeypatch.setattr(montecarlo, "gaussian", recording)
        r, z = _run_chain(p0, (-3.0, 2.0), steps, stream(21, 4))
        noise = gaussian(stream(21, 4), steps, p0.sigma)
        assert max(b.size for b in blocks) <= B
        assert np.concatenate(blocks).view(np.uint64).tolist() \
            == noise.view(np.uint64).tolist()
        [(want_r, want_z, bad)] = iterate(p0, -3.0, 2.0, [noise])
        assert bad == -1
        assert r.view(np.uint64).tolist() == want_r.view(np.uint64).tolist()
        assert z.view(np.uint64).tolist() == want_z.view(np.uint64).tolist()

    def test_guard_in_first_block_draws_one_block(self):
        # gamma = 1.5, so Z passes the guard within a few steps.
        p = validate_params(0.5, -1.0, 1.0, 1.0, 3.0, 1.0)
        rng = stream(22)
        with pytest.raises(SimulationDiverged) as diverged:
            _run_chain(p, (0.0, 1e299), 3 * B, rng)
        assert 0 < diverged.value.step < B
        ref = stream(22)
        gaussian(ref, B, p.sigma)
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


def test_max_draws_memory_figures(p0):
    # The figures behind config.MAX_DRAWS and README.  A chain holds its
    # two output arrays, 16 bytes per step, plus one block's noise, lists
    # and arrays (about 1.6 GB at the cap); a noise array for the whole
    # horizon (1.6 MB here) breaks the bound.  A drift point holds at most
    # 50 bytes per draw (about 4.8 GB at the cap).
    steps = draws = 200_000
    tracemalloc.start()
    try:
        _run_chain(p0, (0.0, 0.0), steps, stream(23))
        _, chain_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        empirical_drift(p0, (-2.0, 3.0), draws, 1)
        _, drift_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain_peak <= 16 * (steps + 1) + 128 * B
    assert drift_peak <= 50 * draws


def test_two_chain_memory_figure(p0):
    # Each chain keeps its post-burn-in R alone, sorted in place: 16 bytes
    # per post-burn-in step for the two, plus a kernel block and a KS
    # chunk.  Whole chains and whole-sample KS temporaries took 78.
    steps, burn_in = 200_000, 40_000
    tracemalloc.start()
    try:
        two_chain_convergence(p0, (0.0, 0.0), (-50.0, 100.0), steps, burn_in, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * (steps + 1 - burn_in) + 2_000_000


def test_growth_probe_memory_figure():
    # 16 points x 64 seeds, four blocks of 256 columns over 500 steps: a
    # block holds its fit windows (0.6 MB) and one time slice's noise and
    # states, not its whole horizon (3.85 MB).
    points = [(validate_params(lam, mu, 1.0, 1.0, 3.0, 1.0), 9 + i)
              for i, (lam, mu) in enumerate(
                  (lam, mu) for mu in (-0.7, -0.5, -0.3, -0.1, 0.05, 0.1, 0.2, 0.3)
                  for lam in (0.3, 0.5))]
    tracemalloc.start()
    try:
        _growth_probe(points, GROWTH_X0, 200, 500, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_500_000


@pytest.mark.parametrize("record_every", [1, 10])
def test_simulate_records_memory_figure(p0, record_every):
    # The figure behind config.MAX_DRAWS and README for `gridlab simulate`:
    # the records are views of the chain, so whatever is recorded the run
    # peaks at 24 bytes per step (the chain and one summary temporary, about
    # 2.4 GB at the cap) plus one kernel block.
    steps = 200_000
    tracemalloc.start()
    try:
        sim = SimConfig(p0, (0.0, 0.0), steps, record_every=record_every)
        _, traj = simulate(sim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * (steps + 1) + 128 * B
    assert traj.r.base is not None and traj.z.base is not None


class TestGaussian:
    class Integers:
        """A generator stub whose raw words have fixed values as their top
        53 bits."""

        def __init__(self, values):
            self.values = values
            self.bit_generator = self

        def random_raw(self, size):
            assert size == len(self.values)
            return np.array(self.values, dtype=np.uint64) << np.uint64(11)

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_top_integer_is_clamped_below_one(self, sigma):
        ks = [2**53 - 1, 2**53 - 2, 2**52 + 1, 0]
        got = gaussian(self.Integers(ks), len(ks), sigma)
        assert np.isfinite(got).all()
        # The top draw is the quantile of 1 - 2^-53; the others keep the
        # bits of the unclamped map, ties at k >= 2^52 rounded to even.
        u = (np.array(ks, dtype=np.float64) + 0.5) / 2.0 ** 53
        assert u[0] == 1.0 and u[1] == 1.0 - 2.0 ** -52 and u[2] == 0.5 + 2.0 ** -52
        u[0] = 1.0 - 2.0 ** -53
        want = ndtri(u) * sigma
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert got[0] > got[1]


def bits(a: np.ndarray) -> list:
    """The elements of ``a``, floats as their bit patterns."""
    return (a.view(np.uint64) if a.dtype == np.float64 else a).tolist()


class TestTrajectoryColumns:
    """A Trajectory is the thinned chain; the writer derives every other
    column, and a row range gets the bytes the whole-array helper calls
    give its rows."""

    C = _CHUNK_ROWS

    def records(self, p, n):
        """n recorded (R, Z) states, special values around each chunk edge."""
        rs = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0 ** 53 + 1,
              math.nan, p.r_star]
        for cut in breakpoints(p):
            rs += [math.nextafter(cut, -math.inf), cut, math.nextafter(cut, math.inf)]
        zs = [0.0, -0.0, 5e-324, 1e300, -1e300, 2.0 ** 53 + 1, math.nan]
        rng = np.random.default_rng(n)
        r, z = rng.normal(size=n) * 4.0, rng.exponential(size=n) * 4.0
        for edge in range(0, n, self.C):
            for k, v in enumerate(rs, start=edge - len(rs) // 2):
                r[k % n] = v
            for k, v in enumerate(zs, start=edge - len(zs) // 2):
                z[k % n] = v
        return r, z

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_row_ranges_keep_the_bits(self, p0, record_every):
        n = 2 * self.C + 7
        rec_r, rec_z = self.records(p0, n)
        steps = (n - 1) * record_every
        r, z = np.full(steps + 1, 0.5), np.full(steps + 1, 0.5)
        r[::record_every], z[::record_every] = rec_r, rec_z
        traj = montecarlo.Trajectory(p0, record_every, r[::record_every],
                                     z[::record_every])
        # The records as simulate once built them: index copies, then the
        # whole-array calls.
        idx = np.arange(0, steps + 1, record_every)
        rr, zz = r[idx], z[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            whole = [idx, rr, zz,
                     np.array(["D1", "D2", "D3", "D4"])[region_codes(p0, rr)],
                     expressed_backlog(p0, zz), frustrated_demand(rr),
                     ramp_control(p0, rr), lyap_h(p0, (rr, zz))]
            want = reference_trajectory_csv(whole).encode().splitlines(True)[1:]
            ranges = [(a, min(a + self.C, n)) for a in range(0, n, self.C)]
            ranges += [(0, 1), (self.C - 5, self.C + 5), (n - 9, n), (4, 4)]
            for lo, hi in ranges:
                assert b"".join(_rows(traj, lo, hi)) == b"".join(want[lo:hi])


class TestSimulate:
    def test_deterministic_trajectory(self):
        # sigma = 0 from the origin: R climbs by the ramp cap until it
        # parks at r_star; Z stays at 0 throughout.
        p = validate_params(0.5, 0.1, 1.0, 1.0, 3.0, 0.0)
        cfg = SimConfig(p, (0.0, 0.0), steps=4, seed=0)
        stats, traj = simulate(cfg)
        assert traj.r.tolist() == [0.0, 1.0, 2.0, 3.0, 3.0]
        assert traj.z.tolist() == [0.0] * 5
        assert stats.final_state == (3.0, 0.0)
        assert region_codes(p, traj.r).tolist() == [1, 1, 2, 2, 2]  # D2 D2 D3 D3 D3

    def test_seed_determinism(self, p0):
        cfg = SimConfig(p0, (0.0, 0.0), steps=1000, burn_in=100, seed=42)
        s1, t1 = simulate(cfg)
        s2, t2 = simulate(cfg)
        assert s1 == s2
        assert np.array_equal(t1.r, t2.r) and np.array_equal(t1.z, t2.z)
        s3, _ = simulate(SimConfig(p0, (0.0, 0.0), steps=1000, burn_in=100, seed=43))
        assert s3.r.mean != s1.r.mean

    def test_trajectories_compare_by_value(self, p0):
        cfg = SimConfig(p0, (0.0, 0.0), steps=1000, seed=42, record_every=3)
        traj = simulate(cfg)[1]
        assert (traj == simulate(cfg)[1]) is True
        for change in ({"seed": 43}, {"record_every": 1}):
            other = simulate(replace(cfg, **change))[1]
            assert (traj == other) is False
        # NaN equals NaN; a copy of the chain is as good as the view.
        nan = montecarlo.Trajectory(p0, 1, np.array([np.nan, 1.0]), np.zeros(2))
        assert nan == replace(nan, r=nan.r.copy())
        assert nan != replace(nan, z=np.ones(2))

    def test_record_thinning(self, p0):
        cfg = SimConfig(p0, (0.0, 0.0), steps=100, seed=1, record_every=10)
        _, traj = simulate(cfg)
        _, every = simulate(replace(cfg, record_every=1))
        assert traj.record_every == 10 and len(traj.r) == 11
        assert traj == replace(every, record_every=10, r=every.r[::10],
                               z=every.z[::10])

    def test_stats_are_consistent(self, p0):
        cfg = SimConfig(p0, (0.0, 0.0), steps=20_000, burn_in=2_000, seed=7)
        stats, _ = simulate(cfg)
        assert stats.n_samples == 18_001
        assert sum(stats.occupancy.values()) == pytest.approx(1.0, abs=1e-12)
        r, z = stats.r, stats.z
        assert r.min <= r.quantiles[0.05] <= r.quantiles[0.5]
        assert r.quantiles[0.5] <= r.quantiles[0.95] <= r.max
        assert z.min >= 0.0
        assert stats.mean_expressed == pytest.approx(p0.lam * z.mean, rel=1e-12)

    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan]),
        st.floats(width=64)), min_size=1, max_size=300))
    def test_quantiles_have_numpys_bits(self, values):
        # Ties, signed zeros, infinities (inf - inf in the lerp) and NaN.
        x = np.array(values)
        qs = (0.0, *QUANTILES, 1.0)
        with np.errstate(invalid="ignore"):
            want = np.quantile(x, qs)
            got = _select_quantiles(x, qs)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        # Partitioned in place: the same elements, reordered.
        assert sorted(x.view(np.uint64).tolist()) == sorted(
            np.array(values).view(np.uint64).tolist())

    def test_occupancy_concentrates_near_target(self, p0):
        # Positive evaporation keeps the chain near the target reserve:
        # the on-target region dominates the frustrated one.
        cfg = SimConfig(p0, (0.0, 0.0), steps=100_000, burn_in=10_000, seed=8)
        stats, _ = simulate(cfg)
        assert stats.occupancy["D3"] > stats.occupancy["D1"]

    def test_divergence_raises(self):
        p = validate_params(0.5, -0.1, 1.0, 1.0, 3.0, 1.0)
        with pytest.raises(SimulationDiverged) as exc:
            simulate(SimConfig(p, (-100.0, 50.0), steps=1_000_000, seed=0))
        assert exc.value.step > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_variances_overflow_under_the_guard(self, seed):
        # The backlog grows past 1e154, where a deviation's square
        # overflows, but stays under the 1e300 guard: the variances are
        # inf with numpy's warning, the means finite.
        p = validate_params(0.3, -0.02, 1.0, 1.0, 3.0, 3.0)
        cfg = SimConfig(p, (-5.0, 5.0), steps=20_000, seed=seed)
        with pytest.warns(RuntimeWarning, match="overflow encountered in square"):
            stats, _ = simulate(cfg)
        assert 1e154 < stats.z.max < OVERFLOW_GUARD
        assert stats.r.var == stats.z.var == math.inf
        assert math.isfinite(stats.r.mean) and math.isfinite(stats.z.mean)

    @given(st.data())
    def test_summary_has_numpys_bits(self, data):
        # Short chains: any burn_in, record_every above 1, an x0 backlog of
        # -0.0, and far launches whose deviations pass 1.3e154, so that
        # their variances overflow (mu < 0 ones among them).  Every field
        # equals numpy's reduction of the post-burn-in chain, bit for bit,
        # with the same warnings.
        lam, mu = data.draw(st.sampled_from(
            [(0.5, 0.1), (0.3, -0.02), (0.5, -0.3), (0.9, 0.05), (0.3, 0.6)]))
        p = validate_params(lam, mu, 1.0, 1.0, 3.0, data.draw(st.sampled_from([0.0, 1.0, 3.0])))
        x0 = (data.draw(st.sampled_from([0.0, -5.0, 3.5, 1e7, -1e156])),
              data.draw(st.sampled_from([-0.0, 0.0, 5.0, 1e156])))
        steps = data.draw(st.integers(1, 300))
        cfg = SimConfig(p, x0, steps, burn_in=data.draw(st.integers(0, steps - 1)),
                        seed=data.draw(st.integers(0, 2 ** 32 - 1)),
                        record_every=data.draw(st.integers(1, 5)))
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got, _ = simulate(cfg)
        r, z = _run_chain(p, x0, steps, stream(cfg.seed))
        rs, zs = r[cfg.burn_in:], z[cfg.burn_in:]
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            counts = np.bincount(region_codes(p, rs), minlength=4)

            def marginal(x):
                return montecarlo.Marginal(
                    np.mean(x), x.var(), x.min(), x.max(),
                    dict(zip(QUANTILES, np.quantile(x, QUANTILES))))

            want = montecarlo.TrajectoryStats(
                r=marginal(rs), z=marginal(zs),
                occupancy={region: float(c) / rs.size
                           for region, c in zip(["D1", "D2", "D3", "D4"], counts)},
                mean_frustrated=np.maximum(-rs, 0).mean(),
                mean_expressed=expressed_backlog(p, np.mean(zs)),
                final_state=(r[-1], z[-1]), n_samples=rs.size)

        def bits(x):
            if isinstance(x, dict):
                return {k: bits(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [bits(v) for v in x]
            return np.float64(x).view(np.uint64).item()

        assert bits(asdict(got)) == bits(asdict(want))
        assert ({str(w.message) for w in got_warnings}
                == {str(w.message) for w in want_warnings})


class TestMonotoneViolations:
    def test_trivially_unstable_never_decreases(self):
        p = validate_params(0.5, -0.6, 1.0, 1.0, 3.0, 1.0)
        viol, steps = monotone_violations(p, (0.0, 0.0), 10_000, seed=3)
        assert viol == 0
        assert steps > 1000  # guard may stop early; most of the run is kept

    def test_stable_chain_has_decreases(self, p0):
        viol, steps = monotone_violations(p0, (0.0, 0.0), 10_000, seed=3)
        assert steps == 10_000
        assert viol > 0

    def test_negative_steps_raises(self, p0):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            monotone_violations(p0, (0.0, 0.0), -3, seed=3)

    @pytest.mark.parametrize("mu, block", [(0.1, B), (-1.0, 100)],
                             ids=["stable", "diverging"])
    def test_block_counts_equal_the_whole_chain(self, mu, block, monkeypatch):
        # Counted a block at a time, each block's first step against the
        # previous block's last state; a diverging chain counts up to its
        # guard step (1001 here), ten 100-step blocks in.
        monkeypatch.setattr(montecarlo, "KERNEL_BLOCK", block)
        p = validate_params(0.5, mu, 1.0, 1.0, 3.0, 1.0)
        steps = 3 * B + 5
        noise = gaussian(stream(3), steps, p.sigma)
        [(r, z, bad)] = iterate(p, 0.0, 0.0, [noise])
        end = steps if bad < 0 else bad
        assert (bad < 0) == (mu > 0) and (bad < 0 or bad > 10 * block)
        want = int(np.count_nonzero(np.diff(z[:end + 1]) < 0.0))
        assert monotone_violations(p, (0.0, 0.0), steps, seed=3) == (want, end)


class TestEmpiricalDrift:
    def test_matches_exact_within_stderr(self, p0):
        for x in [(-1.0, 2.0), (1.0, 1.0), (2.5, 1.0), (10.0, 4.0)]:
            mean, stderr = empirical_drift(p0, x, 200_000, seed=5)
            assert stderr > 0.0
            assert abs(mean - drift_exact(p0, x)) <= 4.0 * stderr

    def test_sigma_zero_is_exact(self):
        p = validate_params(0.5, 0.1, 1.0, 1.0, 3.0, 0.0)
        mean, stderr = empirical_drift(p, (1.0, 1.0), 100, seed=0)
        assert stderr == 0.0
        assert mean == pytest.approx(drift_exact(p, (1.0, 1.0)), rel=1e-12)

    def test_random_params_agreement(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            p = random_params(rng)
            x = (float(rng.uniform(-20, 20)), float(rng.uniform(0, 20)))
            mean, stderr = empirical_drift(p, x, 100_000, seed=6)
            assert abs(mean - drift_exact(p, x)) <= 5.0 * stderr


class TestTwoChainConvergence:
    def test_identical_inputs_give_zero(self, p0):
        d = two_chain_convergence(p0, (0.0, 0.0), (0.0, 0.0), 2000, 200, seed=9)
        assert d == 0.0

    def test_stable_chains_converge(self, p0):
        d = two_chain_convergence(p0, (0.0, 0.0), (-50.0, 100.0),
                                  200_000, 20_000, seed=9)
        assert d < 0.05

    def test_distance_in_unit_interval(self, p0):
        d = two_chain_convergence(p0, (0.0, 0.0), (-5.0, 10.0), 5000, 500, seed=10)
        assert 0.0 <= d <= 1.0

    @pytest.mark.parametrize("steps, burn_in", [(100, 100), (100, 200)])
    def test_empty_or_one_sample_window_raises(self, p0, steps, burn_in):
        with pytest.raises(ValueError, match="steps > burn_in >= 0"):
            two_chain_convergence(p0, (0.0, 0.0), (1.0, 1.0), steps, burn_in,
                                  seed=0)


class TestTwoChainBlocks:
    @pytest.mark.parametrize("burn_in", [1, B - 1, B, B + 17, 2 * B + 4])
    def test_burn_in_off_block_edges(self, burn_in):
        # The post-burn-in samples are cut from the block stream; the
        # distance equals scipy's on slices of the whole chains.
        p = validate_params(0.5, 0.1, 1.0, 1.0, 3.0, 1.0)
        steps = 2 * B + 5
        ra, _ = _run_chain(p, (0.0, 0.0), steps, stream(31, 0))
        rb, _ = _run_chain(p, (-50.0, 100.0), steps, stream(31, 1))
        want = TestKSStatistic.scipy_ks(ra[burn_in:], rb[burn_in:])
        got = two_chain_convergence(p, (0.0, 0.0), (-50.0, 100.0), steps,
                                    burn_in, 31)
        assert got.hex() == want.hex()
        [tail] = _run_chain(p, (0.0, 0.0), steps, stream(31, 0), burn_in, z=False)
        assert bits(tail) == bits(ra[burn_in:])


class TestKSStatistic:
    """The private KS distance against scipy.stats, bit for bit."""

    @staticmethod
    def scipy_ks(a, b):
        from scipy.stats import ks_2samp
        return float(ks_2samp(a, b, method="asymp").statistic)

    @pytest.mark.parametrize("case", ["random", "shifted", "heavy-ties",
                                      "unequal-sizes", "single-values"])
    def test_matches_scipy(self, case):
        rng = np.random.default_rng(12)
        a, b = {
            "random": lambda: (rng.normal(size=500), rng.normal(size=500)),
            "shifted": lambda: (rng.normal(size=400), rng.normal(-0.3, size=600)),
            "heavy-ties": lambda: (rng.integers(0, 5, 300).astype(float),
                                   rng.integers(1, 4, 200).astype(float)),
            "unequal-sizes": lambda: (rng.normal(size=7), rng.normal(size=3001)),
            "single-values": lambda: (np.array([1.0]), np.array([-0.0, 0.0])),
        }[case]()
        for x, y in ((a, b), (b, a)):
            assert _ks_sorted(np.sort(x), np.sort(y)).hex() == self.scipy_ks(x, y).hex()

    def test_identical_arrays_give_zero(self):
        a = np.random.default_rng(3).normal(size=1000)
        assert _ks_sorted(np.sort(a), np.sort(a)) == self.scipy_ks(a, a.copy()) == 0.0

    def test_nan_propagates_like_scipy(self):
        a = np.array([1.0, np.nan, 2.0])
        b = np.array([0.5, 3.0])
        for x, y in ((a, b), (b, a)):
            assert math.isnan(_ks_sorted(np.sort(x), np.sort(y)))
            assert math.isnan(self.scipy_ks(x, y))

    @given(st.data())
    def test_matches_scipy_on_drawn_samples(self, data):
        # Either heavy ties, -0.0 and 0.0 among them, or any finite floats.
        pool = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 4.0])
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(st.sampled_from([pool, finite]), label="values")
        a, b = (np.array(data.draw(st.lists(values, min_size=1, max_size=300),
                                   label=name)) for name in ("a", "b"))
        nan_at = data.draw(st.integers(0, a.size), label="nan at")
        # scipy's p-value divides by zero for two one-element samples; only
        # its statistic is compared.
        with np.errstate(divide="ignore"):
            assert _ks_sorted(np.sort(a), np.sort(b)).hex() == self.scipy_ks(a, b).hex()
            a = np.insert(a, nan_at, np.nan)
            for x, y in ((a, b), (b, a)):
                assert math.isnan(_ks_sorted(np.sort(x), np.sort(y)))
                assert math.isnan(self.scipy_ks(x, y))

    @pytest.mark.parametrize("size_a, size_b", [
        (KS_CHUNK - 1, KS_CHUNK + 1), (KS_CHUNK, 2 * KS_CHUNK + 1),
        (2 * KS_CHUNK + 1, 5)])
    @pytest.mark.parametrize("values", ["ties", "distinct"])
    def test_matches_scipy_at_chunk_edges(self, size_a, size_b, values):
        # With 40 values a tie run crosses every chunk edge of both samples.
        rng = np.random.default_rng(size_a + size_b)
        if values == "ties":
            a, b = (rng.integers(0, 40, n).astype(float) for n in (size_a, size_b))
            for x in (a, b):
                ordered = np.sort(x)
                assert x.size <= KS_CHUNK or ordered[KS_CHUNK - 1] == ordered[KS_CHUNK]
        else:
            a, b = rng.normal(size=size_a), rng.normal(0.1, size=size_b)
        for x, y in ((a, b), (b, a)):
            assert _ks_sorted(np.sort(x), np.sort(y)).hex() == self.scipy_ks(x, y).hex()

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_small_chunks_match_scipy(self, chunk, monkeypatch):
        # Chunks shorter than a tie run: a run spans whole chunks.
        monkeypatch.setattr(montecarlo, "KS_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        cases = [(rng.integers(0, 4, 30).astype(float),
                  rng.integers(1, 6, 17).astype(float)),
                 (np.zeros(9), np.array([-0.0, 0.0, 1.0])),
                 (rng.normal(size=23), rng.normal(size=8))]
        for a, b in cases:
            for x, y in ((a, b), (b, a)):
                got = _ks_sorted(np.sort(x), np.sort(y))
                assert got.hex() == self.scipy_ks(x, y).hex()

    @pytest.mark.parametrize("mu", [-0.1, 0.1])
    def test_sweep_point_chains(self, mu):
        # The two chains of sweep point 0 (seed 5), as _verdict runs them.
        p = validate_params(0.5, mu, 1.0, 1.0, 3.0, 1.0)
        seed = point_seed(5, 0)
        ra, _ = _run_chain(p, (0.0, 0.0), 5000, stream(seed, 0))
        rb, _ = _run_chain(p, (-50.0, 100.0), 5000, stream(seed, 1))
        want = self.scipy_ks(ra[500:], rb[500:])
        assert _ks_sorted(np.sort(ra[500:]), np.sort(rb[500:])).hex() == want.hex()
        assert two_chain_convergence(p, (0.0, 0.0), (-50.0, 100.0),
                                     5000, 500, seed).hex() == want.hex()


def growth_seed_by_seed(p, x0, t_lo, t_hi, n_seeds, seed):
    """The growth probe one seed at a time: _run_chain, then one fit."""
    slopes, excluded = [], 0
    for k in range(n_seeds):
        _, z = _run_chain(p, x0, t_hi, stream(seed, k))
        window = z[t_lo:t_hi + 1]
        if np.any(window <= 0.0):
            excluded += 1
            continue
        slopes.append(float(np.polyfit(np.arange(t_lo, t_hi + 1),
                                       np.log(window), 1)[0]))
    return slopes, excluded


class TestGrowthSlope:
    @pytest.mark.parametrize("lam, mu, t_lo, t_hi, n_seeds, seed", [
        (0.5, -0.1, 200, 500, 8, 11),
        (0.5, 0.4, 200, 500, 8, point_seed(0, 0) + 1),  # excludes seeds
        (0.3, -0.7, 0, 1, 3, 5),
    ])
    def test_equals_seed_by_seed_fits(self, lam, mu, t_lo, t_hi, n_seeds, seed):
        p = validate_params(lam, mu, 1.0, 1.0, 3.0, 1.0)
        slopes, excluded = growth_seed_by_seed(p, GROWTH_X0, t_lo, t_hi,
                                               n_seeds, seed)
        res = growth_slope(p, GROWTH_X0, t_lo, t_hi, n_seeds, seed)
        assert [s.hex() for s in res.slopes] == [s.hex() for s in slopes]
        assert res.excluded == excluded
        assert res.median_slope.hex() == float(np.median(slopes)).hex()

    def test_slices_equal_per_column_iterate(self):
        # Columns that pass the guard in different time slices and some
        # that never do, t_hi not a multiple of the slice: each column's
        # guard step and state, or its fit, are those of iterate on its
        # whole noise.
        t_lo, t_hi = 300, 11 * GROWTH_SLICE + 13
        columns = [(validate_params(0.5, mu, 1.0, 1.0, 3.0, 1.0), 40 + k, k)
                   for k, mu in enumerate((-9.0, -5.0, -3.0, -2.0, -0.1, 0.1))]
        fits = _growth_block(columns, GROWTH_X0, t_lo, t_hi)
        slices = set()
        for (p, seed, k), fit in zip(columns, fits):
            noise = gaussian(stream(seed, k), t_hi, p.sigma)
            [(r, z, bad)] = iterate(p, *GROWTH_X0, [noise])
            if bad >= 0:
                assert isinstance(fit, SimulationDiverged)
                assert fit.step == bad
                assert [v.hex() for v in fit.state] == [r[bad].hex(), z[bad].hex()]
                slices.add((bad - 1) // GROWTH_SLICE)
            else:
                want = np.polyfit(np.arange(t_lo, t_hi + 1), np.log(z[t_lo:]), 1)[0]
                assert fit.hex() == float(want).hex()
        assert len(slices) >= 3 and sum(isinstance(f, float) for f in fits) == 2

    def test_column_table_is_built_once_per_run(self, monkeypatch):
        # One block of three distinct Params over five time slices reads
        # affine_piece's four regions once per Params, not once per slice.
        calls = []
        real = dynamics.affine_piece
        monkeypatch.setattr(dynamics, "affine_piece",
                            lambda p, region: calls.append(p) or real(p, region))
        ps = [validate_params(0.5, mu, 1.0, 1.0, 3.0, 1.0) for mu in (0.1, -0.1, 0.3)]
        t_hi = 300
        assert len(range(0, t_hi, GROWTH_SLICE)) == 5
        _growth_block([(p, 9, k) for p in ps for k in range(4)], GROWTH_X0, 100, t_hi)
        assert Counter(calls) == {p: 4 for p in ps}

    def test_lowest_diverging_seed_is_raised(self):
        # Seed 0 stays under the guard up to step 990; seeds 1-3 pass it
        # at step 990, so the error is seed 1's.
        p = validate_params(0.5, -1.0, 1.0, 1.0, 3.0, 30.0)
        with pytest.raises(SimulationDiverged) as want:
            growth_seed_by_seed(p, GROWTH_X0, 400, 990, 4, 46)
        with pytest.raises(SimulationDiverged) as got:
            growth_slope(p, GROWTH_X0, 400, 990, 4, 46)
        _run_chain(p, GROWTH_X0, 990, stream(46, 0))  # raises if seed 0 did
        assert got.value.step == want.value.step == 990
        assert [v.hex() for v in got.value.state] \
            == [v.hex() for v in want.value.state]
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("t_lo, t_hi, n_seeds, name", [
        (200, 500, 0, "n_seeds"),
        (-1, 500, 2, "t_lo"),
        (300, 200, 2, "t_hi"),
        (300, 300, 2, "t_hi"),
    ], ids=["zero-seeds", "negative-t-lo", "t-lo-above-t-hi", "t-lo-equals-t-hi"])
    def test_bad_arguments_raise(self, p0, t_lo, t_hi, n_seeds, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            growth_slope(p0, GROWTH_X0, t_lo, t_hi, n_seeds, seed=1)

    def test_mild_negative_mu_grows_at_log_rate(self):
        p = validate_params(0.5, -0.1, 1.0, 1.0, 3.0, 1.0)
        res = growth_slope(p, GROWTH_X0, 200, 500, n_seeds=16, seed=11)
        assert res.excluded == 0
        assert abs(res.median_slope - math.log(1.1)) < 0.05

    def test_strongly_negative_mu_grows_faster(self):
        p = validate_params(0.5, -0.6, 1.0, 1.0, 3.0, 1.0)
        res = growth_slope(p, GROWTH_X0, 200, 500, n_seeds=8, seed=12)
        assert res.median_slope >= math.log(1.1)

    def test_stable_chain_does_not_grow(self, p0):
        res = growth_slope(p0, GROWTH_X0, 200, 500, n_seeds=16, seed=13)
        assert res.median_slope < 0.03


class TestHittingProbability:
    def test_horizon_zero_is_membership(self, p0):
        box = (-1.0, 1.0, -1.0, 1.0)
        assert hitting_probability(p0, (0.0, 0.0), box, 0, 8, seed=0) == (1.0, 0.0)
        assert hitting_probability(p0, (5.0, 0.0), box, 0, 8, seed=0) == (0.0, 0.0)

    def test_target_near_ramp_goal_almost_surely_hit(self, p0):
        est, _ = hitting_probability(p0, (0.0, 0.0), (2.0, 4.0, 0.0, 1.0),
                                     horizon=1000, n_seeds=1000, seed=0)
        assert est > 0.99

    def test_stable_chain_reaches_center(self, p0):
        # From a far-out launch the positive-mu chain returns near the
        # ramp target with high probability.
        est, stderr = hitting_probability(p0, (-50.0, 100.0),
                                          (0.0, 6.0, 0.0, 10.0),
                                          horizon=2000, n_seeds=32, seed=14)
        assert est > 0.9

    def test_zero_seeds_raises(self, p0):
        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            hitting_probability(p0, (0.0, 0.0), (0.0, 1.0, 0.0, 1.0),
                                horizon=10, n_seeds=0)

    def test_negative_horizon_raises(self, p0):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            hitting_probability(p0, (0.0, 0.0), (0.0, 1.0, 0.0, 1.0),
                                horizon=-1, n_seeds=4)

    def test_unreachable_box(self, p0):
        est, stderr = hitting_probability(p0, (0.0, 0.0),
                                          (1e6, 2e6, 0.0, 1.0),
                                          horizon=100, n_seeds=8, seed=15)
        assert est == 0.0 and stderr == 0.0

    def test_scans_one_block_at_a_time(self, p0):
        # Each seed's chain is tested a block at a time: two seeds over a
        # 2e5-step horizon hold one block (about 0.4 MB), where collecting
        # each chain whole took 6.9 MB.  The estimate, one hit in two, is
        # the whole chains'.
        box, horizon, n_seeds = (-7.0, -6.0, 0.0, 100.0), 200_000, 2
        tracemalloc.start()
        try:
            est, stderr = hitting_probability(p0, (0.0, 0.0), box, horizon,
                                              n_seeds, seed=17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        r_lo, r_hi, z_lo, z_hi = box
        hits = [bool(np.any((r >= r_lo) & (r <= r_hi) & (z >= z_lo) & (z <= z_hi)))
                for r, z in (_run_chain(p0, (0.0, 0.0), horizon, stream(17, k))
                             for k in range(n_seeds))]
        assert hits == [True, False]
        assert (est, stderr) == (0.5, math.sqrt(0.25 / n_seeds))

    def test_guard_after_a_hit_still_raises(self):
        # The launch state is in the box, and the chain passes the guard
        # later in the horizon: the scan goes on to the guard and raises.
        p = validate_params(0.5, -1.0, 1.0, 1.0, 3.0, 1.0)
        with pytest.raises(SimulationDiverged):
            hitting_probability(p, (0.0, 0.0), (-1.0, 1.0, 0.0, 1.0),
                                horizon=3 * B, n_seeds=2, seed=18)


class TestSweep:
    def test_verdicts_by_regime(self, p0):
        grid = [{"mu": -0.6}, {"mu": -0.1}, {"mu": 0.1}, {"mu": 0.3}]
        rows = sweep(p0, grid, steps=50_000, burn_in=5_000, n_seeds=8, seed=16)
        verdicts = [row.result.verdict for row in rows]
        assert verdicts[0] == "unstable-consistent"
        assert verdicts[1] == "unstable-consistent"
        assert verdicts[2] == "stable-consistent"
        assert verdicts[3] == "stable-consistent"
        assert rows[0].result.monotone_violations == 0
        assert math.isnan(rows[0].result.ks_distance)
        assert rows[2].result.ks_distance < 0.05

    def test_reproducible_and_order_independent_seeds(self, p0):
        grid = [{"mu": 0.1}, {"mu": 0.2}]
        a = sweep(p0, grid, steps=20_000, burn_in=2_000, n_seeds=4, seed=17)
        b = sweep(p0, grid, steps=20_000, burn_in=2_000, n_seeds=4, seed=17)
        assert a == b
        # A point's result depends on (seed, index), not on its neighbors.
        c = sweep(p0, [{"mu": 0.2}, {"mu": 0.1}], steps=20_000, burn_in=2_000,
                  n_seeds=4, seed=17)
        assert c[1].result != a[1].result  # index changed -> stream changed

    def test_invalid_point_recorded_not_raised(self, p0):
        rows = sweep(p0, [{"mu": 0.9}, {"mu": 0.1}, {"lambda": math.inf}],
                     steps=5_000, burn_in=500, n_seeds=2, seed=18)
        assert rows[0].error is not None and rows[0].result is None
        assert rows[1].error is None and rows[1].result is not None
        # validate_params names a value by its config key.
        assert rows[2].error == "lambda: must be a finite number"
