import math
import tracemalloc

import numpy as np
import pytest

from gridlab import (
    ParamError,
    Regime,
    Region,
    affine_piece,
    classify_region,
    ramp_control,
    step,
    step_matrix,
    validate_params,
)
from gridlab.dynamics import (
    KERNEL_BLOCK,
    OVERFLOW_GUARD,
    breakpoints,
    iterate,
    region_codes,
)
from conftest import random_params


def ulp_close(a, b):
    """|a - b| within one ulp of the larger magnitude."""
    return abs(a - b) <= math.ulp(max(abs(a), abs(b)))


class TestValidateParams:
    def test_reference_set(self, p0):
        assert p0.gamma == pytest.approx(0.4)
        assert p0.regime is Regime.POSITIVE
        assert p0.gamma == 1.0 - p0.lam - p0.mu

    def test_lambda_plus_mu_bound(self):
        with pytest.raises(ParamError, match="lambda\\+mu must be < 1"):
            validate_params(0.5, 0.6, 1, 1, 3, 1)

    def test_trivially_unstable_tag(self):
        p = validate_params(0.5, -0.6, 1, 1, 3, 1)
        assert p.regime is Regime.NEGATIVE_TRIVIAL

    def test_regime_tags(self):
        assert validate_params(0.5, 0.0, 1, 1, 3, 1).regime is Regime.ZERO
        assert validate_params(0.5, -0.1, 1, 1, 3, 1).regime is Regime.NEGATIVE_MILD

    @pytest.mark.parametrize("kwargs,field", [
        (dict(lam=0.0), "lambda"),
        (dict(lam=1.0), "lambda"),
        (dict(zeta=0.0), "zeta"),
        (dict(xi=-1.0), "xi"),
        (dict(r_star=0.5), "r_star"),
        (dict(sigma=-1.0), "sigma"),
    ])
    def test_rejects_by_name(self, kwargs, field):
        base = dict(lam=0.5, mu=0.1, zeta=1.0, xi=1.0, r_star=3.0, sigma=1.0)
        base.update(kwargs)
        with pytest.raises(ParamError) as exc:
            validate_params(base["lam"], base["mu"], base["zeta"],
                            base["xi"], base["r_star"], base["sigma"])
        assert exc.value.field == field

    def test_sigma_zero_allowed(self):
        assert validate_params(0.5, 0.1, 1, 1, 3, 0.0).sigma == 0.0


class TestClassifyRegion:
    def test_examples(self, p0):
        assert classify_region(p0, (-0.5, 0.0)) is Region.D1
        assert classify_region(p0, (0.0, 7.0)) is Region.D2
        assert classify_region(p0, (2.0, 1.0)) is Region.D3
        assert classify_region(p0, (4.0, 0.0)) is Region.D4

    def test_partition_of_state_space(self, p0):
        # Exactly one region predicate per state, checked independently of
        # classify_region, on 10^6 states including the boundary values.
        rng = np.random.default_rng(1)
        r = rng.uniform(-100.0, 100.0, 1_000_000)
        r[:3] = [0.0, p0.r_star - p0.zeta, p0.r_star + p0.xi]
        in1 = r < 0.0
        in2 = (r >= 0.0) & (r < p0.r_star - p0.zeta)
        in3 = (r >= p0.r_star - p0.zeta) & (r < p0.r_star + p0.xi)
        in4 = r >= p0.r_star + p0.xi
        total = in1.astype(int) + in2 + in3 + in4
        assert np.all(total == 1)

    def test_matches_predicates(self, p0):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            r = float(rng.uniform(-10.0, 10.0))
            region = classify_region(p0, (r, 0.0))
            expected = (Region.D1 if r < 0 else
                        Region.D2 if r < p0.r_star - p0.zeta else
                        Region.D3 if r < p0.r_star + p0.xi else Region.D4)
            assert region is expected


class TestRampControl:
    def test_examples(self, p0):
        assert ramp_control(p0, -1.0) == 1.0
        assert ramp_control(p0, 3.0) == 0.0
        assert ramp_control(p0, 10.0) == -1.0

    def test_bounds_and_tracking(self, p0):
        rng = np.random.default_rng(3)
        for r in rng.uniform(-100, 100, 5000):
            h = ramp_control(p0, r)
            assert -p0.xi <= h <= p0.zeta
            if -p0.xi <= p0.r_star - r <= p0.zeta:
                assert h == p0.r_star - r


class TestStep:
    def test_hand_evaluated_examples(self, p0):
        (r, z), _ = step(p0, (-1.0, 2.0), 0.0)
        assert r == pytest.approx(0.1, rel=1e-12)
        assert z == pytest.approx(1.8, rel=1e-12)
        (r, z), _ = step(p0, (0.0, 0.0), 0.0)
        assert (r, z) == (1.0, 0.0)
        (r, z), _ = step(p0, (5.0, 0.0), 0.0)
        assert (r, z) == (4.0, 0.0)

    def test_matrix_examples(self, p0):
        assert step_matrix(p0, (-1.0, 2.0), 0.0) == pytest.approx((0.1, 1.8), rel=1e-12)
        assert step_matrix(p0, (2.5, 1.0), 0.0) == pytest.approx((3.3, 0.4), rel=1e-12)
        assert step_matrix(p0, (5.0, 0.0), 0.0) == (4.0, 0.0)

    def test_record_observables(self, p0):
        _, rec = step(p0, (-2.0, 4.0), 0.5, t=7)
        assert rec.t == 7
        assert rec.region is Region.D1
        assert rec.noise == 0.5
        assert rec.b_expr == p0.lam * 4.0
        assert rec.f_frustrated == 2.0
        assert rec.h_control == 1.0

    def test_scalar_matrix_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = random_params(rng)
            for _ in range(50):
                x = (float(rng.uniform(-50, 50)), float(rng.uniform(0, 50)))
                n = float(rng.normal(0, p.sigma))
                (r1, z1), _ = step(p, x, n)
                r2, z2 = step_matrix(p, x, n)
                assert ulp_close(r1, r2) and ulp_close(z1, z2)

    def test_backlog_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            p = random_params(rng)
            x = (float(rng.uniform(-50, 50)), float(rng.uniform(0, 50)))
            (_, z1), _ = step(p, x, float(rng.normal()))
            assert z1 >= 0.0

    def test_trivially_unstable_backlog_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            lam = rng.uniform(0.05, 0.9)
            mu = -lam - rng.uniform(0.0, 0.5)
            p = validate_params(lam, mu, 1.0, 1.0, 3.0, 1.0)
            x = (float(rng.uniform(-50, 50)), float(rng.uniform(0, 50)))
            (_, z1), _ = step(p, x, float(rng.normal()))
            assert z1 >= x[1]

    def test_conservation_identity(self):
        # Z' - Z == F - B - mu Z, up to float reassociation.
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p = random_params(rng)
            x = (float(rng.uniform(-50, 50)), float(rng.uniform(0, 50)))
            (_, z1), rec = step(p, x, float(rng.normal()))
            lhs = z1 - x[1]
            rhs = rec.f_frustrated - rec.b_expr - p.mu * x[1]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestAffinePiece:
    def test_reference_matrices(self, p0):
        d1 = affine_piece(p0, Region.D1)
        assert d1.a[0] == pytest.approx((1.5, 0.3), rel=1e-15)
        assert d1.a[1] == pytest.approx((-1.0, 0.4), rel=1e-15)
        assert d1.b == (1.0, 0.0)
        d3 = affine_piece(p0, Region.D3)
        assert d3.a[0] == pytest.approx((0.0, 0.3), abs=1e-15)
        assert d3.b == (3.0, 0.0)

    def test_d2_and_d4_share_matrix(self, p0):
        d2 = affine_piece(p0, Region.D2)
        d4 = affine_piece(p0, Region.D4)
        assert d2.a == d4.a
        assert d2.b == (p0.zeta, 0.0)
        assert d4.b == (-p0.xi, 0.0)


def bits(*xs):
    """The IEEE-754 bit patterns of xs, so that 0.0 and -0.0 differ."""
    return np.array(xs, dtype=np.float64).view(np.uint64).tolist()


def edge_states(rng, p):
    """States on each breakpoint and one ulp either side, plus random ones."""
    rs = []
    for b in breakpoints(p):
        rs += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
    rs += rng.uniform(-50.0, p.r_star + p.xi + 50.0, 20).tolist()
    zs = [0.0, *rng.uniform(0.0, 50.0, 3).tolist()]
    return [(r, z) for r in rs for z in zs]


class TestKernelMatchesMatrixTable:
    def test_one_step_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_params(rng)
            for x in edge_states(rng, p):
                n = float(rng.normal(0.0, p.sigma))
                out_r, out_z = np.empty(2), np.empty(2)
                assert iterate(p, x[0], x[1], [n], out_r, out_z) == -1
                want = bits(*step_matrix(p, x, n))
                assert bits(out_r[1], out_z[1]) == want
                assert bits(*step(p, x, n)[0]) == want

    def test_trajectory_bitwise(self):
        # A kernel run equals step_matrix applied one step at a time.
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_params(rng)
            noise = rng.normal(0.0, p.sigma, 200)
            out_r, out_z = np.empty(201), np.empty(201)
            x = (float(rng.uniform(-50, 50)), float(rng.uniform(0, 50)))
            assert iterate(p, x[0], x[1], noise, out_r, out_z) == -1
            for t, n in enumerate(noise.tolist(), start=1):
                x = step_matrix(p, x, n)
                assert bits(out_r[t], out_z[t]) == bits(*x)

    def test_region_codes_match_classify_region(self):
        rng = np.random.default_rng(43)
        regions = list(Region)
        for _ in range(100):
            p = random_params(rng)
            for i, b in enumerate(breakpoints(p)):
                # Regions are left-closed: a breakpoint opens the next one.
                assert classify_region(p, (b, 0.0)) is regions[i + 1]
            rs = [r for r, _ in edge_states(rng, p)]
            rs += [-0.0, math.nan, math.inf, -math.inf]
            codes = region_codes(p, np.array(rs))
            assert [regions[c] for c in codes] \
                == [classify_region(p, (r, 0.0)) for r in rs]
            assert classify_region(p, (math.nan, 0.0)) is Region.D4


def reference_run(p, x, noise, one_step=step_matrix):
    """iterate's contract, one one_step(p, x, n) call per step."""
    rs, zs = [x[0]], [x[1]]
    for t, n in enumerate(noise, start=1):
        x = one_step(p, x, n)
        rs.append(x[0])
        zs.append(x[1])
        if abs(x[0]) > OVERFLOW_GUARD or x[1] > OVERFLOW_GUARD:
            return t, rs, zs
    return -1, rs, zs


B = KERNEL_BLOCK


class TestKernelBlocks:
    """The kernel converts its noise in blocks; block edges change nothing."""

    @pytest.mark.parametrize("steps", [B - 1, B, B + 1, 2 * B + 1])
    def test_trajectory_bitwise_across_blocks(self, steps):
        rng = np.random.default_rng(steps)
        for _ in range(3):
            # Stable parameters, so that no run meets the guard.
            p = random_params(rng, mu_sign="positive")
            noise = rng.normal(0.0, p.sigma, steps)
            x = (float(rng.uniform(-50, 50)), float(rng.uniform(0, 50)))
            out_r, out_z = np.empty(steps + 1), np.empty(steps + 1)
            bad, rs, zs = reference_run(p, x, noise.tolist())
            assert bad == -1
            assert iterate(p, x[0], x[1], noise, out_r, out_z) == -1
            assert bits(*out_r) == bits(*rs) and bits(*out_z) == bits(*zs)

    @pytest.mark.parametrize("steps", [B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("kick", [1e301, -1e301, math.inf, math.nan])
    def test_guard_and_nan_at_block_edges(self, p0, steps, kick):
        # The kick lands on step B, the last of the first block, or on
        # step B + 1, the first of the second.  Past a NaN reserve the
        # matrix form makes Z NaN too (0.0 * NaN), while the kernel's D4
        # branch keeps Z = gamma * Z, so NaN runs are held against step(),
        # the kernel one step at a time, which never meets a block edge.
        one_step = step_matrix
        if math.isnan(kick):
            def one_step(p, x, n):
                return step(p, x, n)[0]
        rng = np.random.default_rng(7)
        for at in (B, B + 1):
            if at > steps:
                continue
            noise = rng.normal(0.0, 1.0, steps)
            noise[at - 1] = kick
            out_r = np.full(steps + 1, -7.0)
            out_z = np.full(steps + 1, -7.0)
            bad, rs, zs = reference_run(p0, (0.0, 0.0), noise.tolist(),
                                        one_step)
            # NaN passes the guard and rides on to the end; the rest stop.
            assert bad == (-1 if math.isnan(kick) else at)
            assert iterate(p0, 0.0, 0.0, noise, out_r, out_z) == bad
            end = len(rs)
            assert bits(*out_r[:end]) == bits(*rs)
            assert bits(*out_z[:end]) == bits(*zs)
            # Nothing is written past the state where the run stopped.
            assert (out_r[end:] == -7.0).all() and (out_z[end:] == -7.0).all()

    @pytest.mark.parametrize("container", [tuple, list])
    def test_accepts_sequence_noise(self, p0, container):
        noise = np.random.default_rng(8).normal(0.0, 1.0, B + 1)
        want_r, want_z = np.empty(B + 2), np.empty(B + 2)
        iterate(p0, -3.0, 2.0, noise, want_r, want_z)
        out_r, out_z = [None] * (B + 2), [None] * (B + 2)
        assert iterate(p0, -3.0, 2.0, container(noise.tolist()),
                       out_r, out_z) == -1
        assert bits(*out_r) == bits(*want_r) and bits(*out_z) == bits(*want_z)

    def test_memory_stays_one_block(self, p0):
        # Converting the whole noise array to a list at once would take
        # about 32 bytes per step (6 MB here); one block takes about 0.13 MB.
        steps = 200_000
        noise = np.random.default_rng(9).normal(0.0, 1.0, steps)
        out_r, out_z = np.empty(steps + 1), np.empty(steps + 1)
        tracemalloc.start()
        try:
            assert iterate(p0, 0.0, 0.0, noise, out_r, out_z) == -1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
