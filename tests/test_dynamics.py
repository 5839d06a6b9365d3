import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridlab import (
    AffinePiece,
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
    OVERFLOW_GUARD,
    breakpoints,
    expressed_backlog,
    frustrated_demand,
    iterate,
    iterate_columns,
    region_codes,
)
from gridlab import SimConfig, SimulationDiverged, dynamics, simulate
from gridlab.montecarlo import KERNEL_BLOCK
from gridlab.rng import gaussian, stream
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

    @pytest.mark.parametrize("x", [(-1.0, 2.0), (2.5, 0.0), (9.0, 1.0)])
    def test_next_state_is_python_floats(self, p0, x):
        for start in (x, (np.float64(x[0]), np.float64(x[1]))):
            (r, z), _ = step(p0, start, 0.25)
            assert type(r) is float and type(z) is float

    def test_record_observables_have_the_array_bits(self, p0):
        # The record's scalar formulas against the ufuncs on arrays, at
        # signed zeros, NaN, infinities and on each breakpoint.
        rs = [0.0, -0.0, math.nan, math.inf, -math.inf, *breakpoints(p0),
              p0.r_star, -2.0, 9.0]
        zs = [0.0, -0.0, math.nan, math.inf, 2.0]
        for r in rs:
            for z in zs:
                _, rec = step(p0, (r, z), 0.5)
                fields = (rec.b_expr, rec.f_frustrated, rec.h_control)
                assert all(type(v) is float for v in fields)
                want = (expressed_backlog(p0, np.array([z]))[0],
                        frustrated_demand(np.array([r]))[0],
                        ramp_control(p0, np.array([r]))[0])
                assert bits(*fields) == bits(*want), (r, z)

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
    zs = [0.0, -0.0, *rng.uniform(0.0, 50.0, 3).tolist()]
    return [(r, z) for r in rs for z in zs]


class TestKernelMatchesMatrixTable:
    def test_one_step_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_params(rng)
            for x in edge_states(rng, p):
                n = float(rng.normal(0.0, p.sigma))
                [(out_r, out_z, bad)] = iterate(p, x[0], x[1], [np.array([n])])
                assert bad == -1
                want = bits(*step_matrix(p, x, n))
                assert bits(out_r[1], out_z[1]) == want
                assert bits(*step(p, x, n)[0]) == want

    def test_zero_backlog_sign(self, p0):
        # A backlog of -0.0 is kept as given at index 0 and steps on as
        # +0.0 on every route.
        for r in (-2.0, 1.0, 2.5, 9.0):
            [(out_r, out_z, _)] = iterate(p0, r, -0.0, [np.zeros(2)])
            x1 = step_matrix(p0, (r, -0.0), 0.0)
            x2 = step_matrix(p0, x1, 0.0)
            assert bits(*out_r) == bits(r, x1[0], x2[0])
            assert bits(*out_z) == bits(-0.0, x1[1], x2[1])
            assert bits(*step(p0, (r, -0.0), 0.0)[0]) == bits(*x1)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_one_step_bitwise_at_non_finite_reserve(self, r):
        # The guard stops a run after an infinite state, but that state is
        # still written; a NaN reserve passes the guard and steps as D4.
        rng = np.random.default_rng(44)
        for _ in range(100):
            p = random_params(rng)
            for z in [0.0, float(rng.uniform(0.0, 50.0))]:
                n = float(rng.normal(0.0, p.sigma))
                [(out_r, out_z, _)] = iterate(p, r, z, [np.array([n])])
                want = bits(*step_matrix(p, (r, z), n))
                assert bits(out_r[1], out_z[1]) == want
                assert bits(*step(p, (r, z), n)[0]) == want

    def test_step_is_one_iterate_step(self):
        # step takes the matrix route; it must still give iterate's bits at
        # and just below each breakpoint, at a signed zero backlog, and at
        # a non-finite reserve.
        rng = np.random.default_rng(45)
        for _ in range(50):
            p = random_params(rng)
            cuts = breakpoints(p)
            reserves = [*cuts, *[math.nextafter(b, -math.inf) for b in cuts],
                        math.nan, math.inf, -math.inf]
            for r in reserves:
                for z in (0.0, -0.0, float(rng.uniform(0.0, 50.0))):
                    n = float(rng.normal(0.0, p.sigma))
                    [(out_r, out_z, _)] = iterate(p, r, z, [np.array([n])])
                    (r1, z1), _ = step(p, (r, z), n)
                    assert type(r1) is float and type(z1) is float
                    assert bits(r1, z1) == bits(out_r[1], out_z[1])

    def test_trajectory_bitwise(self):
        # A kernel run equals step_matrix applied one step at a time.
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_params(rng)
            noise = rng.normal(0.0, p.sigma, 200)
            x = (float(rng.uniform(-50, 50)), float(rng.uniform(0, 50)))
            [(out_r, out_z, bad)] = iterate(p, x[0], x[1], [noise])
            assert bad == -1
            for t, n in enumerate(noise.tolist(), start=1):
                x = step_matrix(p, x, n)
                assert bits(out_r[t], out_z[t]) == bits(*x)

    @pytest.mark.parametrize("lam, mu", [(0.5, 0.1), (0.3, -0.02)])
    def test_kernel_reads_its_coefficients_from_the_table(self, monkeypatch,
                                                          lam, mu):
        # Move every table entry that is not 0, 1 or -1: the kernel must
        # follow the moved table step for step, guard index included, on a
        # run that visits all four regions.
        real = dynamics.affine_piece

        def moved(p, region):
            piece = real(p, region)
            (a00, a01), (a10, a11) = piece.a
            b0, b1 = piece.b
            if region is Region.D1:
                a00 = 1.05 + p.lam
            return AffinePiece(((a00, 1.1 * a01), (a10, 0.9 * a11)),
                               (b0 + 0.5, b1))

        p = validate_params(lam, mu, 1.0, 1.0, 3.0, 1.0)
        steps = 20_000
        noise = gaussian(stream(0), steps, p.sigma)
        _, unmoved, _ = reference_run(p, (-5.0, 5.0), noise.tolist())
        monkeypatch.setattr(dynamics, "affine_piece", moved)
        bad, rs, zs = reference_run(p, (-5.0, 5.0), noise.tolist())
        assert rs[1] != unmoved[1]
        assert set(region_codes(p, np.array(rs)).tolist()) == {0, 1, 2, 3}
        [(out_r, out_z, got)] = iterate(p, -5.0, 5.0, [noise])
        assert got == bad
        assert bits(*out_r[:len(rs)]) == bits(*rs)
        assert bits(*out_z[:len(zs)]) == bits(*zs)

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


def reference_run(p, x, noise):
    """iterate's contract, one step_matrix(p, x, n) call per step."""
    rs, zs = [x[0]], [x[1]]
    for t, n in enumerate(noise, start=1):
        x = step_matrix(p, x, n)
        rs.append(x[0])
        zs.append(x[1])
        if abs(x[0]) > OVERFLOW_GUARD or x[1] > OVERFLOW_GUARD:
            return t, rs, zs
    return -1, rs, zs


B = KERNEL_BLOCK


def iterate_in_blocks(p, x, noise):
    """iterate over the noise in B-step blocks, joined as a caller joins
    them: (bad, r, z, read), bad counted from the run's start and read the
    number of blocks the kernel took from the stream.  Each block after the
    first must start from the state the block before ended on."""
    read = 0

    def blocks():
        nonlocal read
        for lo in range(0, max(len(noise), 1), B):
            read += 1
            yield noise[lo:lo + B]

    rs, zs, bad, lo = [], [], -1, 0
    for r, z, bad in iterate(p, x[0], x[1], blocks()):
        if rs:
            assert bits(r[0], z[0]) == bits(rs[-1], zs[-1])
            r, z = r[1:], z[1:]
        rs += r.tolist()
        zs += z.tolist()
        if bad >= 0:
            bad += lo
        lo += B
    return bad, rs, zs, read


class TestKernelBlocks:
    """The caller's noise blocks change nothing: the kernel carries the
    chain from one block to the next."""

    @pytest.mark.parametrize("steps", [B - 1, B, B + 1, 2 * B + 1])
    def test_trajectory_bitwise_across_blocks(self, steps):
        rng = np.random.default_rng(steps)
        for _ in range(3):
            # Stable parameters, so that no run meets the guard.
            p = random_params(rng, mu_sign="positive")
            noise = rng.normal(0.0, p.sigma, steps)
            x = (float(rng.uniform(-50, 50)), float(rng.uniform(0, 50)))
            bad, rs, zs = reference_run(p, x, noise.tolist())
            assert bad == -1
            got, out_r, out_z, _ = iterate_in_blocks(p, x, noise)
            assert got == -1
            assert bits(*out_r) == bits(*rs) and bits(*out_z) == bits(*zs)

    @pytest.mark.parametrize("steps", [B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("kick, offset", [
        ((1e301,), 0),
        ((-1e301,), 0),
        ((math.inf,), 0),
        ((math.nan,), None),
        # R back under the guard as Z passes it, two steps on.
        ((-1e299, -8.4e299, 1.455e300), 2),
        # Beyond, back under, beyond again: the first guard state wins.
        ((1e301, -1e301, 0.0, 1e301), 0),
    ], ids=["1e+301", "-1e+301", "inf", "nan", "z-alone", "first-of-two"])
    def test_guard_and_nan_at_block_edges(self, p0, steps, kick, offset):
        # The kick's noise starts on step `at`: step 1, mid-block, step B
        # (the last of the first block) or step B + 1 (the first of the
        # second).  The run must stop at the reference's guard step,
        # `offset` steps after `at`, or never for NaN, which passes the
        # guard and rides on to the end as D4.
        rng = np.random.default_rng(7)
        for at in (1, B // 2, B, B + 1):
            if at + len(kick) - 1 > steps:
                continue
            noise = rng.normal(0.0, 1.0, steps)
            noise[at - 1:at - 1 + len(kick)] = kick
            bad, rs, zs = reference_run(p0, (0.0, 0.0), noise.tolist())
            assert bad == (-1 if offset is None else at + offset)
            got, out_r, out_z, read = iterate_in_blocks(p0, (0.0, 0.0), noise)
            assert got == bad
            if kick[0] == -1e299:
                assert abs(rs[bad]) < OVERFLOW_GUARD < zs[bad]
            # No state is returned past the one where the run stopped, and
            # no block past the guard's is read.
            assert bits(*out_r) == bits(*rs)
            assert bits(*out_z) == bits(*zs)
            assert read == (-(-steps // B) if bad < 0 else (bad - 1) // B + 1)

    def test_memory_stays_one_block(self, p0):
        # The kernel lets go of each block's lists and states: over 2e5
        # steps in B-step views it peaks at about 0.43 MB, where keeping
        # every block's states would take 16 bytes per step (3.5 MB here).
        steps = 200_000
        noise = np.random.default_rng(9).normal(0.0, 1.0, steps)
        blocks = (noise[lo:lo + B] for lo in range(0, steps, B))
        tracemalloc.start()
        try:
            for _, _, bad in iterate(p0, 0.0, 0.0, blocks):
                assert bad == -1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def run_columns(ps, r0, z0, noise):
    """iterate_columns over the noise as one block; checks each column
    against iterate.

    Returns the guard indices.  Rows past a column's guard index are not
    part of its result, so only the rows up to it are compared.
    """
    steps, k = noise.shape
    [(out_r, out_z, guard)] = iterate_columns(ps, r0, z0, [noise])
    assert guard.shape == (k,)
    for c, p in enumerate(ps):
        [(want_r, want_z, bad)] = iterate(p, r0[c], z0[c], [noise[:, c]])
        assert guard[c] == bad, c
        end = steps + 1 if bad < 0 else bad + 1
        assert bits(*out_r[:end, c]) == bits(*want_r[:end]), c
        assert bits(*out_z[:end, c]) == bits(*want_z[:end]), c
    return guard


class TestColumnKernel:
    """iterate_columns equals iterate bit for bit, column by column."""

    def test_edge_states_and_mixed_params(self):
        # Every column has its own params, among them mu <= -lambda, where
        # lambda * (lambda + mu) < 0; the states sit on each breakpoint, one
        # ulp either side, and at z = 0.
        rng = np.random.default_rng(51)
        ps, r0, z0 = [], [], []
        for mu_sign in ("positive", "negative", None):
            for _ in range(3):
                p = random_params(rng, mu_sign=mu_sign)
                for r, z in edge_states(rng, p)[::3]:
                    ps.append(p)
                    r0.append(r)
                    z0.append(z)
        for lam, mu in ((0.5, -0.6), (0.3, -0.85)):
            p = validate_params(lam, mu, 1.0, 1.0, 3.0, 1.0)
            assert p.lam * (p.lam + p.mu) < 0.0
            for r in (*breakpoints(p), -100.0):
                ps.append(p)
                r0.append(r)
                z0.append(0.0)
        noise = rng.normal(0.0, 1.0, (60, len(ps)))
        run_columns(ps, r0, z0, noise)

    def test_nan_reserve_runs_on_as_d4(self, p0):
        # A NaN reserve never meets the guard, and Z keeps gamma * Z.
        noise = np.random.default_rng(52).normal(0.0, 1.0, (40, 3))
        guard = run_columns([p0] * 3, [math.nan, -2.0, 4.0],
                            [5.0, 1.0, 0.0], noise)
        assert guard.tolist() == [-1, -1, -1]

    def test_one_column_passes_the_guard_while_others_run_on(self, p0):
        noise = np.random.default_rng(53).normal(0.0, 1.0, (30, 5))
        noise[4, 1] = 1e301     # column 1 passes the guard at step 5
        noise[9, 2] = math.inf  # column 2 at step 10
        noise[14, 3] = -1e301   # column 3 below -guard at step 15
        guard = run_columns([p0] * 5, [0.0] * 5, [0.0] * 5, noise)
        assert guard.tolist() == [-1, 5, 10, 15, -1]

    def test_blocks_of_any_size_carry_the_chain(self, p0):
        # Blocks longer than the first (the state rows grow), empty ones
        # and a guard step in a later block: joined, they are the one-block
        # run, and each block starts from the row the one before ended on.
        noise = np.random.default_rng(54).normal(0.0, 1.0, (60, 3))
        noise[40, 2] = 1e301
        [(want_r, want_z, want_bad)] = iterate_columns([p0] * 3, -3.0, -0.0,
                                                       [noise])
        want_r, want_z = want_r.copy(), want_z.copy()
        cuts = [0, 0, 1, 6, 8, 25, 25, 60]
        blocks = [noise[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        lo = 0
        guard = np.full(3, -1)
        for (r, z, bad), block in zip(iterate_columns([p0] * 3, -3.0, -0.0,
                                                      blocks), blocks):
            assert r.shape == z.shape == (len(block) + 1, 3)
            assert bits(*r.ravel()) == bits(*want_r[lo:lo + len(r)].ravel())
            assert bits(*z.ravel()) == bits(*want_z[lo:lo + len(z)].ravel())
            new = (bad >= 0) & (guard < 0)
            guard[new] = lo + bad[new]
            lo += len(block)
        assert guard.tolist() == want_bad.tolist() == [-1, -1, 41]

    def test_zero_steps_writes_the_start(self, p0):
        [(out_r, out_z, guard)] = iterate_columns([p0, p0], [1.0, 2.0], 3.0,
                                                  [np.empty((0, 2))])
        assert guard.tolist() == [-1, -1]
        assert out_r.tolist() == [[1.0, 2.0]] and out_z.tolist() == [[3.0, 3.0]]

    @given(st.data())
    def test_random_finite_states_and_params(self, data):
        finite = dict(allow_nan=False, allow_infinity=False)
        k = data.draw(st.integers(1, 6), label="columns")
        steps = data.draw(st.integers(1, 40), label="steps")
        ps, r0, z0 = [], [], []
        for _ in range(k):
            lam = data.draw(st.floats(0.01, 0.99))
            mu = data.draw(st.floats(-3.0, 0.999 - lam))
            zeta = data.draw(st.floats(0.01, 10.0))
            xi = data.draw(st.floats(0.01, 10.0))
            r_star = zeta + data.draw(st.floats(0.01, 10.0))
            ps.append(validate_params(lam, mu, zeta, xi, r_star, 1.0))
            r0.append(data.draw(st.floats(-1e6, 1e6, **finite)))
            # min_value=-0.0 draws -0.0 as well as +0.0.
            z0.append(data.draw(st.floats(-0.0, 1e6, **finite)))
        noise = np.array(data.draw(st.lists(
            st.floats(-50.0, 50.0, **finite), min_size=steps * k,
            max_size=steps * k))).reshape(steps, k)
        run_columns(ps, r0, z0, noise)


# Factors 2^k: a product with one is exact unless it leaves the normal range.
SCALES = [2.0 ** k for k in (-3, 1, 5, 20)]
SMALLEST_NORMAL = np.finfo(np.float64).smallest_normal


def bits_differ(a, b):
    """Elementwise: do a and b differ in their IEEE-754 bit patterns?"""
    return a.view(np.uint64) != b.view(np.uint64)


def same_bits(a, b):
    return not bits_differ(a, b).any()


def subnormal(x):
    return (x != 0.0) & (np.abs(x) < SMALLEST_NORMAL)


class TestScaleInvariance:
    """The map is homogeneous of degree one in (R, Z, zeta, xi, r*, sigma).

    Every kernel operation is a sum, or a product with an unscaled
    coefficient, and the noise is sigma times a fixed draw.  So scaling
    (x0, zeta, xi, r*, sigma) by c = 2^k scales every state by c, bit for
    bit, with two exceptions, each checked here: the 1e300 guard is not
    scaled, and a product that lands in the subnormal range rounds to
    fewer bits.
    """

    X0 = (-5.0, 5.0)
    SEED = 7

    def params(self, lam, mu, sigma, c):
        """(zeta, xi, r*) = (1, 1, 3) and sigma, all times c."""
        return validate_params(lam, mu, c, c, 3.0 * c, sigma * c)

    def simulated(self, lam, mu, sigma, c, steps=20_000):
        cfg = SimConfig(self.params(lam, mu, sigma, c),
                        (c * self.X0[0], c * self.X0[1]), steps, seed=self.SEED)
        _, traj = simulate(cfg)
        return traj.r, traj.z

    def columns(self, lam, mu, sigma, steps):
        """iterate_columns with column 0 unscaled and column j scaled by
        SCALES[j - 1]; every column's noise is c times the same draws."""
        cs = np.array([1.0, *SCALES])
        noise = np.outer(gaussian(stream(self.SEED), steps, sigma), cs)
        [states] = iterate_columns([self.params(lam, mu, sigma, c) for c in cs],
                                   cs * self.X0[0], cs * self.X0[1], [noise])
        return states

    @pytest.mark.parametrize("lam, mu", [(0.5, 0.1), (0.3, -0.02)])
    def test_states_scale_bit_for_bit(self, lam, mu):
        # At sigma = 2 the reserve dips below 0 often enough to keep Z
        # away from the subnormal range at every scale (at sigma = 1 and
        # (0.5, 0.1) it gets there within a few thousand steps).
        r, z = self.simulated(lam, mu, 2.0, 1.0)
        for x in (r, z):
            assert not subnormal(x * min(SCALES)).any()
        for c in SCALES:
            rc, zc = self.simulated(lam, mu, 2.0, c)
            assert same_bits(rc, c * r) and same_bits(zc, c * z), c
        out_r, out_z, guard = self.columns(lam, mu, 2.0, len(r) - 1)
        assert guard.tolist() == [-1] * (1 + len(SCALES))
        assert same_bits(out_r[:, 0], r) and same_bits(out_z[:, 0], z)
        for j, c in enumerate(SCALES, start=1):
            assert same_bits(out_r[:, j], c * out_r[:, 0]), c
            assert same_bits(out_z[:, j], c * out_z[:, 0]), c

    def test_guard_is_not_scaled(self):
        # Z grows by gamma = 1.2 a step at (0.5, -0.7), so a run meets the
        # fixed guard sooner at c >= 2 and later at c = 1/8.  The states
        # before both guard indices still scale bit for bit.
        steps = 3000
        out_r, out_z, guard = self.columns(0.5, -0.7, 1.0, steps)
        assert 0 < guard[0] < steps
        for j, c in enumerate(SCALES, start=1):
            assert guard[j] < guard[0] if c >= 2 else guard[j] > guard[0]
            end = min(guard[j], guard[0])
            assert same_bits(out_r[:end, j], c * out_r[:end, 0]), c
            assert same_bits(out_z[:end, j], c * out_z[:end, 0]), c
            with pytest.raises(SimulationDiverged) as err:
                self.simulated(0.5, -0.7, 1.0, c, steps)
            assert err.value.step == guard[j]

    def test_subnormal_states_are_not_scaled(self):
        # At lambda = 0.9, mu = 0.05 (gamma = 0.05) Z shrinks twentyfold a
        # step while the reserve stays non-negative, and reaches the
        # subnormal range within the first few hundred steps.  Every state
        # before the first subnormal one, in either run, scales bit for
        # bit; from there on some backlog states differ.
        r, z = self.simulated(0.9, 0.05, 1.0, 1.0)
        for c in SCALES:
            rc, zc = self.simulated(0.9, 0.05, 1.0, c)
            first = int((subnormal(z) | subnormal(zc)).argmax())
            assert first > 0
            differ = bits_differ(rc, c * r) | bits_differ(zc, c * z)
            assert differ.any() and not differ[:first].any(), c


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
def test_mu_zero_d1_sojourn_is_a_jordan_block(lam):
    # At mu = 0 D1's matrix has the double eigenvalue 1: with s = R + lam Z
    # the map is s' = s + zeta + N and Z' = Z - s.  At sigma = 0 a sojourn
    # from (-L, 0) follows s_t = s_0 + t zeta and
    # Z_t = Z_0 - t s_0 - zeta t (t - 1) / 2 until R reaches D2, near
    # t = 2 L / zeta.  Both kernels must follow it to REL_TOL of the peak
    # backlog L^2 / (2 zeta): the Jordan block turns each step's rounding
    # in s into an error in Z that grows with t, up to about t^2 ulps of
    # the peak (9e-10 at 2857 steps; at most 2.4e-10 of it here).
    REL_TOL = 1e-8
    cases = [(1.0, 1e3), (2.5, 1e2), (0.7, 1e3)]
    ps = [validate_params(lam, 0.0, zeta, 1.0, 3.0, 0.0) for zeta, _ in cases]
    launch = np.array([-size for _, size in cases])
    steps = 3000
    [(cols_r, cols_z, _)] = iterate_columns(ps, launch, 0.0,
                                            [np.zeros((steps, len(ps)))])
    for c, (p, (zeta, size)) in enumerate(zip(ps, cases)):
        [(r, z, bad)] = iterate(p, -size, 0.0, [np.zeros(steps)])
        assert bad == -1
        assert r.tolist() == cols_r[:, c].tolist()
        assert z.tolist() == cols_z[:, c].tolist()
        # States 0..n are in D1; the closed form holds for each of them and
        # for the first state out of D1.
        n = int(np.argmax(r >= breakpoints(p)[0])) - 1
        assert n >= 2 * size / zeta - 4
        t = np.arange(n + 2)
        s_want = -size + t * zeta
        z_want = t * size - zeta * t * (t - 1) / 2
        peak = size ** 2 / (2 * zeta)
        assert np.abs(r[:n + 2] + lam * z[:n + 2] - s_want).max() <= REL_TOL * peak
        assert np.abs(z[:n + 2] - z_want).max() <= REL_TOL * peak
