import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridlab import (
    GeometryUndefined,
    Region,
    TransformUndefined,
    basis,
    classify_region,
    drift_exact,
    drift_paper,
    drift_report,
    from_y1,
    in_c_union,
    log_drift_numeric,
    log_lyap,
    lyap_h,
    negative_drift_geometry,
    quad_form,
    to_y1,
    to_y2,
    validate_params,
    w1,
    w2,
)
from gridlab.dynamics import breakpoints
from gridlab.lyapunov import PAPER_REL_TOL
from conftest import random_params, random_state

V_PLUS_P0 = 35.72882812916423  # frozen positive root of the D2 boundary quadratic


class TestLyapH:
    def test_examples(self, p0):
        assert lyap_h(p0, (0.0, 0.0)) == 0.0
        assert lyap_h(p0, (1.0, 2.0)) == pytest.approx(8.84, rel=1e-12)
        assert lyap_h(p0, (-1.0, 2.0)) == pytest.approx(0.04, rel=1e-12)

    def test_quadratic_form_expansion(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = random_params(rng)
            q = np.array(quad_form(p))
            assert (q == q.T).all()
            for _ in range(20):
                x = np.array(random_state(rng, p))
                assert x @ q @ x == pytest.approx(lyap_h(p, x), rel=1e-12, abs=1e-12)

    def test_nonnegative_and_definite(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            p = random_params(rng)
            x = random_state(rng, p)
            h = lyap_h(p, x)
            assert h >= 0.0
            if p.mu != 0.0 and (abs(x[0]) > 1e-6 or x[1] > 1e-6):
                assert h > 0.0


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


class TestBasis:
    def test_eigendecompositions(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_params(rng)
            bs = basis(p)
            ident1 = _matmul(bs.m1, bs.m1_inv)
            ident2 = _matmul(bs.m2, bs.m2_inv)
            for ident in (ident1, ident2):
                assert abs(ident[0][0] - 1.0) < 1e-12
                assert abs(ident[1][1] - 1.0) < 1e-12
                assert abs(ident[0][1]) < 1e-12 and abs(ident[1][0]) < 1e-12
            l1 = ((bs.lambda1[0], 0.0), (0.0, bs.lambda1[1]))
            l2 = ((bs.lambda2[0], 0.0), (0.0, bs.lambda2[1]))
            a1 = _matmul(_matmul(bs.m1, l1), bs.m1_inv)
            a2 = _matmul(_matmul(bs.m2, l2), bs.m2_inv)
            llm = p.lam * (p.lam + p.mu)
            expect1 = ((1.0 + p.lam, llm), (-1.0, p.gamma))
            expect2 = ((1.0, llm), (0.0, p.gamma))
            for got, want in ((a1, expect1), (a2, expect2)):
                err = max(abs(got[i][j] - want[i][j]) for i in range(2) for j in range(2))
                assert err < 1e-12

    def test_mu_zero_rejected(self):
        p = validate_params(0.5, 0.0, 1, 1, 3, 1)
        with pytest.raises(TransformUndefined):
            basis(p)
        with pytest.raises(TransformUndefined):
            to_y1(p, (1.0, 1.0))


class TestTransforms:
    def test_y1_example(self, p0):
        u, v = to_y1(p0, (-1.0, 2.0))
        assert u == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(2.0, rel=1e-12)
        assert to_y1(p0, (0.0, 0.0)) == (0.0, 0.0)
        assert w1(p0, (0.0, 2.0)) == pytest.approx(0.04, rel=1e-12)

    def test_roundtrip_and_w_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = random_params(rng)
            for _ in range(50):
                x = random_state(rng, p)
                y = to_y1(p, x)
                back = from_y1(p, y)
                assert back[0] == pytest.approx(x[0], rel=1e-9, abs=1e-9)
                assert back[1] == pytest.approx(x[1], rel=1e-9, abs=1e-9)
                h = lyap_h(p, x)
                scale = max(1.0, h)
                assert abs(w1(p, y) - h) < 1e-10 * scale
                assert abs(w2(p, to_y2(p, x)) - h) < 1e-10 * scale


class TestDrift:
    def test_frozen_examples(self, p0):
        assert drift_exact(p0, (-1.0, 2.0)) == pytest.approx(4.3524, rel=1e-9)
        assert drift_exact(p0, (1.0, 1.0)) == pytest.approx(9.8916, rel=1e-9)
        assert drift_exact(p0, (2.5, 1.0)) == pytest.approx(8.1716, rel=1e-9)

    def test_paper_formula_examples(self, p0):
        val, kind = drift_paper(p0, (-1.0, 2.0))
        assert (val, kind) == (pytest.approx(4.3524, rel=1e-9), "exact")
        val, kind = drift_paper(p0, (1.0, 1.0))
        assert (val, kind) == (pytest.approx(9.8916, rel=1e-9), "exact")
        val, kind = drift_paper(p0, (2.5, 1.0))
        assert (val, kind) == (pytest.approx(13.6716, rel=1e-9), "upper_bound")

    def test_exact_regions_agree_random_params(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = random_params(rng)
            for region in ("D1", "D2"):
                for _ in range(50):
                    x = random_state(rng, p, region)
                    exact = drift_exact(p, x)
                    val, kind = drift_paper(p, x)
                    assert kind == "exact"
                    assert abs(exact - val) <= 1e-9 * max(1.0, abs(exact), abs(val))

    def test_bounds_hold_for_positive_mu(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            p = random_params(rng, mu_sign="positive")
            for region in ("D3", "D4"):
                for _ in range(50):
                    x = random_state(rng, p, region)
                    exact = drift_exact(p, x)
                    val, kind = drift_paper(p, x)
                    assert kind == "upper_bound"
                    assert exact <= val + 1e-9 * max(1.0, abs(exact), abs(val))

    @given(st.data())
    def test_paper_routes_against_exact_drift(self, data):
        # drift_report's agree_paper rule: equal within PAPER_REL_TOL of the
        # scale in D1 and D2, an upper bound in D3 and D4 when mu > 0, and
        # no claim (an "expression") in D3 and D4 when mu < 0.  The
        # state lies within 50 of a region edge, the edge itself included.
        lam = data.draw(st.floats(0.01, 0.9), label="lambda")
        mu = data.draw(st.one_of(st.floats(-0.99, -0.01),
                                 st.floats(0.01, 0.99 - lam)), label="mu")
        zeta = data.draw(st.floats(0.01, 10.0), label="zeta")
        xi = data.draw(st.floats(0.01, 10.0), label="xi")
        r_star = zeta + data.draw(st.floats(0.01, 10.0), label="r_star - zeta")
        sigma = data.draw(st.floats(0.0, 5.0), label="sigma")
        p = validate_params(lam, mu, zeta, xi, r_star, sigma)
        edge = data.draw(st.sampled_from(breakpoints(p)), label="edge")
        x = (edge + data.draw(st.floats(-50.0, 50.0), label="r - edge"),
             data.draw(st.floats(0.0, 50.0), label="z"))
        exact = drift_exact(p, x)
        val, kind = drift_paper(p, x)
        slack = PAPER_REL_TOL * max(1.0, abs(exact), abs(val))
        if classify_region(p, x) in (Region.D1, Region.D2):
            assert kind == "exact"
            assert abs(exact - val) <= slack
        elif mu > 0.0:
            assert kind == "upper_bound"
            assert exact <= val + slack
        else:
            assert kind == "expression"

    def test_negative_mu_bound_may_fail(self):
        # For mu < 0 the D3/D4 expressions are not bounds (exact -40.56
        # against -42.96 here): drift_report calls them expression and
        # claims no agreement either way.
        p = validate_params(0.5, -0.1, 1.0, 1.0, 3.0, 1.0)
        rep = drift_report(p, (10.0, 5.0), n_samples=100, seed=0)
        assert rep.region is Region.D4 and rep.paper_kind == "expression"
        assert rep.exact > rep.paper_formula
        assert rep.agree_paper is None

    def test_report_flags(self, p0):
        rep = drift_report(p0, (-1.0, 2.0), n_samples=100_000, seed=101)
        assert rep.region is Region.D1
        assert rep.agree_paper and rep.agree_mc
        assert abs(rep.exact - rep.mc_mean) <= 4.0 * rep.mc_stderr

    @given(st.data())
    def test_noiseless_monte_carlo_is_the_exact_drift(self, data):
        # At sigma = 0 every draw is +0.0 and every increment has
        # drift_exact's bits, so their mean must too: a mean of n copies
        # an ulp away would fail agree_mc against a stderr of 0.
        lam = data.draw(st.floats(0.01, 0.9), label="lambda")
        mu = data.draw(st.floats(-0.99, 0.98 - lam), label="mu")
        zeta = data.draw(st.floats(0.01, 10.0), label="zeta")
        xi = data.draw(st.floats(0.01, 10.0), label="xi")
        r_star = zeta + data.draw(st.floats(0.01, 10.0), label="r_star - zeta")
        p = validate_params(lam, mu, zeta, xi, r_star, 0.0)
        x = (data.draw(st.floats(-50.0, r_star + xi + 50.0), label="r"),
             data.draw(st.floats(0.0, 50.0), label="z"))
        rep = drift_report(p, x, data.draw(st.integers(2, 2000), label="n"),
                           seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        bits = np.float64([rep.exact, rep.mc_mean]).view(np.uint64)
        assert bits[0] == bits[1]
        assert rep.mc_stderr == 0.0 and rep.agree_mc is True

    def test_report_mu_zero_d1(self):
        p = validate_params(0.5, 0.0, 1, 1, 3, 1)
        rep = drift_report(p, (-1.0, 2.0), n_samples=1000, seed=1)
        assert rep.paper_formula is None and rep.paper_kind == "not-applicable"
        assert rep.agree_paper is None


class TestNegativeDriftGeometry:
    def test_frozen_values(self, p0):
        g = negative_drift_geometry(p0)
        assert g.g1(0.0) == pytest.approx(25.0, rel=1e-9)
        assert g.g4(0.0) == pytest.approx(1.25, rel=1e-9)
        assert g.v_plus == pytest.approx(V_PLUS_P0, abs=1e-6)
        assert g.alpha == pytest.approx(0.0684, rel=1e-9)
        assert g.beta == pytest.approx(3.12, rel=1e-9)

    def test_v_plus_against_generic_root_finder(self, p0):
        g = negative_drift_geometry(p0)
        lm = p0.lam + p0.mu
        a = p0.mu * lm * lm * (2.0 - p0.mu)
        b = 2.0 * p0.zeta * (2.0 * p0.lam + p0.mu * p0.gamma)
        c = 2.0 * p0.sigma**2 - 2.0 * p0.zeta**2 + 4.0 * p0.zeta * p0.r_star + 1.0
        roots = np.roots([a, -b, -c])
        assert g.v_plus == pytest.approx(float(max(roots.real)), rel=1e-12)

    def test_v_plus_sits_on_drift_bound(self, p0):
        # At z = v_plus the D2 upper bound equals -1 by construction.
        g = negative_drift_geometry(p0)
        v = g.v_plus
        lm = p0.lam + p0.mu
        bound = (2.0 * p0.sigma**2 - 2.0 * p0.zeta**2 + 4.0 * p0.zeta * p0.r_star
                 + 2.0 * p0.zeta * (2.0 * p0.lam + p0.mu * p0.gamma) * v
                 - p0.mu * lm * lm * (2.0 - p0.mu) * v * v)
        assert bound == pytest.approx(-1.0, abs=1e-9)

    def test_requires_positive_mu(self):
        p = validate_params(0.5, -0.1, 1, 1, 3, 1)
        with pytest.raises(GeometryUndefined):
            negative_drift_geometry(p)

    def test_outside_union_has_negative_drift(self, p0):
        rng = np.random.default_rng(16)
        geom = negative_drift_geometry(p0)
        checked = 0
        while checked < 2000:
            x = (float(rng.uniform(-100, 100)), float(rng.uniform(0, 100)))
            if in_c_union(p0, x, geom):
                continue
            assert drift_exact(p0, x) <= -1.0 + 1e-9
            checked += 1

    def test_union_contains_near_origin_states(self, p0):
        geom = negative_drift_geometry(p0)
        for x in [(0.0, 0.0), (p0.r_star, 0.0), (-0.5, 1.0), (1.0, 1.0)]:
            assert in_c_union(p0, x, geom)


class TestLogLyapunov:
    def test_examples(self):
        p = validate_params(0.5, -0.1, 1, 1, 3, 1)
        assert log_lyap(p, (0.0, 1.0)) == 0.0
        assert log_lyap(p, (0.0, math.e)) == pytest.approx(1.0, rel=1e-12)
        assert log_lyap(p, (0.0, 0.5)) == 0.0

    def test_regime_guard(self, p0):
        with pytest.raises(GeometryUndefined):
            log_lyap(p0, (0.0, 2.0))
        with pytest.raises(GeometryUndefined):
            log_drift_numeric(p0, 10.0, 100, 0)

    def test_limit_matches_log_one_minus_mu(self):
        p = validate_params(0.5, -0.1, 1.0, 1.0, 3.0, 1.0)
        mean, stderr = log_drift_numeric(p, 1e6, 200_000, seed=21)
        assert abs(mean - math.log(1.1)) < 0.01

    def test_finite_at_boundary(self):
        p = validate_params(0.5, -0.1, 1.0, 1.0, 3.0, 1.0)
        mean, stderr = log_drift_numeric(p, 1.0, 50_000, seed=22)
        assert math.isfinite(mean) and math.isfinite(stderr)
        assert abs(mean) < 10.0
