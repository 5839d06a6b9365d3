import math

import numpy as np
import pytest

from gridlab import (
    Building,
    InfeasibleScenario,
    ThermalScenario,
    run_heat_pump_scenario,
    run_scenario_pair,
    temp_step,
)

B0 = Building(k_leak=1.0, c_inertia=9.0, eps=3.0)


def b0_scenario(**overrides):
    kwargs = dict(theta=[0.0, 0.0, 0.0], demand=[1.0, 1.0, 1.0],
                  t0_temp=3.0, tau=3)
    kwargs.update(overrides)
    return ThermalScenario(**kwargs)


def random_scenario(rng, full_frustration=False):
    b = Building(k_leak=float(rng.uniform(0.1, 3.0)),
                 c_inertia=float(rng.uniform(1.0, 20.0)),
                 eps=float(rng.uniform(0.5, 5.0)))
    tau = int(rng.integers(2, 8))
    theta = rng.uniform(-10.0, 10.0, tau).tolist()
    demand = rng.uniform(0.0, 5.0, tau).tolist()
    if full_frustration:
        frustration = None
    else:
        frustration = [float(rng.uniform(0.0, d)) for d in demand[:tau - 1]]
    s = ThermalScenario(theta=theta, demand=demand,
                        t0_temp=float(rng.uniform(-5.0, 25.0)), tau=tau,
                        frustration=frustration)
    return b, s


class TestValidation:
    def test_building_fields_positive(self):
        with pytest.raises(ValueError):
            Building(0.0, 9.0, 3.0)
        with pytest.raises(ValueError):
            Building(1.0, -1.0, 3.0)
        with pytest.raises(ValueError):
            Building(1.0, 9.0, 0.0)
        # NaN fails every comparison, so it needs the finite-number rule.
        for bad in (math.nan, math.inf):
            for i, name in enumerate(("k_leak", "c_inertia", "eps")):
                fields = [1.0, 9.0, 3.0]
                fields[i] = bad
                with pytest.raises(ValueError, match=name):
                    Building(*fields)

    def test_scenario_shapes(self):
        with pytest.raises(ValueError):
            b0_scenario(tau=1)
        with pytest.raises(ValueError):
            b0_scenario(theta=[0.0])
        with pytest.raises(ValueError):
            b0_scenario(demand=[1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            b0_scenario(frustration=[2.0, 0.5])  # exceeds demand
        with pytest.raises(ValueError):
            b0_scenario(frustration=[0.5])  # too short for tau=3

    def test_variant_selection(self):
        with pytest.raises(ValueError):
            run_scenario_pair(B0, b0_scenario(eps_prime=2.0))
        with pytest.raises(ValueError):
            run_heat_pump_scenario(B0, b0_scenario())
        with pytest.raises(ValueError):
            run_heat_pump_scenario(B0, b0_scenario(eps_prime=4.0))
        with pytest.raises(ValueError):
            run_heat_pump_scenario(
                B0, b0_scenario(eps_prime=2.0, frustration=[0.5, 0.5]))

    def test_negative_energy_infeasible(self):
        with pytest.raises(InfeasibleScenario):
            temp_step(B0, 3.0, 0.0, -0.1)


class TestTempStep:
    def test_examples(self):
        # With K=1, C=9, eps=3: energy K*T/eps holds temperature steady.
        assert temp_step(B0, 3.0, 0.0, 1.0) == pytest.approx(3.0, rel=1e-12)
        assert temp_step(B0, 3.0, 0.0, 0.0) == pytest.approx(2.7, rel=1e-12)
        # Equilibrium: no heating, indoor relaxes toward outdoor.
        assert temp_step(B0, 5.0, 5.0, 0.0) == pytest.approx(5.0, rel=1e-12)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            b = Building(float(rng.uniform(0.1, 3)), float(rng.uniform(1, 20)),
                         float(rng.uniform(0.5, 5)))
            t_prev = float(rng.uniform(-10, 30))
            theta = float(rng.uniform(-10, 30))
            t = temp_step(b, t_prev, theta, 0.0)
            lo, hi = min(t_prev, theta), max(t_prev, theta)
            assert lo - 1e-12 <= t <= hi + 1e-12


class TestConstantCop:
    def test_reference_scenario(self):
        led = run_scenario_pair(B0, b0_scenario())
        assert led.t_star == pytest.approx((3.0, 3.0, 3.0, 3.0), rel=1e-12)
        assert led.t_constrained[1] == pytest.approx(2.7, rel=1e-12)
        assert led.t_constrained[2] == pytest.approx(2.43, rel=1e-12)
        assert led.z_tau_minus_1 == pytest.approx(2.0, rel=1e-12)
        assert led.z_tau == pytest.approx(1.71, rel=1e-12)
        assert led.delta_z == pytest.approx(-0.29, rel=1e-9)
        assert led.identity_value == pytest.approx(-0.29, rel=1e-9)
        assert led.identity_residual < 1e-12

    def test_zero_frustration_changes_nothing(self):
        led = run_scenario_pair(B0, b0_scenario(frustration=[0.0, 0.0]))
        assert led.delta_z == pytest.approx(0.0, abs=1e-12)
        assert led.z_tau_minus_1 == 0.0
        assert led.t_constrained[:3] == pytest.approx(led.t_star[:3], rel=1e-12)

    def test_identity_and_sign_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            b, s = random_scenario(rng)
            led = run_scenario_pair(b, s)
            assert led.identity_residual < 1e-9
            assert led.delta_z <= 1e-12
            # Constrained temperatures never exceed the unconstrained ones.
            for t_c, t_u in zip(led.t_constrained[:-1], led.t_star[:-1]):
                assert t_c <= t_u + 1e-12


class TestHeatPump:
    def test_reference_scenario(self):
        led = run_heat_pump_scenario(B0, b0_scenario(eps_prime=2.0))
        assert led.delta_z == pytest.approx(1.065, rel=1e-9)
        assert led.identity_value == pytest.approx(1.065, rel=1e-9)
        assert led.identity_residual < 1e-12

    def test_degenerates_to_constant_cop(self):
        led = run_heat_pump_scenario(B0, b0_scenario(eps_prime=3.0))
        assert led.delta_z == pytest.approx(-0.29, rel=1e-9)

    def test_delta_increases_as_cop_degrades(self):
        deltas = [run_heat_pump_scenario(B0, b0_scenario(eps_prime=e)).delta_z
                  for e in (3.0, 2.5, 2.0, 1.5, 1.0)]
        assert deltas == sorted(deltas)
        assert deltas[0] < 0.0 < deltas[-1]

    def test_identity_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            b, s0 = random_scenario(rng, full_frustration=True)
            s = ThermalScenario(theta=s0.theta, demand=s0.demand,
                                t0_temp=s0.t0_temp, tau=s0.tau,
                                eps_prime=float(rng.uniform(0.1, 1.0)) * b.eps)
            led = run_heat_pump_scenario(b, s)
            assert led.identity_residual < 1e-9
