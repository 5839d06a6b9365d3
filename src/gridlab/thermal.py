"""Building heating model: does delaying demand shrink or grow the backlog?

Two scenarios are run in parallel over slots t = 1..tau: an unconstrained
one (full natural demand, temperature T*) and a constrained one (demand
minus frustration, temperature T <= T*).  At slot tau the constrained
scenario buys enough energy to restore T*(tau); the residual backlog
Z(tau) then satisfies an exact identity:

    constant COP:  Z(tau) - Z(tau-1) = -(K/eps) * sum_{t<tau} (T*(t) - T(t))

which is always <= 0 (positive evaporation).  With a heat pump whose COP
degrades to eps'(tau) < eps during catch-up, the identity gains the term
(1 - eps'(tau)/eps) * (D(tau) + Z(tau)), which can flip the sign
(negative evaporation).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

from .dynamics import is_finite_number
from .errors import InfeasibleScenario

__all__ = [
    "Building",
    "ThermalScenario",
    "EvaporationLedger",
    "temp_step",
    "run_scenario_pair",
    "run_heat_pump_scenario",
]


@dataclass(frozen=True)
class Building:
    """The RC model's constants: ValueError names the first that is not a
    finite number > 0 (:func:`gridlab.dynamics.is_finite_number`)."""

    k_leak: float     # heat-loss rate per degree
    c_inertia: float  # heat capacity
    eps: float        # coefficient of performance

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (is_finite_number(v) and v > 0.0):
                raise ValueError(f"{f.name} must be a finite number > 0")


@dataclass(frozen=True)
class ThermalScenario:
    """Series are indexed so element i belongs to slot t = i + 1.

    frustration covers slots 1..tau-1 and must satisfy
    0 <= F(t) <= demand(t).  eps_prime, when set, selects the heat-pump
    variant (COP during the catch-up slot).
    """

    theta: Sequence[float]
    demand: Sequence[float]
    t0_temp: float
    tau: int
    frustration: Sequence[float] | None = None
    eps_prime: float | None = None

    def __post_init__(self):
        if self.tau < 2:
            raise ValueError("tau must be >= 2")
        if len(self.theta) < self.tau or len(self.demand) < self.tau:
            raise ValueError("theta and demand series must cover slots 1..tau")
        if any(d < 0.0 for d in self.demand[:self.tau]):
            raise ValueError("demand must be nonnegative (heating only)")
        if self.frustration is not None:
            if len(self.frustration) < self.tau - 1:
                raise ValueError("frustration must cover slots 1..tau-1")
            for f, d in zip(self.frustration, self.demand):
                if not 0.0 <= f <= d:
                    raise ValueError("frustration must satisfy 0 <= F(t) <= demand(t)")


@dataclass(frozen=True)
class EvaporationLedger:
    t_star: tuple[float, ...]        # T*(0)..T*(tau)
    t_constrained: tuple[float, ...]  # T(0)..T(tau-1) then T*(tau)
    z_tau_minus_1: float
    z_tau: float
    delta_z: float                   # direct Z(tau) - Z(tau-1)
    identity_value: float            # the closed-form right-hand side
    identity_residual: float         # relative mismatch of the two


def temp_step(b: Building, t_prev: float, theta: float, energy: float) -> float:
    """Room temperature after one slot of heating with the given energy."""
    if energy < 0.0:
        raise InfeasibleScenario("heating energy must be nonnegative")
    return (energy * b.eps + b.k_leak * theta + b.c_inertia * t_prev) \
        / (b.k_leak + b.c_inertia)


def _temperatures(b: Building, t0: float, theta: Sequence[float],
                  energy: Sequence[float], upto: int) -> list[float]:
    temps = [t0]
    for i in range(upto):
        temps.append(temp_step(b, temps[-1], theta[i], energy[i]))
    return temps


def _catch_up(b: Building, s: ThermalScenario, t_star_tau: float,
              t_prev: float, cop: float) -> float:
    """Energy at slot tau that restores T*(tau), divided out by the COP."""
    required = (b.k_leak * (t_star_tau - s.theta[s.tau - 1])
                + b.c_inertia * (t_star_tau - t_prev))
    energy = required / cop
    if energy < 0.0:
        raise InfeasibleScenario(
            f"catch-up at slot tau would need negative energy ({energy!r}); "
            "the model covers heating only")
    return energy


def _ledger(b: Building, s: ThermalScenario, frustration: Sequence[float],
            cop_tau: float, extra_cop_term: bool) -> EvaporationLedger:
    tau = s.tau
    t_star = _temperatures(b, s.t0_temp, s.theta, s.demand, tau)
    served = [d - f for d, f in zip(s.demand[:tau - 1], frustration)]
    t_con = _temperatures(b, s.t0_temp, s.theta, served, tau - 1)

    z_prev = sum(frustration[:tau - 1])
    energy_tau = _catch_up(b, s, t_star[tau], t_con[tau - 1], cop_tau)
    z_tau = energy_tau - s.demand[tau - 1]
    delta = z_tau - z_prev

    ident = -(b.k_leak / b.eps) * sum(t_star[t] - t_con[t] for t in range(1, tau))
    if extra_cop_term:
        ident += (1.0 - cop_tau / b.eps) * energy_tau
    residual = abs(delta - ident) / max(1.0, abs(delta), abs(ident))
    return EvaporationLedger(
        t_star=tuple(t_star),
        t_constrained=tuple(t_con) + (t_star[tau],),
        z_tau_minus_1=z_prev,
        z_tau=z_tau,
        delta_z=delta,
        identity_value=ident,
        identity_residual=residual,
    )


def run_scenario_pair(b: Building, s: ThermalScenario) -> EvaporationLedger:
    """Constant-COP scenario pair; delta_z is never positive."""
    if s.eps_prime is not None:
        raise ValueError("eps_prime set: use run_heat_pump_scenario")
    frustration = s.frustration if s.frustration is not None \
        else list(s.demand[:s.tau - 1])
    return _ledger(b, s, frustration, b.eps, extra_cop_term=False)


def run_heat_pump_scenario(b: Building, s: ThermalScenario) -> EvaporationLedger:
    """Heat-pump variant: full frustration before tau, degraded COP at tau.

    Only the fully frustrated case is supported; a scenario supplying a
    partial frustration schedule is rejected.
    """
    check_heat_pump(b, s)
    frustration = list(s.demand[:s.tau - 1])
    return _ledger(b, s, frustration, s.eps_prime, extra_cop_term=True)


def check_heat_pump(b: Building, s: ThermalScenario) -> None:
    """Raise ValueError unless the heat-pump variant covers this scenario."""
    if s.eps_prime is None:
        raise ValueError("eps_prime must be set for the heat-pump variant")
    if not 0.0 < s.eps_prime <= b.eps:
        raise ValueError("eps_prime must satisfy 0 < eps_prime <= eps")
    if s.frustration is not None:
        for f, d in zip(s.frustration[:s.tau - 1], s.demand):
            if f != d:
                raise ValueError(
                    "heat-pump variant requires full frustration F(t) == demand(t)")
