"""Stability toolkit for adaptive electricity demand under threshold policies."""

from .dynamics import (
    AffinePiece,
    Params,
    Regime,
    Region,
    State,
    StepRecord,
    affine_piece,
    classify_region,
    ramp_control,
    step,
    step_matrix,
    validate_params,
)
from .errors import (
    ConfigError,
    GeometryUndefined,
    GridlabError,
    InfeasibleScenario,
    NonFiniteResult,
    ParamError,
    SimulationDiverged,
    TransformUndefined,
)
from .lyapunov import (
    Basis,
    DriftReport,
    NegativeDriftGeometry,
    QuadForm,
    basis,
    drift_exact,
    drift_paper,
    drift_report,
    empirical_drift,
    from_y1,
    in_c_union,
    log_drift_numeric,
    log_lyap,
    lyap_h,
    negative_drift_geometry,
    quad_form,
    to_y1,
    to_y2,
    w1,
    w2,
)
from .montecarlo import (
    GrowthResult,
    SimConfig,
    StabilityVerdict,
    SweepPoint,
    Trajectory,
    TrajectoryStats,
    growth_slope,
    hitting_probability,
    monotone_violations,
    simulate,
    sweep,
    two_chain_convergence,
)
from .thermal import (
    Building,
    EvaporationLedger,
    ThermalScenario,
    run_heat_pump_scenario,
    run_scenario_pair,
    temp_step,
)

__version__ = "0.1.0"
