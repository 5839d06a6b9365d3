"""Exception types shared across the package."""


class GridlabError(Exception):
    """Base class for all package errors."""


class ParamError(GridlabError, ValueError):
    """A model parameter violates its validity constraints.

    The message always starts with the name of the first violated field.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class TransformUndefined(GridlabError):
    """A coordinate change is undefined for these parameters (mu == 0)."""


class GeometryUndefined(GridlabError):
    """Negative-drift geometry requested outside its validity regime."""


class SimulationDiverged(GridlabError):
    """State magnitude exceeded the overflow guard during simulation."""

    def __init__(self, step: int, state):
        self.step = step
        self.state = state
        super().__init__(
            f"state exceeded overflow guard at step {step}: R={state[0]!r}, Z={state[1]!r}"
        )


class InfeasibleScenario(GridlabError, ValueError):
    """A thermal scenario requires negative (cooling) energy somewhere."""


class NonFiniteResult(GridlabError):
    """A result bound for a JSON file (JSON has no literal for it) or for
    a drift_report.csv row is NaN or infinite, as after an overflow."""


class ConfigError(GridlabError, ValueError):
    """A configuration document failed to parse or validate."""
