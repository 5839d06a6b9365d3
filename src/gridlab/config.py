"""Strict JSON configuration parsing and file output helpers.

Every config document is a single JSON object.  Unknown keys are rejected
at every level so that a typo in a parameter name fails loudly instead of
silently falling back to a default.

Each ``parse_<command>`` returns ``(config, echo)``.  The echo holds every
key the parser took, as given or as defaulted, so it is itself a config
document that parses to the same run.  A value the model types reject
raises their ``ValueError``, which the CLI reports as a config error.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from .dynamics import PARAM_KEYS, Params, is_finite_number, validate_params
from .errors import ConfigError, NonFiniteResult
from .montecarlo import SimConfig, check_horizon
from .thermal import Building, ThermalScenario, check_heat_pump

_MISSING = object()

# The most steps one chain, or draws one drift estimate, may take.  The
# chain kernel holds 16 bytes per step (R and Z; its noise is drawn a
# block at a time), and `simulate` peaks at 24 bytes per step whatever
# its record_every (the chain and the one chain-sized array its summary
# works in; the records are views of the chain, and trajectory.csv is
# derived and formatted 1024 rows at a time, in about 1.2 MB), so one at
# the cap needs about 2.4 GB.
# A drift point holds about 48 bytes per draw (the noise, the stepped
# states and the lyap_h temporaries), so one at the cap needs about
# 4.8 GB.  It caps record_every too: any record_every above steps
# records x0 alone.
MAX_DRAWS = 10**8

# The most states a drift run may sample per region: each of its
# 4 * per_region points is held as a tuple, a report row and a manifest
# entry, about 1.2 KB in all, so this is about 4 * 5e5 * 1.2 KB = 2.4 GB.
# An explicit point costs the same, so 'points' may hold 4 * this many.
MAX_PER_REGION = 500_000

# The most points a sweep grid may have, counted as the product of its
# axis lengths before the grid is built.  A library sweep holds about
# 1.4 KB per point and `gridlab sweep` peaks near 2.7 KB per point (its
# rows and drift geometry), so a grid at the cap needs about 0.15 GB, or
# 0.27 GB from the CLI.
MAX_GRID_POINTS = 10**5

# The most growth-probe columns (grid points x n_seeds) a sweep may run:
# each keeps about 40 bytes (its slope and fit entry), so about 0.4 GB at
# the cap.
MAX_GROWTH_COLUMNS = 10**7

# The params keys a sweep grid may vary, in verdicts.csv's column order.
SWEEP_AXES = ("mu", "lambda", "r_star")


def _pair(v: Any, where: str) -> tuple[float, float]:
    if not (isinstance(v, list) and len(v) == 2 and all(map(is_finite_number, v))):
        raise ConfigError(f"{where} must be a [r, z] pair of finite numbers")
    return (float(v[0]), float(v[1]))


class _Section:
    """One JSON object with take-or-fail key access.

    ``echo`` records each key taken, with its value as given or its default.
    """

    def __init__(self, data: Any, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        self._data = dict(data)
        self._path = path
        self.echo: dict[str, Any] = {}

    def take(self, key: str, default: Any = _MISSING) -> Any:
        if key in self._data:
            v = self._data.pop(key)
        elif default is _MISSING:
            raise ConfigError(f"{self._path}: missing required field '{key}'")
        else:
            v = default
        self.echo[key] = v
        return v

    def take_number(self, key: str, default: Any = _MISSING) -> float:
        v = self.take(key, default)
        if v is default and default is not _MISSING:
            return v
        if not is_finite_number(v):
            raise ConfigError(f"{self._path}: field '{key}' must be a finite number")
        return float(v)

    def take_int(self, key: str, default: Any = _MISSING, *,
                 least: int | None = None, most: int | None = None) -> int:
        v = self.take(key, default)
        if v is default and default is not _MISSING:
            return v
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{self._path}: field '{key}' must be an integer")
        if least is not None and v < least:
            raise ConfigError(f"{self._path}: field '{key}' must be >= {least}")
        if most is not None and v > most:
            raise ConfigError(f"{self._path}: field '{key}' must be <= {most}")
        return v

    def take_numbers(self, key: str, default: Any = _MISSING) -> list[float]:
        v = self.take(key, default)
        if v is default and default is not _MISSING:
            return v
        if not (isinstance(v, list) and v and all(map(is_finite_number, v))):
            raise ConfigError(
                f"{self._path}.{key}: must be a non-empty list of finite numbers")
        return [float(x) for x in v]

    def section(self, key: str) -> "_Section":
        sec = _Section(self.take(key), f"{self._path}.{key}")
        self.echo[key] = sec.echo
        return sec

    def finish(self) -> dict[str, Any]:
        """Reject any key left untaken; return the echo."""
        if self._data:
            extra = ", ".join(sorted(self._data))
            raise ConfigError(f"{self._path}: unknown field(s): {extra}")
        return self.echo


def load_json(path: str | Path) -> dict:
    """The JSON object in the UTF-8 file at ``path``; ConfigError where
    the file cannot be read or is not such a document."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    # ValueError covers malformed JSON, bytes that are not UTF-8 and an
    # integer too long to convert; RecursionError, nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def parse_params(sec: _Section) -> Params:
    p = sec.section("params")
    vals = [p.take_number(key) for key in PARAM_KEYS]
    p.finish()
    return validate_params(*vals)


def parse_regions(doc: dict) -> tuple[Params, dict]:
    sec = _Section(doc, "config")
    return parse_params(sec), sec.finish()


def parse_simulate(doc: dict) -> tuple[SimConfig, dict]:
    sec = _Section(doc, "config")
    fields = dict(
        params=parse_params(sec),
        x0=_pair(sec.take("x0"), "field 'x0'"),
        steps=sec.take_int("steps", most=MAX_DRAWS),
        burn_in=sec.take_int("burn_in", 0),
        seed=sec.take_int("seed", 0, least=0),
        record_every=sec.take_int("record_every", 1, least=1, most=MAX_DRAWS),
    )
    echo = sec.finish()
    return SimConfig(**fields), echo


def parse_drift(doc: dict) -> tuple[dict, dict]:
    sec = _Section(doc, "config")
    params = parse_params(sec)
    points = sec.take("points", None)
    if points is not None:
        if not (isinstance(points, list) and points):
            raise ConfigError(
                "config: 'points' must be a non-empty list of [r, z] pairs")
        if len(points) > 4 * MAX_PER_REGION:
            raise ConfigError(f"config: {len(points)} points is more than "
                              f"{4 * MAX_PER_REGION}")
        points = [_pair(pt, f"config: points[{i}]")
                  for i, pt in enumerate(points)]
        for i, (_, z) in enumerate(points):
            # SimConfig's rule for x0: states lie in R x R+ (-0.0 included).
            if z < 0.0:
                raise ConfigError(f"config: points[{i}]: backlog z must be >= 0")
        if "per_region" in doc:
            raise ConfigError("config: give 'points' or 'per_region', not both")
    out = {
        "params": params,
        "points": points,
        # Taken, and so echoed, only where no points are given.
        "per_region": (0 if points is not None else
                       sec.take_int("per_region", 0, most=MAX_PER_REGION)),
        # The Monte Carlo stderr uses ddof=1, so it needs two samples.
        "mc_samples": sec.take_int("mc_samples", 100_000, least=2,
                                   most=MAX_DRAWS),
        "seed": sec.take_int("seed", 0, least=0),
    }
    echo = sec.finish()
    if out["points"] is None and out["per_region"] <= 0:
        raise ConfigError("config: provide 'points' or a positive 'per_region'")
    return out, echo


def parse_sweep(doc: dict) -> tuple[dict, dict]:
    sec = _Section(doc, "config")
    params = parse_params(sec)
    grid_sec = sec.section("grid")
    axes = {name: vals for name in SWEEP_AXES
            if (vals := grid_sec.take_numbers(name, None)) is not None}
    grid_sec.finish()
    if not axes:
        raise ConfigError("config.grid: must name at least one axis")
    n_points = math.prod(map(len, axes.values()))
    if n_points > MAX_GRID_POINTS:
        raise ConfigError(f"config.grid: {n_points} points is more than "
                          f"{MAX_GRID_POINTS}")
    out = {
        "params": params,
        "steps": sec.take_int("steps", 100_000, most=MAX_DRAWS),
        "burn_in": sec.take_int("burn_in", 10_000),
        "n_seeds": sec.take_int("n_seeds", 16, least=1),
        "seed": sec.take_int("seed", 0, least=0),
    }
    echo = sec.finish()
    check_horizon(out["steps"], out["burn_in"])
    if n_points * out["n_seeds"] > MAX_GROWTH_COLUMNS:
        raise ConfigError(f"config: {n_points} points x {out['n_seeds']} seeds "
                          f"is more than {MAX_GROWTH_COLUMNS} growth columns")
    # Cartesian product in a fixed axis order keeps row indices stable.
    out["grid"] = [dict(zip(axes, vals))
                   for vals in itertools.product(*axes.values())]
    return out, echo


def parse_thermal(doc: dict) -> tuple[tuple[Building, ThermalScenario], dict]:
    """The building and scenario; ``eps_prime`` selects the heat-pump variant."""
    sec = _Section(doc, "scenario")
    bsec = sec.section("building")
    building = Building(*(bsec.take_number(f.name) for f in fields(Building)))
    bsec.finish()
    kwargs = dict(
        theta=sec.take_numbers("theta"),
        demand=sec.take_numbers("demand"),
        t0_temp=sec.take_number("t0_temp"),
        tau=sec.take_int("tau"),
        frustration=sec.take_numbers("frustration", None),
        eps_prime=sec.take_number("eps_prime", None),
    )
    echo = sec.finish()
    scenario = ThermalScenario(**kwargs)
    if scenario.eps_prime is not None:
        check_heat_pump(building, scenario)
    return (building, scenario), echo


def fmt_float(x: float) -> str:
    """Serialize a 64-bit float losslessly (17 significant digits).

    This is the one scalar formatter: :func:`gridlab.floatfmt.fmt_floats`
    gives its bytes for a whole array, and falls back to it element by
    element for NaN, the infinities and what its scaling cannot settle.
    """
    return format(float(x), ".17g")


@contextmanager
def atomic_file(path: Path) -> Iterator[BinaryIO]:
    """A binary file that becomes ``path`` when the block ends: written
    then renamed, so readers never observe a partial file.  If the block
    raises, the file is removed and ``path`` left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` as the ASCII file ``path`` (:func:`atomic_file`)."""
    with atomic_file(path) as fh:
        fh.write(text.encode())


def json_text(name: str, obj: Any) -> str:
    """``obj`` as the text of JSON file ``name``, or raise NonFiniteResult
    naming the file if it holds a NaN or an infinity.  A command body
    returns such texts, and the CLI writes none of its files until the
    body has returned, so a refused result leaves no file behind."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"{name}: a result is NaN or infinite, "
                              "which JSON cannot hold") from exc
    return text + "\n"
