"""Strict JSON configuration parsing and file output helpers.

Every config document is a single JSON object.  Unknown keys are rejected
at every level so that a typo in a parameter name fails loudly instead of
silently falling back to a default.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable

from .dynamics import Params, validate_params
from .errors import ConfigError
from .thermal import Building, ThermalScenario

_MISSING = object()

# The most steps one chain, or draws one drift estimate, may take: a chain
# holds 24 bytes per step (noise, R and Z), so this is about 2.4 GB.
MAX_DRAWS = 10**8


def _is_number(v: Any) -> bool:
    """A finite JSON number (``json.load`` also accepts NaN and Infinity)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _pair(v: Any, where: str) -> tuple[float, float]:
    if not (isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))):
        raise ConfigError(f"{where} must be a [r, z] pair of finite numbers")
    return (float(v[0]), float(v[1]))


class _Section:
    """One JSON object with take-or-fail key access."""

    def __init__(self, data: Any, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        self._data = dict(data)
        self._path = path

    def take(self, key: str, default: Any = _MISSING) -> Any:
        if key in self._data:
            return self._data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self._path}: missing required field '{key}'")
        return default

    def take_number(self, key: str, default: Any = _MISSING) -> float:
        v = self.take(key, default)
        if v is default and default is not _MISSING:
            return v
        if not _is_number(v):
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

    def section(self, key: str) -> "_Section":
        return _Section(self.take(key), f"{self._path}.{key}")

    def finish(self) -> None:
        if self._data:
            extra = ", ".join(sorted(self._data))
            raise ConfigError(f"{self._path}: unknown field(s): {extra}")


def load_json(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def parse_params(sec: _Section) -> Params:
    p = sec.section("params")
    vals = dict(
        lam=p.take_number("lambda"),
        mu=p.take_number("mu"),
        zeta=p.take_number("zeta"),
        xi=p.take_number("xi"),
        r_star=p.take_number("r_star"),
        sigma=p.take_number("sigma"),
    )
    p.finish()
    try:
        return validate_params(**vals)
    except ValueError as exc:
        raise ConfigError(str(exc))


def parse_simulate(doc: dict, path: str = "config") -> dict:
    sec = _Section(doc, path)
    out = {
        "params": parse_params(sec),
        "x0": _pair(sec.take("x0"), "field 'x0'"),
        "steps": sec.take_int("steps", most=MAX_DRAWS),
        "burn_in": sec.take_int("burn_in", 0),
        "seed": sec.take_int("seed", 0, least=0),
        "record_every": sec.take_int("record_every", 1),
    }
    sec.finish()
    return out


def parse_drift(doc: dict, path: str = "config") -> dict:
    sec = _Section(doc, path)
    params = parse_params(sec)
    points = sec.take("points", None)
    if points is not None:
        if not (isinstance(points, list) and points):
            raise ConfigError(
                f"{path}: 'points' must be a non-empty list of [r, z] pairs")
        points = [_pair(pt, f"{path}: points[{i}]")
                  for i, pt in enumerate(points)]
    out = {
        "params": params,
        "points": points,
        "per_region": sec.take_int("per_region", 0),
        # The Monte Carlo stderr uses ddof=1, so it needs two samples.
        "mc_samples": sec.take_int("mc_samples", 100_000, least=2,
                                   most=MAX_DRAWS),
        "seed": sec.take_int("seed", 0, least=0),
    }
    sec.finish()
    if out["points"] is None and out["per_region"] <= 0:
        raise ConfigError(f"{path}: provide 'points' or a positive 'per_region'")
    return out


def parse_sweep(doc: dict, path: str = "config") -> dict:
    sec = _Section(doc, path)
    params = parse_params(sec)
    grid_sec = sec.section("grid")
    axes = {}
    for name in ("mu", "lambda", "r_star"):
        vals = grid_sec.take(name, None)
        if vals is None:
            continue
        if not (isinstance(vals, list) and vals and all(map(_is_number, vals))):
            raise ConfigError(
                f"{path}.grid.{name}: must be a non-empty list of finite numbers")
        axes[name] = [float(v) for v in vals]
    grid_sec.finish()
    if not axes:
        raise ConfigError(f"{path}.grid: must name at least one axis")
    # Cartesian product in a fixed axis order keeps row indices stable.
    points: list[dict[str, float]] = [{}]
    for name in ("mu", "lambda", "r_star"):
        if name in axes:
            points = [dict(pt, **{name: v}) for pt in points for v in axes[name]]
    out = {
        "params": params,
        "grid": points,
        "steps": sec.take_int("steps", 100_000, most=MAX_DRAWS),
        "burn_in": sec.take_int("burn_in", 10_000),
        "n_seeds": sec.take_int("n_seeds", 16, least=1),
        "seed": sec.take_int("seed", 0, least=0),
        "ks_threshold": sec.take_number("ks_threshold", 0.05),
        "slope_threshold": sec.take_number("slope_threshold", 0.03),
    }
    sec.finish()
    if not out["steps"] > out["burn_in"] >= 0:
        raise ConfigError(f"{path}: need steps > burn_in >= 0")
    return out


def parse_thermal(doc: dict, path: str = "scenario") -> tuple[Building, ThermalScenario]:
    sec = _Section(doc, path)
    bsec = sec.section("building")
    try:
        building = Building(
            k_leak=bsec.take_number("k_leak"),
            c_inertia=bsec.take_number("c_inertia"),
            eps=bsec.take_number("eps"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}.building: {exc}")
    bsec.finish()
    theta = sec.take("theta")
    demand = sec.take("demand")
    for name, series in (("theta", theta), ("demand", demand)):
        if not isinstance(series, list) or not all(map(_is_number, series)):
            raise ConfigError(f"{path}.{name}: must be a list of finite numbers")
    frustration = sec.take("frustration", None)
    if frustration is not None and not (
            isinstance(frustration, list) and all(map(_is_number, frustration))):
        raise ConfigError(f"{path}.frustration: must be a list of finite numbers")
    kwargs = dict(
        theta=[float(v) for v in theta],
        demand=[float(v) for v in demand],
        t0_temp=sec.take_number("t0_temp"),
        tau=sec.take_int("tau"),
        frustration=None if frustration is None else [float(v) for v in frustration],
        eps_prime=sec.take_number("eps_prime", None),
    )
    sec.finish()
    try:
        scenario = ThermalScenario(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    return building, scenario


def fmt_float(x: float) -> str:
    """Serialize a 64-bit float losslessly (17 significant digits)."""
    return format(float(x), ".17g")


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write-then-rename so readers never observe a partial file.

    ``text`` is one string or an iterable of string chunks, written in
    order as they are produced, so a long file never sits in memory whole.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(path: Path, obj: Any) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
