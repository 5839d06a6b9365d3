"""Command-line front end.

All commands read a single JSON config, write plot-ready files into an
output directory, and record a manifest describing the run.  Output is
files-only; exit codes are 0 (success), 2 (config error), 3 (infeasible
scenario, diverged simulation, or a NaN or infinite result bound for a
JSON file or a drift_report.csv row), 4 (internal error).
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import click
import numpy as np

from . import __version__, config as cfgmod
from .config import (SWEEP_AXES, ConfigError, atomic_file, atomic_write_text,
                     fmt_float, json_text, load_json)
from .dynamics import (Params, Region, breakpoints, expressed_backlog,
                       frustrated_demand, ramp_control, region_codes)
from .errors import (GridlabError, InfeasibleScenario, NonFiniteResult,
                     SimulationDiverged)
from .floatfmt import fmt_floats
from .lyapunov import DriftReport, drift_report, lyap_h, negative_drift_geometry
from .montecarlo import (SimConfig, Trajectory, forked, simulate, sweep,
                         usable_cpus)
from .rng import ALGORITHM, point_seed, stream
from .thermal import run_heat_pump_scenario, run_scenario_pair

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


# A command's files in write order: name -> text, or writer(fh, directory).
Files = dict[str, str | Callable[[BinaryIO, Path], None]]


def _field(v) -> str:
    """A small CSV file's field: None blank, a flag true or false, an enum
    member its value, a number by :func:`fmt_float` and a word as it is."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, enum.Enum):
        return v.value
    return fmt_float(v) if isinstance(v, (int, float)) else v


def _csv_text(header, rows) -> str:
    """The text of a small CSV file, each value written by :func:`_field`.
    Every field is a number, a fixed word or blank, so none needs quoting."""
    return "".join([",".join(map(_field, row)) + "\n" for row in [header, *rows]])


# trajectory.csv rows per share unit of forked(); nothing else is cut by it.
_CHUNK_ROWS = 8192
# Rows derived and formatted at a time: their columns, fmt_floats'
# temporaries and the row bytes take about 1.1 KB a row, so the writer
# peaks near 1.2 MB whatever the row count.
_BLOCK_ROWS = 1024
# Region code 0..3 -> its name and comma, as ASCII.
_REGION_FIELDS = np.array([list(f"{r.value},".encode()) for r in Region], np.uint8)


def _rows(traj: Trajectory, lo: int, hi: int) -> Iterator[bytes]:
    """trajectory.csv rows lo..hi-1 as ASCII, ``_BLOCK_ROWS`` rows at a
    time.  Each block's columns are derived from its slice of the chain
    just before :func:`_layout` formats them: t and the region codes,
    then B, F, H_control and H_lyap, stacked with t, R and Z into one
    reused buffer.  The order matters to RSS: with the region codes made
    after B, F and H_control, 2e5 rows in one process left the heap
    about 0.2 MB larger (glibc malloc)."""
    p, numbers = traj.params, np.empty((_BLOCK_ROWS, 7))
    for a in range(lo, hi, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, hi)
        r, z = traj.r[a:b], traj.z[a:b]
        t, region = np.arange(a, a + r.size) * traj.record_every, region_codes(p, r)
        block = numbers[:r.size]
        np.stack([t, r, z, expressed_backlog(p, z), frustrated_demand(r),
                  ramp_control(p, r), lyap_h(p, (r, z))], axis=1, out=block)
        yield _layout(block, region)


def _layout(numbers: np.ndarray, region: np.ndarray) -> bytes:
    """One block's rows as ASCII; its temporaries die on return.

    :func:`fmt_floats` formats t and the six floats together (t is an
    integer below 2**53, so its float formats as its decimal).  A comma
    or the newline goes into each field's spare last byte, the region's
    name and comma, looked up by its code, come after Z, and one
    ``translate`` drops the NUL padding.
    """
    fields = fmt_floats(numbers)
    fields[..., -1] = ord(",")
    fields[:, -1, -1] = ord("\n")
    n = len(fields)
    row = np.concatenate([fields[:, :3].reshape(n, -1), _REGION_FIELDS[region],
                          fields[:, 3:].reshape(n, -1)], axis=1)
    del fields  # gone before the row is copied to bytes
    return row.tobytes().translate(None, b"\0")


def _write_trajectory(traj: Trajectory, fh: BinaryIO, directory: Path) -> None:
    """Write trajectory.csv into ``fh``: the header, then every row.

    ``cmd_simulate`` returns it bound to ``traj``, as the one file too
    large to hold as text.  ``_CHUNK_ROWS`` is only the share unit: the
    rows are cut on its boundaries into the shares of :func:`forked`, at
    most one share per whole chunk, so each holds at least ``_CHUNK_ROWS``
    rows, and :func:`_rows` formats a share ``_BLOCK_ROWS`` rows at a
    time.  fmt_floats' tables are built before the fork, once; forked
    shares are formatted into files in ``directory``.  The text is the
    same for every share count.
    """
    n_rows = traj.r.size
    chunks = -(-n_rows // _CHUNK_ROWS)

    def part(k: int, n: int, fh: BinaryIO) -> None:
        lo, hi = (min(i * chunks // n * _CHUNK_ROWS, n_rows) for i in (k, k + 1))
        fh.writelines(_rows(traj, lo, hi))

    fh.write(b"t,R,Z,region,B,F,H_control,H_lyap\n")
    fmt_floats(np.empty(0))  # builds its tables here, not once per share
    forked("trajectory.csv", n_rows // _CHUNK_ROWS, part, fh, directory)


@click.group()
@click.version_option(__version__)
def main():
    """Simulator and drift-verification toolkit for the reserve/backlog chain."""


_SEED = click.option("--seed", type=int, help="Override the config seed.")


def _command(name: str, *options):
    """Register the decorated body as command ``name``.

    The command takes --config, --out and ``options``.  It loads the
    config, puts --seed into it, parses it with ``config.parse_<name>``
    and calls ``body(config, **options)``, which returns its ``Files``.
    Only then does it write them into --out, each atomically and in
    order, and last manifest.json: the parser's echo as ``config``, the
    names as ``outputs`` and, as ``environment``, the :func:`usable_cpus`
    that capped the shares of its :func:`forked` work.  It alone opens
    output files, so a body that raises leaves none.  Every error maps
    to one stderr line and its exit code; numpy's overflow and
    invalid-value warnings are off, since a non-finite result is refused
    where a JSON file or a drift row would hold it.  Names are looked up
    when the command runs, so they can be patched.
    """
    def register(body):
        def command(config_path, out_dir, seed=None, **opts):
            started = time.perf_counter()
            try:
                doc = load_json(config_path)
                if seed is not None:
                    doc["seed"] = seed
                try:
                    cfg, echo = getattr(cfgmod, f"parse_{name}")(doc)
                except ValueError as exc:  # a model type rejected a value
                    raise ConfigError(str(exc)) from exc
                with np.errstate(over="ignore", invalid="ignore"):
                    files = body(cfg, **opts)
                    for file_name, content in files.items():
                        if isinstance(content, str):
                            atomic_write_text(out_dir / file_name, content)
                        else:
                            with atomic_file(out_dir / file_name) as fh:
                                content(fh, out_dir)
                atomic_write_text(out_dir / "manifest.json", json_text(
                    "manifest.json", {
                        "tool_version": __version__,
                        "command": name,
                        "config": echo,
                        "environment": {"usable_cpus": usable_cpus()},
                        "rng_algorithm": ALGORITHM,
                        "outputs": list(files),
                        "duration_s": time.perf_counter() - started,
                    }))
            except ConfigError as exc:
                click.echo(f"config error: {exc}", err=True)
                sys.exit(EXIT_CONFIG)
            except (InfeasibleScenario, SimulationDiverged,
                    NonFiniteResult) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_INFEASIBLE)
            except GridlabError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_INTERNAL)
            except Exception as exc:
                # A bug, not bad input: one line on stderr, no traceback.
                click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
                sys.exit(EXIT_INTERNAL)

        command.__doc__ = body.__doc__
        for option in reversed([
                click.option("--config", "config_path", required=True,
                             type=click.Path()),
                click.option("--out", "out_dir", required=True,
                             type=click.Path(path_type=Path)),
                *options]):
            command = option(command)
        return main.command(name)(command)

    return register


@_command("simulate", _SEED)
def cmd_simulate(sim: SimConfig) -> Files:
    """Run one trajectory; write trajectory.csv, stats.json, manifest.json."""
    stats, traj = simulate(sim)
    return {"trajectory.csv": functools.partial(_write_trajectory, traj),
            "stats.json": json_text("stats.json", asdict(stats))}


def _sample_points(p: Params, per_region: int, seed: int) -> list[tuple[float, float]]:
    rng = stream(seed, 9)
    cuts = breakpoints(p)
    edges = (-50.0, *cuts, cuts[-1] + 50.0)
    pts = []
    for lo, hi in zip(edges, edges[1:]):
        r = rng.uniform(lo, hi, per_region)
        z = rng.uniform(0.0, 50.0, per_region)
        pts.extend(zip(r.tolist(), z.tolist()))
    return pts


@_command("drift", _SEED)
def cmd_drift(cfg: dict) -> Files:
    """Cross-check exact, closed-form and Monte Carlo drifts at states."""
    p = cfg["params"]
    points = cfg["points"]
    if points is None:
        points = _sample_points(p, cfg["per_region"], cfg["seed"])
    rows = []
    for i, x in enumerate(points):
        rep = drift_report(p, x, cfg["mc_samples"],
                           seed=point_seed(cfg["seed"], i))
        state, *rest = astuple(rep)
        rows.append([*state, *rest])
        if not all(math.isfinite(v) for v in rows[-1] if isinstance(v, float)):
            raise NonFiniteResult(f"drift_report.csv: point {i} has a NaN or "
                                  "infinite result")
    _, *names = (f.name for f in fields(DriftReport))
    return {"drift_report.csv": _csv_text(["r", "z", *names], rows)}


@_command("sweep", _SEED,
          click.option("--threads", type=int, expose_value=False,
                       help="Ignored: the sweep runs one process per usable "
                            "CPU; narrow them with taskset."))
def cmd_sweep(cfg: dict) -> Files:
    """Stability verdict per grid point; verdicts.csv plus drift geometry."""
    results = sweep(cfg["params"], cfg["grid"], cfg["steps"], cfg["burn_in"],
                    cfg["n_seeds"], cfg["seed"])
    columns = ("verdict", "ks_distance", "logz_slope", "seeds_used")
    rows = []
    geometry = {}
    for sp in results:
        p, res = sp.params, sp.result
        axes = [(p.as_dict() if p else sp.overrides).get(a) for a in SWEEP_AXES]
        if res is None:
            rows.append([*axes, "error", None, None, 0])
            continue
        rows.append([*axes, *(getattr(res, name) for name in columns)])
        if p.mu > 0.0:
            geometry[str(sp.index)] = negative_drift_geometry(p).as_dict()
    files = {"verdicts.csv": _csv_text([*SWEEP_AXES, *columns], rows)}
    if geometry:
        files["geometry.json"] = json_text("geometry.json", geometry)
    return files


@_command("thermal")
def cmd_thermal(cfg: tuple) -> Files:
    """Evaluate the delayed-heating backlog ledger for a scenario.

    A scenario with eps_prime runs the heat-pump variant; one without it
    runs with constant COP.
    """
    building, scenario = cfg
    if scenario.eps_prime is None:
        ledger, mode = run_scenario_pair(building, scenario), "constant-cop"
    else:
        ledger, mode = run_heat_pump_scenario(building, scenario), "heat-pump"
    return {"ledger.json": json_text("ledger.json", dict(asdict(ledger), mode=mode))}


@_command("regions")
def cmd_regions(p: Params) -> Files:
    """Dump region breakpoints and negative-drift geometry for plotting."""
    edges = (None, *breakpoints(p), None)
    doc = {
        "params": p.as_dict(),
        "domains": {region.value: [lo, hi] for region, lo, hi
                    in zip(Region, edges, edges[1:])},
    }
    if p.mu > 0.0:
        g = negative_drift_geometry(p)
        vs = np.linspace(0.0, 2.0 * g.v_plus, 101)
        doc["geometry"] = dict(
            g.as_dict(),
            g1_curve=[[float(v), float(g.g1(v))] for v in vs],
            g4_curve=[[float(v), float(g.g4(v))] for v in vs])
    return {"regions.json": json_text("regions.json", doc)}


if __name__ == "__main__":
    main()
