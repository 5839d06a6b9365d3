"""Command-line front end.

All commands read a single JSON config, write plot-ready files into an
output directory, and record a manifest describing the run.  Output is
files-only; exit codes are 0 (success), 2 (config error), 3 (infeasible
scenario, diverged simulation, or a NaN or infinite result bound for a
JSON file or a drift_report.csv row), 4 (internal error).
"""

from __future__ import annotations

import sys
import time
from contextlib import closing
from functools import partial
from pathlib import Path
from typing import BinaryIO, Iterator

import click
import numpy as np

from . import __version__, config as cfgmod
from .config import (ConfigError, atomic_write_text, dump_json, fmt_float,
                     json_text, load_json)
from .dynamics import Params, Region, breakpoints
from .errors import (GridlabError, InfeasibleScenario, NonFiniteResult,
                     SimulationDiverged)
from .lyapunov import drift_report, lyap_h, negative_drift_geometry
from .montecarlo import (SimConfig, Trajectory, forked, simulate, sweep,
                         usable_cpus)
from .rng import ALGORITHM, point_seed, stream
from .thermal import run_heat_pump_scenario, run_scenario_pair

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    """Write a small CSV file.  Every field is a number, a fixed word or
    blank, so none needs quoting."""
    atomic_write_text(path, "".join([",".join(row) + "\n"
                                     for row in [header, *rows]]))


# One trajectory.csv row; '%.17g' gives the bytes of fmt_float.
_TRAJECTORY_ROW = "%d,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g\n"
_CHUNK_ROWS = 8192
# Characters (ASCII, so bytes) read back from a part's file at a time: no
# more than one chunk's text, since a row has at least 17 characters.
_READ_CHARS = 1 << 17


def _rows(traj: Trajectory, lo: int, hi: int) -> Iterator[str]:
    """trajectory.csv rows lo..hi-1, ``_CHUNK_ROWS`` rows at a time; each
    chunk's columns are derived from its slice of the chain
    (:meth:`Trajectory.columns`, then ``lyap_h`` for H_lyap) just before
    they are formatted."""
    for a in range(lo, hi, _CHUNK_ROWS):
        columns = traj.columns(a, min(a + _CHUNK_ROWS, hi))
        columns.append(lyap_h(traj.params, (columns[1], columns[2])))
        rows = zip(*[c.tolist() for c in columns])
        yield "".join([_TRAJECTORY_ROW % row for row in rows])


def _trajectory_chunks(traj: Trajectory, directory: Path) -> Iterator[str]:
    """trajectory.csv text: the header, then at most ``_CHUNK_ROWS`` rows at
    a time.

    The rows are cut on chunk boundaries into one range per usable CPU,
    each of at least ``_CHUNK_ROWS`` rows.  Each range after the first is
    a :func:`forked` job, formatted into a file in ``directory`` while
    this process yields the header and the first range.  The text is the
    same for every range count.  Every child is reaped however the
    generator ends (close it to end it early).
    """
    n = traj.r.size
    parts = max(1, min(usable_cpus(), n // _CHUNK_ROWS))
    chunks = -(-n // _CHUNK_ROWS)
    cuts = [i * chunks // parts * _CHUNK_ROWS for i in range(parts)] + [n]
    ranges = list(zip(cuts[1:], cuts[2:]))

    def write_part(lo: int, hi: int, fh: BinaryIO) -> None:
        fh.writelines(text.encode("ascii") for text in _rows(traj, lo, hi))

    jobs = [(f"formatting trajectory.csv rows {lo}-{hi - 1}",
             partial(write_part, lo, hi)) for lo, hi in ranges]
    with forked(jobs, directory) as result:
        yield "t,R,Z,region,B,F,H_control,H_lyap\n"
        yield from _rows(traj, 0, cuts[1])
        for k, (lo, hi) in enumerate(ranges):
            fh = result(k)
            if fh is None:
                yield from _rows(traj, lo, hi)
                continue
            with fh:
                for text in iter(partial(fh.read, _READ_CHARS), b""):
                    yield text.decode("ascii")


@click.group()
@click.version_option(__version__)
def main():
    """Simulator and drift-verification toolkit for the reserve/backlog chain."""


_SEED = click.option("--seed", type=int, help="Override the config seed.")


def _command(name: str, *options):
    """Register the decorated body as command ``name``.

    The command takes --config, --out and ``options``.  It loads the
    config, puts --seed into it, parses it with ``config.parse_<name>``,
    calls ``body(config, out_dir, **options)``, which returns the names of
    the files it wrote, and writes manifest.json with the parser's echo as
    ``config`` and the :func:`usable_cpus` that sized its :func:`forked`
    processes as ``environment``.  Every error maps to one stderr line and
    its exit code; numpy's overflow and invalid-value warnings are off,
    since a non-finite result is refused where a JSON file or a drift row
    would hold it.  Names are looked up when the command runs, so they can
    be patched.
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
                    outputs = body(cfg, out_dir, **opts)
                dump_json(out_dir / "manifest.json", {
                    "tool_version": __version__,
                    "command": name,
                    "config": echo,
                    "environment": {"usable_cpus": usable_cpus()},
                    "rng_algorithm": ALGORITHM,
                    "outputs": outputs,
                    "duration_s": time.perf_counter() - started,
                })
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
def cmd_simulate(sim: SimConfig, out: Path) -> list[str]:
    """Run one trajectory; write trajectory.csv, stats.json, manifest.json."""
    stats, traj = simulate(sim, return_records=True)
    stats_text = json_text("stats.json", stats.as_dict())
    with closing(_trajectory_chunks(traj, out)) as chunks:
        atomic_write_text(out / "trajectory.csv", chunks)
    atomic_write_text(out / "stats.json", stats_text)
    return ["trajectory.csv", "stats.json"]


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
def cmd_drift(cfg: dict, out: Path) -> list[str]:
    """Cross-check exact, closed-form and Monte Carlo drifts at states."""
    p = cfg["params"]
    points = cfg["points"]
    if points is None:
        points = _sample_points(p, cfg["per_region"], cfg["seed"])
    rows = []
    for i, x in enumerate(points):
        rep = drift_report(p, x, cfg["mc_samples"],
                           seed=point_seed(cfg["seed"], i))
        drifts = [rep.exact, rep.mc_mean, rep.mc_stderr]
        if rep.paper_formula is not None:
            drifts.append(rep.paper_formula)
        if not np.isfinite(drifts).all():
            raise NonFiniteResult(f"drift_report.csv: point {i} has a NaN or "
                                  "infinite result")
        if rep.paper_formula is None:
            paper_val, kind, agree = "", "not-applicable", ""
        else:
            paper_val = fmt_float(rep.paper_formula)
            kind = rep.paper_kind
            agree = str(rep.agree_paper).lower()
        rows.append([fmt_float(x[0]), fmt_float(x[1]), rep.region.value,
                     fmt_float(rep.exact), paper_val, kind,
                     fmt_float(rep.mc_mean), fmt_float(rep.mc_stderr),
                     agree, str(rep.agree_mc).lower()])
    _write_rows(out / "drift_report.csv",
                ["r", "z", "region", "exact", "paper_formula", "paper_kind",
                 "mc_mean", "mc_stderr", "agree_paper", "agree_mc"],
                rows)
    return ["drift_report.csv"]


@_command("sweep", _SEED,
          click.option("--threads", type=int, expose_value=False,
                       help="Ignored: the sweep runs one process per usable "
                            "CPU; narrow them with taskset."))
def cmd_sweep(cfg: dict, out: Path) -> list[str]:
    """Stability verdict per grid point; verdicts.csv plus drift geometry."""
    results = sweep(cfg["params"], cfg["grid"], cfg["steps"], cfg["burn_in"],
                    cfg["n_seeds"], cfg["seed"])

    def fmt_or_blank(v):
        return fmt_float(v) if isinstance(v, (int, float)) else ""

    rows = []
    geometry = {}
    for sp in results:
        p, res = sp.params, sp.result
        mu = p.mu if p else sp.overrides.get("mu", "")
        lam = p.lam if p else sp.overrides.get("lambda", "")
        rstar = p.r_star if p else sp.overrides.get("r_star", "")
        row = [fmt_or_blank(mu), fmt_or_blank(lam), fmt_or_blank(rstar)]
        if res is None:
            rows.append(row + ["error", "", "", "0"])
            continue
        rows.append(row + [res.verdict, fmt_float(res.ks_distance),
                           fmt_float(res.logz_slope), str(res.seeds_used)])
        if p.mu > 0.0:
            geometry[str(sp.index)] = negative_drift_geometry(p).as_dict()
    geometry_text = json_text("geometry.json", geometry) if geometry else None
    _write_rows(out / "verdicts.csv",
                ["mu", "lambda", "r_star", "verdict", "ks_distance",
                 "logz_slope", "seeds_used"],
                rows)
    if geometry_text is None:
        return ["verdicts.csv"]
    atomic_write_text(out / "geometry.json", geometry_text)
    return ["verdicts.csv", "geometry.json"]


@_command("thermal")
def cmd_thermal(cfg: tuple, out: Path) -> list[str]:
    """Evaluate the delayed-heating backlog ledger for a scenario.

    A scenario with eps_prime runs the heat-pump variant; one without it
    runs with constant COP.
    """
    building, scenario = cfg
    if scenario.eps_prime is None:
        ledger, mode = run_scenario_pair(building, scenario), "constant-cop"
    else:
        ledger, mode = run_heat_pump_scenario(building, scenario), "heat-pump"
    dump_json(out / "ledger.json", dict(ledger.as_dict(), mode=mode))
    return ["ledger.json"]


@_command("regions")
def cmd_regions(p: Params, out: Path) -> list[str]:
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
    dump_json(out / "regions.json", doc)
    return ["regions.json"]


if __name__ == "__main__":
    main()
