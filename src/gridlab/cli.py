"""Command-line front end.

All commands read a single JSON config, write plot-ready files into an
output directory, and record a manifest describing the run.  Output is
files-only; exit codes are 0 (success), 2 (config error), 3 (infeasible
scenario or diverged simulation), 4 (internal error).
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterator

import click
import numpy as np

from . import __version__, config as cfgmod
from .config import ConfigError, atomic_write_text, dump_json, fmt_float, load_json
from .dynamics import Params, Region, breakpoints
from .errors import GridlabError, InfeasibleScenario, SimulationDiverged
from .lyapunov import drift_report, lyap_h, negative_drift_geometry
from .montecarlo import SimConfig, SweepPoint, simulate, sweep
from .rng import ALGORITHM, point_seed, stream
from .thermal import run_heat_pump_scenario, run_scenario_pair

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _threads(opt: int | None) -> int:
    if opt is not None:
        return max(1, opt)
    env = os.environ.get("GRIDLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"GRIDLAB_THREADS must be an integer, got {env!r}")
    return 1


def _run(fn):
    """Map errors to the documented exit codes."""
    try:
        fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (InfeasibleScenario, SimulationDiverged) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    except GridlabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)
    except Exception as exc:
        # A bug, not bad input: one line on stderr, no traceback.
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)


def _override_seed(cfg: dict, seed: int | None) -> None:
    """Apply a --seed option; it must be a seed the config could hold."""
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg["seed"] = seed


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    """Write a small CSV file.  Every field is a number, a fixed word or
    blank, so none needs quoting."""
    atomic_write_text(path, "".join([",".join(row) + "\n"
                                     for row in [header, *rows]]))


# One trajectory.csv row; '%.17g' gives the bytes of fmt_float.
_TRAJECTORY_ROW = "%d,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g\n"
_CHUNK_ROWS = 8192


def _trajectory_chunks(columns: list[np.ndarray]) -> Iterator[str]:
    """trajectory.csv text: the header, then ``_CHUNK_ROWS`` rows at a time."""
    yield "t,R,Z,region,B,F,H_control,H_lyap\n"
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = zip(*[c[lo:lo + _CHUNK_ROWS].tolist() for c in columns])
        yield "".join([_TRAJECTORY_ROW % row for row in rows])


def _manifest(out: Path, command: str, resolved: dict, outputs: list[str],
              started: float) -> None:
    dump_json(out / "manifest.json", {
        "tool_version": __version__,
        "command": command,
        "config": resolved,
        "rng_algorithm": ALGORITHM,
        "outputs": outputs,
        "duration_s": time.perf_counter() - started,
    })


def _params_echo(p: Params) -> dict:
    return {"lambda": p.lam, "mu": p.mu, "zeta": p.zeta, "xi": p.xi,
            "r_star": p.r_star, "sigma": p.sigma}


@click.group()
@click.version_option(__version__)
def main():
    """Simulator and drift-verification toolkit for the reserve/backlog chain."""


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def cmd_simulate(config_path, out_dir, seed):
    """Run one trajectory; write trajectory.csv, stats.json, manifest.json."""

    def body():
        started = time.perf_counter()
        cfg = cfgmod.parse_simulate(load_json(config_path))
        _override_seed(cfg, seed)
        out = Path(out_dir)
        try:
            sim = SimConfig(params=cfg["params"], x0=cfg["x0"],
                            steps=cfg["steps"], burn_in=cfg["burn_in"],
                            seed=cfg["seed"], record_every=cfg["record_every"])
        except ValueError as exc:
            raise ConfigError(f"config: {exc}")
        stats, traj = simulate(sim, return_records=True)

        p = cfg["params"]
        columns = [traj.t, traj.r, traj.z, traj.region, traj.b_expr,
                   traj.f_frustrated, traj.h_control,
                   lyap_h(p, (traj.r, traj.z))]
        atomic_write_text(out / "trajectory.csv", _trajectory_chunks(columns))
        dump_json(out / "stats.json", stats.as_dict())
        resolved = {"params": _params_echo(p), "x0": list(cfg["x0"]),
                    "steps": cfg["steps"], "burn_in": cfg["burn_in"],
                    "seed": cfg["seed"], "record_every": cfg["record_every"]}
        _manifest(out, "simulate", resolved,
                  ["trajectory.csv", "stats.json"], started)

    _run(body)


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


@main.command("drift")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
def cmd_drift(config_path, out_dir, seed):
    """Cross-check exact, closed-form and Monte Carlo drifts at states."""

    def body():
        started = time.perf_counter()
        cfg = cfgmod.parse_drift(load_json(config_path))
        _override_seed(cfg, seed)
        p = cfg["params"]
        points = cfg["points"]
        if points is None:
            points = _sample_points(p, cfg["per_region"], cfg["seed"])
        rows = []
        for i, x in enumerate(points):
            rep = drift_report(p, x, cfg["mc_samples"],
                               seed=point_seed(cfg["seed"], i))
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
        out = Path(out_dir)
        _write_rows(out / "drift_report.csv",
                    ["r", "z", "region", "exact", "paper_formula", "paper_kind",
                     "mc_mean", "mc_stderr", "agree_paper", "agree_mc"],
                    rows)
        resolved = {"params": _params_echo(p),
                    "points": [list(pt) for pt in points],
                    "mc_samples": cfg["mc_samples"], "seed": cfg["seed"]}
        _manifest(out, "drift", resolved, ["drift_report.csv"], started)

    _run(body)


def _sweep_one(args) -> SweepPoint:
    base, overrides, index, seed, steps, burn_in, n_seeds, ks_thr, slope_thr = args
    rows = sweep(base, [overrides], steps, burn_in, n_seeds, seed,
                 ks_threshold=ks_thr, slope_threshold=slope_thr)
    row = rows[0]
    # Re-attach the global grid index (sweep() numbered within its sublist).
    return SweepPoint(index, row.overrides, row.params, row.result, row.error)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--threads", type=int, default=None,
              help="Worker processes; falls back to GRIDLAB_THREADS, then 1.")
def cmd_sweep(config_path, out_dir, seed, threads):
    """Stability verdict per grid point; verdicts.csv plus drift geometry."""

    def body():
        started = time.perf_counter()
        cfg = cfgmod.parse_sweep(load_json(config_path))
        _override_seed(cfg, seed)
        n_workers = _threads(threads)
        base = cfg["params"]

        # Per-point seeds depend only on (seed, index): worker count and
        # scheduling cannot change any result.
        tasks = [(base, ov, i, point_seed(cfg["seed"], i), cfg["steps"],
                  cfg["burn_in"], cfg["n_seeds"], cfg["ks_threshold"],
                  cfg["slope_threshold"])
                 for i, ov in enumerate(cfg["grid"])]
        if n_workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                results = list(pool.map(_sweep_one, tasks))
        else:
            results = [_sweep_one(t) for t in tasks]
        results.sort(key=lambda sp: sp.index)

        def fmt_or_blank(v):
            return fmt_float(v) if isinstance(v, (int, float)) else ""

        rows = []
        geometry = {}
        for sp in results:
            p = sp.params
            mu = p.mu if p else sp.overrides.get("mu", "")
            lam = p.lam if p else sp.overrides.get("lambda", "")
            rstar = p.r_star if p else sp.overrides.get("r_star", "")
            if sp.error is not None or sp.result is None:
                rows.append([fmt_or_blank(mu), fmt_or_blank(lam), fmt_or_blank(rstar),
                             "error", "", "", str(cfg["n_seeds"])])
                continue
            res = sp.result
            rows.append([fmt_or_blank(mu), fmt_or_blank(lam), fmt_or_blank(rstar),
                         res.verdict, fmt_float(res.ks_distance),
                         fmt_float(res.logz_slope), str(cfg["n_seeds"])])
            if p is not None and p.mu > 0.0:
                g = negative_drift_geometry(p)
                geometry[str(sp.index)] = {
                    "g1_coeffs": list(g.g1_coeffs),
                    "v_plus": g.v_plus,
                    "g4_coeffs": list(g.g4_coeffs),
                    "ellipse": {"alpha": g.alpha, "beta": g.beta,
                                "radius_const": g.radius_const},
                }
        out = Path(out_dir)
        _write_rows(out / "verdicts.csv",
                    ["mu", "lambda", "r_star", "verdict", "ks_distance",
                     "logz_slope", "seeds_used"],
                    rows)
        outputs = ["verdicts.csv"]
        if geometry:
            dump_json(out / "geometry.json", geometry)
            outputs.append("geometry.json")
        resolved = {"params": _params_echo(base), "grid": cfg["grid"],
                    "steps": cfg["steps"], "burn_in": cfg["burn_in"],
                    "n_seeds": cfg["n_seeds"], "seed": cfg["seed"],
                    "ks_threshold": cfg["ks_threshold"],
                    "slope_threshold": cfg["slope_threshold"]}
        _manifest(out, "sweep", resolved, outputs, started)

    _run(body)


@main.command("thermal")
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="Scenario JSON file.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(["constant-cop", "heat-pump"]),
              default="constant-cop")
def cmd_thermal(config_path, out_dir, mode):
    """Evaluate the delayed-heating backlog ledger for a scenario."""

    def body():
        started = time.perf_counter()
        building, scenario = cfgmod.parse_thermal(load_json(config_path))
        try:
            if mode == "heat-pump":
                ledger = run_heat_pump_scenario(building, scenario)
            else:
                ledger = run_scenario_pair(building, scenario)
        except ValueError as exc:
            if isinstance(exc, InfeasibleScenario):
                raise
            raise ConfigError(str(exc))
        out = Path(out_dir)
        dump_json(out / "ledger.json", dict(ledger.as_dict(), mode=mode))
        resolved = {"building": {"k_leak": building.k_leak,
                                 "c_inertia": building.c_inertia,
                                 "eps": building.eps},
                    "mode": mode, "tau": scenario.tau}
        _manifest(out, "thermal", resolved, ["ledger.json"], started)

    _run(body)


@main.command("regions")
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="JSON with a 'params' section.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_regions(config_path, out_dir):
    """Dump region breakpoints and negative-drift geometry for plotting."""

    def body():
        started = time.perf_counter()
        sec = cfgmod._Section(load_json(config_path), "config")
        p = cfgmod.parse_params(sec)
        sec.finish()
        edges = (None, *breakpoints(p), None)
        doc = {
            "params": _params_echo(p),
            "domains": {region.value: [lo, hi] for region, lo, hi
                        in zip(Region, edges, edges[1:])},
        }
        if p.mu > 0.0:
            g = negative_drift_geometry(p)
            vs = np.linspace(0.0, 2.0 * g.v_plus, 101)
            doc["geometry"] = {
                "g1_coeffs": list(g.g1_coeffs),
                "g1_curve": [[float(v), float(g.g1(v))] for v in vs],
                "v_plus": g.v_plus,
                "g4_coeffs": list(g.g4_coeffs),
                "g4_curve": [[float(v), float(g.g4(v))] for v in vs],
                "ellipse": {"alpha": g.alpha, "beta": g.beta,
                            "radius_const": g.radius_const},
            }
        out = Path(out_dir)
        dump_json(out / "regions.json", doc)
        _manifest(out, "regions", {"params": _params_echo(p)},
                  ["regions.json"], started)

    _run(body)


if __name__ == "__main__":
    main()
