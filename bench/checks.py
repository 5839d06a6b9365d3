"""Output checks for the benchmark workloads.

Each check reads the files one CLI command wrote and recomputes what can
be recomputed without knowing how the command laid out its random
streams, so the checks hold when seeds are derived differently.  A check
returns (failed operations, problems, facts); an operation is one simulate
run or one grid point.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

VERDICTS = {"stable-consistent", "unstable-consistent", "inconclusive"}


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return [line.split(",") for line in lines[1:]]


def _region(r: float, lo: float, hi: float) -> str:
    if r < 0.0:
        return "D1"
    if r < lo:
        return "D2"
    if r < hi:
        return "D3"
    return "D4"


def check_simulate(out: Path, cfg: dict) -> tuple[int, list[str], dict]:
    """Recompute region, B, F, H_control and H_lyap from each row's (R, Z)."""
    p = cfg["params"]
    lam, mu, zeta, xi, rs = p["lambda"], p["mu"], p["zeta"], p["xi"], p["r_star"]
    lo, hi = rs - zeta, rs + xi
    lm = lam + mu
    problems = []
    try:
        rows = _read_csv(out / "trajectory.csv",
                         ["t", "R", "Z", "region", "B", "F", "H_control", "H_lyap"])
        stats = json.loads((out / "stats.json").read_text())
    except (OSError, ValueError) as exc:
        return 1, [str(exc)], {}

    expected_rows = cfg["steps"] // cfg["record_every"] + 1
    if len(rows) != expected_rows:
        problems.append(f"trajectory.csv has {len(rows)} rows, expected {expected_rows}")
    bad = 0
    for i, row in enumerate(rows):
        try:
            t, r_s, z_s, region, b, f, hc, hl = row
            r, z = float(r_s), float(z_s)
            a, c = r + lam * z, r + lm * z
            ok = (int(t) == i * cfg["record_every"]
                  and region == _region(r, lo, hi)
                  and float(b) == lam * z
                  and float(f) == max(-r, 0.0)
                  and float(hc) == min(max(rs - r, -xi), zeta)
                  and float(hl) == a * a + c * c)
        except ValueError:
            ok = False
        bad += not ok
    if bad:
        problems.append(f"trajectory.csv: {bad} rows disagree with their (R, Z)")
    if rows and [float(v) for v in rows[0][1:3]] != list(cfg["x0"]):
        problems.append("trajectory.csv: first row is not x0")

    if stats.get("n_samples") != cfg["steps"] + 1 - cfg["burn_in"]:
        problems.append(f"stats.json: n_samples {stats.get('n_samples')} != "
                        f"steps + 1 - burn_in")
    for axis in ("r", "z"):
        sec = stats.get(axis, {})
        qs = [v for _, v in sorted(sec.get("quantiles", {}).items(),
                                   key=lambda kv: float(kv[0]))]
        chain = [sec.get("min")] + qs + [sec.get("max")]
        if len(qs) == 0 or None in chain or any(x > y for x, y in zip(chain, chain[1:])):
            problems.append(f"stats.json: {axis} min/quantiles/max not monotone")
    if rows and cfg["steps"] % cfg["record_every"] == 0:
        if stats.get("final_state") != [float(v) for v in rows[-1][1:3]]:
            problems.append("stats.json: final_state is not the last row")
    return (1 if problems else 0), problems, {"rows": len(rows)}


def check_sweep(out: Path, cfg: dict) -> tuple[int, list[str], dict]:
    """Every grid point has a valid verdict and finite-or-nan statistics.

    Verdicts that contradict the paper's regime theorem (mu > 0 stable,
    mu < 0 unstable) are counted as false verdicts, not as failures.
    """
    grid = [(mu, lam) for mu in cfg["grid"]["mu"] for lam in cfg["grid"]["lambda"]]
    try:
        rows = _read_csv(out / "verdicts.csv", ["mu", "lambda", "r_star", "verdict",
                                                "ks_distance", "logz_slope", "seeds_used"])
    except (OSError, ValueError) as exc:
        return len(grid), [str(exc)], {}
    if len(rows) != len(grid):
        return len(grid), [f"verdicts.csv has {len(rows)} rows, expected {len(grid)}"], {}

    failed, false_verdicts, problems = 0, 0, []
    for i, ((mu, lam), row) in enumerate(zip(grid, rows)):
        try:
            mu_s, lam_s, rs_s, verdict, ks, slope, used = row
            stats_ok = all(not math.isinf(float(v)) for v in (ks, slope))
            ok = (float(mu_s) == mu and float(lam_s) == lam
                  and float(rs_s) == cfg["params"]["r_star"]
                  and verdict in VERDICTS and stats_ok and int(used) >= 0)
        except ValueError:
            ok = False
        if not ok:
            failed += 1
            problems.append(f"verdicts.csv row {i}: {','.join(row)}")
            continue
        expected = "stable-consistent" if mu > 0 else "unstable-consistent"
        false_verdicts += mu != 0 and verdict != expected

    stable = {str(i) for i, (mu, _) in enumerate(grid) if mu > 0}
    geo_path = out / "geometry.json"
    geo = set(json.loads(geo_path.read_text())) if geo_path.exists() else set()
    if geo != stable:
        problems.append("geometry.json rows are not the mu > 0 grid points")
        failed = len(grid)
    return failed, problems, {"false_verdicts": false_verdicts}
