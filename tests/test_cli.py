import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gridlab.cli
from gridlab.cli import _CHUNK_ROWS, _trajectory_chunks, main
from gridlab.config import (MAX_DRAWS, ConfigError, atomic_write_text,
                            fmt_float, parse_simulate)

P0 = {"lambda": 0.5, "mu": 0.1, "zeta": 1.0, "xi": 1.0, "r_star": 3.0,
      "sigma": 1.0}

B0_SCENARIO = {
    "building": {"k_leak": 1.0, "c_inertia": 9.0, "eps": 3.0},
    "theta": [0.0, 0.0, 0.0],
    "demand": [1.0, 1.0, 1.0],
    "t0_temp": 3.0,
    "tau": 3,
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_deterministic_trajectory(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "params": dict(P0, sigma=0.0),
            "x0": [0.0, 0.0], "steps": 4, "seed": 1,
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out / "trajectory.csv")
        assert rows[0] == ["t", "R", "Z", "region", "B", "F", "H_control", "H_lyap"]
        assert [r[1] for r in rows[1:]] == ["0", "1", "2", "3", "3"]
        assert [r[3] for r in rows[1:]] == ["D2", "D2", "D3", "D3", "D3"]
        stats = json.loads((out / "stats.json").read_text())
        assert stats["final_state"] == [3.0, 0.0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "trajectory.csv" in manifest["outputs"]
        assert manifest["rng_algorithm"]

    def test_byte_identical_rerun(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "params": P0, "x0": [0.0, 0.0], "steps": 2000,
            "burn_in": 200, "seed": 7, "record_every": 5,
        })
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0, res.output
            outs.append(out)
        for fname in ("trajectory.csv", "stats.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_override_changes_output(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "params": P0, "x0": [0.0, 0.0], "steps": 500, "seed": 7,
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["simulate", "--config", cfg,
                                    "--out", str(out_a)]).exit_code == 0
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(out_b), "--seed", "8"])
        assert res.exit_code == 0
        assert (out_a / "trajectory.csv").read_bytes() \
            != (out_b / "trajectory.csv").read_bytes()
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 8

    def test_manifest_echo_reparses_identically(self, runner, tmp_path):
        cfg_doc = {"params": P0, "x0": [0.0, 0.0], "steps": 300, "seed": 3}
        cfg = write_config(tmp_path, cfg_doc)
        out_a = tmp_path / "a"
        assert runner.invoke(main, ["simulate", "--config", cfg,
                                    "--out", str(out_a)]).exit_code == 0
        echoed = json.loads((out_a / "manifest.json").read_text())["config"]
        cfg2 = write_config(tmp_path, echoed, "echo.json")
        out_b = tmp_path / "b"
        assert runner.invoke(main, ["simulate", "--config", cfg2,
                                    "--out", str(out_b)]).exit_code == 0
        assert (out_a / "trajectory.csv").read_bytes() \
            == (out_b / "trajectory.csv").read_bytes()

    def test_missing_field_exit_2(self, runner, tmp_path):
        bad = {k: v for k, v in P0.items() if k != "sigma"}
        cfg = write_config(tmp_path, {"params": bad, "x0": [0, 0], "steps": 10})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "sigma" in res.output

    def test_unknown_key_exit_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"params": P0, "x0": [0, 0],
                                      "steps": 10, "stepz": 5})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "stepz" in res.output

    def test_invalid_json_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["simulate", "--config", str(path),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_missing_file_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--config",
                                   str(tmp_path / "nope.json"),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_diverged_exit_3(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "params": dict(P0, mu=-0.1),
            "x0": [-100.0, 50.0], "steps": 100_000, "seed": 0,
        })
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 3


class TestDrift:
    def test_explicit_points(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "params": P0,
            "points": [[-1.0, 2.0], [1.0, 1.0], [2.5, 1.0]],
            "mc_samples": 50_000, "seed": 2,
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["drift", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out / "drift_report.csv")
        header, data = rows[0], rows[1:]
        assert header == ["r", "z", "region", "exact", "paper_formula",
                          "paper_kind", "mc_mean", "mc_stderr",
                          "agree_paper", "agree_mc"]
        by_region = {r[2]: r for r in data}
        assert float(by_region["D1"][3]) == pytest.approx(4.3524, rel=1e-9)
        assert by_region["D1"][5] == "exact"
        assert float(by_region["D3"][4]) == pytest.approx(13.6716, rel=1e-9)
        assert by_region["D3"][5] == "upper_bound"
        for row in data:
            assert row[8] == "true" and row[9] == "true"

    def test_mu_zero_not_applicable(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "params": dict(P0, mu=0.0),
            "points": [[-1.0, 2.0]], "mc_samples": 1000,
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["drift", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        row = read_csv(out / "drift_report.csv")[1]
        assert row[4] == "" and row[5] == "not-applicable" and row[8] == ""

    def test_per_region_sampling(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "params": P0, "per_region": 3, "mc_samples": 2000, "seed": 4,
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["drift", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        data = read_csv(out / "drift_report.csv")[1:]
        assert len(data) == 12
        assert [r[2] for r in data] == ["D1"] * 3 + ["D2"] * 3 + ["D3"] * 3 + ["D4"] * 3

    def test_needs_points_or_per_region(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"params": P0})
        res = runner.invoke(main, ["drift", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2


class TestSweep:
    def sweep_config(self, tmp_path, mu_values, **extra):
        doc = {"params": P0, "grid": {"mu": mu_values},
               "steps": 20_000, "burn_in": 2_000, "n_seeds": 4, "seed": 5}
        doc.update(extra)
        return write_config(tmp_path, doc)

    def test_verdicts_and_geometry(self, runner, tmp_path):
        cfg = self.sweep_config(tmp_path, [-0.2, -0.1, 0.1, 0.2])
        out = tmp_path / "out"
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out / "verdicts.csv")
        assert rows[0] == ["mu", "lambda", "r_star", "verdict", "ks_distance",
                           "logz_slope", "seeds_used"]
        verdicts = [r[3] for r in rows[1:]]
        assert verdicts == ["unstable-consistent", "unstable-consistent",
                            "stable-consistent", "stable-consistent"]
        geometry = json.loads((out / "geometry.json").read_text())
        assert set(geometry) == {"2", "3"}  # only the mu > 0 rows
        assert geometry["2"]["v_plus"] == pytest.approx(35.72882812916423, abs=1e-6)

    def test_error_row_continues(self, runner, tmp_path):
        cfg = self.sweep_config(tmp_path, [0.9, 0.1])
        out = tmp_path / "out"
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out / "verdicts.csv")[1:]
        assert rows[0][3] == "error"
        assert rows[1][3] == "stable-consistent"

    def test_worker_count_does_not_change_output(self, runner, tmp_path):
        cfg = self.sweep_config(tmp_path, [-0.1, 0.1, 0.2])
        outs = []
        for name, threads in (("a", "1"), ("b", "2")):
            out = tmp_path / name
            res = runner.invoke(main, ["sweep", "--config", cfg,
                                       "--out", str(out), "--threads", threads])
            assert res.exit_code == 0, res.output
            outs.append(out)
        assert (outs[0] / "verdicts.csv").read_bytes() \
            == (outs[1] / "verdicts.csv").read_bytes()
        assert (outs[0] / "geometry.json").read_bytes() \
            == (outs[1] / "geometry.json").read_bytes()

    def test_threads_env_fallback_invalid(self, runner, tmp_path):
        cfg = self.sweep_config(tmp_path, [0.1])
        res = runner.invoke(main, ["sweep", "--config", cfg,
                                   "--out", str(tmp_path / "o")],
                            env={"GRIDLAB_THREADS": "many"})
        assert res.exit_code == 2

    def test_empty_grid_exit_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"params": P0, "grid": {}})
        res = runner.invoke(main, ["sweep", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2


class TestThermal:
    def test_constant_cop(self, runner, tmp_path):
        cfg = write_config(tmp_path, B0_SCENARIO)
        out = tmp_path / "out"
        res = runner.invoke(main, ["thermal", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["mode"] == "constant-cop"
        assert ledger["delta_z"] == pytest.approx(-0.29, rel=1e-9)
        assert ledger["identity_residual"] < 1e-9

    def test_heat_pump(self, runner, tmp_path):
        cfg = write_config(tmp_path, dict(B0_SCENARIO, eps_prime=2.0))
        out = tmp_path / "out"
        res = runner.invoke(main, ["thermal", "--config", cfg,
                                   "--out", str(out), "--mode", "heat-pump"])
        assert res.exit_code == 0, res.output
        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["delta_z"] == pytest.approx(1.065, rel=1e-9)

    def test_heat_pump_without_eps_prime_exit_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, B0_SCENARIO)
        res = runner.invoke(main, ["thermal", "--config", cfg,
                                   "--out", str(tmp_path / "o"),
                                   "--mode", "heat-pump"])
        assert res.exit_code == 2


class TestRegions:
    def test_geometry_dump(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"params": P0})
        out = tmp_path / "out"
        res = runner.invoke(main, ["regions", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "regions.json").read_text())
        assert doc["domains"]["D2"] == [0.0, 2.0]
        assert doc["domains"]["D3"] == [2.0, 4.0]
        geom = doc["geometry"]
        assert geom["v_plus"] == pytest.approx(35.72882812916423, abs=1e-6)
        assert geom["g1_curve"][0][1] == pytest.approx(25.0, rel=1e-9)
        assert geom["g4_curve"][0][1] == pytest.approx(1.25, rel=1e-9)
        assert geom["ellipse"]["alpha"] == pytest.approx(0.0684, rel=1e-9)

    def test_no_geometry_for_negative_mu(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"params": dict(P0, mu=-0.1)})
        out = tmp_path / "out"
        res = runner.invoke(main, ["regions", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "regions.json").read_text())
        assert "geometry" not in doc


NAN, INF = float("nan"), float("inf")

SIM = {"params": P0, "x0": [0.0, 0.0], "steps": 50}
SWEEP = {"params": P0, "grid": {"mu": [0.1]}, "steps": 200, "burn_in": 20,
         "n_seeds": 2}
DRIFT = {"params": P0, "mc_samples": 100}


@pytest.mark.parametrize("command, doc", [
    ("simulate", dict(SIM, steps=10, burn_in=10)),
    ("simulate", dict(SIM, steps=0)),
    ("simulate", dict(SIM, record_every=0)),
    ("simulate", dict(SIM, x0=[0.0, -1.0])),
    ("sweep", dict(SWEEP, grid={"mu": [0.1, "fast"]})),
    ("sweep", dict(SWEEP, grid={"lambda": ["0.5"]})),
    ("sweep", dict(SWEEP, n_seeds=0)),
    ("sweep", dict(SWEEP, steps=200, burn_in=200)),
    ("drift", dict(DRIFT, points=[[1.0, "x"]])),
    ("drift", dict(DRIFT, points=[[None, 1.0]])),
    ("drift", dict(DRIFT, points=[])),
    ("drift", dict(DRIFT, per_region=1, mc_samples=0)),
    ("drift", dict(DRIFT, per_region=1, mc_samples=1)),
    # json.dumps writes NAN and INF as the NaN / Infinity / -Infinity
    # literals that json.load accepts; 10**400 cannot become a float.
    ("simulate", dict(SIM, x0=[NAN, 1.0])),
    ("simulate", dict(SIM, x0=[0.0, INF])),
    ("simulate", dict(SIM, x0=[10**400, 1.0])),
    ("simulate", dict(SIM, params=dict(P0, mu=NAN))),
    ("simulate", dict(SIM, params=dict(P0, sigma=INF))),
    ("sweep", dict(SWEEP, grid={"mu": [0.1, NAN]})),
    ("sweep", dict(SWEEP, grid={"lambda": [-INF]})),
    ("sweep", dict(SWEEP, ks_threshold=NAN)),
    ("sweep", dict(SWEEP, slope_threshold=INF)),
    ("drift", dict(DRIFT, points=[[NAN, 1.0]])),
    ("drift", dict(DRIFT, points=[[1.0, -INF]])),
    ("thermal", dict(B0_SCENARIO, theta=[0.0, NAN, 0.0])),
    ("thermal", dict(B0_SCENARIO, demand=[1.0, 1.0, INF])),
    ("thermal", dict(B0_SCENARIO, frustration=[NAN, 0.0, 0.0])),
    ("thermal", dict(B0_SCENARIO, t0_temp=NAN)),
    ("thermal", dict(B0_SCENARIO,
                     building=dict(B0_SCENARIO["building"], k_leak=INF))),
    # A seed is non-negative, in the config and as --seed alike.
    ("simulate", dict(SIM, seed=-1)),
    ("sweep", dict(SWEEP, seed=-1)),
    ("drift", dict(DRIFT, per_region=1, seed=-3)),
    ("simulate --seed -1", SIM),
    ("sweep --seed -1", SWEEP),
    ("drift --seed -1", dict(DRIFT, per_region=1)),
    # Past MAX_DRAWS the draws would not fit in memory.
    ("simulate", dict(SIM, steps=10**12)),
    ("sweep", dict(SWEEP, steps=10**12)),
    ("drift", dict(DRIFT, per_region=1, mc_samples=10**12)),
], ids=["steps-le-burn-in", "zero-steps", "zero-record-every",
        "negative-z0", "grid-string", "grid-numeric-string", "zero-seeds",
        "sweep-burn-in-ge-steps", "point-string", "point-null",
        "empty-points", "zero-mc-samples", "one-mc-sample",
        "x0-nan", "x0-inf", "x0-huge-int", "params-nan", "params-inf",
        "grid-nan", "grid-neg-inf", "ks-threshold-nan", "slope-threshold-inf",
        "point-nan", "point-neg-inf", "theta-nan", "demand-inf",
        "frustration-nan", "t0-temp-nan", "building-inf",
        "simulate-negative-seed", "sweep-negative-seed", "drift-negative-seed",
        "simulate-negative-seed-option", "sweep-negative-seed-option",
        "drift-negative-seed-option", "simulate-steps-over-limit",
        "sweep-steps-over-limit", "drift-mc-samples-over-limit"])
def test_invalid_config_exit_2_one_line(runner, tmp_path, command, doc):
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, [*command.split(), "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.startswith("config error: ")
    assert res.stderr.count("\n") == 1


def test_draw_limit_is_inclusive_and_named():
    assert parse_simulate(dict(SIM, steps=MAX_DRAWS))["steps"] == MAX_DRAWS
    with pytest.raises(ConfigError, match=f"'steps' must be <= {MAX_DRAWS}$"):
        parse_simulate(dict(SIM, steps=MAX_DRAWS + 1))


def test_two_mc_samples_accepted(runner, tmp_path):
    cfg = write_config(tmp_path, dict(DRIFT, points=[[1.0, 1.0]], mc_samples=2))
    out = tmp_path / "o"
    res = runner.invoke(main, ["drift", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    row = read_csv(out / "drift_report.csv")[1]
    assert row[7] != "nan"


def test_unexpected_exception_exit_4_one_line(runner, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(gridlab.cli, "simulate", broken)
    cfg = write_config(tmp_path, SIM)
    res = runner.invoke(main, ["simulate", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == "internal error: RuntimeError: kernel exploded\n"


def reference_trajectory_csv(columns) -> str:
    """trajectory.csv as the csv-module writer produced it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "R", "Z", "region", "B", "F", "H_control", "H_lyap"])
    for t, r, z, reg, *rest in zip(*columns):
        writer.writerow([int(t), fmt_float(r), fmt_float(z), reg,
                         *map(fmt_float, rest)])
    return buf.getvalue()


@pytest.mark.parametrize("n_rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                                    _CHUNK_ROWS + 1])
def test_trajectory_chunks_match_csv_writer(tmp_path, n_rows):
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-5, 0.1, 1e16, 1e17,
                         1e300, -1e300, 2.0 ** 53 + 1, np.nan, np.inf, -np.inf])
    rng = np.random.default_rng(n_rows)
    # Each column starts at a different special value, so one row holds six.
    floats = [np.concatenate([np.roll(specials, -2 * k),
                              rng.normal(size=n_rows) * 10.0 ** k])[:n_rows]
              for k in range(6)]
    regions = np.array(["D1", "D2", "D3", "D4"])[rng.integers(0, 4, n_rows)]
    columns = [np.arange(n_rows) * 7, floats[0], floats[1], regions, *floats[2:]]
    path = tmp_path / "trajectory.csv"
    atomic_write_text(path, _trajectory_chunks(columns))
    assert path.read_bytes() == reference_trajectory_csv(columns).encode()


def test_import_leaves_scipy_stats_out():
    src = str(Path(gridlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, gridlab.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
