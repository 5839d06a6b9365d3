import copy
import csv
import enum
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import gridlab.cli
from conftest import count_forks, use_cpus
from test_golden import CASES as GOLDEN_CASES
from gridlab import (DriftReport, drift_report, floatfmt, lyap_h,
                     run_heat_pump_scenario, run_scenario_pair, simulate,
                     sweep)
from gridlab.cli import _CHUNK_ROWS, _write_trajectory, main
from gridlab.config import (MAX_DRAWS, MAX_GRID_POINTS, MAX_GROWTH_COLUMNS,
                            MAX_PER_REGION, SWEEP_AXES, ConfigError,
                            atomic_file, fmt_float, parse_drift,
                            parse_simulate, parse_sweep, parse_thermal)
from gridlab.dynamics import (breakpoints, expressed_backlog,
                              frustrated_demand, ramp_control, region_codes)
from gridlab.montecarlo import Trajectory
from gridlab.rng import point_seed

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


def csv_field(v) -> str:
    """A verdicts.csv or drift_report.csv field, by README's rule: a number
    as fmt_float writes it, a flag true or false, None blank, an enum
    member its value, a word as it is."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, enum.Enum):
        return v.value
    return v if isinstance(v, str) else fmt_float(v)


def files_in(out):
    """The sorted names of the files in directory ``out``; none where it
    does not exist."""
    return sorted(f.name for f in out.iterdir()) if out.exists() else []


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

    def test_stats_json_is_the_record(self, runner, tmp_path):
        # stats.json is asdict of library simulate's TrajectoryStats, as
        # JSON writes it: tuples as lists, the quantile keys as strings.
        doc = {"params": P0, "x0": [0.0, 0.0], "steps": 2000, "burn_in": 200,
               "seed": 7}
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", "--config",
                                   write_config(tmp_path, doc), "--out", str(out)])
        assert res.exit_code == 0, res.output
        stats, _ = simulate(parse_simulate(doc)[0])
        want = json.loads(json.dumps(asdict(stats)))
        assert json.loads((out / "stats.json").read_text()) == want

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

    def test_missing_field_exit_2(self, runner, tmp_path):
        bad = {k: v for k, v in P0.items() if k != "sigma"}
        cfg = write_config(tmp_path, {"params": bad, "x0": [0, 0], "steps": 10})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "sigma" in res.output
        assert files_in(tmp_path / "o") == []

    def test_unknown_key_exit_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"params": P0, "x0": [0, 0],
                                      "steps": 10, "stepz": 5})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "stepz" in res.output
        assert files_in(tmp_path / "o") == []

    def test_invalid_json_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["simulate", "--config", str(path),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert files_in(tmp_path / "o") == []

    def test_missing_file_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--config",
                                   str(tmp_path / "nope.json"),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert files_in(tmp_path / "o") == []

    def test_diverged_exit_3(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "params": dict(P0, mu=-0.1),
            "x0": [-100.0, 50.0], "steps": 100_000, "seed": 0,
        })
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 3
        assert files_in(tmp_path / "o") == []

    def test_diverged_message_shows_plain_floats(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"params": P0, "x0": [0, 1e308],
                                      "steps": 10})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == ("error: state exceeded overflow guard at step 1: "
                              "R=3e+307, Z=4.0000000000000004e+307\n")
        assert files_in(tmp_path / "o") == []


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

    @pytest.mark.parametrize("mu", [0.1, 0.0, -0.1])
    def test_rows_are_the_library_reports(self, runner, tmp_path, mu):
        # drift_report.csv is library drift_report's DriftReport field for
        # field, the state as r and z.  A point in each region; at mu = 0
        # the D1 row reads not-applicable, at mu < 0 D3 and D4 expression.
        doc = {"params": dict(P0, mu=mu), "mc_samples": 500, "seed": 3,
               "points": [[-1.0, 2.0], [1.0, 1.0], [2.5, 1.0], [10.0, 5.0]]}
        out = tmp_path / "out"
        res = runner.invoke(main, ["drift", "--config",
                                   write_config(tmp_path, doc), "--out", str(out)])
        assert res.exit_code == 0, res.output
        cfg, _ = parse_drift(doc)
        reports = [drift_report(cfg["params"], x, cfg["mc_samples"],
                                seed=point_seed(cfg["seed"], i))
                   for i, x in enumerate(cfg["points"])]
        assert (reports[0].paper_kind == "not-applicable") == (mu == 0.0)
        header, *rows = read_csv(out / "drift_report.csv")
        assert header == ["r", "z", *[f.name for f in fields(DriftReport)][1:]]
        assert rows == [[csv_field(v) for v in (*rep.state, *astuple(rep)[1:])]
                        for rep in reports]

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
        assert files_in(tmp_path / "o") == []


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

    def test_worker_count_does_not_change_output(self, runner, tmp_path,
                                                 monkeypatch):
        cfg = self.sweep_config(tmp_path, [-0.1, 0.1, 0.2])
        outs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0, res.output
            outs.append(out)
        for out in outs[1:]:
            for name in ("verdicts.csv", "geometry.json"):
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()

    def test_threads_option_changes_nothing(self, runner, tmp_path):
        cfg = self.sweep_config(tmp_path, [-0.1, 0.1], steps=2_000, burn_in=200)
        texts = []
        for threads in (None, "0", "1", "2", "3"):
            out = tmp_path / str(threads)
            extra = [] if threads is None else ["--threads", threads]
            res = runner.invoke(main, ["sweep", "--config", cfg,
                                       "--out", str(out), *extra])
            assert res.exit_code == 0, res.output
            texts.append([(out / name).read_bytes()
                          for name in ("verdicts.csv", "geometry.json")])
        assert texts[1:] == texts[:1] * 4

    def test_rows_equal_library_sweep(self, runner, tmp_path):
        doc = {"params": P0, "grid": {"mu": [-0.6, -0.1, 0.1, 0.9]},
               "steps": 2_000, "burn_in": 200, "n_seeds": 3, "seed": 5}
        # Whole rows: the SWEEP_AXES values of the point's params, or of its
        # grid point on an error row, then four StabilityVerdict fields.
        cfg, _ = parse_sweep(doc)
        want = []
        for sp in sweep(cfg["params"], cfg["grid"], cfg["steps"],
                        cfg["burn_in"], cfg["n_seeds"], cfg["seed"]):
            axes = sp.params.as_dict() if sp.params else sp.overrides
            res = sp.result
            verdict = (["error", None, None, 0] if res is None else
                       [res.verdict, res.ks_distance, res.logz_slope,
                        res.seeds_used])
            want.append([csv_field(v) for v in
                         (*map(axes.get, SWEEP_AXES), *verdict)])
        assert want[0][4] == "nan"
        assert want[3] == ["0.90000000000000002", "", "", "error", "", "", "0"]
        out = tmp_path / "out"
        res = runner.invoke(main, ["sweep", "--config", write_config(tmp_path, doc),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        header, *rows = read_csv(out / "verdicts.csv")
        assert header == [*SWEEP_AXES, "verdict", "ks_distance", "logz_slope",
                          "seeds_used"]
        assert rows == want

    def test_seeds_used_column(self, runner, tmp_path):
        # At lambda=0.5, mu=0.4 the backlog underflows to 0 inside the fit
        # window on one of these four growth seeds (see test_sweep.py).
        cfg = self.sweep_config(tmp_path, [0.4, 0.9], steps=2_000,
                                burn_in=200, seed=0)
        out = tmp_path / "out"
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert [r[6] for r in read_csv(out / "verdicts.csv")[1:]] == ["3", "0"]

    def test_non_finite_fields_are_the_documented_ones(self, runner, tmp_path):
        # README's cases, at both lambdas: every growth seed excluded
        # (0.9, 0.09); a probe past the guard and a KS leg past it (-3); an
        # error row, lambda + mu >= 1 (0.6); a KS leg past the guard while
        # the probe stays under it (-0.7).  Every other field is finite.
        cfg = self.sweep_config(tmp_path, None, steps=2_000, burn_in=200,
                                n_seeds=8, seed=0,
                                grid={"mu": [0.09, -3.0, 0.6, -0.7],
                                      "lambda": [0.9, 0.5]})
        out = tmp_path / "out"
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        header, *rows = read_csv(out / "verdicts.csv")
        cases = {-3.0: {"ks_distance": "nan", "logz_slope": "inf"},
                 0.6: {"r_star": "", "verdict": "error", "ks_distance": "",
                       "logz_slope": "", "seeds_used": "0"},
                 -0.7: {"ks_distance": "nan"}}
        found = []
        for row in rows:
            fields = dict(zip(header, row))
            mu, lam = float(fields["mu"]), float(fields["lambda"])
            want = ({"logz_slope": "nan", "seeds_used": "0"}
                    if (lam, mu) == (0.9, 0.09) else cases.get(mu, {}))
            assert {k: fields[k] for k in want} == want, (lam, mu)
            for key in ("mu", "lambda", "r_star", "ks_distance", "logz_slope"):
                if key not in want:
                    assert math.isfinite(float(fields[key])), (lam, mu, key)
            if "seeds_used" not in want:
                assert int(fields["seeds_used"]) == 8, (lam, mu)
            found.append((lam, mu))
        assert len(found) == 8 and (0.5, 0.09) in found

    def test_empty_grid_exit_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"params": P0, "grid": {}})
        res = runner.invoke(main, ["sweep", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert files_in(tmp_path / "o") == []


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
        # eps_prime alone selects the heat-pump variant.
        cfg = write_config(tmp_path, dict(B0_SCENARIO, eps_prime=2.0))
        out = tmp_path / "out"
        res = runner.invoke(main, ["thermal", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["mode"] == "heat-pump"
        assert ledger["delta_z"] == pytest.approx(1.065, rel=1e-9)

    @pytest.mark.parametrize("doc, run, mode", [
        (B0_SCENARIO, run_scenario_pair, "constant-cop"),
        (dict(B0_SCENARIO, eps_prime=2.0), run_heat_pump_scenario, "heat-pump")])
    def test_ledger_json_is_the_record(self, runner, tmp_path, doc, run, mode):
        out = tmp_path / "out"
        res = runner.invoke(main, ["thermal", "--config",
                                   write_config(tmp_path, doc), "--out", str(out)])
        assert res.exit_code == 0, res.output
        ledger = run(*parse_thermal(doc)[0])
        want = json.loads(json.dumps(dict(asdict(ledger), mode=mode)))
        assert json.loads((out / "ledger.json").read_text()) == want


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
    # The verdict thresholds are constants, not config keys.
    ("sweep", dict(SWEEP, ks_threshold=0.05)),
    ("sweep", dict(SWEEP, slope_threshold=0.03)),
    ("drift", dict(DRIFT, points=[[NAN, 1.0]])),
    ("drift", dict(DRIFT, points=[[1.0, -INF]])),
    # Drift states lie in R x R+, as a simulation's x0 does.
    ("drift", dict(DRIFT, points=[[0.0, 1.0], [1.0, -5.0]])),
    ("thermal", dict(B0_SCENARIO, theta=[])),
    ("thermal", dict(B0_SCENARIO, theta=[0.0, NAN, 0.0])),
    ("thermal", dict(B0_SCENARIO, demand=[1.0, 1.0, INF])),
    ("thermal", dict(B0_SCENARIO, frustration=[NAN, 0.0, 0.0])),
    ("thermal", dict(B0_SCENARIO, t0_temp=NAN)),
    ("thermal", dict(B0_SCENARIO,
                     building=dict(B0_SCENARIO["building"], k_leak=INF))),
    # The heat-pump variant needs 0 < eps_prime <= eps and full frustration.
    ("thermal", dict(B0_SCENARIO, eps_prime=4.0)),
    ("thermal", dict(B0_SCENARIO, eps_prime=2.0, frustration=[0.5, 0.5])),
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
    ("drift", dict(DRIFT, per_region=10**12)),
    # Past MAX_DRAWS, and so past any steps, only x0 would be recorded.
    ("simulate", dict(SIM, record_every=10**30)),
    # Given points, a per_region would be ignored.
    ("drift", dict(DRIFT, points=[[1.0, 1.0]], per_region=50)),
    # Past MAX_GRID_POINTS or MAX_GROWTH_COLUMNS a sweep would not fit in
    # memory; 10**9 points are refused before the grid is built.
    ("sweep", dict(SWEEP, grid={"mu": [0.1] * 1000, "lambda": [0.5] * 1000,
                                "r_star": [3.0] * 1000})),
    ("sweep", dict(SWEEP, grid={"mu": [0.1] * 10}, n_seeds=10**6 + 1)),
], ids=["steps-le-burn-in", "zero-steps", "zero-record-every",
        "negative-z0", "grid-string", "grid-numeric-string", "zero-seeds",
        "sweep-burn-in-ge-steps", "point-string", "point-null",
        "empty-points", "zero-mc-samples", "one-mc-sample",
        "x0-nan", "x0-inf", "x0-huge-int", "params-nan", "params-inf",
        "grid-nan", "grid-neg-inf", "ks-threshold-key", "slope-threshold-key",
        "point-nan", "point-neg-inf", "point-negative-z", "theta-empty",
        "theta-nan", "demand-inf",
        "frustration-nan", "t0-temp-nan", "building-inf",
        "eps-prime-above-eps", "heat-pump-partial-frustration",
        "simulate-negative-seed", "sweep-negative-seed", "drift-negative-seed",
        "simulate-negative-seed-option", "sweep-negative-seed-option",
        "drift-negative-seed-option", "simulate-steps-over-limit",
        "sweep-steps-over-limit", "drift-mc-samples-over-limit",
        "drift-per-region-over-limit", "simulate-record-every-over-limit",
        "drift-points-and-per-region",
        "sweep-grid-over-limit", "sweep-columns-over-limit"])
def test_invalid_config_exit_2_one_line(runner, tmp_path, command, doc):
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, [*command.split(), "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.startswith("config error: ")
    assert res.stderr.count("\n") == 1
    assert files_in(tmp_path / "o") == []
    for key in ("ks_threshold", "slope_threshold"):
        assert (key in doc) == (f"unknown field(s): {key}" in res.stderr)


@pytest.mark.parametrize("text", [
    None, b'{"params": "\xff"}', b"[" * 100_000 + b"]" * 100_000,
    b'{"seed": ' + b"1" * 5000 + b"}"],
    ids=["directory", "not-utf8", "nested-too-deep", "integer-too-long"])
def test_unreadable_config_exit_2_one_line(runner, tmp_path, text):
    # A file that cannot be read, or read as JSON, is a config error.
    path = tmp_path / "config.json"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text)
    out = tmp_path / "o"
    res = runner.invoke(main, ["regions", "--config", str(path),
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.startswith("config error: ")
    assert res.stderr.count("\n") == 1
    assert not out.exists()


def test_draw_limit_is_inclusive_and_named():
    assert parse_simulate(dict(SIM, steps=MAX_DRAWS))[0].steps == MAX_DRAWS
    with pytest.raises(ConfigError, match=f"'steps' must be <= {MAX_DRAWS}$"):
        parse_simulate(dict(SIM, steps=MAX_DRAWS + 1))
    doc = dict(SIM, record_every=MAX_DRAWS)
    assert parse_simulate(doc)[0].record_every == MAX_DRAWS
    with pytest.raises(ConfigError,
                       match=f"'record_every' must be <= {MAX_DRAWS}$"):
        parse_simulate(dict(doc, record_every=MAX_DRAWS + 1))
    doc = dict(DRIFT, per_region=MAX_PER_REGION)
    assert parse_drift(doc)[0]["per_region"] == MAX_PER_REGION
    with pytest.raises(ConfigError,
                       match=f"'per_region' must be <= {MAX_PER_REGION}$"):
        parse_drift(dict(doc, per_region=MAX_PER_REGION + 1))


def test_drift_points_limit_is_inclusive_and_named(runner, tmp_path,
                                                   monkeypatch):
    # An explicit point costs what a sampled one does, so 'points' may
    # hold 4 * MAX_PER_REGION of them; patched small, the lists run.
    monkeypatch.setattr(gridlab.config, "MAX_PER_REGION", 2)
    at_cap = write_config(tmp_path, dict(DRIFT, points=[[1.0, 1.0]] * 8), "8.json")
    res = runner.invoke(main, ["drift", "--config", at_cap, "--out", str(tmp_path / "a")])
    assert res.exit_code == 0, res.output
    assert len(read_csv(tmp_path / "a" / "drift_report.csv")) == 1 + 8
    past = write_config(tmp_path, dict(DRIFT, points=[[1.0, 1.0]] * 9), "9.json")
    res = runner.invoke(main, ["drift", "--config", past, "--out", str(tmp_path / "b")])
    assert res.exit_code == 2, res.output
    assert res.stderr == "config error: config: 9 points is more than 8\n"
    assert files_in(tmp_path / "b") == []


def test_sweep_limits_are_inclusive_and_named():
    # Parses only; no point runs.
    seeds = MAX_GROWTH_COLUMNS // MAX_GRID_POINTS
    doc = dict(SWEEP, grid={"mu": [0.1] * MAX_GRID_POINTS}, n_seeds=seeds)
    assert len(parse_sweep(doc)[0]["grid"]) == MAX_GRID_POINTS
    with pytest.raises(ConfigError, match=f"{MAX_GRID_POINTS + 1} points is "
                                          f"more than {MAX_GRID_POINTS}$"):
        parse_sweep(dict(doc, grid={"mu": [0.1] * (MAX_GRID_POINTS + 1)}))
    with pytest.raises(ConfigError, match=f"more than {MAX_GROWTH_COLUMNS} "
                                          f"growth columns$"):
        parse_sweep(dict(doc, n_seeds=seeds + 1))


def test_drift_point_may_have_negative_zero_backlog():
    assert parse_drift(dict(DRIFT, points=[[1.0, -0.0]]))[0]["points"] \
        == [(1.0, -0.0)]


def test_two_mc_samples_accepted(runner, tmp_path):
    cfg = write_config(tmp_path, dict(DRIFT, points=[[1.0, 1.0]], mc_samples=2))
    out = tmp_path / "o"
    res = runner.invoke(main, ["drift", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    row = read_csv(out / "drift_report.csv")[1]
    assert row[7] != "nan"


# Values a mutation may put at any path of a golden config.
MUTANT_VALUES = [None, True, False, 0, 1, -1, 2 ** 63, 10 ** 400, -10 ** 400,
                 1e308, -1e308, 5e-324, 0.0, -0.0, math.nan, math.inf,
                 -math.inf, "", "1.0", "mu", [], [[]], [1.0, [2.0, "x"]], {},
                 {"mu": {"lambda": [None]}}]


def paths(doc, prefix=()):
    """The path of doc and of every value in it: dict keys, list indices."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from paths(value, (*prefix, key))


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
@given(data=st.data())
def test_mutated_golden_config_keeps_the_exit_contract(case, data):
    # A golden config with one key dropped, or one value replaced by a
    # pool value, still exits 0, 2 or 3, never 4 (an internal error), with
    # no traceback; a failure is one stderr line and leaves --out empty.
    command, doc = GOLDEN_CASES[case]
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    drop = bool(path) and data.draw(st.booleans(), label="drop")
    value = None if drop else data.draw(st.sampled_from(MUTANT_VALUES),
                                        label="value")
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    else:
        doc = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "o"
        cfg.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, [command, "--config", str(cfg),
                                        "--out", str(out)])
        assert res.exit_code in (0, 2, 3), res.output
        assert "Traceback" not in res.stdout + res.stderr
        if res.exit_code:
            assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
            assert files_in(out) == []


@pytest.mark.parametrize("command, doc, name", [
    # mu this small overflows the drift geometry (radius, g1/g4 curves).
    ("regions", {"params": dict(P0, mu=1e-320)}, "regions.json"),
    ("sweep", dict(SWEEP, grid={"mu": [1e-320]}), "geometry.json"),
    # At 5e-324 a divisor of the geometry underflows to 0: inf, not a
    # ZeroDivisionError (exit 4).
    ("regions", {"params": dict(P0, mu=5e-324)}, "regions.json"),
    ("regions", {"params": dict(P0, zeta=5e-324)}, "regions.json"),
    ("sweep", dict(SWEEP, grid={"mu": [5e-324]}), "geometry.json"),
    # Noise this large overflows the variances in stats.json.
    ("simulate", dict(SIM, params=dict(P0, sigma=1e200)), "stats.json"),
    # So does a backlog past about 1.3e154 that stays under the guard.
    ("simulate", {"params": {**P0, "lambda": 0.3, "mu": -0.02, "sigma": 3.0},
                  "x0": [-5.0, 5.0], "steps": 20000, "seed": 0}, "stats.json"),
], ids=["regions", "sweep", "regions-subnormal-mu", "regions-subnormal-zeta",
        "sweep-subnormal-mu", "simulate", "simulate-growing"])
def test_non_finite_json_exit_3_one_line(runner, tmp_path, command, doc, name):
    out = tmp_path / "o"
    res = runner.invoke(main, [command, "--config", write_config(tmp_path, doc),
                               "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == (f"error: {name}: a result is NaN or infinite, "
                          "which JSON cannot hold\n")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("point, index", [([1e200, 1.0], 1),
                                          ([1e308, 1e308], 0)],
                         ids=["nan-drifts", "infinite-paper-formula"])
def test_non_finite_drift_exit_3_one_line(runner, tmp_path, point, index):
    # 1e200 overflows the exact and Monte Carlo drifts to NaN; at 1e308
    # the closed form reads -inf as well.
    points = [[1.0, 1.0], point] if index else [point]
    out = tmp_path / "o"
    res = runner.invoke(main, ["drift", "--config",
                               write_config(tmp_path, dict(DRIFT, points=points)),
                               "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == (f"error: drift_report.csv: point {index} has a NaN "
                          "or infinite result\n")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("case", ["drift-points", "drift-per-region"])
def test_huge_negative_mu_drift_exit_3_one_line(runner, tmp_path, case):
    # mu ** 3 overflows at mu = -1e308: the D1 paper drift is then inf, not
    # an OverflowError (exit 4).  Point 0 lies in D1 in both configs.
    command, doc = GOLDEN_CASES[case]
    doc = dict(doc, params=dict(doc["params"], mu=-1e308))
    out = tmp_path / "o"
    res = runner.invoke(main, [command, "--config", write_config(tmp_path, doc),
                               "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == ("error: drift_report.csv: point 0 has a NaN or "
                          "infinite result\n")
    assert not out.exists() or list(out.iterdir()) == []


def test_manifest_records_usable_cpus(runner, tmp_path, monkeypatch):
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        res = runner.invoke(main, ["regions", "--config",
                                   write_config(tmp_path, {"params": P0}),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {"usable_cpus": cpus}


# The golden cases, and a sweep with no positive mu, so no drift geometry.
MANIFEST_CASES = dict(GOLDEN_CASES, **{"sweep-no-positive-mu": (
    "sweep", dict(GOLDEN_CASES["sweep"][1], grid={"mu": [-0.6, -0.1]}))})
# The files each case writes besides manifest.json, in write order.
OUTPUTS = {
    "simulate": ["trajectory.csv", "stats.json"],
    "drift-points": ["drift_report.csv"],
    "drift-per-region": ["drift_report.csv"],
    "sweep": ["verdicts.csv", "geometry.json"],
    "sweep-no-positive-mu": ["verdicts.csv"],
    "regions": ["regions.json"],
    "regions-negative-mu": ["regions.json"],
    "thermal": ["ledger.json"],
    "thermal-heat-pump": ["ledger.json"],
}


@pytest.mark.parametrize("case", MANIFEST_CASES)
def test_manifest_lists_every_file_written(runner, tmp_path, case):
    command, doc = MANIFEST_CASES[case]
    out = tmp_path / "o"
    res = runner.invoke(main, [command, "--config", write_config(tmp_path, doc),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == OUTPUTS[case]
    assert files_in(out) == sorted([*outputs, "manifest.json"])


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
    assert files_in(tmp_path / "o") == []


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
def test_trajectory_chunks_match_csv_writer(tmp_path, p0, n_rows):
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-5, 0.1, 1e16, 1e17,
                         1e300, -1e300, 2.0 ** 53 + 1, np.nan, np.inf, -np.inf,
                         *breakpoints(p0), p0.r_star])
    rng = np.random.default_rng(n_rows)
    # R and Z start and end at different special values, so each special R
    # meets several special Zs, and the last chunk holds them too.
    k = min(specials.size, n_rows)
    r, z = rng.normal(size=n_rows) * 10.0, rng.exponential(size=n_rows) * 10.0
    r[:k], z[:k] = specials[:k], np.roll(specials, -3)[:k]
    r[-k:], z[-k:] = np.roll(specials, -5)[:k], np.roll(specials, -8)[:k]
    with np.errstate(over="ignore", invalid="ignore"):
        columns = [np.arange(n_rows) * 7, r, z,
                   np.array(["D1", "D2", "D3", "D4"])[region_codes(p0, r)],
                   expressed_backlog(p0, z), frustrated_demand(r),
                   ramp_control(p0, r), lyap_h(p0, (r, z))]
        path = tmp_path / "trajectory.csv"
        with atomic_file(path) as fh:
            _write_trajectory(Trajectory(p0, 7, r, z), fh, tmp_path)
    assert path.read_bytes() == reference_trajectory_csv(columns).encode()


def test_paper_default_trajectory_makes_no_scalar_call(tmp_path, monkeypatch):
    # At the paper's defaults the backlog contracts outside D1, so Z and
    # B = lambda Z pass below 1e-270 into subnormals and reach 0, and are
    # written in e-notation; fmt_floats lays out every field of such a run
    # without fmt_float.  A near-tie (q within 1e-9 of a half-integer,
    # about 2e-9 of fields) would still go to fmt_float; this fixed run
    # has none.
    sim, _ = parse_simulate({"params": P0, "x0": [0, 5], "steps": 10_000, "seed": 0})
    _, traj = simulate(sim)
    assert ((traj.z > 0.0) & (traj.z < 2.0 ** -1022)).any()
    assert (traj.z == 0.0).any()
    calls = []
    monkeypatch.setattr(floatfmt, "fmt_float", lambda x: calls.append(x) or fmt_float(x))
    use_cpus(monkeypatch, 1)  # one share, formatted in this process
    with open(tmp_path / "trajectory.csv", "wb") as fh:
        _write_trajectory(traj, fh, tmp_path)
    assert b"e-" in (tmp_path / "trajectory.csv").read_bytes()
    assert calls == []


def test_trajectory_h_lyap_may_read_inf(runner, tmp_path):
    # H_lyap overflows to inf once |R + lambda Z| or |R + (lambda + mu) Z|
    # passes about 1.3e154; R and Z stay inside the 1e300 guard, so the run
    # exits 0.  README lists H_lyap as the one field that can be inf.
    cfg = write_config(tmp_path, {"params": P0, "x0": [1e160, 0.0], "steps": 20})
    out = tmp_path / "o"
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    sim, _ = parse_simulate(json.loads(Path(cfg).read_text()))
    _, traj = simulate(sim)
    p, r, z = traj.params, traj.r, traj.z
    with np.errstate(over="ignore"):
        h = lyap_h(p, (r, z))
    assert np.isinf(h).all()
    columns = [np.arange(r.size), r, z,
               np.array(["D1", "D2", "D3", "D4"])[region_codes(p, r)],
               expressed_backlog(p, z), frustrated_demand(r), ramp_control(p, r), h]
    text = (out / "trajectory.csv").read_text()
    assert text == reference_trajectory_csv(columns)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 21
    assert {row["H_lyap"] for row in rows} == {fmt_float(math.inf)} == {"inf"}
    for row in rows:
        assert all(math.isfinite(float(v)) for k, v in row.items()
                   if k not in ("region", "H_lyap"))


def test_drift_report_blank_only_where_not_applicable(runner, tmp_path):
    # README's field list: paper_formula is blank just where paper_kind
    # reads not-applicable (D1 at mu = 0), agree_paper there and where it
    # reads expression (D3 and D4 at mu <= 0), and no field is nan or inf.
    # The two golden drift configs, and mu = 0 at a D1 and a D3 point.
    docs = [GOLDEN_CASES["drift-points"][1], GOLDEN_CASES["drift-per-region"][1],
            dict(DRIFT, params=dict(P0, mu=0.0), points=[[-1.0, 2.0], [2.5, 1.0]])]
    kinds = []
    for i, doc in enumerate(docs):
        cfg = write_config(tmp_path, doc, f"drift-{i}.json")
        out = tmp_path / f"o{i}"
        res = runner.invoke(main, ["drift", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = (out / "drift_report.csv").read_text()
        for row in csv.DictReader(io.StringIO(text)):
            assert all(math.isfinite(float(row[k]))
                       for k in ("r", "z", "exact", "mc_mean", "mc_stderr"))
            assert row["region"] in ("D1", "D2", "D3", "D4")
            assert row["agree_mc"] in ("true", "false")
            kind = row["paper_kind"]
            kinds.append(kind)
            if kind == "not-applicable":
                assert row["region"] == "D1" and doc["params"]["mu"] == 0.0
                assert row["paper_formula"] == row["agree_paper"] == ""
                continue
            assert math.isfinite(float(row["paper_formula"]))
            if kind == "expression":
                assert row["region"] in ("D3", "D4")
                assert doc["params"]["mu"] <= 0.0
                assert row["agree_paper"] == ""
            else:
                assert kind in ("exact", "upper_bound")
                assert row["agree_paper"] in ("true", "false")
    assert set(kinds) == {"exact", "upper_bound", "expression",
                          "not-applicable"}
    assert kinds[-2:] == ["not-applicable", "expression"]


def test_import_leaves_scipy_stats_out():
    # No scipy module at all: the package needs numpy and click only.
    src = str(Path(gridlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, gridlab.cli; "
         "print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# Runs command argv[2] on config argv[3] (JSON) through main() in
# directory argv[1] and prints whether numpy.ma was imported.
NUMPY_MA_CHILD = """
import json, sys
from pathlib import Path
from gridlab.cli import main

work, command = Path(sys.argv[1]), sys.argv[2]
(work / "config.json").write_text(sys.argv[3])
try:
    main([command, "--config", str(work / "config.json"), "--out", str(work / "out")])
except SystemExit as exc:
    if exc.code:
        raise
print("numpy.ma" in sys.modules)
"""


def loads_numpy_ma(tmp_path, command, doc):
    """Whether ``gridlab command`` on ``doc`` imports numpy.ma, in a fresh
    interpreter; skips where importing numpy alone loads it."""
    src = str(Path(gridlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    if bare.stdout.strip() != "False":
        pytest.skip("import numpy loads numpy.ma here")
    res = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_CHILD, str(tmp_path), command, json.dumps(doc)],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return {"True": True, "False": False}[res.stdout.strip()]


def test_sweep_leaves_numpy_ma_out(tmp_path):
    # np.median imports numpy.ma on its first call; the growth probe's
    # median does without it.
    assert not loads_numpy_ma(tmp_path, "sweep", {
        "params": P0, "grid": {"mu": [-0.1, 0.1]}, "steps": 2000, "burn_in": 200,
        "n_seeds": 4})


def test_simulate_leaves_numpy_ma_out(tmp_path):
    # np.quantile imports numpy.ma on its first call; the summary's
    # quantiles do without it.
    assert not loads_numpy_ma(tmp_path, "simulate", {
        "params": P0, "x0": [0, 0], "steps": 2000, "burn_in": 200})


# Runs each case of argv[2] (a JSON object name -> [command, config])
# through main() in directory argv[1], with every scipy import failing,
# and prints the digests of the outputs.
NO_SCIPY_CHILD = """
import hashlib, json, sys
from pathlib import Path

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(name + " is blocked")

sys.meta_path.insert(0, NoScipy())
from gridlab.cli import main

work, digests = Path(sys.argv[1]), {}
for name, (command, doc) in json.loads(sys.argv[2]).items():
    cfg, out = work / (name + ".json"), work / name
    cfg.write_text(json.dumps(doc))
    try:
        main([command, "--config", str(cfg), "--out", str(out)])
    except SystemExit as exc:
        if exc.code:
            raise
    digests[name] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in sorted(out.iterdir()) if f.name != "manifest.json"}
print(json.dumps(digests))
"""


def test_commands_run_without_scipy(tmp_path):
    from test_golden import CASES, GOLDEN
    cases = {name: case for name, case in CASES.items()
             if case[0] in ("simulate", "sweep", "drift")}
    src = str(Path(gridlab.__file__).resolve().parent.parent)
    res = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, str(tmp_path), json.dumps(cases)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {name: GOLDEN[name] for name in cases}


@pytest.mark.usefixtures("no_child_left")
class TestTrajectoryParts:
    """trajectory.csv formatted in forked parts, one per usable CPU."""

    def simulate(self, runner, tmp_path, rows, record_every=1, name="out"):
        cfg = write_config(tmp_path, {
            "params": P0, "x0": [0.0, 0.0], "steps": (rows - 1) * record_every,
            "seed": 5, "record_every": record_every})
        out = tmp_path / name
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        return res, out

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_bytes_do_not_depend_on_cpu_count(self, runner, tmp_path, monkeypatch,
                                              record_every):
        rows = 3 * _CHUNK_ROWS + 5
        pids = count_forks(monkeypatch)
        texts, forks = [], []
        for cpus in (1, 2, 3, 4):
            use_cpus(monkeypatch, cpus)
            res, out = self.simulate(runner, tmp_path, rows, record_every,
                                     name=f"cpus{cpus}")
            assert res.exit_code == 0, res.output
            texts.append((out / "trajectory.csv").read_bytes())
            forks.append(len(pids))
            assert sorted(p.name for p in out.iterdir()) == [
                "manifest.json", "stats.json", "trajectory.csv"]
        assert texts[0].count(b"\n") == rows + 1
        assert texts[1:] == texts[:1] * 3
        # One child per part after the first; three chunks make three parts.
        assert forks == [0, 1, 3, 5]

    def test_fewer_than_two_chunks_never_fork(self, runner, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 4)
        pids = count_forks(monkeypatch)
        res, _ = self.simulate(runner, tmp_path, 2 * _CHUNK_ROWS - 1, name="short")
        assert res.exit_code == 0, res.output
        assert pids == []
        res, _ = self.simulate(runner, tmp_path, 2 * _CHUNK_ROWS, name="two")
        assert res.exit_code == 0, res.output
        assert len(pids) == 1

    def test_failed_fork_formats_here(self, runner, tmp_path, monkeypatch):
        rows = 3 * _CHUNK_ROWS + 5
        use_cpus(monkeypatch, 1)
        res, out = self.simulate(runner, tmp_path, rows, name="one")
        assert res.exit_code == 0, res.output
        want = (out / "trajectory.csv").read_bytes()

        use_cpus(monkeypatch, 4)
        count_forks(monkeypatch, working=0)
        res, out = self.simulate(runner, tmp_path, rows, name="no-fork")
        assert res.exit_code == 0, res.output
        assert (out / "trajectory.csv").read_bytes() == want

    def test_failed_part_exit_4_one_line(self, runner, tmp_path, monkeypatch):
        parent, real_rows = os.getpid(), gridlab.cli._rows

        def rows(traj, lo, hi):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            return real_rows(traj, lo, hi)

        monkeypatch.setattr(gridlab.cli, "_rows", rows)
        use_cpus(monkeypatch, 4)
        res, out = self.simulate(runner, tmp_path, 3 * _CHUNK_ROWS + 5)
        assert res.exit_code == 4
        assert res.stdout == ""
        assert res.stderr.startswith("error: trajectory.csv share 2 of 3 ")
        assert res.stderr.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_killed_part_exit_4_one_line(self, runner, tmp_path, monkeypatch):
        # A part that dies by a signal, not by an exception.
        parent, real_rows = os.getpid(), gridlab.cli._rows

        def rows(traj, lo, hi):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_rows(traj, lo, hi)

        monkeypatch.setattr(gridlab.cli, "_rows", rows)
        use_cpus(monkeypatch, 4)
        res, out = self.simulate(runner, tmp_path, 3 * _CHUNK_ROWS + 5)
        assert res.exit_code == 4
        assert res.stdout == ""
        assert res.stderr == ("error: trajectory.csv share 2 of 3 failed in a "
                              "child process (exit status -9)\n")
        assert list(out.iterdir()) == []

    def test_writer_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch,
                                                   p0):
        # Each block's columns are derived just before it is formatted, so
        # the writer peaks the same at 4 and at 40 chunks, well within the
        # eight 8-byte columns of one chunk.  One whole-horizon column held
        # at 40 chunks would add 36 chunks of it.
        use_cpus(monkeypatch, 1)
        rng = np.random.default_rng(6)
        peaks = []
        for chunks in (4, 40):
            n = chunks * _CHUNK_ROWS
            traj = Trajectory(p0, 1, rng.normal(size=n) * 4.0,
                              rng.exponential(size=n) * 4.0)
            with open(tmp_path / "trajectory.csv", "wb") as fh:
                tracemalloc.start()
                try:
                    _write_trajectory(traj, fh, tmp_path)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 64 * _CHUNK_ROWS

    def test_writer_peak_above_the_chain(self, tmp_path, monkeypatch, p0):
        # Four chunks in one part: columns derived a block at a time and
        # fmt_floats' temporaries let go once dead hold about 1.1 MB above
        # the chain.  A writer that derives each 8192-row chunk's columns
        # whole peaks near 3.3 MB.
        use_cpus(monkeypatch, 1)
        rng = np.random.default_rng(6)
        n = 4 * _CHUNK_ROWS
        traj = Trajectory(p0, 1, rng.normal(size=n) * 4.0,
                          rng.exponential(size=n) * 4.0)
        floatfmt.fmt_floats(np.empty(0))  # its tables, built once per process
        with open(tmp_path / "trajectory.csv", "wb") as fh:
            tracemalloc.start()
            try:
                _write_trajectory(traj, fh, tmp_path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 1.5e6

    def test_tables_built_once_before_the_fork(self, runner, tmp_path,
                                               monkeypatch):
        # The parent builds fmt_floats' lookup tables before forked()
        # starts the shares, so no share builds its own copy.
        tables = [floatfmt._pow10_table, floatfmt._group_tables,
                  floatfmt._keep_table]
        for table in tables:
            table.cache_clear()
        built, real_forked = [], gridlab.cli.forked

        def forked(*args):
            built.append([table.cache_info().currsize for table in tables])
            return real_forked(*args)

        monkeypatch.setattr(gridlab.cli, "forked", forked)
        use_cpus(monkeypatch, 4)
        res, _ = self.simulate(runner, tmp_path, 3 * _CHUNK_ROWS + 5)
        assert res.exit_code == 0, res.output
        assert built == [[1, 1, 1]]
