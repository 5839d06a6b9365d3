"""Golden SHA-256 digests of CLI outputs from small fixed configs.

Every output file except ``manifest.json`` (which records wall-clock time)
is pinned, so a refactor of the dynamics, the drift routes or the writers
shows up here as soon as one byte changes.  Regenerate the digests only
when an output is meant to change, and say why in CHANGES.md.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from gridlab.cli import main

P0 = {"lambda": 0.5, "mu": 0.1, "zeta": 1.0, "xi": 1.0, "r_star": 3.0,
      "sigma": 1.0}

B0_SCENARIO = {
    "building": {"k_leak": 1.0, "c_inertia": 9.0, "eps": 3.0},
    "theta": [0.0, 0.0, 0.0], "demand": [1.0, 1.0, 1.0], "t0_temp": 3.0,
    "tau": 3}

# Explicit drift points include each breakpoint 0, r*-zeta and r*+xi.
CASES = {
    "simulate": ("simulate", {
        "params": P0, "x0": [-5.0, 3.0], "steps": 3000, "burn_in": 300,
        "seed": 11, "record_every": 3}),
    "drift-points": ("drift", {
        "params": P0,
        "points": [[-1.0, 2.0], [0.0, 1.0], [2.0, 1.0], [2.5, 1.0],
                   [4.0, 0.5], [10.0, 3.0]],
        "mc_samples": 2000, "seed": 3}),
    "drift-per-region": ("drift", {
        "params": dict(P0, mu=-0.1), "per_region": 2, "mc_samples": 1000,
        "seed": 4}),
    "sweep": ("sweep", {
        "params": P0, "grid": {"mu": [-0.6, -0.1, 0.1, 0.9]},
        "steps": 3000, "burn_in": 300, "n_seeds": 3, "seed": 2}),
    "regions": ("regions", {"params": P0}),
    "regions-negative-mu": ("regions", {"params": dict(P0, mu=-0.1)}),
    "thermal": ("thermal", B0_SCENARIO),
    "thermal-heat-pump": ("thermal", dict(B0_SCENARIO, eps_prime=2)),
}

GOLDEN = {
    "drift-per-region": {
        "drift_report.csv":
            "9c64eaec12419f7c4073fe5f3ede3db22ddde9f4d9a39fd7129ee512e9a88df1",
    },
    "drift-points": {
        "drift_report.csv":
            "abf3463014baa1b2cd8716f31c944109acca5c5f3d7906299b70eeb9a62c91ad",
    },
    "regions": {
        "regions.json":
            "df150922a1066e4b4097f05de6947ae4acf7736b3bb0df93918569c9cf03e2dc",
    },
    "regions-negative-mu": {
        "regions.json":
            "88a2f1d3d67b3870d373efa5a70ea910f93bb6eee0420ab855503514c74ac306",
    },
    "simulate": {
        "stats.json":
            "2131d981049efd3dbdb3ea0592dfd78776b646ca17cefe2d2f404a8c7b2ca905",
        "trajectory.csv":
            "d2038c243b1bb2cfaac81703ae9e518fbad4891b133772ac69afaea8129abb53",
    },
    "sweep": {
        "geometry.json":
            "d46143dd278f30be5cf909e42faea7c6490d6f16beb61a3f8b966753f848d431",
        "verdicts.csv":
            "3b350072b4a4c2a3322f57cdaa119055d0a3707d7568e525701f7e114b97770c",
    },
    "thermal": {
        "ledger.json":
            "3fe4ccae78b2bd4327148b0ce5158e670f1de30a13b461e9477b19304bd0c099",
    },
    "thermal-heat-pump": {
        "ledger.json":
            "bca8b4f30a5eedd92c09344339f3a78872d7554d430533d2977456e6c901dba3",
    },
}


def output_digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.name != "manifest.json"}


def run_command(command, doc, run_dir):
    run_dir.mkdir()
    cfg = run_dir / "config.json"
    cfg.write_text(json.dumps(doc))
    out = run_dir / "out"
    res = CliRunner().invoke(main, [command, "--config", str(cfg),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    command, doc = CASES[name]
    assert output_digests(run_command(command, doc, tmp_path / "a")) \
        == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_manifest_echo_reruns_identically(name, tmp_path):
    """A manifest's ``config`` is itself a config that gives the same run."""
    command, doc = CASES[name]
    out = run_command(command, doc, tmp_path / "a")
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert output_digests(run_command(command, echo, tmp_path / "b")) \
        == GOLDEN[name]
