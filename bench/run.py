"""gridlab benchmark: fixed CLI workloads, end to end and split by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gridlab checkout; it uses the sources in
``src/`` and needs nothing built.  The seed makes the workload's inputs.
The load is a closed loop with one client: one ``gridlab`` command at a
time, each in a fresh interpreter (``bench/child.py``), so import cost is
measured in every command and nothing is cached between commands.  After
one untimed warm-up import, commands run back to back for S seconds: a
command starts only if one of typical length still ends in time (at
least 3 commands; 4 when tracing).

Workloads, all on the paper's defaults (lambda=0.5, mu=0.1, zeta=xi=1,
r*=3, sigma=1) unless stated:

* ``simulate-records``: ``simulate``, 2e5 steps, every step recorded.
  Output-heavy: row formatting in ``cli`` dominates, the chain kernel is
  a small share.  An item is one simulated step.
* ``sweep-regimes``: ``sweep`` over mu in {-0.7, ..., 0.3} x lambda in
  {0.3, 0.5}, 16 points across all three decidable regimes, 5e4 steps,
  64 growth seeds, one worker.  Kernel-heavy.  An item is one grid point.

With ``--trace 0`` the last line reports the end-to-end metrics of the
commands: the median set-up time (process spawn until ``gridlab.cli`` is
imported), and the means of run time (the ``main([...])`` call) and peak
RSS; items per second of run time, medians and quartiles, the failed
fraction and false verdicts are printed above it.  Run time is a mean, not
a median, because on a 2-vCPU x86_64 VM whose speed alternates between
fast and slow phases of 5-10 commands a run's median flips with the phase,
while its mean follows the share of each.  An operation, for the failed
fraction, is one simulate run or one grid point.

With ``--trace 1`` commands alternate between plain and traced; traced
ones run under ``-X importtime`` with timing wrappers around each module's
public functions, and the last line reports per-layer metrics (medians
over traced commands) plus the tracing overhead (traced minus plain run
time).

Every command's outputs are digested (SHA-256, all files but
``manifest.json``); the first command's outputs are checked by
``checks.py`` and every later command must reproduce its digests.  The
digests are also compared with those the seed commit wrote, kept in
``golden.json``; a mismatch is reported, not failed, because a change may
alter outputs on purpose.

Not measured: ``dynamics`` (no hot-path caller; the kernel inlines its
arithmetic, so its cost shows as ``montecarlo.self_s``), ``thermal`` (O(tau)
arithmetic, no workload worth sizing) and the ``--threads`` process pool
(two cores give no steady scaling figures).

Summary lines and a results file under ``.bench_runs/results/`` carry the
environment, quartiles, operation counts, false verdicts and digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
GOLDEN = BENCH / "golden.json"

# A run must end within 180 s: the loop stops starting commands after
# MAX_LOOP_S even below the minimum count, and a command gets CHILD_TIMEOUT_S.
CHILD_TIMEOUT_S = 50
MAX_LOOP_S = 90

PAPER_PARAMS = {"lambda": 0.5, "mu": 0.1, "zeta": 1.0, "xi": 1.0,
                "r_star": 3.0, "sigma": 1.0}


@dataclass(frozen=True)
class Workload:
    command: str
    item: str
    config: Callable[[random.Random], dict]
    items: Callable[[dict], int]  # items per command, for items_per_s
    ops: Callable[[dict], int]  # operations per command, for failed_frac
    check: Callable[[Path, dict], tuple[int, list[str], dict]]


def _simulate_config(rng: random.Random) -> dict:
    return {"params": PAPER_PARAMS,
            "x0": [round(rng.uniform(-5.0, 5.0), 6), round(rng.uniform(0.0, 10.0), 6)],
            "steps": 200_000, "burn_in": 1_000, "seed": rng.getrandbits(32),
            "record_every": 1}


def _sweep_config(rng: random.Random) -> dict:
    return {"params": PAPER_PARAMS,
            "grid": {"mu": [-0.7, -0.5, -0.3, -0.1, 0.05, 0.1, 0.2, 0.3],
                     "lambda": [0.3, 0.5]},
            "steps": 50_000, "burn_in": 10_000, "n_seeds": 64,
            "seed": rng.getrandbits(32)}


def _grid_points(cfg: dict) -> int:
    return len(cfg["grid"]["mu"]) * len(cfg["grid"]["lambda"])


WORKLOADS = {
    "simulate-records": Workload(
        "simulate", "step", _simulate_config, lambda c: c["steps"], lambda c: 1,
        checks.check_simulate),
    "sweep-regimes": Workload(
        "sweep", "grid point", _sweep_config, _grid_points, _grid_points,
        checks.check_sweep),
}

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB")]
# The end-to-end metrics of the result line.  items_per_s is printed only:
# with a fixed item count per workload it is a reciprocal of run_s, so it
# adds no information and its quartile spread is wider.
REPORTED = ("setup_s", "run_s", "peak_rss_mb")
# Reported as the median over a run's commands; the others as the mean.
MEDIAN_OF = ("setup_s",)

IMPORTED = ["gridlab", "gridlab.cli", "gridlab.montecarlo", "gridlab.lyapunov",
            "gridlab.rng", "scipy.stats", "scipy.special", "numpy", "click"]
MC_SPANS = {"montecarlo.simulate", "montecarlo.sweep", "montecarlo.two_chain",
            "montecarlo.growth", "montecarlo.monotone"}
CHAIN_SPANS = {"montecarlo.simulate", "montecarlo.two_chain", "montecarlo.growth",
               "montecarlo.monotone"}
PER_LAYER = (
    [("setup.import_s.total", "s")]
    + [(f"setup.import_s.{m}", "s") for m in IMPORTED]
    + [("cli.self_s", "s"), ("cli.rows_written", "count"), ("cli.ns_per_field", "ns"),
       ("lyapunov.lyap_h_calls", "count"),
       ("config.load_s", "s"), ("config.parse_s", "s"), ("config.write_s", "s"),
       ("config.bytes_written", "bytes"),
       ("montecarlo.two_chain_s", "s"), ("montecarlo.growth_s", "s"),
       ("montecarlo.monotone_s", "s"), ("montecarlo.simulate_s", "s"),
       ("montecarlo.ks_s", "s"),
       ("montecarlo.self_s", "s"), ("montecarlo.chains", "count"),
       ("montecarlo.ns_per_chain_step", "ns"), ("montecarlo.point_s.p50", "s"),
       ("montecarlo.point_s.max", "s"), ("montecarlo.false_verdicts", "count"),
       ("rng.stream_calls", "count"), ("rng.stream_s", "s"), ("rng.draws", "count"),
       ("rng.gaussian_s", "s"), ("rng.ns_per_draw", "ns"),
       ("lyapunov.geometry_s", "s"),
       ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
       ("trace.spans", "count"),
       ("outputs.golden_checked", "count"), ("outputs.golden_mismatched", "count")]
)


def digests(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.name != "manifest.json"}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GRIDLAB_THREADS", None)  # one worker, whatever the caller set
    return env


def warm_up() -> None:
    """Import once untimed, so bytecode and the page cache are warm."""
    proc = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                           " import gridlab.cli", str(SRC)],
                          cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("bench: gridlab.cli does not import")


def run_child(run_dir: Path, k: int, command: str, cfg_path: Path, trace: bool) -> dict:
    """One command in a fresh interpreter; returns its record."""
    out = run_dir / f"out{k}"
    spec_path, result_path = run_dir / f"spec{k}.json", run_dir / f"result{k}.json"
    spec_path.write_text(json.dumps({
        "argv": [command, "--config", str(cfg_path), "--out", str(out)],
        "src": str(SRC), "trace": trace}))
    argv = [sys.executable, *(["-X", "importtime"] if trace else []),
            str(BENCH / "child.py"), str(spec_path), str(result_path)]
    err_path = run_dir / f"stderr{k}.txt"
    with open(err_path, "w") as err:
        spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(argv + [str(spawned)], stdout=subprocess.DEVNULL,
                                  stderr=err, cwd=ROOT, env=_child_env(),
                                  timeout=CHILD_TIMEOUT_S)
            returncode = proc.returncode
        except subprocess.TimeoutExpired:
            returncode = -1
    if returncode != 0 or not result_path.exists():
        tail = err_path.read_text()[-2000:]
        return {"ok": False, "trace": trace, "returncode": returncode, "stderr": tail}
    rec = json.loads(result_path.read_text())
    rec.update(ok=rec["exit_code"] == 0, trace=trace,
               digests=digests(out) if out.exists() else {})
    if rec["ok"] and trace:
        rec["imports"] = parse_importtime(err_path.read_text())
    elif not rec["ok"]:
        rec["stderr"] = err_path.read_text()[-2000:]
    return rec


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per module, up to the child's ready mark."""
    cumulative, total = {}, 0.0
    for line in text.splitlines():
        if line.startswith("bench-child: ready"):
            break
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        seconds = int(cum) / 1e6
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        if depth == 0:
            total += seconds
        cumulative[name.strip()] = seconds
    cumulative["total"] = total
    return cumulative


def span_metrics(rec: dict, facts: dict) -> dict[str, float]:
    """Per-layer figures of one traced command.

    A span's self time is its duration minus its direct children's and
    minus what the wrappers cost it: each child span's wrapper cost outside
    that span, and for the command span the per-row call counters (they
    count calls made while formatting rows).  Totals per name count only the
    outermost span of that name, so nested writes (``dump_json`` calling
    ``atomic_write_text``) count once.
    """
    spans, counts, costs = rec["spans"], rec["counts"], rec["wrapper_costs"]
    n = len(spans)
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    self_t = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_t[s[3]] -= dur[i] + costs["span_ns"] / 1e9
    self_t[0] -= sum(counts.values()) * costs["count_ns"] / 1e9
    names = [s[0] for s in spans]
    parent_name = [names[s[3]] if s[3] >= 0 else "" for s in spans]

    def outer(name):
        return [i for i in range(n) if names[i] == name and parent_name[i] != name]

    def total(name):
        return sum(dur[i] for i in outer(name))

    writes = [spans[i][4] for i in outer("config.write")]
    rows = sum(w[1] for w in writes)
    fields = sum(w[1] * w[2] for w in writes)
    gauss = [i for i in range(n) if names[i] == "rng.gaussian"]
    draws = sum(spans[i][4] for i in gauss)
    chain_draws = sum(spans[i][4] for i in gauss if parent_name[i] in CHAIN_SPANS)
    chain_self = sum(self_t[i] for i in range(n) if names[i] in CHAIN_SPANS)
    streams = [i for i in range(n) if names[i] == "rng.stream"]
    points = [dur[i] for i in outer("montecarlo.sweep")]
    gaussian_s = total("rng.gaussian")
    return {
        "cli.self_s": self_t[0],
        "cli.rows_written": rows,
        "cli.ns_per_field": self_t[0] * 1e9 / fields if fields else 0.0,
        "lyapunov.lyap_h_calls": counts.get("lyapunov.lyap_h_calls", 0),
        "config.load_s": total("config.load"),
        "config.parse_s": total("config.parse"),
        "config.write_s": total("config.write"),
        "config.bytes_written": sum(w[0] for w in writes),
        "montecarlo.two_chain_s": total("montecarlo.two_chain"),
        "montecarlo.growth_s": total("montecarlo.growth"),
        "montecarlo.monotone_s": total("montecarlo.monotone"),
        "montecarlo.simulate_s": total("montecarlo.simulate"),
        "montecarlo.ks_s": total("montecarlo.ks"),
        "montecarlo.self_s": sum(self_t[i] for i in range(n) if names[i] in MC_SPANS),
        "montecarlo.chains": sum(parent_name[i] in CHAIN_SPANS for i in streams),
        "montecarlo.ns_per_chain_step": chain_self * 1e9 / chain_draws if chain_draws else 0.0,
        "montecarlo.point_s.p50": statistics.median(points) if points else 0.0,
        "montecarlo.point_s.max": max(points, default=0.0),
        "montecarlo.false_verdicts": facts.get("false_verdicts", 0),
        "rng.stream_calls": len(streams),
        "rng.stream_s": total("rng.stream"),
        "rng.draws": draws,
        "rng.gaussian_s": gaussian_s,
        "rng.ns_per_draw": gaussian_s * 1e9 / draws if draws else 0.0,
        "lyapunov.geometry_s": total("lyapunov.geometry"),
        "trace.spans": n,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def golden_compare(workload: str, seed: int, ref: dict[str, str]) -> tuple[int, int]:
    """(files compared, files differing) against the seed commit's digests."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    want = golden.get("digests", {}).get(workload, {}).get(str(seed))
    if want is None:
        return 0, 0
    names = sorted(set(want) | set(ref))
    return len(names), sum(want.get(f) != ref.get(f) for f in names)


def write_config(workload: str, seed: int, run_dir: Path) -> tuple[dict, Path]:
    """The workload's config for this seed, written where the command reads it."""
    cfg = WORKLOADS[workload].config(random.Random(f"{workload}:{seed}"))
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg, cfg_path


def measure(workload: str, seed: int, seconds: float, trace: bool,
            run_dir: Path) -> tuple[Workload, dict, list[dict]]:
    """Run the closed loop; returns the workload, its config and the records."""
    wl = WORKLOADS[workload]
    cfg, cfg_path = write_config(workload, seed, run_dir)
    warm_up()
    records: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    min_commands = 4 if trace else 3
    while True:
        elapsed = time.monotonic() - start
        # Start a command only if a typical one still ends within the budget.
        typical = statistics.median(durations) if durations else 0.0
        if elapsed + typical > seconds and (len(records) >= min_commands
                                            or elapsed >= MAX_LOOP_S):
            break
        k = len(records)
        records.append(run_child(run_dir, k, wl.command, cfg_path, trace and k % 2 == 1))
        durations.append(time.monotonic() - start - elapsed)
        if k > 0:  # only the first command's outputs are kept for the checks
            shutil.rmtree(run_dir / f"out{k}", ignore_errors=True)
    return wl, cfg, records


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gridlab" / "cli.py").is_file():
        print(f"bench: no gridlab sources under {SRC}; run from a gridlab checkout",
              file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl, cfg, records = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), run_dir)
        ref = records[0]
        if not ref["ok"]:
            print(f"bench: first command failed: {ref.get('stderr', '')}", file=sys.stderr)
            return 1
        ref_failed, problems, facts = wl.check(run_dir / "out0", cfg)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # An operation is one simulate run or one grid point.  A command that
    # crashes or writes other outputs than the first fails all its
    # operations; otherwise it fails those the first command's check failed.
    n_items, n_ops = wl.items(cfg), wl.ops(cfg)
    failed = 0
    for rec in records:
        if not rec["ok"] or rec["digests"] != ref["digests"]:
            failed += n_ops
        else:
            failed += ref_failed
    attempted = n_ops * len(records)
    plain = [r for r in records if r["ok"] and not r["trace"]]
    traced = [r for r in records if r["ok"] and r["trace"]]
    if not plain or (args.trace and not traced):
        print("bench: no command succeeded in one of the modes; nothing to report",
              file=sys.stderr)
        return 1
    for r in plain + traced:
        r["items_per_s"] = n_items / r["run_s"]
    golden_checked, golden_mismatched = golden_compare(args.workload, args.seed,
                                                       ref["digests"])

    summary = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in plain]
        q1, med, q3 = quartiles(values)
        value = med if name in MEDIAN_OF else statistics.fmean(values)
        summary[name] = {"value": value, "unit": unit, "median": med,
                         "q1": q1, "q3": q3, "n": len(values)}

    layers = {}
    if args.trace:
        per_child = [span_metrics(r, facts) for r in traced]
        for r, m in zip(traced, per_child):
            m.update({f"setup.import_s.{k}": r["imports"].get(k, 0.0)
                      for k in ["total"] + IMPORTED})
        for name, unit in PER_LAYER:
            values = [m[name] for m in per_child if name in m]
            layers[name] = {"value": statistics.median(values) if values else 0.0,
                            "unit": unit}
        plain_run = statistics.median(r["run_s"] for r in plain)
        traced_run = statistics.median(r["run_s"] for r in traced)
        layers["trace.overhead_s"]["value"] = traced_run - plain_run
        layers["trace.overhead_frac"]["value"] = (traced_run - plain_run) / plain_run
        layers["outputs.golden_checked"]["value"] = golden_checked
        layers["outputs.golden_mismatched"]["value"] = golden_mismatched

    env = ref["environment"]
    print(f"gridlab-bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} commands, closed loop, 1 client, 1 command at a time; "
          f"item = {wl.item}, {n_items} per command; {n_ops} operations per command")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, s in summary.items():
        print(f"  {name:<16} {s['value']:.6g} {s['unit']}  "
              f"({'median' if name in MEDIAN_OF else 'mean'}; median {s['median']:.6g}, "
              f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}; n={s['n']})")
    print(f"  {'failed_frac':<16} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    if "false_verdicts" in facts:
        print(f"  {'false_verdicts':<16} {facts['false_verdicts']} count  "
              f"(decidable grid points against the regime theorem, per command)")
    for name, value in facts.items():
        if name != "false_verdicts":
            print(f"  {name:<16} {value}")
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    agree = sum(r["ok"] and r["digests"] == ref["digests"] for r in records)
    print(f"  digests: {agree} of {len(records)} commands reproduce the first; "
          f"seed-commit golden: {golden_checked - golden_mismatched} of {golden_checked} "
          f"files match")
    for fname, digest in ref["digests"].items():
        print(f"    {fname} {digest}")
    if args.trace:
        for name, m in layers.items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        (results / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "extra"],
             "spans": traced[0]["spans"]}))
    (results / f"{stem}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "config": cfg,
                    "environment": env, "attempted": attempted, "failed": failed,
                    "problems": problems, "facts": facts, "end_to_end": summary,
                    "per_layer": layers, "digests": ref["digests"],
                    "golden": {"checked": golden_checked, "mismatched": golden_mismatched},
                    "commands": [{k: v for k, v in r.items() if k != "spans"}
                                 for r in records]}, indent=1))

    metrics = layers if args.trace else {name: summary[name] for name in REPORTED}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
