"""Record the output digests of every workload for seeds 0-31.

    python3 bench/record_golden.py

Runs each workload's command once for each of seeds 0-31, checks its
outputs, and writes the SHA-256 of each output file (all but
``manifest.json``) to ``bench/golden.json``.  ``run.py`` compares every run with this file, so
record it only from a commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SEEDS = range(32)


def main() -> int:
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"

    doc = {"commit": commit, "environment": None, "digests": {}}
    for workload, wl in run.WORKLOADS.items():
        per_seed = doc["digests"].setdefault(workload, {})
        for seed in SEEDS:
            run_dir = run.WORK / f"golden-{workload}-{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            try:
                cfg, cfg_path = run.write_config(workload, seed, run_dir)
                rec = run.run_child(run_dir, 0, wl.command, cfg_path, False)
                if not rec["ok"]:
                    sys.exit(f"{workload} seed {seed}: command failed: {rec.get('stderr')}")
                failed, problems, _ = wl.check(run_dir / "out0", cfg)
                if failed or problems:
                    sys.exit(f"{workload} seed {seed}: outputs fail checks: {problems}")
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            per_seed[str(seed)] = rec["digests"]
            doc["environment"] = rec["environment"]
            print(f"{workload} seed {seed}: {len(rec['digests'])} files", flush=True)
    run.GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
