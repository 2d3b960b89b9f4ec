#!/usr/bin/env python3
"""Measure this checkout once on the benchmark and the mesh ladder, and
write BENCH_<pr>.json at the repository root.

    python scripts/bench_trajectory.py PR

Runs `bench/run.py --seed 1 --trace 0` once per workload that
BENCHMARK.json lists, each in its own subprocess, for BENCHMARK.json's
run_seconds, and keeps each one's result line (the end-to-end metrics,
with the correct / attempted / failed counts).  Runs every rung of
scripts/run_ladder.py, 16x8x4 through 128x64x8, one subprocess each with
one BLAS thread, and keeps each rung's figures: Newton iterations,
Jacobian builds, row interchanges, set-up seconds (the median of five
constructions after one warm-up, as `bench/run.py` times its `setup_s`),
build and solve seconds, run seconds and peak RSS.  Runs the 24x12x4 rung once more with the BLAS thread
variables unset, at the library's default thread count.  Adds machine
notes: CPU count, the Python, numpy and scipy versions, and the BLAS
library that numpy and scipy were built with.

It exits non-zero, after writing the file, if a workload's run fails or is
not correct, or if a rung fails or fails a run gate.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from run_ladder import BLAS_THREADS, RUNGS

ROOT = Path(__file__).resolve().parent.parent
LADDER = ROOT / "scripts" / "run_ladder.py"
DEFAULT_THREADS_RUNG = "24x12x4"


def child_env(blas_threads: str | None) -> dict:
    """The environment of a child run: this checkout's sources first on
    the path, and each BLAS thread variable set to `blas_threads`, or
    unset for None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in BLAS_THREADS:
        if blas_threads is None:
            env.pop(var, None)
        else:
            env[var] = blas_threads
    return env


def last_json_line(cmd: list[str], env: dict) -> tuple[dict | None, str]:
    """Run cmd from the repository root; its last stdout line parsed as
    JSON (None if it failed or printed none), and its stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    return json.loads(lines[-1]), proc.stderr


def blas_notes(config: dict) -> dict:
    blas = config["Build Dependencies"]["blas"]
    return {key: blas.get(key)
            for key in ("name", "version", "openblas configuration")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="the number in BENCH_<pr>.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    failures = []

    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        result, err = last_json_line(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", seconds, "--trace", "0"],
            child_env("1"))
        workloads[workload] = result
        if result is None or not result["correct"] or result["failed"]:
            failures.append(f"workload {workload}: {result or err}")
        print(f"{workload}: {json.dumps(result)}", flush=True)

    def rung(name, threads):
        row, err = last_json_line(
            [sys.executable, str(LADDER), "--rung", name], child_env(threads))
        if row is None or row["problems"]:
            failures.append(f"rung {name}: {row or err}")
        print(f"{name} (BLAS threads {threads or 'default'}): "
              f"{json.dumps(row)}", flush=True)
        return row

    ladder = [rung(name, "1") for name in RUNGS]
    default_threads = rung(DEFAULT_THREADS_RUNG, None)

    record = {
        "pr": args.pr,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas_notes(np.show_config(mode="dicts")),
            "scipy_blas": blas_notes(scipy.show_config(mode="dicts")),
        },
        "benchmark": {
            "command": "bench/run.py --seed 1 --trace 0 --seconds "
                       f"{seconds}, one subprocess per workload",
            "blas_threads": "1 (bench/run.py sets it)",
            "workloads": workloads,
        },
        "ladder": {
            "command": "scripts/run_ladder.py --rung RUNG, one subprocess "
                       "per rung (20 steps of hot-wall-cooldown)",
            "blas_threads": "1",
            "rungs": ladder,
        },
        "ladder_default_threads": {
            "blas_threads": "unset: the BLAS library's default",
            "rungs": [default_threads],
        },
        "failures": failures,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
