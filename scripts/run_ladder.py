#!/usr/bin/env python3
"""Run the 20-step hot-wall cooldown on the mesh ladder and check each rung.

    python scripts/run_ladder.py [--up-to RUNG]

The rungs are 16x8x4, 24x12x4, 32x16x4, 48x24x4, 64x32x8, 96x48x8 and
128x64x8 (n_ax x n_az x n_th, with a channel of n_ax cells); --up-to stops
after the named rung, and the default stops at 64x32x8.  Each rung runs in
its own subprocess, so that its peak RSS is its own, with one BLAS thread
unless the environment sets the thread counts.  For each rung the script
prints the unknowns, the lower half-width kl of the stacked azimuthal-mode
band that the chord solver factors (n_th + 5 on every rung), the Newton
iterations, the Jacobian builds, the pivot rows their factorizations of
that band interchanged (0: every chord solve took the two triangle solves;
otherwise dgbtrs), the set-up seconds, the seconds spent building (and
factoring) and in chord solves, the run seconds and the peak RSS.  The
set-up seconds (`setup_s`) are the median of five constructions
(`build_problem`, `build_scenario` and `make_simulation`) after one
untimed warm-up, as `bench/run.py` times its `setup_s`, so first-use costs
stay out of them; the last construction is the one that runs.

It exits non-zero if a rung fails: a step fails, or a step fails a run
gate (`phmix.driver.run_gate_failures`): its coupling power residual
exceeds 1e-12 of its |P_couple_heat|, or the total entropy falls.
"""

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time

RUNGS = ("16x8x4", "24x12x4", "32x16x4", "48x24x4", "64x32x8", "96x48x8",
         "128x64x8")
DEFAULT_TOP = "64x32x8"
STEPS = 20
SETUP_REPEATS = 5  # timed constructions per rung, after one warm-up
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_rung(rung: str) -> dict:
    """One rung in this process: the figures and the failed checks."""
    from phmix import build_problem, build_scenario, default_config, \
        make_simulation
    from phmix.driver import run_gate_failures

    n_ax, n_az, n_th = map(int, rung.split("x"))
    cfg = default_config(geometry={"n_ax": n_ax, "n_az": n_az, "n_th": n_th,
                                   "n_fluid": n_ax})
    cfg = dataclasses.replace(cfg, sim=dataclasses.replace(
        cfg.sim, t_end=STEPS * cfg.sim.dt))
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first is the warm-up
        problem = setup = sim = None  # one construction alive at a time
        t0 = time.perf_counter()
        problem = build_problem(cfg)
        setup = build_scenario(cfg.scenario, problem.heat, problem.fluid,
                               cfg.scenario_params)
        sim = make_simulation(problem, cfg, setup)
        times.append(time.perf_counter() - t0)
    setup_s = statistics.median(times[1:])
    result = sim.run(setup)
    return {"rung": rung, "unknowns": sim.chord.n, "kl": sim.chord.layout.kl,
            "newton": result.newton_iterations,
            "builds": result.jacobian_builds,
            "interchanges": result.row_interchanges, "setup_s": setup_s,
            "build_s": result.jacobian_build_s,
            "solve_s": result.chord_solve_s, "run_s": result.wall_time,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "problems": run_gate_failures(result.ledger)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--up-to", choices=RUNGS, default=DEFAULT_TOP,
                        help=f"last rung to run (default {DEFAULT_TOP})")
    parser.add_argument("--rung", help=argparse.SUPPRESS)  # one child run
    args = parser.parse_args()
    if args.rung:
        print(json.dumps(run_rung(args.rung)))
        return 0

    rungs = RUNGS[:RUNGS.index(args.up_to) + 1]
    env = dict(os.environ)
    for var in BLAS_THREADS:
        env.setdefault(var, "1")
    print(f"{'rung':>8} {'unknowns':>8} {'kl':>4} {'newton':>6} "
          f"{'builds':>6} {'interchanges':>12} {'setup_s':>8} {'build_s':>8} "
          f"{'solve_s':>8} {'run_s':>7} {'rss_MB':>7}")
    failed = 0
    for rung in rungs:
        proc = subprocess.run([sys.executable, __file__, "--rung", rung],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed += 1
            print(f"{rung:>8} failed:\n{proc.stderr}", end="")
            continue
        row = json.loads(proc.stdout.splitlines()[-1])
        print(f"{rung:>8} {row['unknowns']:>8} {row['kl']:>4} "
              f"{row['newton']:>6} {row['builds']:>6} "
              f"{row['interchanges']:>12} {row['setup_s']:>8.4f} "
              f"{row['build_s']:>8.3f} {row['solve_s']:>8.3f} "
              f"{row['run_s']:>7.3f} "
              f"{row['peak_rss_mb']:>7.1f}")
        for problem in row["problems"]:
            failed += 1
            print(f"{rung:>8} FAIL: {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
