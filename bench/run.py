"""phmix benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload cooldown-pair --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` tree.  The process runs rounds of the workload until `--seconds`
have passed (always whole rounds, at least one), checks every round's
outputs, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (run_s, setup_s,
step_median_ms, peak_rss_mb), with times scaled to the host's fast state
(see speed.py); with `--trace 1` rounds alternate between
untraced and traced, the per-layer metrics come from the traced rounds, and
the spans are written to .bench_out/trace-<workload>-seed<seed>.json.
"""

import os

# single-threaded BLAS/OpenMP: steadier on a small shared machine, and the
# plain one-thread baseline; must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cooldown-pair", "large-mesh", "verify-large")
# fresh constructions timed for setup_s before each round, so that the
# samples spread over the run (after one untimed warm-up)
SETUP_PER_ROUND = 5


def _layer_metrics(s: dict) -> dict:
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    calls, total, counts = s["calls"], s["total_s"], s["counts"]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    loads = n("heat.assemble_loads")
    out = {
        "heat.assemble_loads.calls": (loads, "count"),
        "heat.assemble_loads.total_s": (t("heat.assemble_loads"), "s"),
        "heat.assemble_loads.us_per_call": (
            1e6 * t("heat.assemble_loads") / loads if loads else 0.0, "us"),
        "simulate.jacobian_builds": (
            counts.get("simulate.jacobian_builds", 0), "count"),
        "simulate.jacobian_build_s": (t("simulate.jacobian_build"), "s"),
        "simulate.lu_factor.calls": (n("simulate.lu_factor"), "count"),
        "simulate.lu_factor_s": (t("simulate.lu_factor"), "s"),
        "simulate.newton_iterations": (
            counts.get("simulate.newton_iterations", 0), "count"),
        "simulate.lu_solve.calls": (n("simulate.lu_solve"), "count"),
        "simulate.lu_solve_s": (t("simulate.lu_solve"), "s"),
        "simulate.step.calls": (n("simulate.step"), "count"),
        "simulate.step_s": (t("simulate.step"), "s"),
        "fem.solve_psi.calls": (n("fem.solve_psi"), "count"),
        "fem.solve_psi_s": (t("fem.solve_psi"), "s"),
        "fluid.eos.calls": (n("fluid.eos"), "count"),
        "fluid.eos_s": (t("fluid.eos"), "s"),
        "simulate.io_s": (t("simulate.write_heat_snapshot")
                          + t("simulate.write_fluid_snapshot")
                          + t("simulate.ledger_write"), "s"),
        "simulate.io_bytes": (counts.get("simulate.io_bytes", 0), "bytes"),
        "driver.build_problem_s": (t("driver.build_problem"), "s"),
        "fem.assemble_coupling_s": (t("fem.assemble_coupling"), "s"),
        "heat.init_s": (t("heat.init"), "s"),
        "dirac.check_dirac_pairing_s": (t("dirac.check_dirac_pairing"), "s"),
        "dirac.j_matrix_s": (t("dirac.j_matrix"), "s"),
        "dirac.matrix_rank_s": (t("dirac.matrix_rank"), "s"),
        "dirac.check_adjointness_s": (t("dirac.check_adjointness"), "s"),
        "dirac.operator_norm_bound_s": (t("dirac.operator_norm_bound"), "s"),
        "coupling.check_transpose_identity_s": (
            t("coupling.check_transpose_identity"), "s"),
        "coupling.check_power_balance_s": (
            t("coupling.check_power_balance"), "s"),
        "coupling.resolve_ports.calls": (n("coupling.resolve_ports"), "count"),
        "trace.spans": (s["spans"], "count"),
    }
    for layer, self_s in s["self_s"].items():
        out[f"{layer}.self_s"] = (self_s, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phmix" / "__init__.py").is_file():
        print(f"error: no phmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # import everything the rounds touch before any clock starts
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    from spans import Tracer
    from workloads import make_workload

    out_root = ROOT / ".bench_out"
    workdir = out_root / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        wl = make_workload(args.workload, args.seed, str(workdir),
                           traced=tracer is not None)
        result = _measure(wl, args, tracer)
        if tracer is not None:
            trace_path = out_root / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload,
                                      "seed": args.seed,
                                      "rounds": result.pop("rounds")})
            print(f"trace: {trace_path.relative_to(ROOT)}")
        else:
            result.pop("rounds")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(wl, args, tracer) -> dict:
    wl.construct()  # warm-up: first-call costs stay out of setup_s
    setup_spans = []
    step_times: list[float] = []
    rounds = []
    problems = []
    digests = set()
    attempted = failed = 0
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < args.seconds
           or (tracer is not None and len(rounds) < 2)):
        with wl.clock.sampling():
            for _ in range(SETUP_PER_ROUND):
                t0 = time.perf_counter()
                wl.construct()
                setup_spans.append((t0, time.perf_counter()))
        traced = tracer is not None and len(rounds) % 2 == 1
        round_steps = [] if tracer is not None else step_times
        if traced:
            with tracer.instrument(len(rounds)):
                run_s, wall_s, outputs = wl.execute(round_steps)
        else:
            run_s, wall_s, outputs = wl.execute(round_steps)
        n_att, n_fail, digest, round_problems = wl.check(outputs)
        if traced:
            tracer.counts.setdefault(len(rounds), {}).update(
                wl.counters(outputs))
        attempted += n_att
        failed += n_fail
        digests.add(digest)
        problems += [f"round {len(rounds)}: {p}" for p in round_problems]
        print(f"round {len(rounds)}{' traced' if traced else ''}: "
              f"run_s={run_s:.4f} wall_s={wall_s:.4f} attempted={n_att} "
              f"failed={n_fail} "
              f"digest={digest}", flush=True)
        rounds.append({"traced": traced, "run_s": run_s})
    if len(digests) != 1:
        problems.append(f"{len(digests)} different output digests across "
                        f"rounds of one run")

    if tracer is None:
        metrics = {
            "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
            "setup_s": (statistics.median(wl.clock.scaled(*span)
                                          for span in setup_spans), "s"),
            "step_median_ms": (1e3 * statistics.median(step_times), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        metrics, trace_problems = _trace_metrics(tracer, rounds)
        problems += trace_problems
    for p in problems:
        print(f"check failed: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "rounds": rounds}


def _trace_metrics(tracer, rounds):
    """Per-layer metrics: counts from the traced rounds (which must agree
    exactly), times as the median over traced rounds."""
    traced = [i for i, r in enumerate(rounds) if r["traced"]]
    per_round = [_layer_metrics(tracer.summary(i)) for i in traced]
    problems = []
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        values = [m[name][0] for m in per_round]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: "
                                f"{values}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    traced_run = statistics.median(rounds[i]["run_s"] for i in traced)
    plain_run = statistics.median(r["run_s"] for r in rounds
                                  if not r["traced"])
    metrics["trace.run_s"] = (traced_run, "s")
    metrics["trace.overhead_s"] = (traced_run - plain_run, "s")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
