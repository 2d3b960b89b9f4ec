"""Command-line entry point.

Subcommands, each with only the options it reads:

    phmix verify [--config FILE] [--seed N]
    phmix simulate [--config FILE] [--output DIR]
    phmix convergence [--config FILE] [--output DIR]

verify runs the structural checks, exact identities between the
assembled coupling blocks (exit 0/1); its --seed is validated as the
config's seed is, and no check reads it.  simulate runs a scenario,
writes the ledger and snapshots, and fails when a step fails a run gate
(`driver.run_gate_failures`); convergence runs the step-halving and
azimuthal refinement study, and a refinement gap above its bound fails it.
Exit codes: 0 success, 1 runtime or verification failure, 2 usage/config
errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import RunConfig, default_config, load_config
from .coupling import check_power_balance, check_transpose_identity
from .dirac import check_adjointness, check_dirac_pairing, \
    operator_norm_bound_check
from .driver import REFINEMENT_GAP_TOL, azimuthal_refinement_gap, \
    build_checked_coupling, build_problem, convergence_study, energy_drift, \
    make_simulation, run_gate_failures, write_convergence_csv
from .errors import PhmixError, StepFailureError
from .simulate import build_scenario


def _load(args, seed: int | None = None) -> RunConfig:
    """The --config file (or the defaults), with --seed when given."""
    cfg = load_config(args.config) if args.config else default_config()
    return cfg if seed is None else replace(cfg, seed=seed)


def _error_line(exc: Exception) -> str:
    """The error line of a failure, naming the step `run` attached."""
    step = getattr(exc, "step", None)
    return f"error: {exc}" if step is None else f"error: step {step}: {exc}"


def cmd_verify(args) -> int:
    try:
        cfg = _load(args, seed=args.seed)
        ops = build_checked_coupling(cfg)
    except PhmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = [
        check_adjointness(ops),
        operator_norm_bound_check(ops),
        check_dirac_pairing(ops),
        check_transpose_identity(ops),
        check_power_balance(ops),
    ]
    for rep in reports:
        print("\n".join(rep.lines()))
        print()
    failed = [rep.name for rep in reports if not rep.passed]
    if failed:
        print(f"verify: FAIL ({', '.join(failed)})")
        return 1
    print("verify: PASS")
    return 0


def cmd_simulate(args) -> int:
    try:
        cfg = _load(args)
        problem = build_problem(cfg)
        setup = build_scenario(cfg.scenario, problem.heat, problem.fluid,
                               cfg.scenario_params)
        sim = make_simulation(problem, cfg, setup)
        os.makedirs(args.output, exist_ok=True)
    except (PhmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = sim.run(setup, args.output)
    except (PhmixError, OSError, MemoryError) as exc:
        # a failed step, a snapshot or the ledger that could not be
        # written, or an array the run could not allocate
        ledger = getattr(exc, "ledger", None)
        if ledger is not None and len(ledger):
            print(f"last ledger row: {ledger.records[-1].csv_row()}",
                  file=sys.stderr)
        if hasattr(exc, "ledger_path"):
            print(f"partial ledger: {exc.ledger_path}", file=sys.stderr)
        if hasattr(exc, "ledger_error"):
            print(f"partial ledger not written: {exc.ledger_error}",
                  file=sys.stderr)
        print(_error_line(exc), file=sys.stderr)
        return 1
    led = result.ledger
    total = led.column("total")
    print(f"scenario: {cfg.scenario}")
    print(f"steps: {result.steps}")
    print(f"energy_total_initial: {float(total[0])!r}")
    print(f"energy_total_final: {float(total[-1])!r}")
    print(f"energy_drift: {energy_drift(led)!r}")
    print(f"max_coupling_residual: "
          f"{float(abs(led.column('P_couple_residual')).max())!r}")
    print(f"newton_iterations: {result.newton_iterations}")
    print(f"max_step_iterations: {int(result.step_iterations.max())}")
    print(f"max_final_residual: {float(result.step_residuals.max())!r}")
    print(f"jacobian_builds: {result.jacobian_builds}")
    print(f"row_interchanges: {result.row_interchanges}")
    print(f"jacobian_build_s: {result.jacobian_build_s:.6f}")
    print(f"chord_solve_s: {result.chord_solve_s:.6f}")
    print(f"ledger: {os.path.join(args.output, cfg.scenario + '_ledger.csv')}")
    failures = run_gate_failures(led)
    for message in failures:
        print(f"gate failed: {message}", file=sys.stderr)
    return 1 if failures else 0


def cmd_convergence(args) -> int:
    try:
        cfg = _load(args)
        os.makedirs(args.output, exist_ok=True)
    except (PhmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = convergence_study(cfg)
        gap = azimuthal_refinement_gap(cfg)
    except (StepFailureError, MemoryError) as exc:  # in a run, at a step
        print(_error_line(exc), file=sys.stderr)
        return 1
    except PhmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(args.output, "convergence.csv")
    try:
        write_convergence_csv(rows, path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in rows:
        order = "-" if row.observed_order is None else f"{row.observed_order:.3f}"
        print(f"dt={row.dt:.6e} steps={row.steps} "
              f"drift_per_time={row.drift_per_time:.6e} order={order}")
    passed = gap <= REFINEMENT_GAP_TOL
    print(f"azimuthal_refinement_gap: {gap:.3e} "
          f"({'PASS' if passed else 'FAIL'})")
    print(f"report: {path}")
    return 0 if passed else 1


# each subcommand takes the options it reads, and no other
_OPTIONS = {
    "--config": dict(help="JSON config file (defaults built in)"),
    "--output": dict(default="out", help="output directory (default out)"),
    "--seed": dict(type=int, help="seed override, validated (>= 0); no "
                                  "check reads it"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phmix",
        description="Mixed-dimensional coupling of a heat-conducting solid "
                    "and a 1D coolant channel: structural verification and "
                    "coupled simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, desc, options in (
            ("verify", cmd_verify,
             "run the structural checks (adjointness, norm bound, pairing, "
             "transpose, power balance)", ("--config", "--seed")),
            ("simulate", cmd_simulate,
             "integrate a scenario and write ledger + snapshots",
             ("--config", "--output")),
            ("convergence", cmd_convergence,
             "step-halving and azimuthal refinement study",
             ("--config", "--output"))):
        sp = sub.add_parser(name, help=desc)
        for option in options:
            sp.add_argument(option, **_OPTIONS[option])
        sp.set_defaults(func=fn)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
