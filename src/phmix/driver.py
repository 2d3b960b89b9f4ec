"""High-level orchestration: build the discrete problem from a RunConfig,
run scenarios, and drive the refinement studies behind the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .fem import CouplingOperators, LineBasis, SurfaceBasis, assemble_coupling
from .fluid import FluidSystem
from .geometry import IntervalMesh, SolidDomain, build_solid_domain, \
    quadrature_rule
from .heat import HeatSystem
from .simulate import CoupledSimulation, EnergyLedger, ScenarioSetup, \
    SimResult, build_scenario


@dataclass
class Problem:
    """The assembled discrete problem behind one configuration."""

    domain: SolidDomain
    heat: HeatSystem
    fluid: FluidSystem
    ops: CouplingOperators


def build_problem(cfg: RunConfig) -> Problem:
    g = cfg.geometry
    domain = build_solid_domain(g.a, g.b, g.circumference, g.depth,
                                g.n_ax, g.n_az, g.n_th)
    channel = IntervalMesh(g.a, g.b, g.n_fluid)
    quad = quadrature_rule(cfg.quad_degree)
    ops = assemble_coupling(SurfaceBasis(domain.coupling_boundary()),
                            LineBasis(channel), quad)
    heat = HeatSystem(domain, cfg.heat, cfg.quad_degree)
    fluid = FluidSystem(channel, cfg.fluid, cfg.quad_degree)
    return Problem(domain=domain, heat=heat, fluid=fluid, ops=ops)


def make_simulation(problem: Problem, cfg: RunConfig,
                    setup: ScenarioSetup) -> CoupledSimulation:
    return CoupledSimulation(
        problem.heat, problem.fluid, problem.ops, cfg.sim,
        coupled=setup.coupled, ext_temperature=setup.ext_temperature)


def run_from_config(cfg: RunConfig, output_dir=None) -> SimResult:
    """Build the problem, set up the configured scenario, and integrate."""
    problem = build_problem(cfg)
    setup = build_scenario(cfg.scenario, problem.heat, problem.fluid,
                           cfg.scenario_params)
    sim = make_simulation(problem, cfg, setup)
    return sim.run(setup, output_dir)


@dataclass
class ConvergenceRow:
    dt: float
    steps: int
    drift_per_time: float
    observed_order: float | None


def drift_per_time(result: SimResult) -> float:
    """The energy-balance error per unit time: the change of the total
    energy less the external port's work sum dt * P_ext, over the run's
    duration.  With no external port it is the plain energy drift."""
    led = result.ledger
    total = led.column("total")
    t = led.column("time")
    work = np.sum(np.diff(t) * led.column("P_ext")[1:])
    return float(abs(total[-1] - total[0] - work) / (t[-1] - t[0]))


def convergence_study(cfg: RunConfig, levels: int = 3) -> list[ConvergenceRow]:
    """Run the configured scenario at dt, dt/2, ... and report the energy
    balance error per unit time (`drift_per_time`) and the observed order
    between consecutive levels."""
    rows: list[ConvergenceRow] = []
    for level in range(levels):
        dt = cfg.sim.dt / (2 ** level)
        cfg_level = replace(cfg, sim=replace(cfg.sim, dt=dt))
        result = run_from_config(cfg_level)
        drift = drift_per_time(result)
        order = None
        if rows and drift > 0:
            order = math.log2(rows[-1].drift_per_time / drift)
        rows.append(ConvergenceRow(dt=dt, steps=result.steps,
                                   drift_per_time=drift, observed_order=order))
    return rows


def write_convergence_csv(rows: list[ConvergenceRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("dt,steps,drift_per_time,observed_order\n")
        for row in rows:
            order = "" if row.observed_order is None else repr(row.observed_order)
            fh.write(f"{row.dt!r},{row.steps},{row.drift_per_time!r},{order}\n")


# the azimuthal refinement gap is round-off: exact arithmetic gives 0
REFINEMENT_GAP_TOL = 1e-12
# per-step run gates: the coupling power residual is round-off relative to
# the power the wall exchanges, and the total entropy never falls
POWER_RESIDUAL_TOL = 1e-12


def run_gate_failures(ledger: EnergyLedger) -> list[str]:
    """The per-step gates of a run, one message per failed gate naming its
    first failing step; empty when every step passes.

    The power gate is |P_couple_residual| <= POWER_RESIDUAL_TOL *
    |P_couple_heat|, a product rather than a ratio, so a step that
    exchanges no power passes when its residual is 0."""
    failures = []
    residual = np.abs(ledger.column("P_couple_residual"))
    heat = np.abs(ledger.column("P_couple_heat"))
    bad = np.flatnonzero(~(residual <= POWER_RESIDUAL_TOL * heat))
    if bad.size:
        k = bad[0]
        failures.append(
            f"step {k}: coupling power residual {residual[k]:.3e} above "
            f"{POWER_RESIDUAL_TOL:.0e} of |P_couple_heat| = {heat[k]:.3e}")
    d_entropy = np.diff(ledger.column("S_solid") + ledger.column("S_fluid"))
    bad = np.flatnonzero(~(d_entropy >= 0))
    if bad.size:
        k = bad[0]
        failures.append(
            f"step {k + 1}: total entropy fell by {-d_entropy[k]:.3e}")
    return failures


def azimuthal_refinement_gap(cfg: RunConfig, value: float = 1.0) -> float:
    """Max change of the integrated wall output under azimuthal-only mesh
    refinement, for an azimuthally constant wall output (exact for
    constants, so the gap is pure round-off)."""
    g = cfg.geometry
    quad = quadrature_rule(cfg.quad_degree)
    line = LineBasis(IntervalMesh(g.a, g.b, g.n_fluid))
    results = []
    for n_az in (g.n_az, 2 * g.n_az):
        domain = build_solid_domain(g.a, g.b, g.circumference, g.depth,
                                    g.n_ax, n_az, g.n_th)
        ops = assemble_coupling(SurfaceBasis(domain.coupling_boundary()),
                                line, quad)
        results.append(ops.integrate(np.full(ops.n_psi, float(value))))
    return float(np.max(np.abs(results[0] - results[1])))
