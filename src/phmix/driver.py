"""High-level orchestration: build the discrete problem from a RunConfig,
run scenarios, and drive the refinement studies behind the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .coupling import resolve_ports
from .dirac import LineField, SurfaceField
from .fem import CouplingOperators, LineBasis, SurfaceBasis, assemble_coupling
from .fluid import FluidSystem
from .geometry import IntervalMesh, SolidDomain, build_solid_domain, \
    quadrature_rule
from .heat import HeatSystem
from .simulate import CoupledSimulation, ScenarioSetup, SimResult, \
    build_scenario


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
    total = result.ledger.column("total")
    t = result.ledger.column("time")
    return float(abs(total[-1] - total[0]) / (t[-1] - t[0]))


def convergence_study(cfg: RunConfig, levels: int = 3) -> list[ConvergenceRow]:
    """Run the configured scenario at dt, dt/2, ... and report the energy
    drift rate and the observed order between consecutive levels."""
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


def azimuthal_refinement_gap(cfg: RunConfig, value: float = 1.0) -> float:
    """Max change of the resolved channel input under azimuthal-only mesh
    refinement, for an azimuthally constant wall output (exact for
    constants, so the gap is pure round-off)."""
    g = cfg.geometry
    quad = quadrature_rule(cfg.quad_degree)
    channel = IntervalMesh(g.a, g.b, g.n_fluid)
    line = LineBasis(channel)
    results = []
    for n_az in (g.n_az, 2 * g.n_az):
        domain = build_solid_domain(g.a, g.b, g.circumference, g.depth,
                                    g.n_ax, n_az, g.n_th)
        ops = assemble_coupling(SurfaceBasis(domain.coupling_boundary()),
                                line, quad)
        v = SurfaceField.constant(ops.surface.boundary, value)
        y = LineField.constant(channel, 1.0)
        ports = resolve_ports(v, y, ops)
        results.append(ports.w_in.values)
    return float(np.max(np.abs(results[0] - results[1])))
