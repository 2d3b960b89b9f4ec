"""High-level orchestration: build the discrete problem from a RunConfig,
run scenarios, and drive the refinement studies behind the CLI."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .config import GeometryConfig, RunConfig
from .errors import GeometryError
from .fem import CouplingOperators, LineBasis, SurfaceBasis, assemble_coupling
from .fluid import FluidSystem
from .geometry import IntervalMesh, SolidDomain, build_solid_domain
from .heat import HeatSystem
from .simulate import CoupledSimulation, EnergyLedger, ScenarioSetup, \
    SimResult, build_scenario


@dataclass
class Problem:
    """The assembled discrete problem behind one configuration; the solid
    domain is `heat.domain`."""

    heat: HeatSystem
    fluid: FluidSystem
    ops: CouplingOperators


@contextmanager
def _arrays_of(g: GeometryConfig):
    """Turn numpy's refusal of an array of the mesh `g`, too big to index
    (ValueError) or to allocate (MemoryError), into a GeometryError that
    names the geometry."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise GeometryError(
            f"geometry {g.n_ax}x{g.n_az}x{g.n_th} (n_fluid {g.n_fluid}): its "
            f"arrays cannot be built: {exc}") from exc


def build_coupling(cfg: RunConfig
                   ) -> tuple[SolidDomain, IntervalMesh, CouplingOperators]:
    """The solid domain, the channel mesh and their coupling operators."""
    g = cfg.geometry
    domain = build_solid_domain(g.a, g.b, g.circumference, g.depth,
                                g.n_ax, g.n_az, g.n_th)
    channel = IntervalMesh(g.a, g.b, g.n_fluid)
    with _arrays_of(g):
        ops = assemble_coupling(SurfaceBasis(domain.coupling_boundary()),
                                LineBasis(channel))
    return domain, channel, ops


def build_checked_coupling(cfg: RunConfig) -> CouplingOperators:
    """The coupling operators with the four blocks that `phmix verify`'s
    checks read already assembled, so that a mesh too big for the blocks
    raises the GeometryError of one too big for their factors."""
    _, _, ops = build_coupling(cfg)
    with _arrays_of(cfg.geometry):
        for block in ("m_chi", "m_psi", "d_chi", "d_psi"):
            getattr(ops, block)
    return ops


def build_problem(cfg: RunConfig) -> Problem:
    domain, channel, ops = build_coupling(cfg)
    with _arrays_of(cfg.geometry):
        heat = HeatSystem(domain, cfg.heat)
        fluid = FluidSystem(channel, cfg.fluid)
    return Problem(heat=heat, fluid=fluid, ops=ops)


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


def energy_drift(ledger: EnergyLedger) -> float:
    """The energy-balance error of a run: the change of the total energy
    less the external port's work sum dt * P_ext.  With no external port it
    is the plain change of the total."""
    total = ledger.column("total")
    work = np.sum(np.diff(ledger.column("time")) * ledger.column("P_ext")[1:])
    return float(total[-1] - total[0] - work)


def drift_per_time(result: SimResult) -> float:
    """The size of the run's `energy_drift` over its duration."""
    t = result.ledger.column("time")
    return abs(energy_drift(result.ledger)) / float(t[-1] - t[0])


def convergence_study(cfg: RunConfig, levels: int = 3) -> list[ConvergenceRow]:
    """Run the configured scenario at dt, dt/2, ... and report the energy
    balance error per unit time (`drift_per_time`) and the observed order
    between consecutive levels, None where either level's error is 0.  The
    problem and the scenario are built once; each level is one simulation
    of them."""
    problem = build_problem(cfg)
    setup = build_scenario(cfg.scenario, problem.heat, problem.fluid,
                           cfg.scenario_params)
    rows: list[ConvergenceRow] = []
    for level in range(levels):
        dt = cfg.sim.dt / (2 ** level)
        cfg_level = replace(cfg, sim=replace(cfg.sim, dt=dt))
        result = make_simulation(problem, cfg_level, setup).run(setup)
        drift = drift_per_time(result)
        order = None
        if rows and rows[-1].drift_per_time > 0 and drift > 0:
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
    results = []
    for n_az in (g.n_az, 2 * g.n_az):
        refined = replace(cfg, geometry=replace(g, n_az=n_az))
        _, _, ops = build_coupling(refined)
        results.append(ops.integrate(np.full(ops.n_psi, float(value))))
    return float(np.max(np.abs(results[0] - results[1])))
