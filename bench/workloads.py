"""The benchmark's workloads and the checks on their outputs.

Each workload offers
  construct()            one fresh set-up, timed for setup_s;
  execute(step_times)    one round of program work: returns the round's
                         scaled seconds for run_s, its raw wall seconds and
                         its outputs, appending one scaled time per step to
                         `step_times`;
  check(outputs)         (attempted, failed, digest, problems) for a round,
                         where `problems` lists every failed property check.

The properties checked are those the method guarantees (power-conserving
coupling, entropy production, second-order midpoint drift, adjoint
integrate/embed pair), evaluated with arithmetic written out here rather
than compared against stored program output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import replace

import numpy as np

from phmix import cli, config, dirac, driver, simulate
from phmix.errors import PhmixError
from speed import HEAT_PROBE, SVD_PROBE, HostClock, RawClock

# relative round-off gate for identities that are exact in exact arithmetic
ROUNDOFF = 1e-12


def _hat_integrals(n_cells: int, length: float, periodic: bool) -> np.ndarray:
    """Integral of each P1 hat on a uniform mesh (the lumped mass)."""
    h = length / n_cells
    if periodic:
        return np.full(n_cells, h)
    w = np.full(n_cells + 1, h)
    w[[0, -1]] = 0.5 * h
    return w


def _energy_total(cfg, heat_s: np.ndarray, fluid_state) -> float:
    """Q_heat + H_fluid from the constitutive laws and nodal quadrature:
    T = t_ref exp(s / (rho c)) in the solid, and the ideal-gas
    T = t_ref (phi_ref / phi)^(R / c_v) exp((s - s_ref) / c_v), u = c_v T in
    the channel, each weighted by the integrals of the nodal hats."""
    g, hm, fm = cfg.geometry, cfg.heat, cfg.fluid
    m_solid = np.kron(np.kron(_hat_integrals(g.n_ax, g.b - g.a, False),
                              _hat_integrals(g.n_az, g.circumference, True)),
                      _hat_integrals(g.n_th, g.depth, False))
    rho_c = hm.rho * hm.c
    t_solid = hm.t_ref * np.exp(heat_s / rho_c)
    q_heat = m_solid @ (rho_c * (t_solid - hm.t_ref))
    m_fluid = _hat_integrals(g.n_fluid, g.b - g.a, False)
    t_fluid = fm.t_ref * (fm.phi_ref / fluid_state.phi) ** (fm.r_gas / fm.c_v) \
        * np.exp((fluid_state.s - fm.s_ref) / fm.c_v)
    h_fluid = m_fluid @ (0.5 * fluid_state.vel ** 2 + fm.c_v * t_fluid)
    return float(q_heat + h_fluid)


def _ledger_text(ledger) -> str:
    return "".join(f"{rec.csv_row()}\n" for rec in ledger.records)


class SimulationWorkload:
    """hot-wall-cooldown runs: one CoupledSimulation per configuration and
    round, built fresh because a CoupledSimulation keeps its counters and
    chord factorization between run() calls."""

    def __init__(self, cfgs: dict, workdir: str | None, clock):
        self.cfgs = cfgs
        self.workdir = workdir
        self.clock = clock

    def construct(self, cfg=None):
        cfg = cfg or next(iter(self.cfgs.values()))
        problem = driver.build_problem(cfg)
        setup = simulate.build_scenario(cfg.scenario, problem.heat,
                                        problem.fluid, cfg.scenario_params)
        return setup, driver.make_simulation(problem, cfg, setup)

    def execute(self, step_times: list):
        built = {label: self.construct(cfg) for label, cfg in self.cfgs.items()}
        runs, steps, outputs = [], [], {}
        with self.clock.sampling():
            for label, (setup, sim) in built.items():
                outdir = None
                if self.workdir is not None:
                    outdir = os.path.join(self.workdir, label)
                    os.makedirs(outdir, exist_ok=True)
                inner = sim.step

                def step(*args, **kwargs):
                    t0 = time.perf_counter()
                    try:
                        return inner(*args, **kwargs)
                    finally:
                        steps.append((t0, time.perf_counter()))

                sim.step = step
                t0 = time.perf_counter()
                try:
                    result = sim.run(setup, outdir)
                except PhmixError as exc:
                    result = exc
                runs.append((t0, time.perf_counter()))
                del sim.step  # the wrapper refers to sim: drop the cycle
                outputs[label] = (setup, result, outdir)
        step_times += [self.clock.scaled(*span) for span in steps]
        return sum(self.clock.scaled(*span) for span in runs), \
            sum(t1 - t0 for t0, t1 in runs), outputs

    def check(self, outputs):
        attempted = failed = 0
        problems = []
        digest = hashlib.sha256()
        for label, (setup, result, outdir) in outputs.items():
            cfg = self.cfgs[label]
            n_steps = int(round(cfg.sim.t_end / cfg.sim.dt))
            attempted += n_steps
            if isinstance(result, Exception):
                done = len(getattr(result, "ledger", None) or ()) - 1
                failed += n_steps - max(done, 0)
                problems.append(f"{label}: {result}")
                continue
            problems += [f"{label}: {p}" for p in
                         self._check_run(cfg, setup, result, n_steps, outdir)]
            digest.update(_ledger_text(result.ledger).encode())
        if not problems and "dt" in outputs and "dt/2" in outputs:
            problems += self._check_order(outputs["dt"][1], outputs["dt/2"][1])
        return attempted, failed, digest.hexdigest(), problems

    @staticmethod
    def counters(outputs) -> dict:
        results = [r for _, r, _ in outputs.values()
                   if not isinstance(r, Exception)]
        return {"simulate.newton_iterations":
                sum(r.newton_iterations for r in results),
                "simulate.jacobian_builds":
                sum(r.jacobian_builds for r in results)}

    @staticmethod
    def _check_run(cfg, setup, result, n_steps, outdir):
        led = result.ledger
        out = []
        if result.steps != n_steps or len(led) != n_steps + 1:
            out.append(f"{len(led)} ledger rows for {n_steps} steps")
            return out
        p_heat = np.abs(led.column("P_couple_heat")[1:])
        p_res = np.abs(led.column("P_couple_residual")[1:])
        worst = float(np.max(p_res / p_heat))
        if not worst <= ROUNDOFF:
            out.append(f"coupling power residual {worst:.3e} of |P_heat|")
        d_entropy = np.diff(led.column("S_solid") + led.column("S_fluid"))
        if not np.all(d_entropy >= 0):
            out.append(f"total entropy fell by {-d_entropy.min():.3e} "
                       f"in step {int(np.argmin(d_entropy)) + 1}")
        total = led.column("total")
        for row, heat_s, fluid_state in (
                (0, setup.heat_state.s, setup.fluid_state),
                (-1, result.heat_state.s, result.fluid_state)):
            expected = _energy_total(cfg, heat_s, fluid_state)
            gap = abs(total[row] - expected) / abs(expected)
            if not gap <= ROUNDOFF:
                out.append(f"ledger total row {row} differs from the "
                           f"recomputed energy by {gap:.3e} (relative)")
        if outdir is not None:
            path = os.path.join(outdir, f"{cfg.scenario}_ledger.csv")
            with open(path) as fh:
                written = fh.read()
            if written != simulate.LEDGER_HEADER + "\n" + _ledger_text(led):
                out.append(f"{path} does not match the returned ledger")
        return out

    @staticmethod
    def _check_order(coarse, fine):
        """Midpoint energy drift must be second order under step halving."""
        def drift(result):
            total = result.ledger.column("total")
            return abs(total[-1] - total[0])
        order = math.log2(drift(coarse) / drift(fine))
        if not abs(order - 2.0) <= 0.1:
            return [f"observed drift order {order:.4f}, expected 2"]
        return []


class VerifyWorkload:
    """`phmix verify` in-process through phmix.cli.main; one step is one
    invocation, whose five structural checks are the operations attempted."""

    N_CHECKS = 5

    def __init__(self, cfg, seed: int, workdir: str, clock):
        self.cfg = cfg
        self.seed = seed
        self.clock = clock
        self.config_path = os.path.join(workdir, "verify.json")
        with open(self.config_path, "w") as fh:
            json.dump(config.config_to_dict(cfg), fh)
        self.argv = ["verify", "--config", self.config_path,
                     "--seed", str(seed)]

    def construct(self):
        return driver.build_problem(self.cfg)

    def execute(self, step_times: list):
        buf = io.StringIO()
        with self.clock.sampling():
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv)
            t1 = time.perf_counter()
        scaled = self.clock.scaled(t0, t1)
        step_times.append(scaled)
        return scaled, t1 - t0, (code, buf.getvalue())

    def check(self, outputs):
        code, text = outputs
        passed = text.count("status: PASS")
        failed = self.N_CHECKS - passed
        problems = []
        if code != 0 or failed or not text.rstrip().endswith("verify: PASS"):
            problems.append(f"verify exit {code}, {passed} of "
                            f"{self.N_CHECKS} checks PASS")
        problems += self._check_pair()
        return self.N_CHECKS, failed, \
            hashlib.sha256(text.encode()).hexdigest(), problems

    @staticmethod
    def counters(outputs) -> dict:
        return {}

    def _check_pair(self):
        """integrate_out is h_az times the azimuthal nodal sum (exact for
        the periodic hat basis), and embed is nodal replication."""
        g = self.cfg.geometry
        ops = self.construct().ops
        rng = np.random.default_rng(self.seed)
        v = rng.standard_normal((g.n_ax + 1, g.n_az))
        line = dirac.integrate_out(
            ops, dirac.SurfaceField(v.ravel(), ops.surface.boundary)).values
        expected = (g.circumference / g.n_az) * v.sum(axis=1)
        out = []
        gap = float(np.max(np.abs(line - expected)) / np.max(np.abs(expected)))
        if not gap <= ROUNDOFF:
            out.append(f"integrate_out differs from h_az * sum_j v_ij by "
                       f"{gap:.3e} (relative)")
        y = rng.standard_normal(g.n_ax + 1)
        surf = dirac.embed(ops, dirac.LineField(y, ops.line.mesh)).values
        if not np.array_equal(surf, np.repeat(y, g.n_az)):
            out.append("embed differs from np.repeat")
        return out


LARGE_MESH = {"n_ax": 24, "n_az": 12, "n_th": 4, "n_fluid": 24}
LARGE_MESH_STEPS = 20
VERIFY_MESH = {"n_ax": 48, "n_az": 24, "n_th": 4, "n_fluid": 48}


def make_workload(name: str, seed: int, workdir: str, traced: bool):
    """The named workload; traced rounds keep raw times, as their spans do."""
    if name == "cooldown-pair":
        cfg = config.default_config(seed=seed)
        half = replace(cfg, sim=replace(cfg.sim, dt=cfg.sim.dt / 2))
        clock = RawClock() if traced else HostClock(HEAT_PROBE)
        return SimulationWorkload({"dt": cfg, "dt/2": half}, workdir, clock)
    if name == "large-mesh":
        cfg = config.default_config(seed=seed, geometry=LARGE_MESH)
        cfg = replace(cfg, sim=replace(
            cfg.sim, t_end=LARGE_MESH_STEPS * cfg.sim.dt))
        clock = RawClock() if traced else HostClock(HEAT_PROBE)
        return SimulationWorkload({"large": cfg}, None, clock)
    if name == "verify-large":
        cfg = config.default_config(seed=seed, geometry=VERIFY_MESH)
        clock = RawClock() if traced else HostClock(SVD_PROBE)
        return VerifyWorkload(cfg, seed, workdir, clock)
    raise ValueError(f"unknown workload {name!r}")

