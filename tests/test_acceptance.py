"""Acceptance suite: every structural and behavioral criterion at its stated
tolerance and scale, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import time

import numpy as np
import pytest

from phmix.config import default_config
from phmix.coupling import check_power_balance
from phmix.dirac import check_adjointness, check_dirac_pairing, \
    operator_norm_bound_check
from phmix.driver import build_problem, drift_per_time, make_simulation
from phmix.fem import LineBasis, SurfaceBasis, assemble_coupling, \
    assemble_mass, assemble_stiffness
from phmix.fluid import sound_speed
from phmix.geometry import IntervalMesh, TensorBoundary
from phmix.simulate import build_scenario, measure_pulse_speed

import oracles


def gamma_ops(n_ax, n_az, circumference=2.0):
    boundary = TensorBoundary(
        IntervalMesh(0.0, 1.0, n_ax),
        IntervalMesh(0.0, circumference, n_az, periodic=True))
    return assemble_coupling(SurfaceBasis(boundary),
                             LineBasis(IntervalMesh(0.0, 1.0, n_ax)))


def report(num, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status} "
          f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert passed, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, \
        f"criterion {num} ({name}) exceeded runtime budget: {elapsed:.2f}s"


@pytest.fixture(scope="module")
def ops16():
    return gamma_ops(16, 16)


@pytest.fixture(scope="module")
def cooldown_runs():
    """Hot-wall cooldown on the 16x8x4 / 16-node meshes at dt and dt/2."""
    t_start = time.perf_counter()
    results = []
    base = default_config()  # geometry 16x8x4, fluid 16, 200 steps at dt
    assert base.geometry.n_ax == 16 and base.geometry.n_az == 8
    assert base.geometry.n_th == 4 and base.geometry.n_fluid == 16
    for halvings in (0, 1):
        cfg = dataclasses.replace(
            base, sim=dataclasses.replace(base.sim,
                                          dt=base.sim.dt / 2 ** halvings))
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        results.append(sim.run(setup))
    return results, time.perf_counter() - t_start


def test_criterion_1_adjointness(ops16):
    t0 = time.perf_counter()
    rep = check_adjointness(ops16, trials=1000, seed=0)
    elapsed = time.perf_counter() - t0
    report(1, "adjointness of the operator pair",
           rep.passed and rep.max_residual <= 1e-11,
           f"max residual {rep.max_residual:.2e} <= 1e-11 over 1000 trials "
           f"on a 16x16 surface mesh", elapsed, 5.0)


def test_criterion_2_operator_norm_bound(ops16):
    t0 = time.perf_counter()
    rep = operator_norm_bound_check(ops16, trials=1000, seed=1)
    elapsed = time.perf_counter() - t0
    report(2, "integration operator norm bound",
           rep.passed,
           f"max bound violation {rep.max_residual:.2e} <= 1e-11, equality "
           f"gap {rep.details['equality_rel_gap_constant_fields']} <= 1e-10",
           elapsed, 5.0)


def test_criterion_3_dirac_isotropy():
    # maximality is not tested: the graph of a linear map always has half
    # the dimension of the effort-flow space
    t0 = time.perf_counter()
    ops = gamma_ops(4, 6)
    rep = check_dirac_pairing(ops, trials=1000, seed=2)
    elapsed = time.perf_counter() - t0
    report(3, "Dirac isotropy",
           rep.passed and rep.max_residual <= 1e-11,
           f"max pairing {rep.max_residual:.2e} <= 1e-11 over 1000 pairs "
           f"on a 4x6 mesh", elapsed, 5.0)


def test_criterion_4_transpose_identity():
    t0 = time.perf_counter()
    ok = True
    for n in (8, 16, 32):
        ops = gamma_ops(n, n)
        a = ops.d_psi.sorted_indices()
        b = ops.d_chi.transpose().tocsr().sorted_indices()
        ok = ok and np.array_equal(a.indptr, b.indptr) \
            and np.array_equal(a.indices, b.indices) \
            and np.array_equal(a.data, b.data)
    elapsed = time.perf_counter() - t0
    report(4, "coupling block transpose identity",
           ok, "bitwise equality on 8x8, 16x16 and 32x32 meshes",
           elapsed, 2.0)


def test_criterion_5_discrete_power_balance(ops16):
    t0 = time.perf_counter()
    rep = check_power_balance(ops16, trials=1000, seed=3)
    elapsed = time.perf_counter() - t0
    report(5, "discrete coupling power balance",
           rep.passed and rep.max_residual <= 1e-11,
           f"max |p_heat + p_fluid| / scale {rep.max_residual:.2e} <= 1e-11 "
           f"over 1000 resolved port sets", elapsed, 5.0)


def test_criterion_6_coupled_energy_drift(cooldown_runs):
    results, elapsed = cooldown_runs
    drift_coarse = drift_per_time(results[0])
    drift_fine = drift_per_time(results[1])
    ratio = drift_coarse / drift_fine
    scale = max(1.0, abs(results[0].ledger.column("total")[0]))
    resid_ok = all(
        np.abs(res.ledger.column("P_couple_residual")).max() <= 1e-11 * scale
        for res in results)
    report(6, "coupled energy drift is second order",
           3.0 <= ratio <= 5.0 and resid_ok and results[0].steps == 200,
           f"drift/time {drift_coarse:.3e} vs {drift_fine:.3e}, "
           f"ratio {ratio:.2f} in [3, 5]; coupling residual <= 1e-11*scale "
           f"every step", elapsed, 60.0)


def test_criterion_7_entropy_monotonicity(cooldown_runs):
    results, _ = cooldown_runs
    t0 = time.perf_counter()
    worst = 0.0
    for res in results:
        led = res.ledger
        s_tot = led.column("S_solid") + led.column("S_fluid")
        scale = max(1.0, abs(led.column("total")[0]))
        worst = max(worst, float(-np.diff(s_tot).min()) / scale)
    elapsed = time.perf_counter() - t0
    report(7, "total entropy non-decreasing",
           worst <= 1e-10,
           f"worst per-step decrease {worst:.2e} <= 1e-10 (relative to the "
           f"initial energy scale)", elapsed, 60.0)


def test_criterion_8_acoustic_sanity():
    t0 = time.perf_counter()
    base = default_config()
    c = sound_speed(300.0, dataclasses.replace(base.fluid, friction=0.0))
    h = 1.0 / 128
    cfg = default_config(
        geometry={"n_ax": 128, "n_fluid": 128, "n_az": 2, "n_th": 1},
        fluid={"r_gas": base.fluid.r_gas, "c_v": base.fluid.c_v,
               "friction": 0.0, "t_ref": 300.0},
        sim={"dt": 0.4 * h / c, "t_end": 0.35 / c},
        scenario="acoustic-pulse")
    problem = build_problem(cfg)
    setup = build_scenario("acoustic-pulse", problem.heat, problem.fluid,
                           {"width": 0.08, "center": 0.35})
    sim = make_simulation(problem, cfg, setup)
    result = sim.run(setup)
    speed = measure_pulse_speed(problem.fluid, setup.fluid_state,
                                result.fluid_state, result.steps * cfg.sim.dt)
    rel = abs(speed - c) / c
    elapsed = time.perf_counter() - t0
    report(8, "acoustic pulse speed",
           rel <= 0.05,
           f"measured {speed:.3f} vs closed form {c:.3f}, error {rel:.2%} "
           f"<= 5% on 128 nodes", elapsed, 10.0)


def test_criterion_9_equilibrium_fixed_point():
    t0 = time.perf_counter()
    base = default_config()
    cfg = dataclasses.replace(
        base, sim=dataclasses.replace(base.sim, t_end=base.sim.dt * 100))
    problem = build_problem(cfg)
    setup = build_scenario("equilibrium", problem.heat, problem.fluid, {})
    sim = make_simulation(problem, cfg, setup)
    result = sim.run(setup)
    change = max(
        np.abs(result.heat_state.s - setup.heat_state.s).max(),
        np.abs(result.fluid_state.phi - setup.fluid_state.phi).max(),
        np.abs(result.fluid_state.vel - setup.fluid_state.vel).max(),
        np.abs(result.fluid_state.s - setup.fluid_state.s).max())
    elapsed = time.perf_counter() - t0
    report(9, "equilibrium fixed point",
           change <= 1e-12 and result.steps == 100,
           f"max state change {change:.2e} <= 1e-12 over 100 steps",
           elapsed, 10.0)


def test_criterion_10_quadrature_oracle_regression():
    t0 = time.perf_counter()
    worst = 0.0

    mass = assemble_mass(LineBasis(IntervalMesh(0, 1, 2))).toarray()
    worst = max(worst, np.abs(mass - oracles.mass_matrix_oracle(0, 1, 2)).max())

    per = assemble_mass(
        LineBasis(IntervalMesh(0, 2 * np.pi, 4, periodic=True))).toarray()
    worst = max(worst, np.abs(
        per - oracles.mass_matrix_oracle(0, 2 * np.pi, 4, periodic=True)).max())

    stiff = assemble_stiffness(LineBasis(IntervalMesh(0, 1, 2)), 1.0).toarray()
    worst = max(worst,
                np.abs(stiff - oracles.stiffness_matrix_oracle(0, 1, 2)).max())

    ops = gamma_ops(3, 4, circumference=2 * np.pi)
    oracle = oracles.coupling_block_oracle(0, 1, 3, 2 * np.pi, 4)
    worst = max(worst, np.abs(ops.d_chi.toarray() - oracle).max())

    elapsed = time.perf_counter() - t0
    report(10, "assembled matrices match quadrature oracles",
           worst <= 1e-13,
           f"worst entrywise deviation {worst:.2e} <= 1e-13 "
           f"(1D mass, periodic mass, stiffness, coupling block)",
           elapsed, 2.0)
