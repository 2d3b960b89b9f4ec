import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

from phmix import driver, simulate
from phmix.config import default_config
from phmix.driver import POWER_RESIDUAL_TOL, build_problem, \
    convergence_study, drift_per_time, make_simulation, run_from_config, \
    run_gate_failures
from phmix.errors import ConfigurationError, MeshCompatibilityError, \
    PhmixError, StepFailureError
from phmix.fem import CouplingOperators
from phmix.fluid import FluidState, FluidSystem, eos
from phmix.geometry import IntervalMesh
from phmix.heat import temperature_of_entropy
from phmix.simulate import CoupledSimulation, EnergyLedger, LEDGER_HEADER, \
    PREDICTOR_ORDER, SCENARIOS, SimConfig, advance_table, build_scenario, \
    extrapolate, measure_pulse_speed, node_prefixes, \
    write_fluid_snapshot, write_heat_snapshot

import oracles


def small_cfg(**sim_overrides):
    sim = {"dt": 5e-4, "t_end": 5e-3}
    sim.update(sim_overrides)
    return default_config(
        geometry={"n_ax": 6, "n_az": 4, "n_th": 3, "n_fluid": 6}, sim=sim)


def run_scenario(cfg, name, params=None):
    problem = build_problem(cfg)
    setup = build_scenario(name, problem.heat, problem.fluid, params or {})
    sim = make_simulation(problem, cfg, setup)
    return problem, sim.run(setup)


def one_step_simulation(name, geometry, dt=2.5e-4):
    """The setup and simulation of one step of scenario `name`."""
    cfg = default_config(geometry=geometry, sim={"dt": dt, "t_end": dt})
    problem = build_problem(cfg)
    setup = build_scenario(name, problem.heat, problem.fluid, {})
    return problem, setup, make_simulation(problem, cfg, setup)


def row_scale_of(sim, heat_state, fluid_state):
    """The row scale `run` passes its steps when it starts from these
    states."""
    return sim._mass_rows * sim._magnitudes(heat_state.s, fluid_state)


def step_from(sim, heat_state, fluid_state, row_scale):
    """The `StepOutcome` of one step of `sim` from these states, Newton
    starting at the old state."""
    x_old = sim._pack(heat_state.s, fluid_state)
    return sim.step(heat_state.s, x_old, x_old, row_scale)


@dataclasses.dataclass
class NewtonPoint:
    """A trial end state x of one step of `sim`, the step from the packed
    old state x_old with solid entropy s_old; typ are the `_magnitudes` of
    that old state."""

    sim: CoupledSimulation
    x: np.ndarray
    x_old: np.ndarray
    s_old: np.ndarray
    typ: np.ndarray

    def residual(self, x):
        """The step's residual at x and the port fields there."""
        return self.sim._residual(x, self.x_old, self.s_old)


def newton_point(name, geometry, dt=2.5e-4):
    """A simulation of one step on a small mesh and an unknown vector near
    its converged iterate, nudged so that no Jacobian entry vanishes by
    symmetry (rest, uniform temperature).  The solid's nudge is the same
    at every node of an azimuthal line, so the state stays azimuthally
    uniform, as every committed scenario does, and the chord matrix is the
    Jacobian itself."""
    _, setup, sim = one_step_simulation(name, geometry, dt)
    heat0, fluid0 = setup.heat_state, setup.fluid_state
    typ = sim._magnitudes(heat0.s, fluid0)
    x = step_from(sim, heat0, fluid0, sim._mass_rows * typ).x
    phase = np.arange(len(x))
    phase[:sim._nfree] = oracles.azimuthal_lines(sim)[1]
    x = x + 1e-6 * typ * np.sin(phase)
    return NewtonPoint(sim, x, sim._pack(heat0.s, fluid0), heat0.s, typ)


def dense_cd_jacobian(point):
    """Reference: one central difference per column at point.x, with the
    step h_j = 1e-5 max(|x_j|, typ_j)."""
    x = point.x
    jac = np.empty((len(x), len(x)))
    for j in range(len(x)):
        h = 1e-5 * max(abs(x[j]), point.typ[j])
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (point.residual(xp)[0] - point.residual(xm)[0]) / (2.0 * h)
    return jac


NEWTON_CASES = [
    pytest.param(name, {"n_ax": 6, "n_az": n_az, "n_th": 3, "n_fluid": 6},
                 id=f"{name}-6x{n_az}x3")
    for name in ("hot-wall-cooldown", "heated-ext-face", "acoustic-pulse")
    for n_az in (4, 5)]

# the cooldown ladder's rungs
LADDER_CASES = [
    pytest.param("hot-wall-cooldown",
                 {"n_ax": n_ax, "n_az": n_az, "n_th": 4, "n_fluid": n_ax},
                 id=f"hot-wall-cooldown-{n_ax}x{n_az}x4")
    for n_ax, n_az in ((16, 8), (24, 12), (48, 24))]


def complex_step_solid_columns(sim, s_mid):
    """Reference for the free solid columns of the midpoint Jacobian: the
    complex-step tangent of the heat loads at the pinned midpoint s_mid,
    composed like the residual (ds_mid = ds1 / 2): mass - dt/2 d loads on
    the free rows, -dt/2 embed_t of d loads on the coupling rows into the
    channel entropy rows."""
    heat, free, nf, nfree = sim.heat, sim._free, sim._nf, sim._nfree
    dloads = oracles.complex_step_loads_tangent(heat, s_mid)[:, free]
    half_dt = 0.5 * sim.cfg.dt
    out = np.zeros((sim.chord.n, nfree))
    out[:nfree] = np.diag(heat.mass[free]) - half_dt * dloads[free]
    out[nfree + 2 * nf:] = -half_dt * sim.ops.embed_t(
        dloads[heat.coupling_dofs])
    return out


def build_args(point):
    """The channel midpoint and the port fields that a build at point.x
    takes from the residual there, as `_build_jacobian` passes them."""
    fluid_mid, t_m, s_mid = point.residual(point.x)[1][:3]
    return fluid_mid, s_mid, t_m


def mode_band(point):
    """The mode band a build makes at point.x, as a CSR matrix in the
    band's order."""
    lay = point.sim.chord.layout
    return oracles.band_to_csr(point.sim.chord.band(*build_args(point)),
                               lay.kl, lay.ku)


def built_jacobian(point):
    """The chord matrix a build makes at point.x, taken from the mode band
    B back to a dense matrix in the packed order: T^-1 B T^-T."""
    t = oracles.mode_transform(point.sim).toarray()
    back = np.linalg.solve(t, mode_band(point).toarray())
    return np.linalg.solve(t, back.T).T


# every column of a build against the central difference, as a fraction of
# the column's largest entry: at most 1.5e-11 is seen on NEWTON_CASES, a
# 1 % error in one tangent term reads 1.3e-3, and forward-differenced
# columns of sqrt(eps) step read 1e-8
CD_TOL = 5e-11


def jacobian_column_errors(point):
    """Each column's largest error in a build at point.x, relative to the
    column's largest entry: against the central difference for every
    column, and against the complex step for the free solid columns."""
    sim = point.sim
    dense = dense_cd_jacobian(point)
    s_mid = build_args(point)[1]  # the pinned midpoint state at x
    jac = built_jacobian(point)
    cd_err = np.abs(jac - dense).max(axis=0) / np.abs(dense).max(axis=0)
    cs_err = np.zeros(0)
    if sim._nfree:
        reference = complex_step_solid_columns(sim, s_mid)
        cs_err = np.abs(jac[:, :sim._nfree] - reference).max(axis=0) \
            / np.abs(reference).max(axis=0)
    return cd_err, cs_err


class TestColoredNewton:
    """The Jacobian a build writes, column by column and entry by entry,
    against its references."""

    @pytest.mark.parametrize("name,geometry", NEWTON_CASES)
    def test_dense_jacobian_inside_pattern(self, name, geometry):
        # the central differences vanish outside the block-composed
        # pattern, and the mode band a build writes outside that pattern
        # collapsed along the azimuth
        point = newton_point(name, geometry)
        sim = point.sim
        dense = dense_cd_jacobian(point)
        reference = oracles.jacobian_pattern_oracle(sim).toarray()
        assert reference.shape == dense.shape
        assert np.all(dense[~reference] == 0.0)
        band = mode_band(point).toarray()
        assert not band[~oracles.mode_pattern_oracle(sim).toarray()].any()

    @pytest.mark.parametrize("name,geometry", NEWTON_CASES)
    def test_colored_jacobian_matches_dense(self, name, geometry):
        # every column against the central difference; the solid columns
        # also against the complex step, which a difference could not pass
        cd_err, cs_err = jacobian_column_errors(newton_point(name, geometry))
        assert cd_err.max() <= CD_TOL
        assert np.all(cs_err <= 1e-13)

    @pytest.mark.parametrize("name,geometry", [NEWTON_CASES[0],
                                               NEWTON_CASES[-1]])
    def test_perturbed_channel_tangent_fails_the_gate(self, name, geometry,
                                                      monkeypatch):
        # dp/dphi 1 % off: the central-difference gate sees it, the
        # solid columns' complex-step gate does not
        point = newton_point(name, geometry)
        sim = point.sim
        exact = sim.fluid.loads_tangent
        nf = sim._nf

        def perturbed(state):
            jac, t_grad = exact(state)
            jac[nf:2 * nf, :nf] *= 1.01  # d f_vel / d phi = -G dp/dphi
            return jac, t_grad

        monkeypatch.setattr(sim.fluid, "loads_tangent", perturbed)
        cd_err, cs_err = jacobian_column_errors(point)
        assert cd_err.max() > 100 * CD_TOL
        assert np.all(cs_err <= 1e-13)


# the factors the chord solves are checked on, as (name, geometry, dt,
# rows interchanged): the step-1 factor of the mode band interchanges no
# row at dt, on the ladder's 48x24x4 rung too, and one on 6x4x3 at 16 dt,
# so both solve paths are covered
FACTOR_CASES = [
    pytest.param(*case.values, 2.5e-4, False, id=case.id)
    for case in NEWTON_CASES + LADDER_CASES] + [
    pytest.param("hot-wall-cooldown",
                 {"n_ax": 6, "n_az": 4, "n_th": 3, "n_fluid": 6}, 4e-3, True,
                 id="hot-wall-cooldown-6x4x3-16dt")]


# the edges of the mode band: one axial layer, a one-cell periodic azimuth
# (one mode, each cell holding its azimuthal node twice), a heated one-cell
# thickness (every wall-adjacent row held: no solid unknown, the wall
# reaching the entropy rows alone), the channel alone (no solid), an even
# azimuth of two nodes (mode 0 and the Nyquist mode) and an odd one of
# three (a cos and a sin, no Nyquist), and a factor with row interchanges
EDGE_CASES = [
    pytest.param("hot-wall-cooldown",
                 {"n_ax": 1, "n_az": 4, "n_th": 3, "n_fluid": 1}, 2.5e-4,
                 id="one-layer-1x4x3"),
    pytest.param("hot-wall-cooldown",
                 {"n_ax": 3, "n_az": 1, "n_th": 1, "n_fluid": 3}, 2.5e-4,
                 id="one-cell-azimuth-3x1x1"),
    pytest.param("heated-ext-face",
                 {"n_ax": 4, "n_az": 2, "n_th": 1, "n_fluid": 4}, 2.5e-4,
                 id="heated-ext-face-4x2x1"),
    pytest.param("acoustic-pulse",
                 {"n_ax": 5, "n_az": 3, "n_th": 2, "n_fluid": 5}, 2.5e-4,
                 id="acoustic-pulse-5x3x2"),
    pytest.param("hot-wall-cooldown",
                 {"n_ax": 4, "n_az": 2, "n_th": 2, "n_fluid": 4}, 2.5e-4,
                 id="hot-wall-cooldown-4x2x2"),
    pytest.param("hot-wall-cooldown",
                 {"n_ax": 4, "n_az": 3, "n_th": 2, "n_fluid": 4}, 2.5e-4,
                 id="hot-wall-cooldown-4x3x2"),
    pytest.param("hot-wall-cooldown",
                 {"n_ax": 6, "n_az": 4, "n_th": 3, "n_fluid": 6}, 4e-3,
                 id="hot-wall-cooldown-6x4x3-16dt")]


def at_dt(cases, dt=2.5e-4):
    """(name, geometry) cases as (name, geometry, dt) ones, ids kept."""
    return [pytest.param(*case.values, dt, id=case.id) for case in cases]


def factored_point(name, geometry, dt):
    """`newton_point` with the residual r at x and the factor built there;
    returns (point, r, the rows that build interchanged)."""
    point = newton_point(name, geometry, dt)
    sim = point.sim
    r, ports = point.residual(point.x)
    before = sim.chord.row_interchanges  # the step's own builds counted too
    sim._build_jacobian(ports)
    return point, r, sim.chord.row_interchanges - before


def oracle_jacobian(point, average=False):
    """The dense chain-rule Jacobian at point.x, in the packed order."""
    return oracles.csc_jacobian_oracle(point.sim, point.x, point.x_old,
                                       point.s_old, average).toarray()


class TestBandLU:
    @pytest.mark.parametrize("name,geometry,dt,interchanged",
                             FACTOR_CASES + [
                                 pytest.param(*case.values, None, id=case.id)
                                 for case in EDGE_CASES[:-1]])
    def test_chord_solve_matches_dense_solve(self, name, geometry, dt,
                                             interchanged):
        # at an azimuthally uniform state the mode solve is the solve with
        # the independent chain-rule Jacobian, on every edge of the modes:
        # for the residual there, whose solid rows are uniform (mode 0),
        # and for a random right-hand side, which every mode carries
        point, r, moved = factored_point(name, geometry, dt)
        if interchanged is not None:
            assert (moved > 0) == interchanged
        jac = oracle_jacobian(point)
        for rhs in (r, np.random.default_rng(5).standard_normal(len(r))):
            got = point.sim.chord.solve(rhs)
            want = np.linalg.solve(jac, rhs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name,geometry,dt,interchanged", FACTOR_CASES)
    def test_chord_solve_matches_dgbtrs(self, name, geometry, dt,
                                        interchanged):
        # the azimuthal transform, the triangle solves of a factor without
        # interchanges or the solve of one with them, and the inverse
        # transform, against LAPACK's solve on a factor of the same band
        # between the layout's own transform rows
        point, r, moved = factored_point(name, geometry, dt)
        sim = point.sim
        lay = sim.chord.layout
        lu, piv, info = dgbtrf(sim.chord.band(*build_args(point)), lay.kl,
                               lay.ku)
        assert info == 0
        assert moved == np.count_nonzero(piv != np.arange(len(piv)))
        assert (moved > 0) == interchanged
        t = oracles.mode_transform(sim, fourier=lay.forward)
        y, info = dgbtrs(lu, lay.kl, lay.ku, t @ r, piv)
        assert info == 0
        want = t.T @ y
        got = sim.chord.solve(r)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        if interchanged:  # the band and its pivots, as dgbtrf left them
            assert sim.chord.triangles is None
            kept_lu, kept_piv = sim.chord.band_lu
            assert np.array_equal(kept_lu, lu)
            assert np.array_equal(kept_piv, piv)

    def test_triangle_state_is_two_contiguous_copies(self):
        # a factor without interchanges is kept as its two triangles,
        # copied out of the factored band, which is not kept; a solve
        # allocates a few vectors only
        point, r, moved = factored_point(*LADDER_CASES[0].values, 2.5e-4)
        sim = point.sim
        lay = sim.chord.layout
        kl, ku = lay.kl, lay.ku
        lu, _, info = dgbtrf(sim.chord.band(*build_args(point)), kl, ku)
        assert moved == 0 and info == 0
        assert sim.chord.band_lu is None
        lower, upper = sim.chord.triangles
        for kept, rows in ((lower, lu[kl + ku:]), (upper, lu[kl:kl + ku + 1])):
            assert kept.flags.f_contiguous and kept.base is None
            assert np.array_equal(kept, rows)
        sim.chord.solve(r)
        tracemalloc.start()
        try:
            sim.chord.solve(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * r.nbytes < (lower.nbytes + upper.nbytes) / 3

    @pytest.mark.parametrize("dt,moved", [(5e-4, 0), (4e-3, 1)])
    def test_run_reports_row_interchanges(self, dt, moved):
        # the run's one factor interchanges one row at 16 dt and none at
        # 2 dt; a second run counts its own
        cfg = small_cfg(dt=dt, t_end=10 * dt)
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        for result in (sim.run(setup), sim.run(setup)):
            assert result.jacobian_builds == 1
            assert result.row_interchanges == moved

    @pytest.mark.parametrize("name,geometry", LADDER_CASES)
    def test_bandwidth(self, name, geometry):
        # the mode band's half-widths are an n_az = 1 mesh's: a slab of
        # the channel triple and the free layers, plus two; the entries a
        # build writes reach both and leave the fill rows empty, and the
        # order is a permutation
        point = newton_point(name, geometry)
        lay = point.sim.chord.layout
        nx = point.sim.chord.n
        assert np.array_equal(np.sort(lay.order), np.arange(nx))
        assert np.array_equal(lay.order[lay.rank], np.arange(nx))
        assert lay.kl == lay.ku == geometry["n_th"] + 5
        band = point.sim.chord.band(*build_args(point))
        assert not band[:lay.kl].any()
        assert band[lay.kl].any() and band[-1].any()

    @pytest.mark.parametrize("name,geometry,dt",
                             at_dt(NEWTON_CASES + LADDER_CASES[:2])
                             + EDGE_CASES)
    def test_band_equals_csc_assembly(self, name, geometry, dt):
        # the mode band against a sparse chain-rule composition of the
        # same tangents taken to the modes, T J T^T, column by column to
        # round-off at a uniform state: every mode's block and the zeros
        # between them
        point = newton_point(name, geometry, dt)
        band = mode_band(point).toarray()
        t = oracles.mode_transform(point.sim)
        reference = (t @ oracles.csc_jacobian_oracle(
            point.sim, point.x, point.x_old, point.s_old) @ t.T).toarray()
        err = np.abs(band - reference).max(axis=0)
        assert np.all(err <= 1e-14 * np.abs(reference).max(axis=0))


def test_azimuthal_rows_are_the_layout_transform():
    # the layout's forward rows are the Fourier rows built from complex
    # exponentials, row 0 the azimuthal sum: F F^T is diag(n_az, 1, ...)
    for n_az in (1, 2, 3, 4, 5, 8, 12):
        *_, sim = one_step_simulation(
            "hot-wall-cooldown",
            {"n_ax": 2, "n_az": n_az, "n_th": 1, "n_fluid": 2})
        lay = sim.chord.layout
        rows, modes = oracles.azimuthal_rows(n_az)
        assert np.array_equal(lay.mode, modes)
        assert np.abs(lay.forward - rows).max() <= 1e-14
        gram = lay.forward @ lay.forward.T
        want = np.diag(np.r_[n_az, np.ones(n_az - 1)])
        assert np.abs(gram - want).max() <= 1e-15 * n_az


# a state with a cos theta entropy streak away from the wall, which the
# mode solve meets with the azimuthal mean of the cell blocks
STREAK_CASES = [
    pytest.param("hot-wall-cooldown",
                 {"n_ax": 6, "n_az": 4, "n_th": 3, "n_fluid": 6},
                 id="hot-wall-cooldown-6x4x3"),
    pytest.param("heated-ext-face",
                 {"n_ax": 6, "n_az": 5, "n_th": 3, "n_fluid": 6},
                 id="heated-ext-face-6x5x3")]


def streak(sim, amplitude):
    """The free solid entropy of a cos theta temperature streak of relative
    `amplitude` (packed), zero on the wall, which no unknown holds."""
    n_az, _, j, _ = oracles.azimuthal_lines(sim)
    rho_c = sim.heat.material.rho_c
    return rho_c * np.log1p(amplitude * np.cos(2 * np.pi * j / n_az))


@pytest.mark.parametrize("name,geometry", STREAK_CASES)
def test_mode_solve_averages_a_streak(name, geometry):
    # away from a uniform state the chord matrix is the Jacobian with each
    # cell block the mean over its azimuthal ring: the mode solve matches
    # the dense solve of that oracle, and not the exact Jacobian's
    point = newton_point(name, geometry)
    sim = point.sim
    point.x[:sim._nfree] += streak(sim, 0.2)
    r, ports = point.residual(point.x)
    sim._build_jacobian(ports)
    got = sim.chord.solve(r)
    want = np.linalg.solve(oracle_jacobian(point, average=True), r)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    exact = np.linalg.solve(oracle_jacobian(point), r)
    assert np.abs(got - exact).max() > 1e-6 * np.abs(exact).max()


def test_run_from_a_streak_passes_the_gates():
    # a hot-wall cooldown that starts with a cos theta streak of +-20 % in
    # the solid's temperature away from the wall: the chord iteration on
    # the averaged blocks converges every step, the streak decays, and
    # every run gate holds
    cfg = small_cfg()
    problem = build_problem(cfg)
    setup = build_scenario("hot-wall-cooldown", problem.heat, problem.fluid,
                           {})
    sim = make_simulation(problem, cfg, setup)
    s0 = setup.heat_state.s.copy()
    setup.heat_state.s[sim._free] += streak(sim, 0.2)
    result = sim.run(setup)
    assert result.steps == 10
    assert run_gate_failures(result.ledger) == []
    dom = problem.heat.domain
    rings = (dom.axial.n_nodes, dom.azimuthal.n_nodes, dom.thickness.n_nodes)
    spread = [np.ptp(s.reshape(rings), axis=1).max()
              for s in (setup.heat_state.s, result.heat_state.s)]
    assert 0 < spread[1] < spread[0]
    assert not np.array_equal(s0, setup.heat_state.s)


@pytest.mark.parametrize("name,geometry,dt",
                         at_dt(NEWTON_CASES + LADDER_CASES) + EDGE_CASES)
def test_sparsity_matches_references(name, geometry, dt):
    """The entries a build writes in the mode band lie in the packed
    pattern collapsed along the azimuth (`mode_pattern_oracle`), on the
    solid rows and columns of every mode exactly; mode 0's channel block
    holds them and entries that are zero there: the node diagonal of every
    block, grad_pairing's zero interior diagonal and the sealed-end rows."""
    point = newton_point(name, geometry, dt)
    sim = point.sim
    structure = mode_band(point) != 0
    reference = oracles.mode_pattern_oracle(sim)
    assert (structure > reference).nnz == 0
    solid = sim.chord.layout.order < sim._nfree
    assert (structure[solid] != reference[solid]).nnz == 0
    assert (structure[:, solid] != reference[:, solid]).nnz == 0


@pytest.mark.parametrize("name,geometry,dt", EDGE_CASES[:3])
def test_wall_slots_enter_the_rows_they_reach(name, geometry, dt):
    # mode 0's wall columns, folded into each node's phi and s, reach the
    # rows the wall's dofs reach: the entropy rows of the node and its
    # neighbours (3 nf - 2) and, unless a heated one-cell thickness holds
    # every wall-adjacent row, mode 0's wall-adjacent rows of the same
    # nodes (3 nf - 2 more), which no other solid row is
    point = newton_point(name, geometry, dt)
    sim = point.sim
    lay = sim.chord.layout
    nf, nfree = sim._nf, sim._nfree
    band = mode_band(point).toarray() != 0
    node = np.arange(nf)
    entropy = lay.rank[nfree + 2 * nf + node]
    solid = lay.rank[:nfree] if nfree else np.empty(0, dtype=np.intp)
    wall_adjacent = lay.rank[np.arange(0, nf * lay.nk, max(lay.nk, 1))] \
        if nfree else solid
    for field in (0, 2):  # the phi and s columns
        cols = band[:, lay.rank[nfree + field * nf + node]]
        assert np.count_nonzero(cols[entropy]) == 3 * nf - 2
        assert np.count_nonzero(cols[solid]) == \
            np.count_nonzero(cols[wall_adjacent]) == \
            (0 if name == "heated-ext-face" else 3 * nf - 2)


def same_bits(a, b):
    """Equal arrays down to the sign of zero (None equals None)."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def port_arrays(ports):
    """The port fields of a residual as arrays (or None): the channel
    midpoint's three fields, then the others."""
    fluid_mid, *rest = ports
    return [fluid_mid.phi, fluid_mid.vel, fluid_mid.s, *rest]


class TestPackedResidual:
    @pytest.mark.parametrize("name,geometry", NEWTON_CASES)
    def test_matches_unpacked_oracle_bitwise(self, name, geometry):
        # at the nudged iterate, at the old state and at a far trial point
        point = newton_point(name, geometry)
        x = point.x
        x_far = x + 1e-3 * point.typ * np.cos(np.arange(len(x)))
        for at in (x, point.x_old, x_far):
            want, want_ports = oracles.midpoint_residual_oracle(
                point.sim, at, point.x_old, point.s_old)
            got, ports = point.residual(at)
            assert same_bits(got, want)
            assert len(ports) == len(want_ports)
            for field, ref in zip(port_arrays(ports),
                                  port_arrays(want_ports)):
                assert same_bits(field, ref)

    @pytest.mark.parametrize("name", ["hot-wall-cooldown", "heated-ext-face",
                                      "acoustic-pulse"])
    def test_build_writes_into_no_port_field(self, name):
        # _newton hands `step` the port fields of its last residual after
        # builds from them: a build writes into none of the fields it is
        # given, and the next residual returns fresh ones that share no
        # memory with these
        point = newton_point(name, {"n_ax": 6, "n_az": 4, "n_th": 3,
                                    "n_fluid": 6})
        _, ports = point.residual(point.x)
        fields = port_arrays(ports)
        saved = [None if p is None else p.copy() for p in fields]
        point.sim._build_jacobian(ports)
        assert all(same_bits(p, q) for p, q in zip(fields, saved))
        _, fresh = point.residual(point.x + 1e-4 * point.typ)
        assert all(same_bits(p, q) for p, q in zip(fields, saved))
        assert not any(np.shares_memory(p, q)
                       for p, q in zip(port_arrays(fresh), fields)
                       if p is not None)


@pytest.mark.parametrize("rows", range(1, 9))
def test_extrapolate_sums_equal_cumsum(rows):
    table = np.random.default_rng(rows).standard_normal((rows, 64)) \
        * np.logspace(0, -rows, rows)[:, None]
    _, sums = extrapolate(table, np.ones(64))
    assert same_bits(sums, np.cumsum(table, axis=0))


@pytest.mark.parametrize("n_az", [4, 5])
def test_closed_form_ports_match_surface_solves(n_az):
    cfg = default_config(geometry={"n_ax": 6, "n_az": n_az, "n_th": 3,
                                   "n_fluid": 6})
    ops = build_problem(cfg).ops
    rng = np.random.default_rng(7)
    t = rng.uniform(250.0, 400.0, ops.n_chi)
    f = rng.standard_normal(ops.n_psi)
    embed = ops.solve_psi(ops.d_psi @ t)
    assert np.abs(ops.embed(t) - embed).max() <= 1e-13 * np.abs(embed).max()
    integrate = ops.d_chi @ ops.solve_psi(f)
    assert np.abs(ops.embed_t(f) - integrate).max() <= \
        1e-13 * np.abs(integrate).max()


def table_of(history, typ):
    """The backward-difference table `run` keeps after accepting the
    vectors of `history` (oldest first)."""
    table = history[0][None, :]
    for x in history[1:]:
        _, sums = extrapolate(table, typ)
        table = advance_table(table, sums, x)
    return table


def reference_prediction(history, typ):
    """The predictor written out: iterated backward differences of the last
    PREDICTOR_ORDER + 1 vectors of `history`, summed through del x_n and
    then while each term is smaller (max |.| / typ) than the one before.
    Returns (prediction, order)."""
    hist = np.array(history[-(PREDICTOR_ORDER + 1):])
    diffs = [hist[-1]]
    while len(hist) > 1:
        hist = np.diff(hist, axis=0)
        diffs.append(hist[-1])
    order = min(len(diffs) - 1, 1)
    pred = sum(diffs[:order + 1])
    for prev, term in zip(diffs[1:], diffs[2:]):
        if not np.max(np.abs(term) / typ) < np.max(np.abs(prev) / typ):
            break
        pred = pred + term
        order += 1
    return pred, order


def polynomial_samples(degree, seed, h=1e-2, n=50):
    """p(k h) for a random vector-valued polynomial p of the given degree."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((degree + 1, n))
    k0 = int(rng.integers(0, 20))
    return lambda k: sum(c * ((k0 + k) * h) ** j for j, c in enumerate(coef))


def assert_reproduces_polynomials(degree):
    # small h: the differences shrink up to del^degree, so the rule keeps
    # them, and the order-degree prediction is exact
    at = polynomial_samples(degree, degree)
    typ = np.ones(50)
    for m in range(degree + 1, 13):
        got, _ = extrapolate(table_of([at(k) for k in range(m)], typ), typ)
        want = at(m)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestPredictor:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_reproduces_cubic_sequences(self, degree):
        assert_reproduces_polynomials(degree)

    @pytest.mark.parametrize("degree", [4, 5, 6, 7])
    def test_reproduces_higher_degree_sequences(self, degree):
        assert_reproduces_polynomials(degree)

    def test_constant_history_is_bit_exact(self):
        x = np.random.default_rng(1).uniform(-1e3, 1e3, 40)
        typ = np.ones(40)
        for m in range(1, 12):
            table = table_of([x.copy() for _ in range(m)], typ)
            before = table.copy()
            got, sums = extrapolate(table, typ)
            assert np.array_equal(got, x)
            assert not np.shares_memory(got, table)
            assert np.array_equal(table, before)
            # accepting x_n again adds only zero differences
            new = advance_table(table, sums, x)
            assert np.array_equal(new[:len(table)], table)
            assert not np.any(new[len(table):])

    @pytest.mark.parametrize("degree", range(8))
    @pytest.mark.parametrize("delta", [1e-2, 1e-1])
    def test_rough_history_backs_off(self, degree, delta):
        # alternating noise doubles with every difference: a fixed order k
        # carries (2^(k+1) - 1) delta into the prediction (15 delta at
        # order 3, 255 at order 7), the rule stops by order 2 (7 delta).
        # A smooth block of large typical size rides along: its differences
        # are large until scaled by typ, so only the scaled sizes cut
        smooth = polynomial_samples(7, 20)
        rough = polynomial_samples(degree, 10 + degree)
        typ = np.concatenate([np.full(50, 1e6), np.ones(50)])

        noise = np.concatenate([np.zeros(50), np.full(50, delta)])

        def at(k):
            return np.concatenate([1e6 * smooth(k), rough(k)])

        for m in range(2, 13):
            history = [at(k) + (-1) ** k * noise for k in range(m)]
            got, _ = extrapolate(table_of(history, typ), typ)
            assert np.max(np.abs(got - at(m)) / typ) <= 8 * delta

    def test_run_starts_each_step_from_the_table(self, monkeypatch):
        # at this dt the higher differences stop shrinking on early steps,
        # so the rule cuts the series below the order the table allows
        cfg = small_cfg(dt=2e-3, t_end=4e-2)
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        preds, xs = [], [sim._pack(setup.heat_state.s, setup.fluid_state)]
        outcomes = []
        typ = sim._magnitudes(setup.heat_state.s, setup.fluid_state)
        step = sim.step

        def recording_step(s_old, x_old, x_pred, row_scale):
            # the table's row 0 is the old state packed, bit for bit, and
            # every step is scaled by the initial state's magnitudes
            assert same_bits(x_old, xs[-1])
            assert same_bits(x_old[:sim._nfree], s_old[sim._free])
            assert same_bits(row_scale, sim._mass_rows * typ)
            preds.append(x_pred)
            outcomes.append(step(s_old, x_old, x_pred, row_scale))
            xs.append(outcomes[-1].x)
            return outcomes[-1]

        monkeypatch.setattr(sim, "step", recording_step)
        result = sim.run(setup)
        assert len(preds) == 20
        # the run reports each step's outcome by name: its iterations, its
        # final residual and, in its ledger row, its powers; it ends in the
        # last outcome's state
        assert result.step_iterations.tolist() == \
            [out.iterations for out in outcomes]
        assert result.step_residuals.tolist() == \
            [out.norm for out in outcomes]
        for row, out in zip(result.ledger.records[1:], outcomes, strict=True):
            assert (row.P_couple_heat, row.P_couple_fluid, row.P_ext) == \
                (out.p_heat, out.p_fluid, out.p_ext)
            assert row.P_couple_residual == out.p_heat + out.p_fluid
        assert result.heat_state is outcomes[-1].heat_state
        assert np.array_equal(preds[0], xs[0])
        orders = []
        for k, pred in enumerate(preds[1:], start=1):
            want, order = reference_prediction(xs[:k + 1], typ)
            assert np.abs(pred - want).max() <= 1e-13 * np.abs(want).max()
            orders.append(order)
        assert orders[0] == 1 and max(orders) == PREDICTOR_ORDER
        assert any(order < min(k, PREDICTOR_ORDER)
                   for k, order in enumerate(orders, start=1))

    def test_default_cooldown_newton_count(self):
        # 230 since the chord solve works in azimuthal modes: steps 135 to
        # 194 take 0 or 1 iterations as their predicted residuals fall
        # within 10 % either side of NEWTON_TOL, which the solves' rounding
        # decides; the band LU of the packed Jacobian read 229, and 230 on
        # the same matrix under a dense LU
        cfg = default_config()
        _, result = run_scenario(cfg, "hot-wall-cooldown")
        assert result.steps == 200
        assert result.newton_iterations <= 230
        assert result.jacobian_builds == 1
        assert result.row_interchanges == 0  # the triangle solves
        assert result.jacobian_build_s > 0 and result.chord_solve_s > 0
        # per step: the iterations add up, every step ended converged
        assert result.step_iterations.shape == (200,)
        assert result.step_iterations.sum() == result.newton_iterations
        assert result.step_residuals.shape == (200,)
        assert 0 < result.step_residuals.max() <= simulate.NEWTON_TOL

    def test_large_mesh_newton_count(self):
        # the benchmark's 24x12x4 rung, 20 steps
        cfg = default_config(geometry={"n_ax": 24, "n_az": 12, "n_th": 4,
                                       "n_fluid": 24})
        cfg = dataclasses.replace(cfg, sim=dataclasses.replace(
            cfg.sim, t_end=20 * cfg.sim.dt))
        _, result = run_scenario(cfg, "hot-wall-cooldown")
        assert result.steps == 20
        assert result.newton_iterations <= 47
        assert result.jacobian_builds == 1
        assert result.row_interchanges == 0


@pytest.mark.parametrize("name", ["hot-wall-cooldown", "heated-ext-face",
                                  "acoustic-pulse"])
def test_step_outputs_match_fresh_residual_at_x(name):
    # heat', fluid', the powers and the norm of a step are those of the
    # residual at the x it returns: the midpoint ports recomputed from the
    # subsystems' own operators give the same bits, and the load-form
    # powers match those through surface mass solves to round-off
    cfg = small_cfg()
    problem = build_problem(cfg)
    heat, fluid, ops = problem.heat, problem.fluid, problem.ops
    setup = build_scenario(name, heat, fluid, {})
    sim = make_simulation(problem, cfg, setup)
    dt, nf = cfg.sim.dt, fluid.n_dofs
    hs, fs = setup.heat_state, setup.fluid_state
    row_scale = row_scale_of(sim, hs, fs)
    iterations = 0
    for _ in range(4):
        x_old = sim._pack(hs.s, fs)
        out = sim.step(hs.s, x_old, x_old, row_scale)
        hs1, fs1, x = out.heat_state, out.fluid_state, out.x
        p_heat, p_fluid, p_ext = out.p_heat, out.p_fluid, out.p_ext
        iterations += out.iterations
        # the outcome's residual is the oracle's at x, and its norm the
        # scaled max norm of that residual
        r, ports = oracles.midpoint_residual_oracle(sim, x, x_old, hs.s)
        assert same_bits(out.r, r)
        assert out.norm == float((np.abs(r) / row_scale).max()) \
            <= simulate.NEWTON_TOL
        for field, ref in zip(port_arrays(out.ports), port_arrays(ports),
                              strict=True):
            assert same_bits(field, ref)
        n_free = len(x) - 3 * nf
        phi1, vel1, sf1 = (x[n_free + i * nf:n_free + (i + 1) * nf]
                           for i in range(3))
        _, t_m = fluid.loads(FluidState(0.5 * (fs.phi + phi1),
                                        0.5 * (fs.vel + vel1),
                                        0.5 * (fs.s + sf1)))
        for got, want in zip((fs1.phi, fs1.vel, fs1.s), (phi1, vel1, sf1)):
            assert np.array_equal(got, want)
        if not setup.coupled:
            assert np.array_equal(hs1.s, hs.s)
            assert (p_heat, p_fluid, p_ext) == (0.0, 0.0, 0.0)
        else:
            free = sim._free
            s_mid = np.empty(heat.n_dofs)
            s_mid[free] = 0.5 * (hs.s[free] + x[:n_free])
            _, wall, ext = heat.port_loads(s_mid, ops.embed(t_m),
                                           setup.ext_temperature,
                                           s_old=hs.s, dt=dt)
            s1 = 2.0 * s_mid - hs.s
            s1[free] = x[:n_free]
            assert np.array_equal(hs1.s, s1)
            assert p_heat == float(t_m @ ops.embed_t(wall))
            assert p_fluid == -float(t_m @ ops.line_load(wall))
            assert p_ext == (0.0 if ext is None
                             else setup.ext_temperature * float(ext.sum()))
            want = oracles.surface_solve_powers(ops, t_m, wall, ext,
                                                setup.ext_temperature)
            for got, ref in zip((p_heat, p_fluid, p_ext), want):
                assert abs(got - ref) <= 1e-13 * abs(ref)
        hs, fs = hs1, fs1
    assert iterations >= 4  # every step iterated past its start


@pytest.mark.parametrize("name", ["hot-wall-cooldown", "heated-ext-face",
                                  "acoustic-pulse"])
def test_powers_need_no_surface_solve(name, monkeypatch):
    # the load-form powers never solve with m_psi: line_load takes its
    # weights from the azimuthal factor
    calls = []
    solve = CouplingOperators.solve_psi
    monkeypatch.setattr(CouplingOperators, "solve_psi",
                        lambda self, b: calls.append(1) or solve(self, b))
    cfg = small_cfg()
    problem = build_problem(cfg)
    setup = build_scenario(name, problem.heat, problem.fluid, {})
    sim = make_simulation(problem, cfg, setup)
    for _ in range(2):
        led = sim.run(setup).ledger
        assert calls == []
    if setup.coupled:
        p_heat = np.abs(led.column("P_couple_heat")[1:])
        assert np.all(np.abs(led.column("P_couple_residual")[1:])
                      <= 1e-12 * p_heat)
        assert (led.column("P_ext")[1:] != 0).all() \
            == (setup.ext_temperature is not None)


@pytest.mark.parametrize("name", ["hot-wall-cooldown", "heated-ext-face"])
def test_coupled_run_assembles_no_block(name):
    # the stepper applies the wall in factor form (embed, embed_t and
    # line_load): neither the construction nor a coupled run assembles a
    # block or factors a mass
    cfg = small_cfg()
    problem, result = run_scenario(cfg, name)
    assert np.abs(result.ledger.column("P_couple_heat")).max() > 0
    assert not vars(problem.ops).keys() & {
        "m_chi", "m_psi", "d_chi", "d_psi", "_psi_lu", "_chi_lu"}


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=0.0, t_end=1.0)
        for bad in (np.inf, np.nan):
            for key in ("dt", "t_end"):
                kwargs = dict(dt=0.1, t_end=1.0)
                kwargs[key] = bad
                with pytest.raises(ConfigurationError,
                                   match=f"{key} must be finite"):
                    SimConfig(**kwargs)
        with pytest.raises(ConfigurationError):
            SimConfig(dt=0.1, t_end=0.05)
        with pytest.raises(ConfigurationError, match="t_end / dt overflows"):
            SimConfig(dt=1e-300, t_end=1e300)

    @pytest.mark.parametrize("t_end", [3.5e-3, 2.5e-3, 4.0004e-3])
    def test_fractional_step_count_rejected(self, t_end):
        # run() takes round(t_end / dt) steps: 3.5e-3 would end the ledger
        # at 0.004, past t_end, and 2.5e-3 at 0.002, short of it
        with pytest.raises(ConfigurationError,
                           match=rf"t_end = {t_end} .* dt = 0\.001 "):
            SimConfig(dt=1e-3, t_end=t_end)

    @pytest.mark.parametrize("dt,t_end", [
        (1e-3, 4e-3), (2.5e-4, 0.05), (1.25e-4, 0.05), (5e-4, 5e-3),
        (0.1, 0.3), (2e-3, 4e-2)])
    def test_whole_step_counts_accepted(self, dt, t_end):
        # ratios that are whole up to round-off (0.3 / 0.1 is
        # 2.9999999999999996) pass
        cfg = SimConfig(dt=dt, t_end=t_end)
        assert round(cfg.t_end / cfg.dt) * cfg.dt \
            == pytest.approx(cfg.t_end, rel=1e-12)


class TestEquilibrium:
    def test_fixed_point_preserved(self):
        cfg = small_cfg(t_end=1e-2)
        problem, result = run_scenario(cfg, "equilibrium")
        setup = build_scenario("equilibrium", problem.heat, problem.fluid, {})
        assert np.abs(result.heat_state.s - setup.heat_state.s).max() <= 1e-12
        assert np.abs(result.fluid_state.s - setup.fluid_state.s).max() <= 1e-12
        assert np.abs(result.fluid_state.vel).max() <= 1e-12
        total = result.ledger.column("total")
        assert np.abs(total - total[0]).max() <= 1e-10 * abs(total[0])
        assert (result.newton_iterations, result.jacobian_builds) == (0, 0)
        assert result.jacobian_build_s == result.chord_solve_s == 0.0
        assert not result.step_iterations.any()
        assert result.step_residuals.max() <= 1e-15  # round-off at the start


@pytest.fixture(scope="module")
def cooldown():
    cfg = small_cfg(dt=2.5e-4, t_end=2e-2)
    return run_scenario(cfg, "hot-wall-cooldown")


class TestCooldown:
    def test_heat_flows_into_coolant(self, cooldown):
        _, result = cooldown
        led = result.ledger
        q = led.column("Q_heat")
        h = led.column("H_fluid")
        assert q[-1] < q[0]
        assert h[-1] > h[0]

    def test_coupling_powers_cancel_every_step(self, cooldown):
        _, result = cooldown
        led = result.ledger
        scale = max(1.0, abs(led.column("total")[0]))
        assert np.abs(led.column("P_couple_residual")).max() <= 1e-11 * scale

    def test_total_entropy_nondecreasing(self, cooldown):
        _, result = cooldown
        led = result.ledger
        s = led.column("S_solid") + led.column("S_fluid")
        scale = max(1.0, abs(led.column("total")[0]))
        assert np.diff(s).min() >= -1e-10 * scale

    def test_energy_drift_is_second_order(self):
        drifts = []
        for dt in (5e-4, 2.5e-4):
            cfg = small_cfg(dt=dt, t_end=1e-2)
            _, result = run_scenario(cfg, "hot-wall-cooldown")
            drifts.append(drift_per_time(result))
        ratio = drifts[0] / drifts[1]
        assert 3.0 <= ratio <= 5.0

    def test_temperature_gap_shrinks_monotonically(self):
        cfg = small_cfg(dt=2.5e-4, t_end=1.5e-2)
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        heat_state = setup.heat_state.copy()
        fluid_state = setup.fluid_state.copy()
        row_scale = row_scale_of(sim, heat_state, fluid_state)
        gaps = []
        for _ in range(60):
            outcome = step_from(sim, heat_state, fluid_state, row_scale)
            heat_state, fluid_state = outcome.heat_state, outcome.fluid_state
            t_solid = temperature_of_entropy(heat_state.s, cfg.heat)
            _, t_fluid, _ = eos(fluid_state.phi, fluid_state.s,
                                problem.fluid.material)
            gaps.append(abs(t_solid.max() - t_fluid.min()))
        gaps = np.array(gaps)
        transient = 5
        assert np.all(np.diff(gaps[transient:]) <= 1e-9 * gaps[0])

    def test_long_run_reaches_two_body_equilibrium(self):
        cfg = small_cfg(dt=5e-4, t_end=6e-2)
        problem, result = run_scenario(cfg, "hot-wall-cooldown")
        led = result.ledger
        t_eq = oracles.two_body_equilibrium_temperature(
            led.column("total")[0], cfg.heat, problem.heat.domain.measure,
            cfg.fluid, problem.fluid.mesh.measure)
        t_solid = temperature_of_entropy(result.heat_state.s, cfg.heat)
        _, t_fluid, _ = eos(result.fluid_state.phi, result.fluid_state.s,
                            cfg.fluid)
        assert np.abs(t_solid - t_eq).max() <= 0.02 * t_eq
        assert np.abs(t_fluid - t_eq).max() <= 0.02 * t_eq


class TestHeatedExternalFace:
    def test_external_power_feeds_total_energy(self):
        cfg = small_cfg(dt=2.5e-4, t_end=5e-3)
        _, result = run_scenario(cfg, "heated-ext-face")
        led = result.ledger
        p_ext = led.column("P_ext")[1:]
        assert np.all(p_ext > 0.0)
        total = led.column("total")
        gained = total[-1] - total[0]
        supplied = float(np.sum(p_ext) * cfg.sim.dt)
        assert gained == pytest.approx(supplied, rel=1e-3)


    def test_energy_balance_error_is_second_order(self):
        # drift_per_time takes the external port's work out of the energy
        # change; without that it reads the heating, about 7.8e3 per unit
        # time at every dt, and the orders come out near 0
        cfg = default_config(scenario="heated-ext-face",
                             sim={"t_end": 40 * 2.5e-4})
        rows = convergence_study(cfg)
        assert [row.steps for row in rows] == [40, 80, 160]
        for row in rows[1:]:
            assert abs(row.observed_order - 2.0) <= 0.1

    def test_no_order_next_to_a_zero_drift(self, monkeypatch):
        # a level whose energy balance closes exactly has no order against
        # either neighbour; the problem is built once for all the levels
        drifts = iter([1e-9, 0.0, 1e-9])
        monkeypatch.setattr(driver, "drift_per_time",
                            lambda result: next(drifts))
        builds, real_build = [], driver.build_problem

        def build_problem(cfg):
            builds.append(cfg)
            return real_build(cfg)

        monkeypatch.setattr(driver, "build_problem", build_problem)
        rows = convergence_study(small_cfg())
        assert [row.steps for row in rows] == [10, 20, 40]
        assert [row.observed_order for row in rows] == [None, None, None]
        assert len(builds) == 1


@pytest.fixture(scope="module")
def default_ledgers():
    """The default run's ledger (16x8x4, 200 steps) of three scenarios: a
    cooldown, and two that exchange no wall power."""
    return {name: run_from_config(default_config(scenario=name)).ledger
            for name in ("hot-wall-cooldown", "equilibrium", "acoustic-pulse")}


def copy_ledger(ledger):
    out = EnergyLedger()
    for rec in ledger.records:
        out.records.append(dataclasses.replace(rec))
    return out


class TestRunGates:
    @pytest.mark.parametrize("name", ["hot-wall-cooldown", "equilibrium",
                                      "acoustic-pulse"])
    def test_default_runs_pass(self, default_ledgers, name):
        assert run_gate_failures(default_ledgers[name]) == []

    def test_power_residual_above_bound_fails_naming_step(
            self, default_ledgers):
        led = copy_ledger(default_ledgers["hot-wall-cooldown"])
        rec = led.records[37]
        rec.P_couple_residual = 2 * POWER_RESIDUAL_TOL * abs(rec.P_couple_heat)
        failures = run_gate_failures(led)
        assert len(failures) == 1
        assert failures[0].startswith("step 37: coupling power residual")

    def test_entropy_fall_fails_naming_step(self, default_ledgers):
        led = copy_ledger(default_ledgers["hot-wall-cooldown"])
        # each step of the cooldown raises the total entropy by about 4e-5
        led.records[58].S_solid -= 1e-3
        failures = run_gate_failures(led)
        assert len(failures) == 1
        assert failures[0].startswith("step 58: total entropy fell by 9.")


class TestAcousticPulse:
    def test_pulse_travels_at_sound_speed(self):
        from phmix.fluid import sound_speed
        c = sound_speed(300.0, default_config().fluid)
        h = 1.0 / 64
        cfg = default_config(
            geometry={"n_ax": 64, "n_fluid": 64, "n_az": 2, "n_th": 1},
            fluid={"r_gas": 0.4, "c_v": 1.0, "friction": 0.0,
                   "t_ref": 300.0},
            sim={"dt": 0.4 * h / c, "t_end": 0.35 / c},
            scenario="acoustic-pulse")
        problem = build_problem(cfg)
        setup = build_scenario("acoustic-pulse", problem.heat, problem.fluid,
                               {"width": 0.08, "center": 0.35})
        sim = make_simulation(problem, cfg, setup)
        result = sim.run(setup)
        speed = measure_pulse_speed(problem.fluid, setup.fluid_state,
                                    result.fluid_state,
                                    result.steps * cfg.sim.dt)
        assert abs(speed - c) / c <= 0.08
        h_fluid = result.ledger.column("H_fluid")
        assert abs(h_fluid[-1] - h_fluid[0]) <= 1e-9 * abs(h_fluid[0])


def per_value(header, columns):
    lines = [header + "\n"]
    for i in range(len(columns[0])):
        lines.append(f"{i}," + ",".join(
            repr(float(col[i])) for col in columns) + "\n")
    return "".join(lines).encode()


def per_value_heat(heat, hs):
    xyz = heat.domain.node_coordinates()
    t = temperature_of_entropy(hs.s, heat.material)
    return per_value("node,x,y,z,s,T",
                     [xyz[:, 0], xyz[:, 1], xyz[:, 2], hs.s, t])


def per_value_fluid(fluid, fs):
    p, t, _ = eos(fs.phi, fs.s, fluid.material)
    return per_value("node,z,phi,vel,s,T,p",
                     [fluid.mesh.nodes, fs.phi, fs.vel, fs.s, t, p])


def domain_axes(domain):
    return [domain.axial.nodes, domain.azimuthal.nodes, domain.thickness.nodes]


@pytest.mark.parametrize("n_ax,n_az,n_th", [(16, 8, 4), (3, 1, 2), (4, 3, 1)])
def test_node_prefixes_match_row_formatting(n_ax, n_az, n_th):
    # the grid's axes joined in dof order against each row formatted from
    # its coordinates, on the default mesh, a one-cell periodic azimuth and
    # a one-cell thickness, and on the channel's single axis
    problem = build_problem(default_config(geometry={
        "n_ax": n_ax, "n_az": n_az, "n_th": n_th, "n_fluid": n_ax}))
    domain, channel = problem.heat.domain, problem.fluid.mesh
    for axes, coords in ((domain_axes(domain), domain.node_coordinates()),
                         ([channel.nodes], channel.nodes[:, None])):
        fmt = "%d" + ",%r" * coords.shape[1] + ","
        assert node_prefixes(axes) == \
            [fmt % (i, *row) for i, row in enumerate(coords.tolist())]


class TestLedgerAndSnapshots:
    def test_header_and_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "OUTPUT_EVERY", 5)
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        result = sim.run(setup, str(tmp_path))
        ledger_path = tmp_path / "hot-wall-cooldown_ledger.csv"
        lines = ledger_path.read_text().splitlines()
        assert lines[0] == LEDGER_HEADER
        assert len(lines) == result.steps + 2  # header + initial row + steps
        heat_snap = tmp_path / "hot-wall-cooldown_heat_5.csv"
        fluid_snap = tmp_path / "hot-wall-cooldown_fluid_10.csv"
        assert heat_snap.exists() and fluid_snap.exists()
        heat_lines = heat_snap.read_text().splitlines()
        fluid_lines = fluid_snap.read_text().splitlines()
        assert heat_lines[0] == "node,x,y,z,s,T"
        assert fluid_lines[0] == "node,z,phi,vel,s,T,p"
        for line in (heat_lines[1], fluid_lines[-1], lines[1]):
            cells = line.split(",")
            assert all(np.isfinite(float(c)) for c in cells)

    def test_columns_match_written_csv(self, tmp_path):
        cfg = small_cfg()
        _, result = run_scenario(cfg, "heated-ext-face")
        path = tmp_path / "ledger.csv"
        result.ledger.write(path)
        lines = path.read_text().splitlines()
        names = lines[0].split(",")
        assert lines[0] == LEDGER_HEADER and len(names) == 10
        table = np.array([[float(c) for c in line.split(",")]
                          for line in lines[1:]])
        for j, name in enumerate(names):
            assert np.array_equal(result.ledger.column(name), table[:, j])
        with pytest.raises(KeyError):
            result.ledger.column("p_ext")

    def test_snapshots_match_per_value_formatting(self, tmp_path):
        problem = build_problem(small_cfg())
        heat, fluid = problem.heat, problem.fluid
        setup = build_scenario("hot-wall-cooldown", heat, fluid, {})
        rng = np.random.default_rng(3)
        hs = setup.heat_state.copy()
        hs.s = hs.s + rng.standard_normal(heat.n_dofs)
        fs = setup.fluid_state.copy()
        fs.vel = fs.vel + rng.standard_normal(fluid.n_dofs)

        write_heat_snapshot(tmp_path / "heat.csv", heat, hs,
                            node_prefixes(domain_axes(heat.domain)))
        assert (tmp_path / "heat.csv").read_bytes() == \
            per_value_heat(heat, hs)
        write_fluid_snapshot(tmp_path / "fluid.csv", fluid, fs,
                             node_prefixes([fluid.mesh.nodes]))
        assert (tmp_path / "fluid.csv").read_bytes() == \
            per_value_fluid(fluid, fs)

    def test_repeated_values_keep_every_bit(self, tmp_path):
        # rows formatted once per distinct bit pattern: the azimuthally
        # uniform setup state, whose rows repeat, then 0.0 beside -0.0 and
        # two adjacent floats among repeated values, each row printed as
        # per-value formatting prints it
        problem = build_problem(small_cfg())
        heat, fluid = problem.heat, problem.fluid
        setup = build_scenario("hot-wall-cooldown", heat, fluid, {})
        mixed_hs = setup.heat_state.copy()
        mixed_fs = setup.fluid_state.copy()
        x = mixed_hs.s[-1]
        mixed_hs.s[:6] = [0.0, -0.0, x, np.nextafter(x, np.inf), -0.0, 0.0]
        mixed_fs.vel[:4] = [0.0, -0.0, -0.0, 0.0]
        mixed_fs.phi[5] = np.nextafter(mixed_fs.phi[4], np.inf)
        heat_prefixes = node_prefixes(domain_axes(heat.domain))
        fluid_prefixes = node_prefixes([fluid.mesh.nodes])
        for hs, fs in ((setup.heat_state, setup.fluid_state),
                       (mixed_hs, mixed_fs)):
            write_heat_snapshot(tmp_path / "heat.csv", heat, hs,
                                heat_prefixes)
            assert (tmp_path / "heat.csv").read_bytes() == \
                per_value_heat(heat, hs)
            write_fluid_snapshot(tmp_path / "fluid.csv", fluid, fs,
                                 fluid_prefixes)
            assert (tmp_path / "fluid.csv").read_bytes() == \
                per_value_fluid(fluid, fs)

    def test_ledger_bytes_match_per_field_formatting(self, tmp_path):
        # the ledger of a complete run and the partial ledger a run leaves
        # when its last snapshot cannot be written, against the header and
        # the repr of each field read by name
        def per_field(records):
            names = LEDGER_HEADER.split(",")
            rows = [",".join(repr(getattr(rec, name)) for name in names)
                    for rec in records]
            return "".join(f"{line}\n"
                           for line in [LEDGER_HEADER, *rows]).encode()

        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("heated-ext-face", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        done, failed = tmp_path / "done", tmp_path / "failed"
        done.mkdir()
        result = sim.run(setup, str(done))
        assert (done / "heated-ext-face_ledger.csv").read_bytes() == \
            per_field(result.ledger.records)
        result.ledger.write(tmp_path / "ledger.csv")
        assert (tmp_path / "ledger.csv").read_bytes() == \
            per_field(result.ledger.records)

        (failed / f"heated-ext-face_heat_{result.steps}.csv").mkdir(
            parents=True)
        with pytest.raises(OSError) as err:
            sim.run(setup, str(failed))
        assert err.value.step == result.steps
        assert len(err.value.ledger) == result.steps + 1
        with open(err.value.ledger_path, "rb") as fh:
            assert fh.read() == per_field(err.value.ledger.records)

    def test_run_snapshots_match_per_value_formatting(self, tmp_path):
        # two meshes with equal node counts and different coordinates, one
        # after the other, and two runs on one object: nothing formatted
        # for one mesh or run may reach the files of another
        for depth in (0.05, 0.08):
            cfg = small_cfg(t_end=2e-3)
            cfg = dataclasses.replace(cfg, geometry=dataclasses.replace(
                cfg.geometry, depth=depth, b=20 * depth))
            problem = build_problem(cfg)
            heat, fluid = problem.heat, problem.fluid
            setup = build_scenario("hot-wall-cooldown", heat, fluid, {})
            sim = make_simulation(problem, cfg, setup)
            for run in ("a", "b"):
                out = tmp_path / f"{depth}-{run}"
                out.mkdir()
                result = sim.run(setup, str(out))
                for step, hs, fs in ((0, setup.heat_state, setup.fluid_state),
                                     (result.steps, result.heat_state,
                                      result.fluid_state)):
                    name = f"hot-wall-cooldown_{{}}_{step}.csv"
                    assert (out / name.format("heat")).read_bytes() == \
                        per_value_heat(heat, hs)
                    assert (out / name.format("fluid")).read_bytes() == \
                        per_value_fluid(fluid, fs)

    def test_ledger_bit_identical_across_runs(self, tmp_path):
        cfg = small_cfg()
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir()
            problem = build_problem(cfg)
            setup = build_scenario("hot-wall-cooldown", problem.heat,
                                   problem.fluid, {})
            sim = make_simulation(problem, cfg, setup)
            sim.run(setup, str(out))
            paths.append(out / "hot-wall-cooldown_ledger.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestFailureModes:
    def test_unknown_scenario_lists_valid_names(self):
        cfg = small_cfg()
        problem = build_problem(cfg)
        with pytest.raises(ConfigurationError) as err:
            build_scenario("warp-drive", problem.heat, problem.fluid, {})
        for name in SCENARIOS:
            assert name in str(err.value)

    def test_unknown_scenario_parameter_rejected(self):
        cfg = small_cfg()
        problem = build_problem(cfg)
        with pytest.raises(ConfigurationError, match="t_blue"):
            build_scenario("equilibrium", problem.heat, problem.fluid,
                           {"t_blue": 1.0})

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(simulate, "NEWTON_TOL", 1e-30)
        monkeypatch.setattr(simulate, "NEWTON_MAX_ITERS", 2)
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        bad = SimConfig(dt=50.0, t_end=50.0)
        sim = CoupledSimulation(problem.heat, problem.fluid, problem.ops, bad)
        with pytest.raises(StepFailureError) as err:
            sim.run(setup)
        assert err.value.residual > 0
        assert err.value.step == 1
        assert len(err.value.ledger) == 1

    def test_invalid_predictor_is_retried_from_old_state(self):
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        heat0, fluid0 = setup.heat_state, setup.fluid_state
        row_scale = row_scale_of(sim, heat0, fluid0)
        x_ref = step_from(sim, heat0, fluid0, row_scale).x
        # negative specific volume: the first trial iterate is not a state
        x_old = sim._pack(heat0.s, fluid0)
        x = sim.step(heat0.s, x_old, -x_ref, row_scale).x
        assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()

    def test_large_pulse_fails_with_step_and_ledger(self):
        cfg = default_config(sim={"dt": 1e-3}, scenario="acoustic-pulse")
        problem = build_problem(cfg)
        setup = build_scenario("acoustic-pulse", problem.heat, problem.fluid,
                               {"amplitude": 3.0})
        sim = make_simulation(problem, cfg, setup)
        try:
            result = sim.run(setup)
        except PhmixError as exc:
            assert exc.step >= 1
            assert len(exc.ledger) == exc.step  # initial row + steps done
        else:
            assert len(result.ledger) == result.steps + 1

    def test_invalid_end_state_fails_with_step_ledger_and_field(
            self, monkeypatch):
        # Newton converges on the midpoint, whose specific volume stays
        # positive, while the end state 2 mid - old goes negative: the step
        # must fail as a step, not leak the state to the ledger's eos
        monkeypatch.setattr(simulate, "NEWTON_MAX_ITERS", 80)
        cfg = default_config(sim={"dt": 1e-3, "t_end": 0.05},
                             scenario="acoustic-pulse")
        problem = build_problem(cfg)
        setup = build_scenario("acoustic-pulse", problem.heat, problem.fluid,
                               {"amplitude": 3.0})
        sim = make_simulation(problem, cfg, setup)
        with pytest.raises(StepFailureError, match="specific volume") as err:
            sim.run(setup)
        assert err.value.step >= 1
        assert len(err.value.ledger) == err.value.step
        assert err.value.__cause__.field == "specific volume"

    @pytest.mark.parametrize("field", ["solid", "vel"])
    def test_zero_pivot_fails_with_step_ledger_and_unknown(self, field,
                                                          monkeypatch):
        # a mode band with a zero column has an exact zero pivot there: the
        # attempt fails, the retry from the old state builds again, and the
        # step fails naming the unknown and its mode, for the solid the
        # mode-1 cos of the azimuthal line of packed unknown 7, named by
        # the line's unknown at azimuthal node 0
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        n_az, line, _, lines = oracles.azimuthal_lines(sim)
        lay = sim.chord.layout
        if field == "solid":
            dead, mode = int(lay.az_major[0, line[7]]), 1
            column = lay.rank[lines + line[7]]
            assert dead == 1 and lay.mode[1] == mode
        else:
            dead, mode = sim._nfree + sim._nf + 3, 0
            column = lay.rank[dead]
        build = sim.chord.band

        def singular(*args):
            band = build(*args)
            band[:, column] = 0.0
            return band

        monkeypatch.setattr(sim.chord, "band", singular)
        with pytest.raises(StepFailureError, match="zero pivot") as err:
            sim.run(setup)
        assert err.value.step == 1
        assert len(err.value.ledger) == 1
        assert err.value.__cause__.unknown == dead
        assert err.value.__cause__.mode == mode
        name = f"solid entropy[{sim._free[dead]}]" if field == "solid" \
            else "vel[3]"
        assert f"({name}), azimuthal mode {mode}" in str(err.value)
        assert sim.chord.builds == 2

    def test_second_run_matches_fresh_object(self):
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        runs = [sim.run(setup), sim.run(setup)]
        fresh = make_simulation(problem, cfg, setup).run(setup)
        rows = [r.csv_row() for r in fresh.ledger.records]
        for res in runs:
            assert res.newton_iterations == fresh.newton_iterations
            assert res.jacobian_builds == fresh.jacobian_builds == 1
            assert [r.csv_row() for r in res.ledger.records] == rows

    def test_run_and_step_set_no_attribute(self):
        # the stepper's only state is sim.chord: a run and a direct step
        # leave the same attributes, bound to the same objects
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        built = dict(vars(sim))

        def unchanged():
            now = vars(sim)
            return now.keys() == built.keys() and \
                all(now[key] is built[key] for key in built)

        end = sim.run(setup)
        assert unchanged()
        hs, fs = end.heat_state, end.fluid_state
        step_from(sim, hs, fs, row_scale_of(sim, hs, fs))
        assert unchanged()

    def test_step_after_run_matches_fresh_simulation(self):
        # a step from a run's end state continues the run's last factor
        # unless the factor is discarded; then it is bitwise the step of a
        # fresh simulation, with the row scale the caller passes
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        end = sim.run(setup)
        hs, fs = end.heat_state, end.fluid_state
        row_scale = row_scale_of(sim, hs, fs)
        sim.chord.discard()
        got = step_from(sim, hs, fs, row_scale)
        fresh = make_simulation(problem, cfg, setup)
        want = step_from(fresh, hs, fs, row_scale)
        assert sim.chord.builds == end.jacobian_builds + 1
        assert fresh.chord.builds == 1
        for name in ("x", "r"):
            assert same_bits(getattr(got, name), getattr(want, name))
        assert same_bits(got.heat_state.s, want.heat_state.s)
        for field in ("phi", "vel", "s"):
            assert same_bits(getattr(got.fluid_state, field),
                             getattr(want.fluid_state, field))
        for name in ("p_heat", "p_fluid", "p_ext", "norm", "iterations"):
            assert getattr(got, name) == getattr(want, name)

    @pytest.mark.parametrize("geometry", [{"n_az": 4},
                                          {"circumference": 1.0}],
                             ids=["n_az", "circumference"])
    def test_operators_for_another_wall_rejected(self, geometry):
        # operators for another azimuth on the default solid: another n_az
        # broke the first residual on a shape mismatch, another
        # circumference ran the whole cooldown on the wrong measure
        cfg = default_config()
        problem = build_problem(cfg)
        _, _, ops = driver.build_coupling(default_config(geometry=geometry))
        with pytest.raises(MeshCompatibilityError,
                           match="does not match the solid's coupling face"):
            CoupledSimulation(problem.heat, problem.fluid, ops, cfg.sim)

    @pytest.mark.parametrize("side", ["channel", "line"])
    def test_channel_and_line_meshes_rejected(self, side):
        # a channel on another axial mesh, or operators whose line is not
        # the channel's mesh, although the channel fits the solid
        cfg = small_cfg()
        problem = build_problem(cfg)
        g = cfg.geometry
        fluid, ops = problem.fluid, problem.ops
        if side == "channel":
            fluid = FluidSystem(IntervalMesh(g.a, g.b, g.n_ax + 1), cfg.fluid)
            match = "does not match the solid axial mesh"
        else:
            _, _, ops = driver.build_coupling(default_config(
                geometry={"n_ax": g.n_ax + 1, "n_fluid": g.n_ax + 1}))
            match = "line mesh .* does not match the channel mesh"
        with pytest.raises(MeshCompatibilityError, match=match):
            CoupledSimulation(problem.heat, fluid, ops, cfg.sim)

    def test_perturbed_coupling_block_shows_in_power_residual(self):
        # P_couple_fluid comes from the assembled azimuthal pair (m_az,
        # eta_integrals), the residual's channel load from the nodal row
        # sums: one hat integral 1 % off moves the weights' sum by 1 % of
        # one of the 4 weights, and on the axisymmetric wall leaves a power
        # residual of 0.01 / 4 of the power exchanged
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        eta = problem.ops.eta_integrals.copy()
        eta[1] *= 1.01
        ops = dataclasses.replace(problem.ops, eta_integrals=eta)
        sim = CoupledSimulation(problem.heat, problem.fluid, ops, cfg.sim)
        led = sim.run(setup).ledger
        rel = np.abs(led.column("P_couple_residual")[1:]
                     / led.column("P_couple_heat")[1:])
        assert rel.min() >= 2e-3 and rel.max() <= 3e-3

    def test_perturbed_azimuthal_mass_fails_the_power_gate(self):
        # a wrong dense m_az, like a wrong eta_integrals, gives the
        # channel's port power other weights than the row sums the
        # residual applied
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        m_az = problem.ops.m_az.copy()
        assert isinstance(m_az, np.ndarray)
        m_az[1, 1] *= 1.01
        ops = dataclasses.replace(problem.ops, m_az=m_az)
        sim = CoupledSimulation(problem.heat, problem.fluid, ops, cfg.sim)
        failures = run_gate_failures(sim.run(setup).ledger)
        assert len(failures) == 1
        assert failures[0].startswith("step 1: coupling power residual")
