import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrs

from phmix.config import default_config
from phmix.driver import POWER_RESIDUAL_TOL, build_problem, \
    convergence_study, drift_per_time, make_simulation, run_from_config, \
    run_gate_failures
from phmix.errors import ConfigurationError, PhmixError, StepFailureError
from phmix.fem import CouplingOperators
from phmix.fluid import FluidState, eos
from phmix.simulate import CoupledSimulation, EnergyLedger, LEDGER_HEADER, \
    PREDICTOR_ORDER, SCENARIOS, SimConfig, advance_table, build_scenario, \
    extrapolate, measure_pulse_speed, node_prefixes, \
    write_fluid_snapshot, write_heat_snapshot

import oracles


def small_cfg(**sim_overrides):
    sim = {"dt": 5e-4, "t_end": 5e-3, "newton_tol": 1e-12}
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


def newton_point(name, geometry, dt=2.5e-4):
    """A simulation of one step on a small mesh and an unknown vector near
    its converged iterate, nudged so that no Jacobian entry vanishes by
    symmetry (rest, uniform temperature)."""
    problem, setup, sim = one_step_simulation(name, geometry, dt)
    *_, x = sim.step(setup.heat_state, setup.fluid_state)
    x = x + 1e-6 * sim._typ * np.sin(np.arange(len(x)))
    return problem, sim, x


def dense_cd_jacobian(sim, x):
    """Reference: one central difference per column, with the step
    h_j = 1e-5 max(|x_j|, typ_j).  Runs the residual at x last, so that
    `sim._ports` are those at x."""
    jac = np.empty((len(x), len(x)))
    for j in range(len(x)):
        h = 1e-5 * max(abs(x[j]), sim._typ[j])
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (sim._residual(xp) - sim._residual(xm)) / (2.0 * h)
    sim._residual(x)
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
    out = np.zeros((sim._nx, nfree))
    out[:nfree] = np.diag(heat.mass[free]) - half_dt * dloads[free]
    out[nfree + 2 * nf:] = -half_dt * sim.ops.embed_t(
        dloads[heat.coupling_dofs])
    return out


def built_jacobian(sim, x):
    """The Jacobian a build makes at x, after the residual at x, unpacked
    from its band to a dense matrix in the packed order."""
    sim._residual(x)
    return oracles.band_to_dense(sim._jacobian(x), sim._layout)


# every column of a build against the central difference, as a fraction of
# the column's largest entry: at most 1.5e-11 is seen on NEWTON_CASES, a
# 1 % error in one tangent term reads 1.3e-3, and forward-differenced
# columns of sqrt(eps) step read 1e-8
CD_TOL = 5e-11


def jacobian_column_errors(sim, x):
    """Each column's largest error in a build at x, relative to the
    column's largest entry: against the central difference for every
    column, and against the complex step for the free solid columns."""
    dense = dense_cd_jacobian(sim, x)
    s_mid = sim._ports[1]  # the pinned midpoint state at x
    jac = built_jacobian(sim, x)
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
        # pattern and outside the entries a build writes
        _, sim, x = newton_point(name, geometry)
        dense = dense_cd_jacobian(sim, x)
        structure = oracles.band_structure(sim._jacobian_layout(), len(x))
        reference = oracles.jacobian_pattern_oracle(sim).toarray()
        assert structure.shape == reference.shape == dense.shape
        assert np.all(dense[~reference] == 0.0)
        assert np.all(dense[~structure] == 0.0)

    @pytest.mark.parametrize("name,geometry", NEWTON_CASES)
    def test_colored_jacobian_matches_dense(self, name, geometry):
        # every column against the central difference; the solid columns
        # also against the complex step, which a difference could not pass
        _, sim, x = newton_point(name, geometry)
        cd_err, cs_err = jacobian_column_errors(sim, x)
        assert cd_err.max() <= CD_TOL
        assert np.all(cs_err <= 1e-13)

    @pytest.mark.parametrize("name,geometry", [NEWTON_CASES[0],
                                               NEWTON_CASES[-1]])
    def test_perturbed_channel_tangent_fails_the_gate(self, name, geometry,
                                                      monkeypatch):
        # dp/dphi 1 % off: the central-difference gate sees it, the
        # solid columns' complex-step gate does not
        _, sim, x = newton_point(name, geometry)
        exact = sim.fluid.loads_tangent
        nf = sim._nf

        def perturbed(state):
            jac, t_grad = exact(state)
            jac[nf:2 * nf, :nf] *= 1.01  # d f_vel / d phi = -G dp/dphi
            return jac, t_grad

        monkeypatch.setattr(sim.fluid, "loads_tangent", perturbed)
        cd_err, cs_err = jacobian_column_errors(sim, x)
        assert cd_err.max() > 100 * CD_TOL
        assert np.all(cs_err <= 1e-13)


# the factors the chord solves are checked on, as (name, geometry, dt,
# rows interchanged): the step-1 factor interchanges no row on the small
# meshes at dt, phi[0] on the 48x24x4 rung, and 5 phi rows on 6x4x3 at
# 16 dt, so both solve paths are covered
FACTOR_CASES = [
    pytest.param(*case.values, 2.5e-4, case.id.endswith("48x24x4"),
                 id=case.id)
    for case in NEWTON_CASES + LADDER_CASES] + [
    pytest.param("hot-wall-cooldown",
                 {"n_ax": 6, "n_az": 4, "n_th": 3, "n_fluid": 6}, 4e-3, True,
                 id="hot-wall-cooldown-6x4x3-16dt")]


def factored_point(name, geometry, dt):
    """`newton_point` with the residual r at x and the factor built there;
    returns (sim, x, r, the rows that build interchanged)."""
    _, sim, x = newton_point(name, geometry, dt)
    r = sim._residual(x)
    before = sim.row_interchanges  # the step's own builds counted too
    sim._build_jacobian(x)
    return sim, x, r, sim.row_interchanges - before


class TestBandLU:
    @pytest.mark.parametrize("name,geometry,dt,interchanged", FACTOR_CASES)
    def test_chord_solve_matches_dense_solve(self, name, geometry, dt,
                                             interchanged):
        sim, x, r, moved = factored_point(name, geometry, dt)
        assert (moved > 0) == interchanged
        got = sim._chord_solve(r)
        dense = built_jacobian(sim, x)
        want = np.linalg.solve(dense, r)
        del dense
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name,geometry,dt,interchanged", FACTOR_CASES)
    def test_chord_solve_matches_dgbtrs(self, name, geometry, dt,
                                        interchanged):
        # the triangle solves of a factor without interchanges, and the
        # solve of one with them, against LAPACK's on the same factor
        sim, _, r, moved = factored_point(name, geometry, dt)
        lay = sim._layout
        lu, piv, triangles = sim._lu
        assert moved == np.count_nonzero(piv != np.arange(len(piv)))
        assert (moved > 0) == interchanged
        assert (triangles is None) == interchanged
        y, info = dgbtrs(lu, lay.kl, lay.ku, r[lay.order], piv)
        assert info == 0
        want = y[lay.rank]
        got = sim._chord_solve(r)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_triangle_solves_read_the_factor_in_place(self):
        # the triangles are views of the factored buffer, and a solve
        # allocates vectors only, no copy of the band
        sim, _, r, moved = factored_point(*LADDER_CASES[0].values, 2.5e-4)
        lu, _, triangles = sim._lu
        assert moved == 0
        assert all(np.shares_memory(t, lu) and t.flags.f_contiguous
                   for t in triangles)
        sim._chord_solve(r)
        tracemalloc.start()
        try:
            sim._chord_solve(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lu.nbytes / 20

    @pytest.mark.parametrize("dt,moved", [(5e-4, 0), (4e-3, 5)])
    def test_run_reports_row_interchanges(self, dt, moved):
        # the run's one factor interchanges 5 phi rows at 16 dt and none
        # at 2 dt; a second run counts its own
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
        # the half-widths the entries of the block-composed pattern span in
        # the slab order: one slab of free layers plus a layer, the channel
        # triple and two azimuthal steps
        *_, sim = one_step_simulation(name, geometry)
        lay = sim._jacobian_layout()
        nx = sim._nx
        assert np.array_equal(np.sort(lay.order), np.arange(nx))
        assert np.array_equal(lay.order[lay.rank], np.arange(nx))
        rows, cols = oracles.jacobian_pattern_oracle(sim).nonzero()
        offsets = lay.rank[rows] - lay.rank[cols]
        assert (lay.kl, lay.ku) == (offsets.max(), -offsets.min())
        assert lay.kl == lay.ku == \
            geometry["n_az"] * (geometry["n_th"] + 1) + 5

    @pytest.mark.parametrize("name,geometry", NEWTON_CASES + LADDER_CASES[:2])
    def test_band_equals_csc_assembly(self, name, geometry):
        # the band layout against a sparse chain-rule composition of the
        # same tangents, column by column to round-off
        _, sim, x = newton_point(name, geometry)
        band = built_jacobian(sim, x)
        reference = oracles.csc_jacobian_oracle(sim, x).toarray()
        err = np.abs(band - reference).max(axis=0)
        assert np.all(err <= 1e-14 * np.abs(reference).max(axis=0))


@pytest.mark.parametrize("name,geometry", NEWTON_CASES + LADDER_CASES)
def test_sparsity_matches_references(name, geometry):
    """The entries a build writes are the block-composed pattern's, on the
    solid rows and columns exactly; on the channel block they cover it,
    plus entries that are zero there: the node diagonal of every block,
    grad_pairing's zero interior diagonal and the sealed-end rows."""
    *_, sim = one_step_simulation(name, geometry)
    nfree = sim._nfree
    structure = oracles.band_structure(sim._jacobian_layout(), sim._nx)
    reference = oracles.jacobian_pattern_oracle(sim).toarray()
    assert np.all(structure[reference])
    assert np.array_equal(structure[:nfree], reference[:nfree])
    assert np.array_equal(structure[:, :nfree], reference[:, :nfree])


def same_bits(a, b):
    """Equal arrays down to the sign of zero (None equals None)."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPackedResidual:
    @pytest.mark.parametrize("name,geometry", NEWTON_CASES)
    def test_matches_unpacked_oracle_bitwise(self, name, geometry):
        # at the nudged iterate, at the old state and at a far trial point
        _, sim, x = newton_point(name, geometry)
        x_far = x + 1e-3 * sim._typ * np.cos(np.arange(len(x)))
        for point in (x, sim._x_old, x_far):
            want, want_ports = oracles.midpoint_residual_oracle(sim, point)
            got = sim._residual(point)
            assert same_bits(got, want)
            assert len(sim._ports) == len(want_ports)
            for field, ref in zip(sim._ports, want_ports):
                assert same_bits(field, ref)

    @pytest.mark.parametrize("name", ["hot-wall-cooldown", "heated-ext-face",
                                      "acoustic-pulse"])
    def test_saved_ports_survive_a_jacobian_build(self, name):
        # _newton returns the port fields of its last residual: a build
        # evaluates no residual and leaves them as they are, and the next
        # residual leaves fresh ones without writing into these
        _, sim, x = newton_point(name, {"n_ax": 6, "n_az": 4, "n_th": 3,
                                        "n_fluid": 6})
        sim._residual(x)
        ports = sim._ports
        saved = [None if p is None else p.copy() for p in ports]
        sim._build_jacobian(x)
        assert sim._ports is ports
        sim._residual(x + 1e-4 * sim._typ)
        assert all(same_bits(p, q) for p, q in zip(ports, saved))
        assert sim._ports is not ports


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
        step = sim.step

        def recording_step(heat_state, fluid_state, x_pred=None, x_old=None):
            # the table's row 0 is the old state packed, bit for bit
            assert same_bits(x_old, sim._pack(heat_state.s, fluid_state))
            preds.append(x_pred)
            out = step(heat_state, fluid_state, x_pred=x_pred, x_old=x_old)
            xs.append(out[-1])
            return out

        monkeypatch.setattr(sim, "step", recording_step)
        sim.run(setup)
        assert len(preds) == 20
        assert np.array_equal(preds[0], xs[0])
        orders = []
        for k, pred in enumerate(preds[1:], start=1):
            want, order = reference_prediction(xs[:k + 1], sim._typ)
            assert np.abs(pred - want).max() <= 1e-13 * np.abs(want).max()
            orders.append(order)
        assert orders[0] == 1 and max(orders) == PREDICTOR_ORDER
        assert any(order < min(k, PREDICTOR_ORDER)
                   for k, order in enumerate(orders, start=1))

    def test_default_cooldown_newton_count(self):
        cfg = default_config()
        _, result = run_scenario(cfg, "hot-wall-cooldown")
        assert result.steps == 200
        assert result.newton_iterations <= 229
        assert result.jacobian_builds == 1
        assert result.row_interchanges == 0  # the triangle solves
        assert result.jacobian_build_s > 0 and result.chord_solve_s > 0
        # per step: the iterations add up, every step ended converged
        assert result.step_iterations.shape == (200,)
        assert result.step_iterations.sum() == result.newton_iterations
        assert result.step_residuals.shape == (200,)
        assert 0 < result.step_residuals.max() <= cfg.sim.newton_tol

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
    for _ in range(4):
        hs1, fs1, (p_heat, p_fluid), p_ext, norm, x = sim.step(hs, fs)
        r, _ = oracles.midpoint_residual_oracle(sim, x)
        assert norm == sim._scaled_norm(r) <= cfg.sim.newton_tol
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
    assert sim.newton_iterations >= 4  # every step iterated past its start


@pytest.mark.parametrize("name,solves", [
    ("hot-wall-cooldown", 1), ("heated-ext-face", 1), ("acoustic-pulse", 0)])
def test_powers_need_one_surface_solve_per_operators(name, solves,
                                                     monkeypatch):
    # the load-form powers solve with m_psi once, to form d_chi m_psi^-1 on
    # the first coupled step, and never again on the same operators
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
        assert len(calls) == solves
    if setup.coupled:
        p_heat = np.abs(led.column("P_couple_heat")[1:])
        assert np.all(np.abs(led.column("P_couple_residual")[1:])
                      <= 1e-12 * p_heat)
        assert (led.column("P_ext")[1:] != 0).all() \
            == (setup.ext_temperature is not None)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=0.0, t_end=1.0)
        for bad in (np.inf, np.nan):
            for key in ("dt", "t_end", "newton_tol"):
                kwargs = dict(dt=0.1, t_end=1.0, newton_tol=1e-12)
                kwargs[key] = bad
                with pytest.raises(ConfigurationError,
                                   match=f"{key} must be finite"):
                    SimConfig(**kwargs)
        with pytest.raises(ConfigurationError):
            SimConfig(dt=0.1, t_end=0.05)
        with pytest.raises(ConfigurationError):
            SimConfig(dt=0.1, t_end=1.0, newton_tol=-1.0)

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
        gaps = []
        for _ in range(60):
            heat_state, fluid_state, *_ = sim.step(heat_state, fluid_state)
            t_solid = problem.heat.temperature(heat_state)
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
            led.column("total")[0], cfg.heat, problem.domain.measure,
            cfg.fluid, problem.fluid.mesh.measure)
        t_solid = problem.heat.temperature(result.heat_state)
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


@pytest.fixture(scope="module")
def default_ledgers():
    """The default run's ledger (16x8x4, 200 steps) of three scenarios: a
    cooldown, and two that exchange no wall power."""
    return {name: run_from_config(default_config(scenario=name)).ledger
            for name in ("hot-wall-cooldown", "equilibrium", "acoustic-pulse")}


def copy_ledger(ledger):
    out = EnergyLedger()
    for rec in ledger.records:
        out.append(dataclasses.replace(rec))
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
                   "phi_ref": 1.0, "s_ref": 0.0, "t_ref": 300.0},
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
    return per_value("node,x,y,z,s,T", [xyz[:, 0], xyz[:, 1], xyz[:, 2],
                                        hs.s, heat.temperature(hs)])


def per_value_fluid(fluid, fs):
    p, t, _ = eos(fs.phi, fs.s, fluid.material)
    return per_value("node,z,phi,vel,s,T,p",
                     [fluid.mesh.nodes, fs.phi, fs.vel, fs.s, t, p])


class TestLedgerAndSnapshots:
    def test_header_and_files(self, tmp_path):
        cfg = small_cfg(output_every=5)
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
                            node_prefixes([heat.domain.node_coordinates()]))
        assert (tmp_path / "heat.csv").read_bytes() == \
            per_value_heat(heat, hs)
        write_fluid_snapshot(tmp_path / "fluid.csv", fluid, fs,
                             node_prefixes([fluid.mesh.nodes]))
        assert (tmp_path / "fluid.csv").read_bytes() == \
            per_value_fluid(fluid, fs)

    def test_run_snapshots_match_per_value_formatting(self, tmp_path):
        # two meshes with equal node counts and different coordinates, one
        # after the other, and two runs on one object: nothing formatted
        # for one mesh or run may reach the files of another
        for depth in (0.05, 0.08):
            cfg = small_cfg(t_end=2e-3, output_every=2)
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

    def test_nonconvergence_raises_with_residual(self):
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        bad = SimConfig(dt=50.0, t_end=50.0, newton_tol=1e-30,
                        newton_max_iters=2)
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
        *_, x_ref = sim.step(heat0, fluid0)
        # negative specific volume: the first trial iterate is not a state
        *_, x = sim.step(heat0, fluid0, x_pred=-x_ref)
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

    def test_invalid_end_state_fails_with_step_ledger_and_field(self):
        # Newton converges on the midpoint, whose specific volume stays
        # positive, while the end state 2 mid - old goes negative: the step
        # must fail as a step, not leak the state to the ledger's eos
        cfg = default_config(sim={"dt": 1e-3, "t_end": 0.05,
                                  "newton_max_iters": 80},
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
        # a Jacobian with a zero column has an exact zero pivot there: the
        # attempt fails, the retry from the old state builds again, and the
        # step fails naming the unknown
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        sim = make_simulation(problem, cfg, setup)
        dead = 7 if field == "solid" else sim._nfree + sim._nf + 3
        build = sim._jacobian

        def singular(x):
            band = build(x)
            band[:, sim._layout.rank[dead]] = 0.0
            return band

        monkeypatch.setattr(sim, "_jacobian", singular)
        with pytest.raises(StepFailureError, match="zero pivot") as err:
            sim.run(setup)
        assert err.value.step == 1
        assert len(err.value.ledger) == 1
        assert err.value.__cause__.unknown == dead
        name = f"solid entropy[{sim._free[dead]}]" if field == "solid" \
            else "vel[3]"
        assert name in str(err.value)
        assert sim.jacobian_builds == 2

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

    def test_perturbed_coupling_block_shows_in_power_residual(self):
        # P_couple_fluid comes from the assembled d_chi, the residual's
        # channel load from the nodal row sums: a d_chi that no longer
        # matches them must leave a power residual far above round-off
        cfg = small_cfg()
        problem = build_problem(cfg)
        setup = build_scenario("hot-wall-cooldown", problem.heat,
                               problem.fluid, {})
        ops = dataclasses.replace(problem.ops, d_chi=1.001 * problem.ops.d_chi)
        sim = CoupledSimulation(problem.heat, problem.fluid, ops, cfg.sim)
        led = sim.run(setup).ledger
        rel = np.abs(led.column("P_couple_residual")[1:]
                     / led.column("P_couple_heat")[1:])
        assert rel.min() >= 5e-4 and rel.max() <= 2e-3
