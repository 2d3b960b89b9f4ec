import numpy as np
import pytest
from hypothesis import given, strategies as st

from phmix.errors import MaterialError, StateValidityError
from phmix.heat import HeatMaterial, HeatState, HeatSystem, energy_density, \
    entropy_of_temperature, temperature_of_entropy
from phmix.geometry import build_solid_domain

import oracles

MAT = HeatMaterial(rho=10.0, c=10.0, conductivity=5.0, t_ref=300.0)


def small_system(n_ax=3, n_az=3, n_th=2, depth=0.1, **kwargs):
    domain = build_solid_domain(0, 1, 0.5, depth, n_ax, n_az, n_th)
    return HeatSystem(domain, kwargs.pop("material", MAT))


class TestConstitutiveLaw:
    def test_reference_point(self):
        assert temperature_of_entropy(0.0, MAT) == pytest.approx(300.0)

    def test_one_heat_capacity_up(self):
        assert temperature_of_entropy(MAT.rho_c, MAT) \
            == pytest.approx(300.0 * np.e, rel=1e-14)

    def test_energy_derivative_is_temperature(self):
        # central-difference oracle for dq/ds at seeded random states
        rng = np.random.default_rng(0)
        h = 1e-6 * MAT.rho_c
        for s in rng.uniform(-2 * MAT.rho_c, 2 * MAT.rho_c, size=50):
            dq = oracles.central_difference(
                lambda x: energy_density(x, MAT), s, h)
            t = temperature_of_entropy(s, MAT)
            assert abs(dq - t) <= 1e-8 * t

    @given(st.floats(-500, 500))
    def test_temperature_positive_everywhere(self, s):
        assert temperature_of_entropy(s, MAT) > 0

    def test_inverse_law(self):
        s = entropy_of_temperature(412.0, MAT)
        assert temperature_of_entropy(s, MAT) == pytest.approx(412.0, rel=1e-13)
        with pytest.raises(StateValidityError):
            entropy_of_temperature(-1.0, MAT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_temperature_rejected(self, bad):
        with pytest.raises(StateValidityError, match=r"temperature\[1\]"):
            entropy_of_temperature([300.0, bad, 310.0], MAT)

    def test_material_validation(self):
        with pytest.raises(MaterialError, match="conductivity"):
            HeatMaterial(rho=1, c=1, conductivity=0, t_ref=300)
        with pytest.raises(MaterialError, match="rho"):
            HeatMaterial(rho=-1, c=1, conductivity=1, t_ref=300)
        for bad in (np.inf, np.nan):
            with pytest.raises(MaterialError, match="conductivity"):
                HeatMaterial(rho=1, c=1, conductivity=bad, t_ref=300)
            with pytest.raises(MaterialError, match="rho"):
                HeatMaterial(rho=bad, c=1, conductivity=1, t_ref=300)


class TestClosure:
    """Fourier's law and the production pair at the quadrature points, as
    the load kernel forms them: T and grad T (nq, n_cells), (nq, 3,
    n_cells), entropy flux (nq, 3, n_cells), production (nq, n_cells)."""

    def test_uniform_state_has_zero_fluxes(self):
        sys = small_system()
        s = sys.uniform_state(350.0).s
        _, gq = sys._quad_fields(s)
        flux, prod = sys._flux_production(s)
        # gradients of a constant cancel to round-off of T/h
        tiny = 1e-12 * 350.0 / sys.domain.thickness.h
        assert np.abs(flux).max() <= tiny
        assert np.abs(gq).max() <= tiny
        assert np.abs(prod).max() <= tiny

    def test_linear_profile_through_thickness(self):
        # closed-form oracle: nodal T linear in the thickness coordinate
        # gives a constant heat flux -lam * dT/dz and entropy flux phi_q / T
        mat = HeatMaterial(rho=10.0, c=10.0, conductivity=1.0, t_ref=300.0)
        sys = small_system(n_ax=1, n_az=1, n_th=4, depth=1.0, material=mat)
        zeta = sys.domain.node_coordinates()[:, 2]
        t_nodal = 300.0 + 50.0 * zeta
        s = entropy_of_temperature(t_nodal, mat)
        tq, _ = sys._quad_fields(s)
        flux, _ = sys._flux_production(s)
        phi_q = tq[:, None, :] * flux
        assert np.abs(phi_q[:, 0]).max() <= 1e-10
        assert np.abs(phi_q[:, 1]).max() <= 1e-10
        assert np.abs(phi_q[:, 2] + 50.0).max() <= 1e-9
        expected_s = phi_q[:, 2] / tq
        assert np.abs(flux[:, 2] - expected_s).max() <= 1e-12

    def test_closure_residuals_at_random_states(self):
        sys = small_system()
        rng = np.random.default_rng(1)
        lam = MAT.conductivity
        for _ in range(100):
            s = MAT.rho_c * rng.uniform(-0.3, 0.3, sys.n_dofs)
            tq, gq = sys._quad_fields(s)
            flux, prod = sys._flux_production(s)
            # flux T = -lam grad T
            r1 = tq[:, None, :] * flux + lam * gq
            s1 = 1.0 + np.abs(lam * gq).max()
            assert np.abs(r1).max() <= 1e-12 * s1
            # prod T = -grad T . flux
            r2 = prod * tq + (gq * flux).sum(axis=1)
            s2 = 1.0 + np.abs(prod * tq).max()
            assert np.abs(r2).max() <= 1e-12 * s2

    def test_invalid_state_identified(self):
        sys = small_system()
        bad = sys.uniform_state(320.0)
        bad.s[5] = np.nan
        with pytest.raises(StateValidityError, match=r"entropy\[5\]"):
            sys._quad_fields(bad.s)


def einsum_kernel(sys, s):
    """The contraction form of the Q1 kernel, straight from the reference
    tables: loads, total production and the point fields, cell-major."""
    tab = sys.basis.tables
    lam = sys.material.conductivity
    tc = temperature_of_entropy(s, sys.material)[sys.dofmap]
    tq = tc @ tab.values.T
    gq = np.einsum("qbd,cb->cqd", tab.gradients, tc)
    flux = -lam * gq / tq[:, :, None]
    prod = lam * np.einsum("cqd,cqd->cq", gq, gq) / tq ** 2
    local = np.einsum("qbd,cqd->cb",
                      tab.gradients * tab.wdet[:, None, None], flux) \
        + prod @ (tab.values * tab.wdet[:, None])
    loads = np.bincount(sys.dofmap.ravel(), weights=local.ravel(),
                        minlength=sys.n_dofs)
    fields = {"T": tq, "grad_T": gq, "flux": flux, "production": prod}
    return loads, float(np.einsum("q,cq->", tab.wdet, prod)), fields


def rel_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestKernelOracle:
    """The GEMM kernel reproduces the einsum contractions."""

    @pytest.mark.parametrize("mesh", [(16, 8, 4), (6, 5, 3)])
    def test_matches_einsum_contractions(self, mesh):
        sys = small_system(*mesh)
        rng = np.random.default_rng(sum(mesh))
        for _ in range(5):
            state = HeatState(MAT.rho_c * rng.uniform(-0.3, 0.3, sys.n_dofs))
            loads, production, fields = einsum_kernel(sys, state.s)
            assert rel_gap(sys.assemble_loads(state.s), loads) <= 1e-13
            assert sys.entropy_production(state) \
                == pytest.approx(production, rel=1e-13)
            tq, gq = sys._quad_fields(state.s)
            flux, prod = sys._flux_production(state.s)
            kernel = {"T": tq.T, "grad_T": gq.transpose(2, 0, 1),
                      "flux": flux.transpose(2, 0, 1), "production": prod.T}
            for name, ref in fields.items():
                got = kernel[name]
                assert got.shape == ref.shape, name
                assert rel_gap(got, ref) <= 1e-13, name

    @pytest.mark.parametrize("mesh", [(16, 8, 4), (6, 5, 3)])
    def test_temperature_weighted_loads_cancel(self, mesh):
        # flux work and production cancel at every quadrature point
        sys = small_system(*mesh)
        rng = np.random.default_rng(7)
        state = HeatState(MAT.rho_c * rng.uniform(-0.3, 0.3, sys.n_dofs))
        t = temperature_of_entropy(state.s, MAT)
        weighted = t * sys.assemble_loads(state.s)
        assert abs(weighted.sum()) <= 1e-14 * np.abs(weighted).sum()


class TestWorkspaces:
    def test_returned_loads_are_not_aliased(self):
        # the kernel reuses its workspaces; what it returns is the caller's
        sys = small_system(6, 5, 3)
        rng = np.random.default_rng(3)
        s_a, s_b = (MAT.rho_c * rng.uniform(-0.3, 0.3, sys.n_dofs)
                    for _ in range(2))
        loads = sys.assemble_loads(s_a)
        wall_t = rng.uniform(280.0, 320.0, len(sys.coupling_dofs))
        pinned = s_a.copy()
        port = sys.port_loads(pinned, wall_t, 310.0, s_old=s_b, dt=1e-3)
        saved = [loads.copy()] + [p.copy() for p in port]
        sys.assemble_loads(s_b)
        sys.port_loads(s_b.copy(), wall_t + 5.0, 290.0, s_old=s_a, dt=1e-3)
        sys.loads_tangent(s_b)
        sys.entropy_production(HeatState(s_b))
        for got, want in zip([loads, *port], saved):
            assert np.array_equal(got, want)
        assert np.array_equal(sys.assemble_loads(s_a), loads)


def held_rates(sys, s, wall_temperature=None, ext_temperature=None):
    """Semi-discrete rate of the entropy field with each given face port
    pinned and held (s_old = s makes the pinned rows' rate exactly 0), and
    the load-form wall output (None without a wall port)."""
    s = s.copy()
    loads, wall, _ = sys.port_loads(s, wall_temperature, ext_temperature,
                                    s_old=s, dt=1.0)
    ds_dt = loads / sys.mass
    if wall_temperature is not None:
        ds_dt[sys.coupling_dofs] = 0.0
    if ext_temperature is not None:
        ds_dt[sys.external_dofs] = 0.0
    return ds_dt, wall


class TestRhs:
    def test_equilibrium_fixed_point(self):
        sys = small_system()
        state = sys.uniform_state(330.0)
        u = np.full(sys.boundary.n_nodes, 330.0)
        ds, wall = held_rates(sys, state.s, u)
        assert np.abs(ds).max() <= 1e-12
        assert np.abs(wall).max() <= 1e-12

    def test_sealed_conserves_energy_produces_entropy(self):
        sys = small_system()
        rng = np.random.default_rng(2)
        state = HeatState(MAT.rho_c * rng.uniform(-0.1, 0.1, sys.n_dofs))
        ds, wall = held_rates(sys, state.s)
        assert wall is None
        t = temperature_of_entropy(state.s, MAT)
        dq = float((sys.mass * t) @ ds)
        dS = float(sys.mass @ ds)
        assert abs(dq) <= 1e-8 * (1 + sys.totals(state)[0])
        assert dS >= 0.0
        assert dS == pytest.approx(sys.entropy_production(state), rel=1e-12)

    def test_sealed_trajectory_energy_flat_entropy_up(self):
        # explicit RK4 on the semi-discrete system as the trajectory oracle
        sys = small_system(n_ax=2, n_az=2, n_th=2)
        rng = np.random.default_rng(3)
        s = MAT.rho_c * rng.uniform(-0.05, 0.05, sys.n_dofs)
        q0, ent0 = sys.totals(HeatState(s))
        dt = 2e-5
        for _ in range(200):
            k1, _ = held_rates(sys, s)
            k2, _ = held_rates(sys, s + 0.5 * dt * k1)
            k3, _ = held_rates(sys, s + 0.5 * dt * k2)
            k4, _ = held_rates(sys, s + dt * k3)
            s = s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        q1, ent1 = sys.totals(HeatState(s))
        assert abs(q1 - q0) <= 1e-8 * (1 + abs(q0))
        assert ent1 >= ent0

    def test_power_balance_with_port(self):
        sys = small_system(n_ax=4, n_az=3, n_th=3)
        rng = np.random.default_rng(4)
        state = HeatState(MAT.rho_c * rng.uniform(-0.1, 0.1, sys.n_dofs))
        u = 320.0 + 20.0 * rng.standard_normal(sys.boundary.n_nodes)
        ds, wall = held_rates(sys, state.s, u)
        s_held = state.s.copy()
        s_held[sys.coupling_dofs] = entropy_of_temperature(u, MAT)
        t = temperature_of_entropy(s_held, MAT)
        dq = float((sys.mass * t) @ ds)
        q, _ = sys.totals(HeatState(s_held))
        power = float(u @ wall)  # the wall output is in load form
        assert abs(dq - power) <= 1e-8 * (1 + abs(q))

    def test_entropy_production_nonnegative(self):
        sys = small_system()
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = HeatState(MAT.rho_c * rng.uniform(-0.5, 0.5, sys.n_dofs))
            assert sys.entropy_production(state) >= 0.0

    def test_nonpositive_port_temperature_rejected(self):
        sys = small_system()
        state = sys.uniform_state(300.0)
        for bad in (-5.0, np.nan):
            u = np.full(sys.boundary.n_nodes, bad)
            with pytest.raises(StateValidityError,
                               match="boundary temperature"):
                held_rates(sys, state.s, u)


class TestHamiltonian:
    def test_zero_entropy_gives_zero_energy(self):
        sys = small_system()
        assert sys.totals(HeatState(np.zeros(sys.n_dofs)))[0] == 0.0

    def test_closed_form_on_unit_volume(self):
        domain = build_solid_domain(0, 1, 1, 1, 2, 2, 2)
        sys = HeatSystem(domain, MAT)
        state = HeatState(np.full(sys.n_dofs, MAT.rho_c))
        expected = MAT.rho_c * MAT.t_ref * (np.e - 1.0)
        assert sys.totals(state)[0] == pytest.approx(expected, rel=1e-12)

    def test_totals_are_the_hamiltonian_and_entropy(self):
        sys = small_system()
        s = np.random.default_rng(7).uniform(-MAT.rho_c, MAT.rho_c, sys.n_dofs)
        q, ent = sys.totals(HeatState(s))
        assert q == float(sys.mass @ energy_density(s, MAT))
        assert ent == float(sys.mass @ s)

    def test_nonnegative_for_nonnegative_entropy(self):
        sys = small_system()
        rng = np.random.default_rng(6)
        state = HeatState(rng.uniform(0, MAT.rho_c, sys.n_dofs))
        assert sys.totals(state)[0] >= 0.0


class TestSteadyConduction:
    def test_column_profile_matches_closed_form(self):
        # 1D-like column, cold coupling face / hot external face; the exact
        # steady state has a linear temperature profile through the thickness
        mat = HeatMaterial(rho=10.0, c=10.0, conductivity=2.0, t_ref=300.0)
        domain = build_solid_domain(0, 1, 1, 1, 1, 1, 8)
        sys = HeatSystem(domain, mat)
        t_cold, t_hot = 300.0, 400.0
        u = np.full(sys.boundary.n_nodes, t_cold)

        state = sys.uniform_state(0.5 * (t_cold + t_hot))
        free = np.setdiff1d(np.arange(sys.n_dofs),
                            np.concatenate([sys.coupling_dofs,
                                            sys.external_dofs]))

        def residual(x):
            st_ = state.copy()
            st_.s[free] = x
            ds, _ = held_rates(sys, st_.s, u, ext_temperature=t_hot)
            return ds[free]

        x = state.s[free].copy()
        for _ in range(60):
            r = residual(x)
            if np.abs(r).max() < 1e-12:
                break
            jac = np.empty((len(x), len(x)))
            for j in range(len(x)):
                h = 1e-6 * max(1.0, abs(x[j]))
                xp = x.copy()
                xp[j] += h
                jac[:, j] = (residual(xp) - r) / h
            x = x - np.linalg.solve(jac, r)
        state.s[free] = x
        state.s[sys.coupling_dofs] = entropy_of_temperature(t_cold, mat)
        state.s[sys.external_dofs] = entropy_of_temperature(t_hot, mat)

        zeta = domain.node_coordinates()[:, 2]
        t_exact = t_cold + (t_hot - t_cold) * zeta
        t_found = temperature_of_entropy(state.s, mat)
        rel = np.abs(t_found - t_exact) / t_exact
        assert rel.max() <= 0.02
