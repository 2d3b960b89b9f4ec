import numpy as np
import pytest
from hypothesis import given, strategies as st

from phmix.errors import GeometryError, MaterialError, StateValidityError
from phmix.fem import LineBasis, assemble_mass
from phmix.fluid import FluidMaterial, FluidState, FluidSystem, eos, \
    gas_temperature, sound_speed
from phmix.geometry import IntervalMesh

import oracles

MAT = FluidMaterial(r_gas=0.4, c_v=1.0, friction=0.1, t_ref=300.0)


def small_system(n=8, friction=0.1):
    mat = FluidMaterial(r_gas=0.4, c_v=1.0, friction=friction, t_ref=300.0)
    return FluidSystem(IntervalMesh(0.0, 1.0, n), mat)


class TestEos:
    def test_reference_point(self):
        p, t, u = eos(MAT.phi_ref, MAT.s_ref, MAT)
        assert t == pytest.approx(300.0, rel=1e-14)
        assert p == pytest.approx(MAT.r_gas * 300.0 / MAT.phi_ref, rel=1e-14)
        assert u == pytest.approx(MAT.c_v * 300.0, rel=1e-14)

    def test_isentropic_compression_scaling(self):
        _, t0, _ = eos(1.0, 0.2, MAT)
        _, t1, _ = eos(0.5, 0.2, MAT)
        assert t1 / t0 == pytest.approx(2.0 ** (MAT.r_gas / MAT.c_v), rel=1e-13)

    def test_gibbs_relation_by_finite_differences(self):
        # central-difference oracle: du = -p dphi + T ds at random states
        rng = np.random.default_rng(0)
        for _ in range(100):
            phi = rng.uniform(0.3, 3.0)
            s = rng.uniform(-1.0, 1.0)
            p, t, _ = eos(phi, s, MAT)
            du_dphi = oracles.central_difference(
                lambda x: eos(x, s, MAT)[2], phi, 1e-6 * phi)
            du_ds = oracles.central_difference(
                lambda x: eos(phi, x, MAT)[2], s, 1e-6)
            assert abs(du_dphi + p) <= 1e-7 * abs(p)
            assert abs(du_ds - t) <= 1e-7 * abs(t)

    def test_invalid_specific_volume_identified(self):
        with pytest.raises(StateValidityError, match=r"specific volume\[2\]"):
            eos(np.array([1.0, 1.0, -0.5]), np.zeros(3), MAT)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_zero_or_nan_specific_volume_identified(self, bad):
        with pytest.raises(StateValidityError, match=r"specific volume\[2\]"):
            eos(np.array([1.0, 1.0, bad, 1.0]), np.zeros(4), MAT)

    def test_material_validation(self):
        with pytest.raises(MaterialError, match="r_gas"):
            FluidMaterial(r_gas=0.0, c_v=1.0)
        with pytest.raises(MaterialError, match="friction"):
            FluidMaterial(r_gas=1.0, c_v=1.0, friction=-1.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(MaterialError, match="c_v"):
                FluidMaterial(r_gas=1.0, c_v=bad)
            with pytest.raises(MaterialError, match="friction"):
                FluidMaterial(r_gas=1.0, c_v=1.0, friction=bad)

    def test_sound_speed_closed_form(self):
        c = sound_speed(300.0, MAT)
        assert c == pytest.approx(np.sqrt(1.4 * 0.4 * 300.0), rel=1e-14)


def energy_rate(state, loads, mat):
    """dH/dt = sum_i m_i (-p dphi/dt + v dv/dt + T ds/dt) from load-form
    rates, in which the lumped mass is already applied."""
    p, t, _ = eos(state.phi, state.s, mat)
    return float(-p @ loads.phi + state.vel @ loads.vel + t @ loads.s)


class TestRhs:
    """The load-form operator FluidSystem.loads, which the stepper uses."""

    def test_equilibrium_fixed_point(self):
        sys = small_system()
        rates, y = sys.loads(sys.uniform_state(300.0))
        assert np.abs(rates.phi).max() <= 1e-12
        assert np.abs(rates.vel).max() <= 1e-12
        assert np.abs(rates.s).max() <= 1e-12
        assert np.abs(y - 300.0).max() <= 1e-12 * 300.0

    def test_output_is_temperature(self):
        sys = small_system()
        rng = np.random.default_rng(1)
        st_ = sys.uniform_state(300.0)
        st_.s = st_.s + 0.2 * rng.standard_normal(sys.n_dofs)
        _, y = sys.loads(st_)
        assert np.array_equal(y, eos(st_.phi, st_.s, MAT)[1])

    def test_sealed_energy_rate_is_port_power(self):
        sys = small_system()
        rng = np.random.default_rng(2)
        st_ = sys.uniform_state(310.0)
        st_.phi = st_.phi * (1 + 0.1 * rng.standard_normal(sys.n_dofs))
        st_.vel = 0.4 * rng.standard_normal(sys.n_dofs)
        st_.vel[0] = st_.vel[-1] = 0.0
        st_.s = st_.s + 0.1 * rng.standard_normal(sys.n_dofs)
        w = rng.standard_normal(sys.n_dofs)
        m_chi = assemble_mass(LineBasis(sys.mesh))
        w_load = m_chi @ w  # the port input enters as a line load
        rates, y = sys.loads(st_)
        rates.s = rates.s + w_load
        dh = energy_rate(st_, rates, sys.material)
        port = float(y @ w_load)
        assert abs(dh - port) <= 1e-10 * (1 + abs(port))

    def test_friction_produces_entropy_conserves_energy(self):
        sys = small_system(friction=0.5)
        rng = np.random.default_rng(3)
        st_ = sys.uniform_state(300.0)
        st_.vel = 0.5 * rng.standard_normal(sys.n_dofs)
        st_.vel[0] = st_.vel[-1] = 0.0
        rates, t = sys.loads(st_)
        dh = energy_rate(st_, rates, sys.material)
        ds_total = float(rates.s.sum())
        assert abs(dh) <= 1e-10 * (1 + sys.totals(st_)[0])
        assert ds_total >= 0.0
        assert np.all(sys.material.friction * st_.vel ** 2 / t >= 0.0)
        assert ds_total == pytest.approx(sys.entropy_production(st_),
                                         rel=1e-12)

    def test_sealed_ends_hold(self):
        sys = small_system()
        rng = np.random.default_rng(4)
        st_ = sys.uniform_state(300.0)
        st_.s = st_.s + 0.3 * rng.standard_normal(sys.n_dofs)
        rates, _ = sys.loads(st_)
        assert rates.vel[0] == 0.0 and rates.vel[-1] == 0.0

    def test_tangent_matches_central_differences(self):
        # every column of d loads / d(phi, vel, s), and dT/d(phi, s), at a
        # state with flow, friction and end velocities (the sealed-end rows
        # stay zero anyway)
        sys = small_system(friction=0.5)
        rng = np.random.default_rng(5)
        n = sys.n_dofs
        st_ = sys.uniform_state(300.0)
        x = np.concatenate([st_.phi * (1 + 0.1 * rng.standard_normal(n)),
                            0.4 * rng.standard_normal(n),
                            st_.s + 0.1 * rng.standard_normal(n)])

        def outputs(v):
            rates, t = sys.loads(FluidState(*v.reshape(3, n)))
            return np.concatenate([rates.phi, rates.vel, rates.s, t])

        jac, t_grad = sys.loads_tangent(FluidState(*x.reshape(3, n)))
        dense = np.empty((4 * n, 3 * n))
        for j in range(3 * n):
            h = 1e-6 * max(abs(x[j]), 1.0)
            e = np.zeros(3 * n)
            e[j] = h
            dense[:, j] = (outputs(x + e) - outputs(x - e)) / (2.0 * h)
        scale = np.abs(dense).max()
        assert np.abs(jac - dense[:3 * n]).max() <= 1e-8 * scale
        assert not jac[[n, 2 * n - 1]].any()
        # the temperature is nodal in (phi, s)
        want = np.hstack([np.diag(t_grad[0]), np.zeros((n, n)),
                          np.diag(t_grad[1])])
        assert np.abs(dense[3 * n:] - want).max() \
            <= 1e-8 * np.abs(t_grad).max()

    def test_periodic_channel_rejected(self):
        with pytest.raises(GeometryError, match="non-periodic"):
            FluidSystem(IntervalMesh(0, 1, 8, periodic=True), MAT)


class TestHamiltonian:
    def test_rest_state_closed_form(self):
        sys = small_system()
        h, _ = sys.totals(sys.uniform_state(300.0))
        assert h == pytest.approx(MAT.c_v * 300.0 * 1.0, rel=1e-13)

    def test_kinetic_part_scales_quadratically(self):
        sys = small_system()
        st1 = sys.uniform_state(300.0, velocity=0.5)
        st2 = sys.uniform_state(300.0, velocity=1.0)
        rest, _ = sys.totals(sys.uniform_state(300.0))
        k1 = sys.totals(st1)[0] - rest
        k2 = sys.totals(st2)[0] - rest
        assert k2 == pytest.approx(4.0 * k1, rel=1e-12)

    def test_totals_are_the_hamiltonian_and_entropy(self):
        sys = small_system()
        rng = np.random.default_rng(5)
        state = FluidState(rng.uniform(0.5, 2.0, sys.n_dofs),
                           rng.standard_normal(sys.n_dofs),
                           rng.standard_normal(sys.n_dofs))
        _, t, u = eos(state.phi, state.s, MAT)
        h, ent = sys.totals(state)
        assert h == float(sys.mass @ (0.5 * state.vel ** 2 + u))
        assert ent == float(sys.mass @ state.s)
        assert np.array_equal(gas_temperature(state.phi, state.s, MAT), t)

    @given(st.floats(100.0, 900.0), st.floats(0.2, 4.0))
    def test_uniform_state_hits_requested_temperature(self, t0, phi0):
        sys = small_system()
        state = sys.uniform_state(t0, phi=phi0)
        _, t, _ = eos(state.phi, state.s, MAT)
        assert np.abs(t - t0).max() <= 1e-10 * t0


def test_grad_pairing_symmetric_part_is_boundary_only():
    sys = small_system(n=6)
    sym = sys.grad_pairing + sys.grad_pairing.T
    expected = np.zeros_like(sym)
    expected[0, 0] = -1.0
    expected[-1, -1] = 1.0
    assert np.abs(sym - expected).max() <= 1e-13


def test_grad_pairing_matches_reference_quadrature():
    sys = small_system(n=4)
    nodes = sys.mesh.nodes
    h = sys.mesh.h
    for i in range(sys.n_dofs):
        for j in range(sys.n_dofs):
            ref = oracles.integrate(
                lambda x: oracles.hat(x, nodes[i], h)
                * oracles.hat_deriv(x, nodes[j], h),
                0.0, 1.0, pieces=4)
            assert sys.grad_pairing[i, j] == pytest.approx(ref, abs=1e-13)
