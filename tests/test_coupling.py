import dataclasses

import numpy as np
import pytest

from phmix import coupling, dirac, fem
from phmix.coupling import check_power_balance, check_transpose_identity, \
    continuous_interconnect, resolve_ports
from phmix.dirac import LineField, SurfaceField, check_adjointness, \
    check_dirac_pairing, operator_norm_bound_check
from phmix.errors import MeshCompatibilityError
from phmix.fem import LineBasis, SurfaceBasis, assemble_coupling
from phmix.geometry import IntervalMesh, TensorBoundary, build_solid_domain
from phmix.heat import HeatMaterial, HeatState, HeatSystem, \
    entropy_of_temperature, temperature_of_entropy

import oracles


def make_ops(n_ax=4, n_az=4, circumference=2.0):
    boundary = TensorBoundary(
        IntervalMesh(0.0, 1.0, n_ax),
        IntervalMesh(0.0, circumference, n_az, periodic=True))
    return assemble_coupling(SurfaceBasis(boundary),
                             LineBasis(IntervalMesh(0.0, 1.0, n_ax)))


class TestResolvePorts:
    def test_constant_temperature_embeds_exactly(self):
        ops = make_ops()
        y = LineField.constant(ops.line.mesh, 345.0)
        v = SurfaceField.constant(ops.surface.boundary, 0.0)
        u, _ = resolve_ports(v, y, ops)
        assert np.abs(u.values - 345.0).max() <= 1e-12 * 345.0

    def test_constant_output_integrates_to_measure(self):
        ops = make_ops(circumference=2.0)
        v = SurfaceField.constant(ops.surface.boundary, 1.3)
        y = LineField.constant(ops.line.mesh, 1.0)
        _, w = resolve_ports(v, y, ops)
        assert np.abs(w.values + 1.3 * 2.0).max() <= 1e-12 * 2.6

    def test_discrete_relations_hold(self):
        ops = make_ops(n_ax=5, n_az=6, circumference=1.5)
        rng = np.random.default_rng(0)
        v = SurfaceField(rng.standard_normal(ops.n_psi), ops.surface.boundary)
        y = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
        u, w = resolve_ports(v, y, ops)
        r1 = ops.m_psi @ u.values - ops.d_psi @ y.values
        r2 = ops.m_chi @ w.values + ops.d_chi @ v.values
        scale = 1 + np.abs(y.values).max() + np.abs(v.values).max()
        assert np.abs(r1).max() <= 1e-11 * scale
        assert np.abs(r2).max() <= 1e-11 * scale

    def test_power_balance_random(self):
        ops = make_ops(n_ax=6, n_az=5, circumference=2.3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = SurfaceField(rng.standard_normal(ops.n_psi),
                             ops.surface.boundary)
            y = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
            u, w = resolve_ports(v, y, ops)
            p_heat = u.values @ (ops.m_psi @ v.values)
            p_fluid = y.values @ (ops.m_chi @ w.values)
            scale = abs(p_heat) + abs(p_fluid) + 1.0
            assert abs(p_heat + p_fluid) <= 1e-11 * scale

    def test_zero_ports_zero_power(self):
        ops = make_ops()
        v = SurfaceField.constant(ops.surface.boundary, 0.0)
        y = LineField.constant(ops.line.mesh, 0.0)
        u, w = resolve_ports(v, y, ops)
        p_heat = u.values @ (ops.m_psi @ v.values)
        p_fluid = y.values @ (ops.m_chi @ w.values)
        assert p_heat == 0.0 and p_fluid == 0.0


class TestContinuousInterconnect:
    def test_linear_profile_embeds(self):
        ops = make_ops(circumference=1.0)
        y = LineField(ops.line.mesh.nodes.copy(), ops.line.mesh)
        v = SurfaceField.constant(ops.surface.boundary, 0.0)
        u, _ = continuous_interconnect(v, y, ops)
        xy = ops.surface.boundary.node_coordinates()
        assert np.abs(u.values - xy[:, 0]).max() <= 1e-14

    def test_axial_output_integrates_fiberwise(self):
        ops = make_ops(circumference=2.0)
        v = SurfaceField.from_function(ops.surface.boundary,
                                       lambda x1, x2: x1)
        y = LineField.constant(ops.line.mesh, 0.0)
        _, w = continuous_interconnect(v, y, ops)
        assert np.abs(w.values + 2.0 * ops.line.mesh.nodes).max() <= 1e-13

    def test_fubini_pairing_cancels(self):
        # reference-quadrature oracle: <By, v> over the surface equals
        # <y, Av> over the line, so u.v + y.w integrates to zero
        circ = 1.5
        ops = make_ops(n_ax=3, n_az=4, circumference=circ)
        rng = np.random.default_rng(2)
        yv = rng.standard_normal(ops.n_chi)
        vv = rng.standard_normal(ops.n_psi)
        u, w = continuous_interconnect(
            SurfaceField(vv, ops.surface.boundary),
            LineField(yv, ops.line.mesh), ops)
        nodes = ops.line.mesh.nodes
        h = ops.line.mesh.h
        az_nodes = oracles.mesh_nodes(0, circ, 4, periodic=True)
        haz = circ / 4

        def surface_interp(values, x1, x2):
            out = np.zeros(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
            for i in range(ops.n_chi):
                chi = oracles.hat(x1, nodes[i], h)
                for j in range(4):
                    eta = oracles.hat(x2, az_nodes[j], haz, True, circ)
                    out = out + values[i * 4 + j] * chi * eta
            return out

        # 12 panels per axis align with both the 3-cell and 4-cell meshes
        uv = oracles.integrate_2d(
            lambda x1, x2: surface_interp(u.values, x1, x2)
            * surface_interp(vv, x1, x2), 0, 1, 0, circ, pieces=12)
        yw = oracles.integrate(
            lambda x: oracles.interp_1d(nodes, yv, x)
            * oracles.interp_1d(nodes, w.values, x), 0, 1, pieces=3)
        assert abs(uv + yw) <= 1e-12 * (1 + abs(uv) + abs(yw))

    def test_agrees_with_matrix_resolution(self):
        ops = make_ops(n_ax=5, n_az=3, circumference=2.2)
        rng = np.random.default_rng(3)
        v = SurfaceField(rng.standard_normal(ops.n_psi), ops.surface.boundary)
        y = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
        u1, w1 = continuous_interconnect(v, y, ops)
        u2, w2 = resolve_ports(v, y, ops)
        assert (u1.boundary, w1.mesh) == (u2.boundary, w2.mesh)
        assert np.abs(u1.values - u2.values).max() <= 1e-12
        assert np.abs(w1.values - w2.values).max() <= 1e-12

    def test_mesh_mismatch_rejected(self):
        ops = make_ops()
        y = LineField(np.zeros(7), IntervalMesh(0.0, 1.0, 6))
        v = SurfaceField.constant(ops.surface.boundary, 0.0)
        with pytest.raises(MeshCompatibilityError):
            continuous_interconnect(v, y, ops)


class TestPhysicalDirection:
    def test_hot_solid_cold_fluid_heats_the_coolant(self):
        # hot interior, cold wall: the temperature gradient at the wall
        # points away from it, so the recovered output is negative and the
        # coolant input positive; heat leaves the solid, enters the fluid
        mat = HeatMaterial(rho=10.0, c=10.0, conductivity=5.0, t_ref=300.0)
        domain = build_solid_domain(0, 1, 0.5, 0.05, 4, 4, 3)
        sys = HeatSystem(domain, mat)
        ops = assemble_coupling(SurfaceBasis(sys.boundary),
                                LineBasis(domain.axial))

        t_cold, t_hot = 300.0, 380.0
        zeta = domain.node_coordinates()[:, 2]
        t_profile = t_cold + (t_hot - t_cold) * zeta / 0.05
        state = HeatState(entropy_of_temperature(t_profile, mat))
        s = state.s.copy()
        _, wall, _ = sys.port_loads(s, np.full(sys.boundary.n_nodes, t_cold),
                                    None, s_old=s, dt=1.0)  # held wall
        v_out = SurfaceField(ops.solve_psi(wall), sys.boundary)

        # gradient oracle: temperature rises away from the wall
        t_nodal = temperature_of_entropy(state.s, mat)
        wall = t_nodal[sys.coupling_dofs]
        above = t_nodal[sys.coupling_dofs + 1]  # next thickness layer
        assert np.all(above > wall)
        assert np.mean(v_out.values) < 0.0

        y = LineField.constant(ops.line.mesh, t_cold)
        u, w = resolve_ports(v_out, y, ops)
        p_heat = u.values @ (ops.m_psi @ v_out.values)
        p_fluid = y.values @ (ops.m_chi @ w.values)
        assert p_heat < 0.0 and p_fluid > 0.0
        assert np.all(w.values > 0.0)


class TestChecks:
    def test_transpose_identity_report(self):
        rep = check_transpose_identity(make_ops())
        assert rep.passed and rep.max_residual == 0.0

    def test_power_balance_report(self):
        rep = check_power_balance(make_ops(), trials=50, seed=4)
        assert rep.passed

    def test_power_balance_fails_on_non_adjoint_pair(self):
        # integrating 1 % too much leaves 1 % of the port power uncancelled
        ops = make_ops()
        bad = dataclasses.replace(ops)
        bad.d_chi = 1.01 * ops.d_chi
        rep = check_power_balance(bad, trials=50, seed=4)
        assert not rep.passed
        assert rep.max_residual > 1e3 * rep.tolerance

    def test_transpose_identity_fails_on_perturbed_d_psi_factor(
            self, monkeypatch):
        # d_psi is assembled from its own factors, not transposed from
        # d_chi: one eta integral a unit in the last place off in d_psi's
        # column factor alone fails the check by that much
        kron_pair = fem._kron_pair

        def perturbed(a, b):
            if b.shape[1] == 1 < b.shape[0]:  # d_psi's azimuthal column
                b = b.copy()
                b.data[1] = np.nextafter(b.data[1], np.inf)
            return kron_pair(a, b)

        exact = make_ops()
        exact.d_psi  # assembled before the patch
        monkeypatch.setattr(fem, "_kron_pair", perturbed)
        ops = make_ops()
        assert ops.d_chi.data.tobytes() == exact.d_chi.data.tobytes()
        assert ops.d_psi.data.tobytes() != exact.d_psi.data.tobytes()
        rep = check_transpose_identity(ops)
        assert not rep.passed and not rep.details["bitwise_equal"]
        gap = np.spacing(ops.eta_integrals[1]) * ops.m_chi.data.max()
        assert 0.0 < rep.max_residual <= 2 * gap

    def test_transpose_identity_fails_on_shape_mismatch(self):
        ops = make_ops()
        bad = dataclasses.replace(ops)
        bad.d_psi = ops.d_psi[:-1]
        rep = check_transpose_identity(bad)
        assert not rep.passed
        assert rep.max_residual == np.inf

    def test_checks_draw_their_own_fields(self, monkeypatch):
        # one seed gives each randomized check its own stream and each of
        # the check's stacks a child of it, so no two stacks share a value
        ops = make_ops()
        blocks = dirac._field_blocks
        stacks = []

        def recording(*args):
            for block in blocks(*args):
                stacks.extend(block)
                yield block

        monkeypatch.setattr(dirac, "_field_blocks", recording)
        monkeypatch.setattr(coupling, "_field_blocks", recording)
        for check in (check_adjointness, operator_norm_bound_check,
                      check_dirac_pairing, check_power_balance):
            assert check(ops, trials=3, seed=5).passed
        assert len(stacks) == 2 + 2 + 4 + 2
        for i in range(len(stacks)):
            for j in range(i):
                assert not np.isin(stacks[i], stacks[j]).any()

    def test_block_map_skew_adjoint_in_mass_inner_products(self):
        ops = make_ops(n_ax=3, n_az=3)
        n1, n2 = ops.n_chi, ops.n_psi
        a_hat = ops.solve_chi(ops.d_chi.toarray())
        b_hat = ops.solve_psi(ops.d_psi.toarray())
        j = np.zeros((n1 + n2, n1 + n2))
        j[:n1, n1:] = -a_hat
        j[n1:, :n1] = b_hat
        mass = np.zeros_like(j)
        mass[:n1, :n1] = ops.m_chi.toarray()
        mass[n1:, n1:] = ops.m_psi.toarray()
        for i in range(n1 + n2):
            for k in range(n1 + n2):
                e = np.zeros(n1 + n2)
                ep = np.zeros(n1 + n2)
                e[i] = 1.0
                ep[k] = 1.0
                val = e @ mass @ (j @ ep) + ep @ mass @ (j @ e)
                assert abs(val) <= 1e-12
