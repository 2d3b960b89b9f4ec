import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from phmix.errors import ConfigurationError, MaterialError, \
    MeshCompatibilityError, UnsupportedBasisError
from phmix.fem import LineBasis, SurfaceBasis, VolumeBasis, assemble_coupling, \
    assemble_mass, assemble_stiffness, collapse_basis, lumped_mass
from phmix.geometry import IntervalMesh, TensorBoundary, build_solid_domain, \
    quadrature_rule

import oracles

QUAD = quadrature_rule(3)

# frozen from the entrywise hat-product quadrature oracle (verified below)
MASS_2CELL_UNIT = np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]]) / 12.0
STIFF_2CELL_UNIT = 2.0 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def small_surface(n_ax=3, n_az=4, circumference=2 * np.pi, length=1.0):
    return SurfaceBasis(TensorBoundary(
        IntervalMesh(0.0, length, n_ax),
        IntervalMesh(0.0, circumference, n_az, periodic=True)))


class TestMassMatrix:
    def test_p1_two_cells_matches_oracle(self):
        mesh = IntervalMesh(0, 1, 2)
        m = assemble_mass(LineBasis(mesh), QUAD).toarray()
        oracle = oracles.mass_matrix_oracle(0, 1, 2)
        assert np.abs(m - oracle).max() <= 1e-13
        assert np.abs(m - MASS_2CELL_UNIT).max() <= 1e-13

    def test_periodic_mass_matches_oracle(self):
        mesh = IntervalMesh(0, 2 * np.pi, 4, periodic=True)
        m = assemble_mass(LineBasis(mesh), QUAD).toarray()
        oracle = oracles.mass_matrix_oracle(0, 2 * np.pi, 4, periodic=True)
        assert np.abs(m - oracle).max() <= 1e-13
        h = np.pi / 2
        assert np.allclose(np.diag(m), 2 * h / 3, rtol=1e-13)
        assert m[0, 1] == pytest.approx(h / 6, rel=1e-13)
        assert m[0, -1] == pytest.approx(h / 6, rel=1e-13)

    @pytest.mark.parametrize("basis,measure", [
        (LineBasis(IntervalMesh(0.5, 2.5, 5)), 2.0),
        (LineBasis(IntervalMesh(0, 3, 6, periodic=True)), 3.0),
        (small_surface(), 2 * np.pi),
        (VolumeBasis(build_solid_domain(0, 1, 0.5, 0.1, 3, 3, 2)), 0.05),
    ])
    def test_entries_sum_to_domain_measure(self, basis, measure):
        m = assemble_mass(basis, QUAD)
        assert m.sum() == pytest.approx(measure, rel=1e-12)

    def test_row_sums_equal_lumped_mass(self):
        basis = small_surface()
        m = assemble_mass(basis, QUAD)
        lumped = lumped_mass(basis, QUAD)
        assert np.abs(np.asarray(m.sum(axis=1)).ravel() - lumped).max() <= 1e-14

    @pytest.mark.parametrize("basis", [
        LineBasis(IntervalMesh(0, 1, 4)),
        small_surface(),
        VolumeBasis(build_solid_domain(0, 1, 0.5, 0.1, 2, 3, 2)),
    ])
    def test_symmetric_and_positive_definite(self, basis):
        m = assemble_mass(basis, QUAD).toarray()
        assert np.abs(m - m.T).max() <= 1e-14 * np.abs(m).max()
        assert np.linalg.eigvalsh(m).min() > 0

    def test_insufficient_quadrature_degree_rejected(self):
        with pytest.raises(ConfigurationError, match="degree"):
            assemble_mass(LineBasis(IntervalMesh(0, 1, 2)), quadrature_rule(1))

    def test_deterministic_assembly(self):
        basis = small_surface()
        a = assemble_mass(basis, QUAD)
        b = assemble_mass(basis, QUAD)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)


class TestPartitionOfUnity:
    @pytest.mark.parametrize("basis", [
        LineBasis(IntervalMesh(0, 1, 4)),
        LineBasis(IntervalMesh(0, 1, 1, periodic=True)),
        small_surface(),
        VolumeBasis(build_solid_domain(0, 1, 0.5, 0.1, 2, 3, 2)),
    ])
    def test_shape_functions_sum_to_one(self, basis):
        t = basis.tables(QUAD)
        assert np.abs(t.values.sum(axis=1) - 1.0).max() <= 1e-13

    def test_hat_support_is_local(self):
        basis = LineBasis(IntervalMesh(0, 1, 4))
        vals = basis.evaluate(np.array([0.6]))
        # x = 0.6 lies in cell 2; only nodes 2 and 3 may be active
        assert np.all(vals[[0, 1, 4], 0] == 0.0)
        assert vals[:, 0].sum() == pytest.approx(1.0, abs=1e-14)


class TestStiffness:
    def test_two_cell_oracle(self):
        mesh = IntervalMesh(0, 1, 2)
        k = assemble_stiffness(LineBasis(mesh), 1.0, QUAD).toarray()
        oracle = oracles.stiffness_matrix_oracle(0, 1, 2)
        assert np.abs(k - oracle).max() <= 1e-13
        assert np.abs(k - STIFF_2CELL_UNIT).max() <= 1e-13

    def test_constant_in_kernel(self):
        dom = build_solid_domain(0, 1, 0.5, 0.1, 3, 4, 2)
        k = assemble_stiffness(VolumeBasis(dom), 2.5, QUAD)
        ones = np.ones(k.shape[0])
        assert np.abs(k @ ones).max() <= 1e-12 * abs(k).max()

    def test_positive_semidefinite(self):
        k = assemble_stiffness(LineBasis(IntervalMesh(0, 2, 5)), 1.3,
                               QUAD).toarray()
        assert np.linalg.eigvalsh(k).min() >= -1e-12

    def test_variable_coefficient_positive(self):
        mesh = IntervalMesh(0, 1, 4)
        coef = lambda pts: 1.0 + pts[..., 0]
        k = assemble_stiffness(LineBasis(mesh), coef, QUAD).toarray()
        # oracle: entrywise quadrature with the same coefficient
        nodes = mesh.nodes
        h = mesh.h
        for i in range(5):
            for j in range(5):
                ref = oracles.integrate(
                    lambda x: (1.0 + x) * oracles.hat_deriv(x, nodes[i], h)
                    * oracles.hat_deriv(x, nodes[j], h), 0, 1, pieces=4)
                assert k[i, j] == pytest.approx(ref, abs=1e-12)

    def test_non_positive_coefficient_rejected(self):
        with pytest.raises(MaterialError, match="coefficient"):
            assemble_stiffness(LineBasis(IntervalMesh(0, 1, 4)), 0.0, QUAD)
        with pytest.raises(MaterialError, match="coefficient"):
            assemble_stiffness(LineBasis(IntervalMesh(0, 1, 4)),
                               lambda pts: pts[..., 0] - 0.5, QUAD)


class TestCollapse:
    def test_sum_of_collapsed_is_azimuthal_measure(self):
        surface = small_surface()
        collapsed = collapse_basis(surface, QUAD)
        x = np.linspace(0.0, 1.0, 17)
        total = collapsed.evaluate(x).sum(axis=0)
        assert np.abs(total - 2 * np.pi).max() <= 1e-12 * 2 * np.pi

    def test_periodic_hat_integrals(self):
        surface = small_surface(circumference=2 * np.pi, n_az=4)
        collapsed = collapse_basis(surface, QUAD)
        oracle = oracles.eta_integrals_oracle(2 * np.pi, 4)
        assert np.abs(collapsed.weights - oracle).max() <= 1e-13
        assert np.allclose(collapsed.weights, np.pi / 2, rtol=1e-13)

    def test_axial_support_unchanged(self):
        surface = small_surface(n_ax=5, n_az=3)
        collapsed = collapse_basis(surface, QUAD)
        n2 = 3
        # chi_2 peaks at 0.4 with support [0.2, 0.6]
        vals = collapsed.evaluate(np.array([0.05, 0.25, 0.55, 0.85]))
        row = vals[2 * n2 + 0]
        assert row[0] == 0.0 and row[3] == 0.0
        assert row[1] > 0.0 and row[2] > 0.0
        chi_row = collapsed.chi.evaluate(np.array([0.05, 0.25, 0.55, 0.85]))[2]
        assert np.array_equal(row > 0, chi_row > 0)

    def test_non_tensor_basis_rejected(self):
        with pytest.raises(UnsupportedBasisError):
            collapse_basis(LineBasis(IntervalMesh(0, 1, 3)), QUAD)


class TestCoupling:
    def test_tensor_factorization_against_oracle(self):
        surface = small_surface(n_ax=3, n_az=4)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 3)), QUAD)
        oracle = oracles.coupling_block_oracle(0, 1, 3, 2 * np.pi, 4)
        assert np.abs(ops.d_chi.toarray() - oracle).max() <= 1e-13
        kron = sp.kron(ops.m_chi, np.atleast_2d(ops.eta_integrals)).toarray()
        assert np.abs(ops.d_chi.toarray() - kron).max() <= 1e-13

    def test_row_sums(self):
        surface = small_surface(n_ax=4, n_az=5, circumference=1.5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)), QUAD)
        rows = np.asarray(ops.d_chi.sum(axis=1)).ravel()
        mass_rows = np.asarray(ops.m_chi.sum(axis=1)).ravel()
        assert np.abs(rows - 1.5 * mass_rows).max() <= 1e-12

    def test_transpose_identity_bitwise(self):
        surface = small_surface(n_ax=6, n_az=5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 6)), QUAD)
        a = ops.d_psi.sorted_indices()
        b = ops.d_chi.transpose().tocsr().sorted_indices()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_mesh_mismatch_lists_both(self):
        surface = small_surface(n_ax=3)
        with pytest.raises(MeshCompatibilityError, match="does not match"):
            assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)), QUAD)

    def test_assembly_matches_defining_integral(self):
        # y' D v must equal the reference quadrature of the product of the
        # interpolated line field and the collapsed-surface field
        surface = small_surface(n_ax=3, n_az=4, circumference=1.0)
        line = LineBasis(IntervalMesh(0, 1, 3))
        ops = assemble_coupling(surface, line, QUAD)
        rng = np.random.default_rng(7)
        nodes = line.mesh.nodes
        h = line.mesh.h
        c = oracles.eta_integrals_oracle(1.0, 4)
        for _ in range(5):
            y = rng.standard_normal(ops.n_chi)
            v = rng.standard_normal(ops.n_psi)
            direct = float(y @ (ops.d_chi @ v))

            def integrand(x):
                yx = oracles.interp_1d(nodes, y, x)
                vx = np.zeros_like(np.asarray(x, dtype=float))
                for i in range(ops.n_chi):
                    for j in range(4):
                        vx = vx + v[i * 4 + j] * c[j] \
                            * oracles.hat(x, nodes[i], h)
                return yx * vx

            ref = oracles.integrate(integrand, 0, 1, pieces=3)
            assert direct == pytest.approx(ref, abs=1e-12 * (1 + abs(ref)))

    def test_sparsity_bound(self):
        surface = small_surface(n_ax=8, n_az=6)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 8)), QUAD)
        d = ops.d_chi.tocsr()
        m = ops.m_chi.tocsr()
        nnz_d = np.diff(d.indptr)
        nnz_m = np.diff(m.indptr)
        assert np.all(nnz_d <= nnz_m * 6)

    def test_azimuthal_refinement_preserves_row_sums(self):
        line = LineBasis(IntervalMesh(0, 1, 4))
        sums = []
        for n_az in (4, 8):
            surface = small_surface(n_ax=4, n_az=n_az, circumference=1.5)
            ops = assemble_coupling(surface, line, QUAD)
            sums.append(np.asarray(ops.d_chi.sum(axis=1)).ravel())
        assert np.abs(sums[0] - sums[1]).max() <= 1e-12

    def test_mass_blocks_positive_definite(self):
        surface = small_surface(n_ax=4, n_az=4)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)), QUAD)
        assert np.linalg.eigvalsh(ops.m_psi.toarray()).min() > 0
        assert np.linalg.eigvalsh(ops.m_chi.toarray()).min() > 0


class TestEmbedPair:
    def test_embed_t_is_transpose_and_stacks(self):
        # B^T is the transpose of B in the coefficient dot product, and a
        # stack of fields gives each field's result row by row
        surface = small_surface(n_ax=4, n_az=5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)), QUAD)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((3, ops.n_chi))
        b = rng.standard_normal((3, ops.n_psi))
        dense = np.zeros((ops.n_psi, ops.n_chi))
        dense[np.arange(ops.n_psi), np.arange(ops.n_psi) // 5] = 1.0
        assert np.array_equal(ops.embed(y), y @ dense.T)
        assert np.abs(ops.embed_t(b) - b @ dense).max() <= 1e-14
        for k in range(3):
            assert np.array_equal(ops.embed(y[k]), ops.embed(y)[k])
            assert np.array_equal(ops.embed_t(b[k]), ops.embed_t(b)[k])
            assert np.abs(ops.integrate(b[k]) - ops.integrate(b)[k]).max() \
                <= 1e-14 * np.abs(ops.integrate(b[k])).max()

    def test_integrate_is_the_mass_consistent_block(self):
        surface = small_surface(n_ax=3, n_az=4)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 3)), QUAD)
        u = np.random.default_rng(4).standard_normal(ops.n_psi)
        expected = np.linalg.solve(ops.m_chi.toarray(), ops.d_chi @ u)
        assert np.abs(ops.integrate(u) - expected).max() \
            <= 1e-13 * np.abs(expected).max()


@given(st.integers(1, 6), st.floats(0.2, 5.0))
def test_lumped_mass_sums_to_measure(n_cells, extent):
    mesh = IntervalMesh(0.0, extent, n_cells)
    lumped = lumped_mass(LineBasis(mesh), QUAD)
    assert lumped.sum() == pytest.approx(extent, rel=1e-12)
    assert np.all(lumped > 0)
