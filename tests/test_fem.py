import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from phmix.errors import ConfigurationError, MaterialError, \
    MeshCompatibilityError
from phmix.fem import LineBasis, SurfaceBasis, VolumeBasis, assemble_coupling, \
    assemble_mass, assemble_stiffness, lumped_mass
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
        LineBasis(IntervalMesh(0, 2, 3, periodic=True)),
        VolumeBasis(build_solid_domain(0, 1, 0.5, 0.1, 2, 3, 2)),
    ])
    def test_shape_functions_sum_to_one(self, basis):
        t = basis.tables(QUAD)
        assert np.abs(t.values.sum(axis=1) - 1.0).max() <= 1e-13


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

    def test_non_positive_coefficient_rejected(self):
        with pytest.raises(MaterialError, match="coefficient"):
            assemble_stiffness(LineBasis(IntervalMesh(0, 1, 4)), 0.0, QUAD)


class TestTensorOperators:
    """Q1 operators against products of 1D hat integrals from the oracle."""

    def test_surface_mass_against_2d_hat_products(self):
        n_ax, n_az, circ = 3, 3, 1.5
        m = assemble_mass(small_surface(n_ax, n_az, circ), QUAD).toarray()
        x1 = oracles.mesh_nodes(0.0, 1.0, n_ax)
        x2 = oracles.mesh_nodes(0.0, circ, n_az, periodic=True)
        h1, h2 = 1.0 / n_ax, circ / n_az

        def phi(x, y, i, j):
            return oracles.hat(x, x1[i], h1) \
                * oracles.hat(y, x2[j], h2, periodic=True, length=circ)

        dofs = [(i, j) for i in range(n_ax + 1) for j in range(n_az)]
        for a, (i, j) in enumerate(dofs):
            for b, (k, l) in enumerate(dofs):
                ref = oracles.integrate_2d(
                    lambda x, y: phi(x, y, i, j) * phi(x, y, k, l),
                    0.0, 1.0, 0.0, circ, pieces=3, order=4)
                assert m[a, b] == pytest.approx(ref, abs=1e-14)

    def test_volume_mass_and_stiffness_against_1d_oracles(self):
        dom = build_solid_domain(0, 1, 0.5, 0.1, 2, 3, 2)
        extents = [(0.0, 1.0, 2, False), (0.0, 0.5, 3, True),
                   (0.0, 0.1, 2, False)]
        m1 = [oracles.mass_matrix_oracle(*e) for e in extents]
        k1 = [oracles.stiffness_matrix_oracle(a, b, n, periodic=p)
              for a, b, n, p in extents]
        mass = np.kron(np.kron(m1[0], m1[1]), m1[2])
        stiff = np.kron(np.kron(k1[0], m1[1]), m1[2]) \
            + np.kron(np.kron(m1[0], k1[1]), m1[2]) \
            + np.kron(np.kron(m1[0], m1[1]), k1[2])
        basis = VolumeBasis(dom)
        m = assemble_mass(basis, QUAD).toarray()
        k = assemble_stiffness(basis, 2.5, QUAD).toarray()
        assert np.abs(m - mass).max() <= 1e-13 * np.abs(mass).max()
        assert np.abs(k - 2.5 * stiff).max() <= 1e-13 * np.abs(stiff).max()
        lumped = np.kron(np.kron(*(m.sum(axis=1) for m in m1[:2])),
                         m1[2].sum(axis=1))
        assert np.abs(lumped_mass(basis, QUAD) - lumped).max() \
            <= 1e-13 * lumped.max()

    def test_coupling_blocks_are_bitwise_kronecker(self):
        ops = coupling_of(small_surface(n_ax=6, n_az=5, circumference=1.3))
        kron = sp.kron(ops.m_chi, ops.eta_integrals[None, :], format="csr")
        kron_t = kron.transpose().tocsr().sorted_indices()
        for mat, ref in ((ops.d_chi, kron), (ops.d_psi, kron_t)):
            assert np.array_equal(mat.indptr, ref.indptr)
            assert np.array_equal(mat.indices, ref.indices)
            assert np.array_equal(mat.data, ref.data)


def coupling_of(surface):
    """assemble_coupling on the surface and its own axial factor."""
    return assemble_coupling(surface, LineBasis(surface.boundary.gamma1), QUAD)


class TestCollapse:
    """The surface basis integrated over the azimuth: eta_integrals and the
    rows of d_chi."""

    def test_sum_of_collapsed_is_azimuthal_measure(self):
        ops = coupling_of(small_surface())
        assert ops.eta_integrals.sum() == pytest.approx(ops.measure2,
                                                        rel=1e-12)
        assert ops.measure2 == pytest.approx(2 * np.pi, rel=1e-14)

    def test_periodic_hat_integrals(self):
        ops = coupling_of(small_surface(circumference=2 * np.pi, n_az=4))
        oracle = oracles.eta_integrals_oracle(2 * np.pi, 4)
        assert np.abs(ops.eta_integrals - oracle).max() <= 1e-13
        assert np.allclose(ops.eta_integrals, np.pi / 2, rtol=1e-13)

    def test_axial_support_unchanged(self):
        # row k of d_chi pairs chi_k with every collapsed chi_i eta_j: it
        # is nonzero exactly on the columns (i, j) with chi_i overlapping
        # chi_k, i.e. |i - k| <= 1, for every azimuthal j
        n_ax, n2 = 5, 3
        ops = coupling_of(small_surface(n_ax=n_ax, n_az=n2))
        pattern = ops.d_chi.toarray() != 0
        for k in range(n_ax + 1):
            near = [i for i in range(n_ax + 1) if abs(i - k) <= 1]
            cols = [i * n2 + j for i in near for j in range(n2)]
            assert np.flatnonzero(pattern[k]).tolist() == cols


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
        # column stack of fields gives each field's result column by column
        surface = small_surface(n_ax=4, n_az=5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)), QUAD)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((ops.n_chi, 3))
        b = rng.standard_normal((ops.n_psi, 3))
        dense = np.zeros((ops.n_psi, ops.n_chi))
        dense[np.arange(ops.n_psi), np.arange(ops.n_psi) // 5] = 1.0
        assert np.array_equal(ops.embed(y), dense @ y)
        assert np.abs(ops.embed_t(b) - dense.T @ b).max() <= 1e-14
        for k in range(3):
            assert np.array_equal(ops.embed(y[:, k]), ops.embed(y)[:, k])
            assert np.array_equal(ops.embed_t(b[:, k]), ops.embed_t(b)[:, k])
            assert np.abs(ops.integrate(b[:, k]) - ops.integrate(b)[:, k]).max() \
                <= 1e-14 * np.abs(ops.integrate(b[:, k])).max()

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
