import dataclasses
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from phmix.config import GeometryConfig, default_config
from phmix.driver import build_problem, make_simulation
from phmix.errors import ConfigurationError, MaterialError, \
    MeshCompatibilityError
from phmix.fem import CouplingOperators, LineBasis, SurfaceBasis, \
    VolumeBasis, assemble_coupling, assemble_mass, assemble_stiffness, \
    line_matrix, lumped_mass
from phmix.fluid import FluidSystem
from phmix.heat import HeatSystem
from phmix.simulate import build_scenario
from phmix.geometry import IntervalMesh, TensorBoundary, build_solid_domain

import oracles

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
        m = assemble_mass(LineBasis(mesh)).toarray()
        oracle = oracles.mass_matrix_oracle(0, 1, 2)
        assert np.abs(m - oracle).max() <= 1e-13
        assert np.abs(m - MASS_2CELL_UNIT).max() <= 1e-13

    def test_periodic_mass_matches_oracle(self):
        mesh = IntervalMesh(0, 2 * np.pi, 4, periodic=True)
        m = assemble_mass(LineBasis(mesh)).toarray()
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
        m = assemble_mass(basis)
        assert m.sum() == pytest.approx(measure, rel=1e-12)

    def test_row_sums_equal_lumped_mass(self):
        basis = small_surface()
        m = assemble_mass(basis)
        lumped = lumped_mass(basis)
        assert np.abs(np.asarray(m.sum(axis=1)).ravel() - lumped).max() <= 1e-14

    @pytest.mark.parametrize("basis", [
        LineBasis(IntervalMesh(0, 1, 4)),
        small_surface(),
        VolumeBasis(build_solid_domain(0, 1, 0.5, 0.1, 2, 3, 2)),
    ])
    def test_symmetric_and_positive_definite(self, basis):
        m = assemble_mass(basis).toarray()
        assert np.abs(m - m.T).max() <= 1e-14 * np.abs(m).max()
        assert np.linalg.eigvalsh(m).min() > 0

    def test_line_tables_computed_once_per_rule(self):
        line = LineBasis(IntervalMesh(0, 1, 3))
        tab = line.tables
        assert line.tables is tab
        for arr in (tab.values, tab.gradients, tab.wdet):
            assert not arr.flags.writeable

    def test_cached_tables_assemble_the_same_bits(self):
        # bases whose tables are already cached against fresh ones: every
        # operator is bitwise equal
        def bases():
            return (small_surface(n_ax=4, n_az=5),
                    LineBasis(IntervalMesh(0, 1, 4)),
                    VolumeBasis(build_solid_domain(0, 1, 0.5, 0.1, 4, 5, 2)))

        def operators(surface, line, volume):
            ops = assemble_coupling(surface, line)
            tab = volume.tables
            return [ops.m_psi, ops.m_chi, ops.d_chi, ops.d_psi,
                    assemble_mass(volume), assemble_stiffness(volume, 5.0),
                    lumped_mass(volume), ops.eta_integrals,
                    tab.values, tab.gradients, tab.wdet]

        cached = bases()
        operators(*cached)
        for got, want in zip(operators(*cached), operators(*bases())):
            if sp.issparse(got):
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, attr),
                                          getattr(want, attr))
            else:
                assert got.tobytes() == want.tobytes()

    def test_deterministic_assembly(self):
        basis = small_surface()
        a = assemble_mass(basis)
        b = assemble_mass(basis)
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
        t = basis.tables
        assert np.abs(t.values.sum(axis=1) - 1.0).max() <= 1e-13


class TestStiffness:
    def test_two_cell_oracle(self):
        mesh = IntervalMesh(0, 1, 2)
        k = assemble_stiffness(LineBasis(mesh), 1.0).toarray()
        oracle = oracles.stiffness_matrix_oracle(0, 1, 2)
        assert np.abs(k - oracle).max() <= 1e-13
        assert np.abs(k - STIFF_2CELL_UNIT).max() <= 1e-13

    def test_constant_in_kernel(self):
        dom = build_solid_domain(0, 1, 0.5, 0.1, 3, 4, 2)
        k = assemble_stiffness(VolumeBasis(dom), 2.5)
        ones = np.ones(k.shape[0])
        assert np.abs(k @ ones).max() <= 1e-12 * abs(k).max()

    def test_positive_semidefinite(self):
        k = assemble_stiffness(LineBasis(IntervalMesh(0, 2, 5)), 1.3).toarray()
        assert np.linalg.eigvalsh(k).min() >= -1e-12

    def test_non_positive_coefficient_rejected(self):
        with pytest.raises(MaterialError, match="coefficient"):
            assemble_stiffness(LineBasis(IntervalMesh(0, 1, 4)), 0.0)


class TestTensorOperators:
    """Q1 operators against products of 1D hat integrals from the oracle."""

    def test_surface_mass_against_2d_hat_products(self):
        n_ax, n_az, circ = 3, 3, 1.5
        m = assemble_mass(small_surface(n_ax, n_az, circ)).toarray()
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
        m = assemble_mass(basis).toarray()
        k = assemble_stiffness(basis, 2.5).toarray()
        assert np.abs(m - mass).max() <= 1e-13 * np.abs(mass).max()
        assert np.abs(k - 2.5 * stiff).max() <= 1e-13 * np.abs(stiff).max()
        lumped = np.kron(np.kron(*(m.sum(axis=1) for m in m1[:2])),
                         m1[2].sum(axis=1))
        assert np.abs(lumped_mass(basis) - lumped).max() \
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
    return assemble_coupling(surface, LineBasis(surface.boundary.gamma1))


class TestCollapse:
    """The surface basis integrated over the azimuth: eta_integrals and the
    rows of d_chi."""

    def test_sum_of_collapsed_is_azimuthal_measure(self):
        ops = coupling_of(small_surface())
        measure2 = ops.surface.boundary.measure2
        assert ops.eta_integrals.sum() == pytest.approx(measure2, rel=1e-12)
        assert measure2 == pytest.approx(2 * np.pi, rel=1e-14)

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
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 3)))
        oracle = oracles.coupling_block_oracle(0, 1, 3, 2 * np.pi, 4)
        assert np.abs(ops.d_chi.toarray() - oracle).max() <= 1e-13
        kron = sp.kron(ops.m_chi, np.atleast_2d(ops.eta_integrals)).toarray()
        assert np.abs(ops.d_chi.toarray() - kron).max() <= 1e-13

    def test_row_sums(self):
        surface = small_surface(n_ax=4, n_az=5, circumference=1.5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)))
        rows = np.asarray(ops.d_chi.sum(axis=1)).ravel()
        mass_rows = np.asarray(ops.m_chi.sum(axis=1)).ravel()
        assert np.abs(rows - 1.5 * mass_rows).max() <= 1e-12

    def test_transpose_identity_bitwise(self):
        surface = small_surface(n_ax=6, n_az=5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 6)))
        a = ops.d_psi.sorted_indices()
        b = ops.d_chi.transpose().tocsr().sorted_indices()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_mesh_mismatch_lists_both(self):
        surface = small_surface(n_ax=3)
        with pytest.raises(MeshCompatibilityError, match="does not match"):
            assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)))

    def test_assembly_matches_defining_integral(self):
        # y' D v must equal the reference quadrature of the product of the
        # interpolated line field and the collapsed-surface field
        surface = small_surface(n_ax=3, n_az=4, circumference=1.0)
        line = LineBasis(IntervalMesh(0, 1, 3))
        ops = assemble_coupling(surface, line)
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
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 8)))
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
            ops = assemble_coupling(surface, line)
            sums.append(np.asarray(ops.d_chi.sum(axis=1)).ravel())
        assert np.abs(sums[0] - sums[1]).max() <= 1e-12

    def test_mass_blocks_positive_definite(self):
        surface = small_surface(n_ax=4, n_az=4)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)))
        assert np.linalg.eigvalsh(ops.m_psi.toarray()).min() > 0
        assert np.linalg.eigvalsh(ops.m_chi.toarray()).min() > 0


class TestEmbedPair:
    def test_embed_t_is_transpose_and_stacks(self):
        # B^T is the transpose of B in the coefficient dot product, and a
        # column stack of fields gives each field's result column by column
        surface = small_surface(n_ax=4, n_az=5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)))
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

    def test_line_load_is_the_block_without_a_surface_solve(self,
                                                            monkeypatch):
        # d_chi m_psi^-1 b from the azimuthal factor, which solves with
        # m_az alone: m_psi is never solved with
        surface = small_surface(n_ax=4, n_az=5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)))
        b = np.random.default_rng(8).standard_normal(ops.n_psi)
        expected = ops.d_chi @ ops.solve_psi(b)
        calls = []
        solve = CouplingOperators.solve_psi
        monkeypatch.setattr(CouplingOperators, "solve_psi",
                            lambda self, rhs: calls.append(1) or solve(self, rhs))
        got = ops.line_load(b)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        assert calls == []

    @pytest.mark.parametrize("n_az", [1, 2, 3, 4, 5, 8, 12, 24, 32])
    def test_line_load_weights_are_one(self, n_az):
        # m_az^-1 eta_integrals = 1 (the mass rows sum to the hat
        # integrals), so line_load is the azimuthal row sums embed_t to
        # round-off; n_az = 1 is the one-cell periodic azimuth, whose four
        # contributions sum into one entry.  Weight j is the line load of
        # the unit azimuthal row j on every axial node
        surface = small_surface(n_ax=3, n_az=n_az)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 3)))
        unit = np.eye(n_az)
        weights = np.array([ops.line_load(np.tile(e, ops.n_chi))[0]
                            for e in unit])
        assert np.abs(weights - 1.0).max() <= 4 * np.finfo(float).eps

    def test_blocks_are_assembled_once_on_first_read(self):
        # assembly leaves every block to its first read, which keeps it: a
        # second read returns the same matrix
        surface = small_surface(n_ax=4, n_az=5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)))
        blocks = ("m_chi", "m_psi", "d_chi", "d_psi")
        assert not vars(ops).keys() & set(blocks)
        first = [getattr(ops, name) for name in blocks]
        for name, block in zip(blocks, first):
            assert getattr(ops, name) is block

    def test_replace_forms_the_cached_operators_again(self):
        # the factorizations and line_load's weights belong to the blocks
        # they came from: a copy with new factors, and new blocks set on
        # it, must not solve with them
        surface = small_surface(n_ax=4, n_az=5)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 4)))
        rng = np.random.default_rng(9)
        b, c = rng.standard_normal(ops.n_psi), rng.standard_normal(ops.n_chi)
        u = rng.standard_normal(ops.n_psi)
        before = ops.integrate(u), ops.line_load(b)
        ops.solve_psi(b), ops.solve_chi(c)
        new = dataclasses.replace(ops, m_az=2 * ops.m_az,
                                  eta_integrals=3 * ops.eta_integrals)
        new.m_psi, new.m_chi, new.d_chi = \
            2 * ops.m_psi, 2 * ops.m_chi, 3 * ops.d_chi
        x, y = new.solve_psi(b), new.solve_chi(c)
        assert np.abs(new.m_psi @ x - b).max() <= 1e-13 * np.abs(b).max()
        assert np.abs(new.m_chi @ y - c).max() <= 1e-13 * np.abs(c).max()
        for got, old in zip((new.integrate(u), new.line_load(b)), before):
            assert np.abs(got - 1.5 * old).max() <= 1e-13 * np.abs(old).max()
        # m_psi is assembled from the dense m_az the copy holds
        doubled = dataclasses.replace(ops, m_az=2 * ops.m_az).m_psi
        assert np.array_equal(doubled.toarray(), 2 * ops.m_psi.toarray())

    def test_integrate_is_the_mass_consistent_block(self):
        surface = small_surface(n_ax=3, n_az=4)
        ops = assemble_coupling(surface, LineBasis(IntervalMesh(0, 1, 3)))
        u = np.random.default_rng(4).standard_normal(ops.n_psi)
        expected = np.linalg.solve(ops.m_chi.toarray(), ops.d_chi @ u)
        assert np.abs(ops.integrate(u) - expected).max() \
            <= 1e-13 * np.abs(expected).max()


@given(st.integers(1, 6), st.floats(0.2, 5.0))
def test_lumped_mass_sums_to_measure(n_cells, extent):
    mesh = IntervalMesh(0.0, extent, n_cells)
    lumped = lumped_mass(LineBasis(mesh))
    assert lumped.sum() == pytest.approx(extent, rel=1e-12)
    assert np.all(lumped > 0)


def coo_line_matrix(line, left, right):
    """scipy's reference for `line_matrix`: the same triplets through
    `coo_matrix(...).tocsr()`."""
    t = line.tables
    shapes = (t.values, t.gradients[:, :, 0])
    local = np.einsum("q,qa,qb->ab", t.wdet, shapes[left], shapes[right])
    dofs = line.cell_dofs()
    nc = len(dofs)
    rows = np.broadcast_to(dofs[:, :, None], (nc, 2, 2)).ravel()
    cols = np.broadcast_to(dofs[:, None, :], (nc, 2, 2)).ravel()
    data = np.broadcast_to(local, (nc, 2, 2)).ravel()
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(line.n_dofs, line.n_dofs)).tocsr()


def coo_lumped_mass(basis):
    """scipy's reference for `lumped_mass`: each factor's hat integrals
    summed by `coo_matrix`, then their Kronecker product."""
    lumped = []
    for line in basis.factors:
        t = line.tables
        dofs = line.cell_dofs().ravel()
        weights = np.tile(t.wdet @ t.values, len(dofs) // 2)
        lumped.append(sp.coo_matrix(
            (weights, (dofs, np.zeros_like(dofs))),
            shape=(line.n_dofs, 1)).toarray().ravel())
    return reduce(np.kron, lumped)


def scipy_kron(mats):
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), mats)


def assert_same_csr(got, want):
    """The same canonical CSR matrix, bit for bit, index dtype included."""
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    assert got.has_canonical_format and want.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype, attr
        assert g.tobytes() == w.tobytes(), attr


# (n_ax, n_az, n_th): the benchmark meshes, a one-cell and a two-cell
# periodic azimuth, and a one-cell axis
ORACLE_MESHES = [(16, 8, 4), (48, 24, 4), (3, 1, 1), (2, 2, 2), (1, 3, 2)]


class TestAssemblyOracle:
    """Every operator is bitwise scipy's COO / `kron` assembly of the same
    triplets, and every table and dof map numpy's `einsum` / `stack` form
    of the same factors."""

    @pytest.mark.parametrize("n_ax,n_az,n_th", ORACLE_MESHES)
    def test_problem_operators_match_scipy(self, n_ax, n_az, n_th):
        cfg = dataclasses.replace(default_config(), geometry=GeometryConfig(
            n_ax=n_ax, n_az=n_az, n_th=n_th, n_fluid=n_ax))
        problem = build_problem(cfg)
        ops = problem.ops
        m_chi = coo_line_matrix(ops.line, 0, 0)
        m_az = coo_line_matrix(ops.surface.eta, 0, 0)
        eta = coo_lumped_mass(ops.surface.eta)
        d_chi = sp.kron(m_chi, eta[None, :], format="csr")
        d_psi = d_chi.transpose().tocsr()
        d_psi.sort_indices()
        assert_same_csr(ops.m_chi, m_chi)
        assert_same_csr(assemble_mass(ops.surface.eta), m_az)
        assert ops.m_az.tobytes() == m_az.toarray().tobytes()
        assert_same_csr(ops.m_psi, scipy_kron([m_chi, m_az]))
        assert_same_csr(ops.d_chi, d_chi)
        assert_same_csr(ops.d_psi, d_psi)
        assert ops.eta_integrals.tobytes() == eta.tobytes()

        fluid = problem.fluid
        grad = coo_line_matrix(fluid.basis, 0, 1)
        assert_same_csr(line_matrix(fluid.basis, 0, 1), grad)
        assert fluid.grad_pairing.tobytes() == grad.toarray().tobytes()
        for system in (problem.heat, fluid):
            want = coo_lumped_mass(system.basis)
            assert system.mass.tobytes() == want.tobytes()

        basis = problem.heat.basis
        mass = [coo_line_matrix(b, 0, 0) for b in basis.factors]
        stiff = [coo_line_matrix(b, 1, 1) for b in basis.factors]
        total = sum(scipy_kron(mass[:d] + [stiff[d]] + mass[d + 1:])
                    for d in range(3))
        assert_same_csr(assemble_stiffness(basis, 2.5), (2.5 * total).tocsr())
        assert_same_csr(assemble_mass(basis), scipy_kron(mass))

    @pytest.mark.parametrize("n_ax", range(2, 10))
    @pytest.mark.parametrize("extent", [0.05, 0.5, 1.3, 2 * np.pi])
    def test_one_cell_periodic_factor_sums_in_order(self, n_ax, extent):
        # each entry of the one-node periodic line has four contributions,
        # which scipy adds in their input order; the wall mass carries them
        # into its Kronecker product with an n_ax-cell axial factor
        surface = small_surface(n_ax=n_ax, n_az=1, circumference=extent)
        axial, line = surface.factors
        for left, right in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert_same_csr(line_matrix(line, left, right),
                            coo_line_matrix(line, left, right))
        assert_same_csr(assemble_mass(surface), scipy_kron(
            [coo_line_matrix(axial, 0, 0), coo_line_matrix(line, 0, 0)]))

    @pytest.mark.parametrize("n_ax,n_az,n_th", ORACLE_MESHES)
    def test_volume_tables_match_einsum_products(self, n_ax, n_az, n_th):
        heat = HeatSystem(build_solid_domain(0.0, 1.3, 0.7, 0.05, n_ax, n_az,
                                             n_th), default_config().heat)
        basis = heat.basis
        t = [b.tables for b in basis.factors]
        v1, v2, v3 = (ti.values for ti in t)
        g1, g2, g3 = (ti.gradients[:, :, 0] for ti in t)

        def product(x, y, z):
            return np.einsum("qa,rb,sc->qrsabc", x, y, z)

        values = product(v1, v2, v3).reshape(-1, 8)
        gradients = np.stack([product(g1, v2, v3), product(v1, g2, v3),
                              product(v1, v2, g3)], axis=-1).reshape(-1, 8, 3)
        wdet = np.einsum("q,r,s->qrs", *(ti.wdet for ti in t)).ravel()
        for got, want in zip((basis.tables.values, basis.tables.gradients,
                              basis.tables.wdet), (values, gradients, wdet)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

        d1, d2, d3 = (b.cell_dofs() for b in basis.factors)
        n2, n3 = basis.factors[1].n_dofs, basis.factors[2].n_dofs
        dofs = ((d1[:, None, None, :, None, None] * n2
                 + d2[None, :, None, None, :, None]) * n3
                + d3[None, None, :, None, None, :]).reshape(-1, 8)
        assert np.array_equal(heat.dofmap, dofs)
        assert heat._gather.tobytes() == dofs.T.tobytes()

    @pytest.mark.parametrize("n_cells,periodic",
                             [(1, True), (2, True), (3, True), (1, False),
                              (4, False)])
    def test_interval_cell_dofs_match_stack(self, n_cells, periodic):
        left = np.arange(n_cells)
        right = left + 1
        if periodic:
            right = right % n_cells
        want = np.stack([left, right], axis=1)
        got = IntervalMesh(0.0, 1.0, n_cells, periodic).cell_dofs()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_construction_makes_no_csr_matrix(self, monkeypatch):
        # a run's construction assembles no sparse matrix, each of which
        # pays scipy's format checks: the azimuthal mass m_az is dense
        made = []
        init = sp.csr_matrix.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
        cfg = default_config()
        problem = build_problem(cfg)
        setup = build_scenario(cfg.scenario, problem.heat, problem.fluid,
                               cfg.scenario_params)
        make_simulation(problem, cfg, setup)
        assert made == []
        assert isinstance(problem.ops.m_az, np.ndarray)

    def test_problems_share_no_operator_array(self):
        # each construction assembles its own operators: nothing is cached
        # across build_problem calls
        def arrays(problem):
            ops = problem.ops
            out = [ops.eta_integrals, problem.heat.mass, problem.fluid.mass,
                   problem.fluid.grad_pairing]
            for mat in (ops.m_psi, ops.m_chi, ops.d_chi, ops.d_psi):
                out += [mat.indptr, mat.indices, mat.data]
            return out

        cfg = default_config()
        first, second = (arrays(build_problem(cfg)) for _ in range(2))
        for a in first:
            assert not any(np.shares_memory(a, b) for b in second)
