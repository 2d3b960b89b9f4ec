import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from phmix import cli
from phmix.coupling import check_power_balance, check_transpose_identity
from phmix.dirac import LineField, SurfaceField, _max_difference, \
    check_adjointness, check_dirac_pairing, embed, integrate_out, j_matrix, \
    operator_norm_bound_check
from phmix.errors import MeshCompatibilityError
from phmix.fem import LineBasis, SurfaceBasis, assemble_coupling
from phmix.geometry import IntervalMesh, TensorBoundary

import oracles


def make_ops(n_ax=4, n_az=4, circumference=2.0, length=1.0):
    boundary = TensorBoundary(
        IntervalMesh(0.0, length, n_ax),
        IntervalMesh(0.0, circumference, n_az, periodic=True))
    return assemble_coupling(SurfaceBasis(boundary),
                             LineBasis(IntervalMesh(0.0, length, n_ax)))


class TestIntegrateOut:
    def test_constant_gives_measure_times_constant(self):
        ops = make_ops(circumference=2.0)
        u = SurfaceField.constant(ops.surface.boundary, 1.0)
        out = integrate_out(ops, u)
        assert np.abs(out.values - 2.0).max() <= 1e-13

    def test_axial_profile_is_scaled(self):
        ops = make_ops(circumference=2 * np.pi)
        u = SurfaceField.from_function(ops.surface.boundary,
                                       lambda x1, x2: x1)
        out = integrate_out(ops, u)
        assert np.abs(out.values - 2 * np.pi * ops.line.mesh.nodes).max() \
            <= 1e-12

    def test_full_period_sine_integrates_to_zero(self):
        # the exact fiber integral of sin(2 pi x2 / C) vanishes; on equally
        # spaced periodic nodes the discrete integral hits the same zero
        # exactly (harmonics sum to zero on the lattice)
        circ = 3.0
        ops = make_ops(n_az=8, circumference=circ)
        u = SurfaceField.from_function(
            ops.surface.boundary,
            lambda x1, x2: np.sin(2 * np.pi * x2 / circ))
        out = integrate_out(ops, u)
        assert out.values @ (ops.m_chi @ out.values) <= 1e-13 ** 2

    def test_zero_mean_azimuthal_profile_vanishes_at_rate_two(self):
        # oracle: the exact fiber integral of x2*(C - x2) - C^2/6 is zero;
        # the discrete integral is the trapezoid error, second order for a
        # function whose periodic extension has corner points.
        circ = 2.0
        profile = lambda x2: x2 * (circ - x2) - circ ** 2 / 6.0
        assert abs(oracles.integrate(profile, 0, circ, pieces=8)) <= 1e-14
        norms = []
        for n_az in (8, 16):
            ops = make_ops(n_az=n_az, circumference=circ)
            u = SurfaceField.from_function(ops.surface.boundary,
                                           lambda x1, x2: profile(x2))
            w = integrate_out(ops, u).values
            norms.append(np.sqrt(w @ (ops.m_chi @ w)))
        rate = np.log2(norms[0] / norms[1])
        assert norms[1] < norms[0]
        assert rate >= 2.0 - 0.1

    def test_mesh_mismatch_rejected(self):
        ops = make_ops()
        other = TensorBoundary(IntervalMesh(0, 1, 5),
                               IntervalMesh(0, 2, 4, periodic=True))
        u = SurfaceField.constant(other, 1.0)
        with pytest.raises(MeshCompatibilityError):
            integrate_out(ops, u)


class TestEmbed:
    def test_constants_embed_to_constants(self):
        ops = make_ops()
        v = LineField.constant(ops.line.mesh, 3.5)
        u = embed(ops, v)
        assert np.all(u.values == 3.5)

    def test_round_trip_is_measure_scaling(self):
        ops = make_ops(circumference=2 * np.pi)
        v = LineField(np.linspace(-1, 2, ops.n_chi), ops.line.mesh)
        back = integrate_out(ops, embed(ops, v))
        assert np.abs(back.values - 2 * np.pi * v.values).max() <= 1e-13 * 2 * np.pi

    def test_embedding_preserves_norm_up_to_measure(self):
        # Fubini oracle: the surface quadrature of the embedded interpolant
        # squared equals the azimuthal measure times the line quadrature
        ops = make_ops(circumference=1.5)
        rng = np.random.default_rng(5)
        v = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
        u = embed(ops, v)
        lhs = u.values @ (ops.m_psi @ u.values)
        rhs = 1.5 * v.values @ (ops.m_chi @ v.values)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        nodes = ops.line.mesh.nodes
        h = ops.line.mesh.h
        ref = 1.5 * oracles.integrate(
            lambda x: oracles.interp_1d(nodes, v.values, x) ** 2,
            0.0, 1.0, pieces=ops.line.mesh.n_cells)
        assert lhs == pytest.approx(ref, rel=1e-12)


class TestMeshFit:
    def test_one_cell_wall_of_another_circumference_rejected(self):
        # both walls have the node list [x, 0.0]: only their values tell
        # the circumferences apart, and integrating over the wrong one
        # would use the wrong measure
        ops = make_ops(n_az=1, circumference=1.0)
        other = TensorBoundary(ops.line.mesh,
                               IntervalMesh(0.0, 0.5, 1, periodic=True))
        assert np.array_equal(other.node_coordinates(),
                              ops.surface.boundary.node_coordinates())
        with pytest.raises(MeshCompatibilityError, match="does not match"):
            integrate_out(ops, SurfaceField.constant(other, 1.0))

    def test_periodic_line_with_the_axial_nodes_rejected(self):
        # a periodic line on [0, 1.5] with 3 cells lists the nodes of the
        # one-cell wall's axial mesh on [0, 1] with 2 cells
        ops = make_ops(n_ax=2, n_az=1, circumference=1.0)
        other = IntervalMesh(0.0, 1.5, 3, periodic=True)
        assert np.array_equal(other.nodes, ops.line.mesh.nodes)
        with pytest.raises(MeshCompatibilityError, match="does not match"):
            embed(ops, LineField.constant(other, 1.0))


def apply_j(ops, e1, e2):
    """The block-skew structure map J(e1, e2) = (-integrate e2, embed e1)."""
    f1 = LineField(-integrate_out(ops, e2).values, ops.line.mesh)
    return f1, embed(ops, e1)


class TestApplyJ:
    def test_constants_on_unit_circumference(self):
        ops = make_ops(circumference=1.0)
        e1 = LineField.constant(ops.line.mesh, 1.0)
        e2 = SurfaceField.constant(ops.surface.boundary, 1.0)
        f1, f2 = apply_j(ops, e1, e2)
        assert np.abs(f1.values + 1.0).max() <= 1e-13
        assert np.abs(f2.values - 1.0).max() <= 1e-13

    def test_zero_maps_to_zero(self):
        ops = make_ops()
        f1, f2 = apply_j(ops, LineField.constant(ops.line.mesh, 0.0),
                         SurfaceField.constant(ops.surface.boundary, 0.0))
        assert np.all(f1.values == 0.0) and np.all(f2.values == 0.0)

    def test_skew_pairing_vanishes(self):
        ops = make_ops(n_ax=5, n_az=6, circumference=2.7)
        rng = np.random.default_rng(11)
        for _ in range(20):
            e1 = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
            e2 = SurfaceField(rng.standard_normal(ops.n_psi),
                              ops.surface.boundary)
            f1, f2 = apply_j(ops, e1, e2)
            pairing = e1.values @ (ops.m_chi @ f1.values) \
                + e2.values @ (ops.m_psi @ f2.values)
            scale = 1 + np.sqrt(e1.values @ (ops.m_chi @ e1.values)
                                * (e2.values @ (ops.m_psi @ e2.values)))
            assert abs(pairing) <= 1e-12 * scale

    @given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 10))
    def test_linearity(self, alpha, beta, seed):
        ops = make_ops()
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(ops.n_psi)
        w = rng.standard_normal(ops.n_psi)
        boundary = ops.surface.boundary
        left = integrate_out(ops, SurfaceField(alpha * u + beta * w,
                                               boundary)).values
        right = alpha * integrate_out(ops, SurfaceField(u, boundary)).values \
            + beta * integrate_out(ops, SurfaceField(w, boundary)).values
        assert np.abs(left - right).max() <= 1e-13 * (1 + np.abs(right).max())


class TestAdjointness:
    def test_constant_pairings_on_unit_square(self):
        ops = make_ops(circumference=1.0, length=1.0)
        f = SurfaceField.constant(ops.surface.boundary, 1.0)
        v = LineField.constant(ops.line.mesh, 1.0)
        lhs = f.values @ (ops.m_psi @ embed(ops, v).values)
        rhs = integrate_out(ops, f).values @ (ops.m_chi @ v.values)
        assert lhs == pytest.approx(1.0, rel=1e-13)
        assert rhs == pytest.approx(1.0, rel=1e-13)

    def test_exact_check_passes(self):
        ops = make_ops(n_ax=6, n_az=5, circumference=3.0)
        report = check_adjointness(ops)
        assert report.passed
        assert report.max_residual <= report.tolerance <= 1e-13

    def test_non_adjoint_pair_fails(self):
        # integrating 1 % too much breaks <f, embed v> = <integrate f, v>
        ops = make_ops(n_ax=6, n_az=5, circumference=3.0)
        bad = dataclasses.replace(ops)
        bad.d_chi = 1.01 * ops.d_chi
        report = check_adjointness(bad)
        assert not report.passed
        assert report.max_residual > 1e3 * report.tolerance

    def test_embedded_field_saturates(self):
        ops = make_ops(circumference=2.0)
        rng = np.random.default_rng(2)
        v = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
        bv = embed(ops, v)
        both = bv.values @ (ops.m_psi @ bv.values)
        expected = 2.0 * v.values @ (ops.m_chi @ v.values)
        assert both == pytest.approx(expected, rel=1e-12)

    def test_report_is_reproducible(self):
        ops = make_ops()
        a = check_adjointness(ops)
        b = check_adjointness(make_ops())
        assert a.lines() == b.lines()

    def test_report_lines_format(self):
        report = check_adjointness(make_ops())
        lines = report.lines()
        assert [line.split(": ")[0] for line in lines] == \
            ["check", "status", "max_residual", "tolerance"]
        assert lines[:2] == ["check: adjointness", "status: PASS"]


class TestDiracPairing:
    def test_graph_vectors_self_annihilate(self):
        ops = make_ops()
        rng = np.random.default_rng(4)
        e1 = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
        e2 = SurfaceField(rng.standard_normal(ops.n_psi), ops.surface.boundary)
        f1, f2 = apply_j(ops, e1, e2)
        bracket = 2 * (e1.values @ (ops.m_chi @ f1.values)
                       + e2.values @ (ops.m_psi @ f2.values))
        assert abs(bracket) <= 1e-11

    def test_exact_check_passes(self):
        ops = make_ops(n_ax=3, n_az=4)
        report = check_dirac_pairing(ops)
        assert report.passed

    def test_non_adjoint_pair_fails(self):
        # integrating 1 % too much breaks the skew pairing with the embedding
        ops = make_ops(n_ax=3, n_az=4)
        bad = dataclasses.replace(ops)
        bad.d_chi = 1.01 * ops.d_chi
        report = check_dirac_pairing(bad)
        assert not report.passed
        assert report.max_residual > 1e3 * report.tolerance

    def test_off_graph_perturbation_detected(self):
        ops = make_ops()
        rng = np.random.default_rng(6)
        e1 = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
        e2 = SurfaceField(rng.standard_normal(ops.n_psi), ops.surface.boundary)
        f1, f2 = apply_j(ops, e1, e2)
        e1b = LineField(rng.standard_normal(ops.n_chi), ops.line.mesh)
        e2b = SurfaceField(rng.standard_normal(ops.n_psi), ops.surface.boundary)
        f1b, f2b = apply_j(ops, e1b, e2b)
        f1b.values = f1b.values + 1.0  # leave the graph
        bracket = e1.values @ (ops.m_chi @ f1b.values) \
            + e2.values @ (ops.m_psi @ f2b.values) \
            + e1b.values @ (ops.m_chi @ f1.values) \
            + e2b.values @ (ops.m_psi @ f2.values)
        assert abs(bracket) > 1e-6

    def test_j_matrix_skew_in_mass_inner_products(self):
        ops = make_ops(n_ax=3, n_az=3)
        jm = j_matrix(ops)
        n1 = ops.n_chi
        mass = np.zeros_like(jm)
        mass[:n1, :n1] = ops.m_chi.toarray()
        mass[n1:, n1:] = ops.m_psi.toarray()
        skew = mass @ jm
        assert np.abs(skew + skew.T).max() <= 1e-12 * np.abs(skew).max()


class TestNormBound:
    def test_constant_saturates(self):
        ops = make_ops(circumference=2.0)
        u = SurfaceField.constant(ops.surface.boundary, 1.0)
        au = integrate_out(ops, u)
        lhs = au.values @ (ops.m_chi @ au.values)
        rhs = 2.0 * u.values @ (ops.m_psi @ u.values)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_alternating_field_is_strictly_below(self):
        ops = make_ops(n_az=4, circumference=2.0)
        signs = np.tile([1.0, -1.0, 1.0, -1.0], ops.n_chi)
        u = SurfaceField(signs, ops.surface.boundary)
        au = integrate_out(ops, u)
        lhs = au.values @ (ops.m_chi @ au.values)
        rhs = 2.0 * u.values @ (ops.m_psi @ u.values)
        assert lhs < 0.5 * rhs

    def test_exact_check_passes(self):
        ops = make_ops(n_ax=5, n_az=6, circumference=1.7)
        report = operator_norm_bound_check(ops)
        assert report.passed

    def test_non_adjoint_pair_fails(self):
        # integrating 1 % too much (every hat integral, and the blocks and
        # weights built from them) scales the integrated norm of an
        # azimuthally constant field by 1.0201, off the equality case
        ops = make_ops(n_ax=5, n_az=6, circumference=1.7)
        bad = dataclasses.replace(ops, eta_integrals=1.01 * ops.eta_integrals)
        report = operator_norm_bound_check(bad)
        assert not report.passed
        gap = float(report.details["equality_rel_gap_constant_fields"])
        assert gap == pytest.approx(0.0201, rel=1e-6)
        assert report.max_residual == pytest.approx(gap, rel=1e-6)
        gap = float(report.details["equality_rel_gap_constant_fields"])
        assert gap == pytest.approx(0.0201, rel=1e-6)


CHECKS = (check_adjointness, operator_norm_bound_check, check_dirac_pairing,
          check_transpose_identity, check_power_balance)


@pytest.mark.parametrize("block, readers", [
    ("m_psi", {"adjointness", "dirac_pairing", "power_balance"}),
    ("d_chi", {"adjointness", "dirac_pairing", "transpose_identity"}),
    ("d_psi", {"transpose_identity", "power_balance"})])
def test_products_belong_to_one_instance(block, readers):
    # the products the checks share are formed on the instance they read:
    # a copy with one block 1e-10 off fails the checks that read it, and
    # the original, whose products were formed first, still passes them all
    ops = make_ops(n_ax=6, n_az=5, circumference=3.0)
    assert all(check(ops).passed for check in CHECKS)
    bad = dataclasses.replace(ops)
    setattr(bad, block, (1 + 1e-10) * getattr(ops, block))
    assert {rep.name for rep in (check(bad) for check in CHECKS)
            if not rep.passed} == readers
    assert all(check(ops).passed for check in CHECKS)


def test_max_difference_is_the_sparse_difference():
    # entry by entry on one canonical pattern, the sparse difference on any
    # other pair: both read max|a - b| of the sparse difference
    rng = np.random.default_rng(3)
    a = sp.random(12, 9, density=0.4, format="csr", random_state=rng)
    more = a + sp.random(12, 9, density=0.2, format="csr", random_state=rng)
    backwards = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi
                                in zip(a.indptr[:-1], a.indptr[1:])])
    unsorted = sp.csr_matrix((a.data[backwards], a.indices[backwards],
                              a.indptr), shape=a.shape)
    nudged = a.copy()
    nudged.data[4] += 0.25
    assert not unsorted.has_sorted_indices
    for x, y in ((a, a), (a, nudged), (a, more), (more, a), (a, unsorted),
                 (unsorted, nudged), (a, sp.csr_matrix(a.shape))):
        diff = abs(x - y)
        expected = float(diff.max()) if diff.nnz else 0.0
        assert _max_difference(x, y) == expected
    assert _max_difference(unsorted, nudged) == pytest.approx(0.25)
    assert _max_difference(a, unsorted) == 0.0


def test_checks_make_no_dense_block(tmp_path, capsys):
    # every block, product and residual is sparse: a whole `phmix verify`
    # pass at 48x24 peaks below one dense n_psi x n_chi array (0.46 MB).  A
    # first pass runs untraced, so that lazily imported modules don't count
    path = tmp_path / "verify-large.json"
    path.write_text(json.dumps(
        {"geometry": {"n_ax": 48, "n_az": 24, "n_th": 4, "n_fluid": 48}}))
    argv = ["verify", "--config", str(path)]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.count("verify: PASS") == 2
    n_chi, n_psi = 49, 49 * 24
    assert peak < 8 * n_psi * n_chi


def test_tensor_input_integral_independent_of_azimuthal_mesh():
    g = lambda x1: 1.0 + x1 ** 2
    hfun = lambda x2: np.sin(x2) + 2.0
    circ = 2 * np.pi
    exact = oracles.integrate(hfun, 0.0, circ, pieces=8)
    for n_az in (8, 16):
        ops = make_ops(n_ax=4, n_az=n_az, circumference=circ)
        u = SurfaceField.from_function(ops.surface.boundary,
                                       lambda x1, x2: g(x1) * hfun(x2))
        out = integrate_out(ops, u)
        expected = g(ops.line.mesh.nodes) * exact
        h = circ / n_az
        err = np.abs(out.values - expected).max()
        assert err <= 2.0 * h ** 2 * np.abs(expected).max()
