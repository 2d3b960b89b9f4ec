import numpy as np
import pytest
from hypothesis import given, strategies as st

from phmix.errors import ConfigurationError, GeometryError
from phmix.geometry import IntervalMesh, SolidDomain, TensorBoundary, \
    build_solid_domain, quadrature_rule

from oracles import integrate


class TestIntervalMesh:
    def test_node_counts(self):
        assert IntervalMesh(0, 1, 4).n_nodes == 5
        assert IntervalMesh(0, 1, 4, periodic=True).n_nodes == 4

    @given(st.floats(-5, 5), st.floats(0.1, 10), st.integers(1, 50),
           st.booleans())
    def test_uniform_widths_sum_to_extent(self, start, extent, n, periodic):
        mesh = IntervalMesh(start, start + extent, n, periodic)
        pts = np.linspace(mesh.start, mesh.end, n + 1)
        widths = np.diff(pts)
        assert np.allclose(widths, mesh.h, rtol=1e-12)
        assert abs(widths.sum() - extent) <= 1e-12 * extent

    def test_degenerate_extent_rejected(self):
        with pytest.raises(GeometryError, match="extent"):
            IntervalMesh(1.0, 1.0, 4)
        with pytest.raises(GeometryError, match="cell count"):
            IntervalMesh(0.0, 1.0, 0)

    def test_refinement_preserves_measure(self):
        mesh = IntervalMesh(0.3, 2.7, 5)
        fine = IntervalMesh(mesh.start, mesh.end, 2 * mesh.n_cells)
        assert abs(fine.measure - mesh.measure) <= 1e-12 * mesh.measure

    def test_periodic_cell_dofs_wrap(self):
        dofs = IntervalMesh(0, 1, 3, periodic=True).cell_dofs()
        assert dofs.tolist() == [[0, 1], [1, 2], [2, 0]]


class TestTensorBoundary:
    def test_measure_and_cells(self):
        b = TensorBoundary(IntervalMesh(0, 1, 4),
                           IntervalMesh(0, 2, 6, periodic=True))
        assert b.measure2 == pytest.approx(2.0, rel=1e-12)
        assert b.n_cells == 24
        assert b.measure == pytest.approx(2.0, rel=1e-12)

    def test_factor_orientation_enforced(self):
        with pytest.raises(GeometryError):
            TensorBoundary(IntervalMesh(0, 1, 4, periodic=True),
                           IntervalMesh(0, 2, 6, periodic=True))
        with pytest.raises(GeometryError):
            TensorBoundary(IntervalMesh(0, 1, 4), IntervalMesh(0, 2, 6))


class TestSolidDomain:
    def test_cell_count_example(self):
        dom = build_solid_domain(0, 1, 1, 0.1, 4, 4, 2)
        assert dom.n_cells == 32
        assert dom.coupling_boundary().n_cells == 16

    def test_coupling_face_measure(self):
        dom = build_solid_domain(0, 1, 2 * np.pi, 0.1, 8, 8, 2)
        face = dom.coupling_boundary()
        assert abs(face.measure - 2 * np.pi) <= 1e-12 * 2 * np.pi

    def test_bad_parameters_named(self):
        with pytest.raises(GeometryError, match="axial extent non-positive"):
            build_solid_domain(0, 0, 1, 1, 1, 1, 1)
        with pytest.raises(GeometryError, match="circumference"):
            build_solid_domain(0, 1, -1, 1, 1, 1, 1)
        with pytest.raises(GeometryError, match="depth"):
            build_solid_domain(0, 1, 1, 0, 1, 1, 1)
        with pytest.raises(GeometryError, match="n_az"):
            build_solid_domain(0, 1, 1, 1, 1, 0, 1)

    def test_trace_nodes_are_tensor_product(self):
        dom = build_solid_domain(0, 2, 1.5, 0.2, 3, 4, 2)
        face = dom.coupling_boundary()
        trace = dom.node_coordinates()[dom.face_dofs("coupling")]
        assert np.array_equal(trace[:, :2], face.node_coordinates())
        assert np.all(trace[:, 2] == 0.0)
        ext = dom.node_coordinates()[dom.face_dofs("external")]
        assert np.all(ext[:, 2] == dom.thickness.end)

    def test_refinement_preserves_measures(self):
        dom = build_solid_domain(0, 1, 0.5, 0.05, 4, 4, 2)
        for factor in ("axial", "azimuthal", "thickness"):
            kwargs = {"axial": dom.axial, "azimuthal": dom.azimuthal,
                      "thickness": dom.thickness}
            mesh = kwargs[factor]
            kwargs[factor] = IntervalMesh(mesh.start, mesh.end,
                                          2 * mesh.n_cells, mesh.periodic)
            fine = SolidDomain(**kwargs)
            assert abs(fine.measure - dom.measure) <= 1e-12 * dom.measure
            assert abs(fine.coupling_boundary().measure
                       - dom.coupling_boundary().measure) \
                <= 1e-12 * dom.coupling_boundary().measure


class TestQuadrature:
    def test_degree_one_is_midpoint(self):
        rule = quadrature_rule(1)
        assert rule.n_points == 1
        assert rule.points[0] == pytest.approx(0.5)
        assert rule.weights[0] == pytest.approx(1.0)

    def test_weights_sum_to_reference_measure(self):
        for degree in range(1, 12):
            rule = quadrature_rule(degree)
            assert abs(rule.weights.sum() - 1.0) <= 1e-14

    def test_degree_three_integrates_cubics(self):
        rule = quadrature_rule(3)
        assert rule.n_points == 2
        # integral of x^3 on [0,1] is 1/4 by the antiderivative x^4/4
        assert rule.weights @ rule.points ** 3 == pytest.approx(0.25, abs=1e-15)

    def test_quartic_with_degree_five(self):
        # oracle: antiderivative x^5/5 gives 0.2 on [0,1]
        rule = quadrature_rule(5)
        assert abs(rule.weights @ rule.points ** 4 - 0.2) <= 1e-14

    @given(st.integers(1, 10), st.data())
    def test_exact_for_declared_degree(self, degree, data):
        rule = quadrature_rule(degree)
        coeffs = data.draw(st.lists(
            st.floats(-3, 3), min_size=degree + 1, max_size=degree + 1))
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.0) - poly.integ()(0.0)
        approx = rule.weights @ poly(rule.points)
        assert abs(approx - exact) <= 1e-13 * (1.0 + abs(exact))

    def test_matches_reference_integrator(self):
        rule = quadrature_rule(9)
        fn = lambda x: 2.0 - x + 0.5 * x ** 4 + 3.0 * x ** 9
        ref = integrate(fn, 0.0, 1.0, pieces=1)
        assert rule.weights @ fn(rule.points) == pytest.approx(ref, abs=1e-14)

    def test_invalid_degree(self):
        with pytest.raises(ConfigurationError):
            quadrature_rule(0)
