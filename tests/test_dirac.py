import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phmix import dirac
from phmix.coupling import check_power_balance
from phmix.dirac import LineField, SurfaceField, check_adjointness, \
    check_dirac_pairing, embed, integrate_out, j_matrix, \
    operator_norm_bound_check
from phmix.errors import MeshCompatibilityError
from phmix.fem import CouplingOperators, LineBasis, SurfaceBasis, \
    assemble_coupling
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

    def test_randomized_check_passes(self):
        ops = make_ops(n_ax=6, n_az=5, circumference=3.0)
        report = check_adjointness(ops, trials=100, seed=3)
        assert report.passed
        assert report.max_residual <= 1e-11

    def test_non_adjoint_pair_fails(self):
        # integrating 1 % too much breaks <f, embed v> = <integrate f, v>
        ops = make_ops(n_ax=6, n_az=5, circumference=3.0)
        bad = dataclasses.replace(ops)
        bad.d_chi = 1.01 * ops.d_chi
        report = check_adjointness(bad, trials=100, seed=3)
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
        a = check_adjointness(ops, trials=50, seed=9)
        b = check_adjointness(ops, trials=50, seed=9)
        assert a.max_residual == b.max_residual

    def test_report_lines_format(self):
        ops = make_ops()
        report = check_adjointness(ops, trials=5, seed=0)
        lines = report.lines()
        assert lines[0] == "check: adjointness"
        assert all(": " in line for line in lines)


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

    def test_randomized_check_passes(self):
        ops = make_ops(n_ax=3, n_az=4)
        report = check_dirac_pairing(ops, trials=100, seed=5)
        assert report.passed

    def test_non_adjoint_pair_fails(self):
        # integrating 1 % too much breaks the skew pairing with the embedding
        ops = make_ops(n_ax=3, n_az=4)
        bad = dataclasses.replace(ops)
        bad.d_chi = 1.01 * ops.d_chi
        report = check_dirac_pairing(bad, trials=100, seed=5)
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

    def test_randomized_check_passes(self):
        ops = make_ops(n_ax=5, n_az=6, circumference=1.7)
        report = operator_norm_bound_check(ops, trials=100, seed=8)
        assert report.passed

    def test_non_adjoint_pair_fails(self):
        # integrating 1 % too much scales the integrated norm of an
        # azimuthally constant field by 1.0201, off the equality case
        ops = make_ops(n_ax=5, n_az=6, circumference=1.7)
        bad = dataclasses.replace(ops)
        bad.d_chi = 1.01 * ops.d_chi
        report = operator_norm_bound_check(bad, trials=100, seed=8)
        assert not report.passed
        gap = float(report.details["equality_rel_gap_constant_fields"])
        assert gap == pytest.approx(0.0201, rel=1e-6)


class TestFieldBlocks:
    CHECKS = (check_adjointness, operator_norm_bound_check,
              check_dirac_pairing, check_power_balance)

    def reports(self, ops, trials, seed=4):
        return [(rep.max_residual, rep.lines())
                for rep in (check(ops, trials, seed) for check in self.CHECKS)]

    @pytest.mark.parametrize("trials,block", [
        (200, 2), (200, 7), (200, 30), (201, 50)])
    def test_reports_independent_of_block_size(self, monkeypatch, trials,
                                               block):
        # at 16x8 the default block holds 240 trials; with `block` trials
        # per block 200 trials end in a remainder of 2, 4 or 20, and the
        # one-trial remainder of 201 folds into the block before it
        ops = make_ops(n_ax=16, n_az=8)
        default = self.reports(ops, trials)
        monkeypatch.setattr(dirac, "_BLOCK_BYTES", 8 * ops.n_psi * block)
        assert self.reports(ops, trials) == default

    def test_fields_of_fewer_trials_are_a_prefix(self, monkeypatch):
        ops = make_ops(n_ax=6, n_az=5)
        sizes = (ops.n_chi, ops.n_psi, ops.n_chi, ops.n_psi)

        def fields(trials):
            blocks = dirac._field_blocks("dirac_pairing", 3, trials, *sizes)
            return [np.hstack(stacks) for stacks in zip(*blocks)]

        many = fields(50)
        monkeypatch.setattr(dirac, "_BLOCK_BYTES", 8 * ops.n_psi * 4)
        for k in (1, 2, 9, 50):
            for few, full in zip(fields(k), many):
                assert np.array_equal(few, full[:, :k])

    @pytest.mark.parametrize("trials,block", [
        (200, 2), (200, 7), (200, 30), (201, 50)])
    def test_blocks_match_an_oracle_draw(self, monkeypatch, trials, block):
        # the oracle draws each whole stack trial-major from its child of
        # the check's stream in one call, on this thread, and cuts it at
        # the block bounds, folding a last single trial into the block
        # before it
        ops = make_ops(n_ax=6, n_az=5)
        sizes = (ops.n_chi, ops.n_psi, ops.n_chi, ops.n_psi)
        children = np.random.SeedSequence(
            [3, dirac._STREAMS["dirac_pairing"]]).spawn(len(sizes))
        whole = [np.random.default_rng(child).standard_normal((trials, n)).T
                 for child, n in zip(children, sizes)]
        starts = list(range(0, trials, block))
        if trials - starts[-1] == 1:
            starts.pop()
        bounds = [*starts, trials]
        monkeypatch.setattr(dirac, "_BLOCK_BYTES", 8 * ops.n_psi * block)
        blocks = list(dirac._field_blocks("dirac_pairing", 3, trials, *sizes))
        assert len(blocks) == len(starts)
        for stacks, start, stop in zip(blocks, bounds, bounds[1:]):
            for stack, full in zip(stacks, whole):
                assert stack.flags.c_contiguous
                assert stack.tobytes() == \
                    np.ascontiguousarray(full[:, start:stop]).tobytes()

    def test_closed_generator_leaves_no_thread(self, monkeypatch):
        ops = make_ops(n_ax=6, n_az=5)
        monkeypatch.setattr(dirac, "_BLOCK_BYTES", 8 * ops.n_psi * 2)
        fresh = check_adjointness(make_ops(n_ax=6, n_az=5), 200, 0).lines()
        before = threading.active_count()
        blocks = dirac._field_blocks("adjointness", 0, 200, ops.n_psi,
                                     ops.n_chi)
        next(blocks)  # the worker fills the queue while this block waits
        blocks.close()
        assert threading.active_count() == before
        assert check_adjointness(ops, 200, 0).lines() == fresh

    @pytest.mark.parametrize("check", CHECKS)
    def test_raising_check_leaves_no_thread(self, monkeypatch, check):
        ops = make_ops(n_ax=6, n_az=5)
        fresh = check(make_ops(n_ax=6, n_az=5), 200, 4).lines()
        monkeypatch.setattr(dirac, "_BLOCK_BYTES", 8 * ops.n_psi * 2)
        before = threading.active_count()
        with monkeypatch.context() as patch:
            def failing(self, u):
                raise RuntimeError("integrate failed")
            patch.setattr(CouplingOperators, "integrate", failing)
            # the kept traceback holds the check's frame and its generator
            with pytest.raises(RuntimeError, match="integrate failed") as kept:
                check(ops, 200, 4)
            assert threading.active_count() == before
        monkeypatch.undo()
        assert check(ops, 200, 4).lines() == fresh

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        default_rng = np.random.default_rng

        class FailingOnSecondDraw:
            def __init__(self, seq):
                self.rng, self.draws = default_rng(seq), 0

            def standard_normal(self, shape):
                self.draws += 1
                if self.draws == 2:
                    raise RuntimeError("second draw failed")
                return self.rng.standard_normal(shape)

        ops = make_ops(n_ax=6, n_az=5)
        monkeypatch.setattr(dirac, "_BLOCK_BYTES", 8 * ops.n_psi * 2)
        monkeypatch.setattr(np.random, "default_rng", FailingOnSecondDraw)
        before = threading.active_count()
        errors = []

        def run():
            try:
                check_adjointness(ops, 200, 4)
            except RuntimeError as exc:
                errors.append(exc)
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "the check hung on a failed draw"
        assert [str(exc) for exc in errors] == ["second draw failed"]
        assert threading.active_count() == before

    def test_concurrent_checks_match_sequential(self, monkeypatch):
        # more callers than cores, each with its own worker, switching
        # threads often: a block lost, repeated or reordered on the way
        # through a queue changes some report
        ops = make_ops(n_ax=6, n_az=5)
        monkeypatch.setattr(dirac, "_BLOCK_BYTES", 8 * ops.n_psi * 3)
        expected = self.reports(ops, 100)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(
                target=lambda: results.append(self.reports(ops, 100)),
                daemon=True) for _ in range(6)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * len(callers)

    @pytest.mark.parametrize("check", CHECKS)
    def test_no_trials_starts_no_thread(self, monkeypatch, check):
        def no_thread(*args, **kwargs):
            raise AssertionError("a worker thread was started")
        monkeypatch.setattr(dirac.threading, "Thread", no_thread)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check(make_ops(), 0, 0)

    def test_memory_independent_of_trials(self):
        # one (n_psi, 2000) stack at 48x24 is 18.8 MB; the blocks keep the
        # check's peak to a few of their 256 KiB stacks
        ops = make_ops(n_ax=48, n_az=24)
        ops.integrate(np.zeros(ops.n_psi))  # factor m_chi outside the trace
        tracemalloc.start()
        try:
            assert check_dirac_pairing(ops, trials=2000, seed=0).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


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
