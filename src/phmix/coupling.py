"""Interconnection of the solid's coupling-face port with the channel's
distributed port: the wall temperature input is the embedded channel
temperature, and the channel's entropy-rate input is minus the azimuthally
integrated wall output.

Discretely the relations are the two mass-system solves
    m_psi u = d_psi y        (embed the channel temperature)
    m_chi w = -d_chi v       (integrate the wall output)
and because d_psi is the exact transpose of d_chi, the two port powers
u' m_psi v + y' m_chi w cancel identically, independent of the mesh.  On
the tensor-product wall the first solve is the nodal embedding u = B y, so
resolve_ports uses `CouplingOperators.embed` and `integrate`, the operators
the stepper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import LineField, SurfaceField, VerificationReport, STRUCT_TOL, \
    _check_line, _check_surface, _dots, _random_fields, _stream
from .fem import CouplingOperators


@dataclass
class CoupledPorts:
    """All four port fields after resolution."""

    u_T: SurfaceField
    v_out: SurfaceField
    w_in: LineField
    y_out: LineField


# kept while bench/ traces resolve_ports (ROADMAP item 1)
def resolve_ports(v_out: SurfaceField, y_out: LineField,
                  ops: CouplingOperators) -> CoupledPorts:
    """Solve the discrete interconnection for the two inputs."""
    _check_surface(ops, v_out)
    _check_line(ops, y_out)
    u = ops.embed(y_out.values)
    w = -ops.integrate(v_out.values)
    return CoupledPorts(
        u_T=SurfaceField(u, ops.surface.boundary),
        v_out=v_out,
        w_in=LineField(w, ops.line.mesh),
        y_out=y_out)


def continuous_interconnect(v_field: SurfaceField, y_field: LineField,
                            ops: CouplingOperators
                            ) -> tuple[SurfaceField, LineField]:
    """Matrix-free form of the interconnection on nodal interpolants.

    The embedded temperature is the nodal replication along the azimuth; the
    integrated output is the exact fiber integral of the surface interpolant,
    evaluated from the azimuthal hat integrals.  Agrees with resolve_ports to
    round-off because both fields already lie in the discrete spaces.
    """
    _check_surface(ops, v_field)
    _check_line(ops, y_field)
    n2 = ops.surface.eta.n_dofs
    u = np.repeat(y_field.values, n2)
    v_grid = v_field.values.reshape(ops.n_chi, n2)
    w = -(v_grid @ ops.eta_integrals)
    return SurfaceField(u, ops.surface.boundary), LineField(w, ops.line.mesh)


def check_transpose_identity(ops: CouplingOperators) -> VerificationReport:
    """Verify d_psi equals the transpose of d_chi entry-for-entry, exactly."""
    a = ops.d_psi.tocsr().sorted_indices()
    b = ops.d_chi.transpose().tocsr().sorted_indices()
    same = a.shape == b.shape \
        and np.array_equal(a.indptr, b.indptr) \
        and np.array_equal(a.indices, b.indices) \
        and np.array_equal(a.data, b.data)
    worst = 0.0 if same else float(abs(a - b).max())
    return VerificationReport(
        name="transpose_identity", passed=bool(same), max_residual=worst,
        tolerance=0.0, trials=1,
        details={"bitwise_equal": same})


def check_power_balance(ops: CouplingOperators, trials: int = 100,
                        seed: int = 0) -> VerificationReport:
    """Resolve random port outputs and verify the two powers cancel."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = _stream(seed, "power_balance")
    v = _random_fields(rng, trials, ops.n_psi)
    y = _random_fields(rng, trials, ops.n_chi)
    u = ops.embed(y)
    w = -ops.integrate(v)
    p_heat = _dots(u, ops.m_psi @ v)
    p_fluid = _dots(y, ops.m_chi @ w)
    scale = np.abs(p_heat) + np.abs(p_fluid) + 1.0
    worst = float(np.max(np.abs(p_heat + p_fluid) / scale))
    return VerificationReport(
        name="power_balance", passed=bool(worst <= STRUCT_TOL),
        max_residual=worst, tolerance=STRUCT_TOL, trials=trials, seed=seed)
