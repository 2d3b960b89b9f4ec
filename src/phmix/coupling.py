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
resolve_ports applies `CouplingOperators.embed` and `integrate`.  The
stepper does not call it: its residual applies `embed` and its transpose
`embed_t` in load form.  The checks here compare the assembled blocks
exactly: d_psi against the transpose of d_chi, and m_psi B against d_psi.
They read d_chi' (in CSR) and m_psi B as `dirac.check_dirac_pairing`
formed them, so one verify pass forms each once.
"""

from __future__ import annotations

import numpy as np

from .dirac import LineField, SurfaceField, VerificationReport, \
    _check_line, _check_surface, _identity_report, _max_difference
from .fem import CouplingOperators


# kept while bench/ traces resolve_ports (ROADMAP item 1)
def resolve_ports(v_out: SurfaceField, y_out: LineField,
                  ops: CouplingOperators) -> tuple[SurfaceField, LineField]:
    """Solve the discrete interconnection for the two inputs: the wall
    temperature u and the channel's entropy-rate input w."""
    _check_surface(ops, v_out)
    _check_line(ops, y_out)
    u = ops.embed(y_out.values)
    w = -ops.integrate(v_out.values)
    return SurfaceField(u, ops.surface.boundary), LineField(w, ops.line.mesh)


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
    # a sorted copy only of a block whose indices are not sorted already
    a, b = (m if m.has_sorted_indices else m.sorted_indices()
            for m in (ops.d_psi.tocsr(), ops._d_chi_t))
    same = a.shape == b.shape \
        and np.array_equal(a.indptr, b.indptr) \
        and np.array_equal(a.indices, b.indices) \
        and np.array_equal(a.data, b.data)
    # blocks of different shapes have no entrywise difference to take
    worst = 0.0 if same else (_max_difference(a, b)
                              if a.shape == b.shape else np.inf)
    return VerificationReport(
        name="transpose_identity", passed=bool(same), max_residual=worst,
        tolerance=0.0, details={"bitwise_equal": same})


def check_power_balance(ops: CouplingOperators) -> VerificationReport:
    """Verify the interconnection relation m_psi u = d_psi y that `embed`
    realises, u = B y: m_psi B - d_psi must vanish.  With d_psi = d_chi'
    (`check_transpose_identity`) the two port powers then cancel for every
    pair of port outputs."""
    return _identity_report("power_balance", ops, ops._m_psi_embedding,
                            ops.d_psi)
