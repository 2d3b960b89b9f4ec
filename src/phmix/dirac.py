"""The mixed-dimensional operator pair on a product surface: integrating a
surface field over the azimuthal factor yields a line field, and embedding a
line field as an azimuthally constant surface field goes the other way.  The
two are mutually adjoint in the L2 inner products, so the block-skew map
built from them generates a power-conserving interconnection.

Discrete realization: the integration operator is the mass-consistent form
(solve the line mass system for the azimuthally integrated load), which is
the unique choice that keeps the discrete adjointness identity exact; the
embedding replicates nodal values along the azimuthal index, which is exact
for nodal bases.  Both are array operators of CouplingOperators:
`integrate`, and `embed` with its transpose `embed_t`, the pair the stepper
applies.  The functions here wrap them for typed fields and check them.

Each claim checked here is an exact identity: between the assembled
blocks, with B the embedding as a sparse matrix, or, for the norm bound,
of one scalar of the azimuthal factor.  Each check forms its residual
sparse and reports it, relative, against one round-off tolerance instead
of raising.  One verify pass forms each shared product once, on the first
check's read (cached on the operators): B as a CSR matrix and max|d_chi|,
read by every identity; m_psi B, read by `check_dirac_pairing` and
`coupling.check_power_balance`; and d_chi' in CSR, read by
`check_dirac_pairing` and `coupling.check_transpose_identity`.
`check_adjointness` forms its own B' m_psi from a CSR B', so it assumes no
symmetry of m_psi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem import CouplingOperators, require_fit
from .geometry import IntervalMesh, TensorBoundary


# kept while bench/ reads the field wrappers and j_matrix (ROADMAP item 1)
@dataclass
class SurfaceField:
    """Nodal coefficients of a field on the product surface (axial-major,
    azimuthal-minor dof order)."""

    values: np.ndarray
    boundary: TensorBoundary

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.boundary.n_nodes,):
            raise ValueError(
                f"expected {self.boundary.n_nodes} coefficients, "
                f"got {self.values.shape}")

    @classmethod
    def from_function(cls, boundary: TensorBoundary, fn) -> "SurfaceField":
        xy = boundary.node_coordinates()
        return cls(np.asarray(fn(xy[:, 0], xy[:, 1]), dtype=float), boundary)

    @classmethod
    def constant(cls, boundary: TensorBoundary, value: float) -> "SurfaceField":
        return cls(np.full(boundary.n_nodes, float(value)), boundary)


@dataclass
class LineField:
    """Nodal coefficients of a field on the axial factor."""

    values: np.ndarray
    mesh: IntervalMesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"expected {self.mesh.n_nodes} coefficients, got {self.values.shape}")

    @classmethod
    def from_function(cls, mesh: IntervalMesh, fn) -> "LineField":
        return cls(np.asarray(fn(mesh.nodes), dtype=float), mesh)

    @classmethod
    def constant(cls, mesh: IntervalMesh, value: float) -> "LineField":
        return cls(np.full(mesh.n_nodes, float(value)), mesh)


def _check_surface(ops: CouplingOperators, u: SurfaceField):
    require_fit(u.boundary, "surface field boundary", ops.surface.boundary,
                "the operators' boundary")


def _check_line(ops: CouplingOperators, v: LineField):
    require_fit(v.mesh, "line field mesh", ops.line.mesh,
                "the operators' axial mesh")


def integrate_out(ops: CouplingOperators, u: SurfaceField) -> LineField:
    """Integrate a surface field over the azimuthal factor.

    Mass-consistent realization: solve m_chi z = d_chi u.  For fields in the
    discrete surface space the result is the exact fiber integral, because
    that integral already lies in the line space.
    """
    _check_surface(ops, u)
    return LineField(ops.integrate(u.values), ops.line.mesh)


def embed(ops: CouplingOperators, v: LineField) -> SurfaceField:
    """Extend a line field to the surface, constant along the azimuth."""
    _check_line(ops, v)
    return SurfaceField(ops.embed(v.values), ops.surface.boundary)


def j_matrix(ops: CouplingOperators) -> np.ndarray:
    """Dense matrix of the structure map on stacked (line, surface) dofs."""
    n1, n2 = ops.n_chi, ops.n_psi
    out = np.zeros((n1 + n2, n1 + n2))
    out[:n1, n1:] = -ops.integrate(np.eye(n2))
    out[n1:, :n1] = ops.embed(np.eye(n1))
    return out


@dataclass
class VerificationReport:
    """Result of a structural check.

    Formats as 'key: value' lines; `passed` is the machine-checkable verdict.
    """

    name: str
    passed: bool
    max_residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [
            f"check: {self.name}",
            f"status: {'PASS' if self.passed else 'FAIL'}",
            f"max_residual: {self.max_residual:.6e}",
            f"tolerance: {self.tolerance:.6e}",
        ]
        for key, val in self.details.items():
            out.append(f"{key}: {val}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


# Each identity below compares two floating-point evaluations of one sum of
# nonnegative terms, and a computed sum of n such terms is within about
# n eps of its value (the gamma_n bound), so the two sides differ by at most
# 2 n eps of the largest entry.  An entry of m_psi's azimuthal column sum
# gathers 2 Gauss points x 2 local rows x 2 cells = 8 quadrature terms and
# 3 products; the hat integral it meets, 4 terms and 1 product: 16 bounds
# either side.  The scalar of the norm bound sums one term per azimuthal
# node, through a solve with m_az, whose condition number is at most 3.
_TERMS_PER_ENTRY = 16


def _tolerance(ops: CouplingOperators) -> float:
    """The one round-off tolerance of the checks, relative to the largest
    entry they compare: 2 n eps for the most terms n summed into one."""
    n = max(_TERMS_PER_ENTRY, ops.surface.eta.n_dofs)
    return 2 * n * float(np.finfo(float).eps)


def _max_difference(a: sp.csr_matrix, b: sp.csr_matrix) -> float:
    """max|a - b| of two CSR matrices of one shape, read off stored
    entries: 0 when every entry cancels.  Two canonical matrices of one
    pattern, as the blocks and the products formed from them are, subtract
    entry by entry, without the union pattern that scipy's sparse
    difference allocates; any other pair takes that difference.  Both
    give the nonzero entries of a - b, so the same maximum."""
    if a.shape == b.shape and a.has_canonical_format \
            and b.has_canonical_format \
            and np.array_equal(a.indptr, b.indptr) \
            and np.array_equal(a.indices, b.indices):
        diff = a.data - b.data
    else:
        diff = (a - b).data
    return float(np.abs(diff, out=diff).max(initial=0.0))


def _identity_report(name: str, ops: CouplingOperators, a: sp.csr_matrix,
                     b: sp.csr_matrix) -> VerificationReport:
    """Report the block identity a = b from max|a - b|, relative to the
    largest entry of d_chi, at the round-off tolerance."""
    worst = _max_difference(a, b) / ops._d_chi_max
    tol = _tolerance(ops)
    return VerificationReport(name=name, passed=bool(worst <= tol),
                              max_residual=worst, tolerance=tol)


def check_adjointness(ops: CouplingOperators) -> VerificationReport:
    """Verify <f, embed v> on the surface equals <integrate f, v> on the
    line for every field pair.  With integrate = m_chi^-1 d_chi the
    difference is v' (B' m_psi - d_chi) f, so the matrix must vanish."""
    product = ops._embedding.T.tocsr() @ ops.m_psi
    product.sort_indices()  # like d_chi's
    return _identity_report("adjointness", ops, product, ops.d_chi)


def check_dirac_pairing(ops: CouplingOperators) -> VerificationReport:
    """Verify the graph of the structure map J is isotropic for the
    symmetric pairing: M J + (M J)' = 0 for M = diag(m_chi, m_psi).  M J
    has the blocks -d_chi and m_psi B, so the off-diagonal block
    m_psi B - d_chi' must vanish (the other is its transpose).

    Maximality holds by construction: the graph of a linear map on the
    n-dimensional effort space has dimension n, half of the effort-flow
    space, so an isotropic graph is a Dirac structure.  The isotropy
    bracket is the whole gate."""
    return _identity_report("dirac_pairing", ops, ops._m_psi_embedding,
                            ops._d_chi_t)


def operator_norm_bound_check(ops: CouplingOperators) -> VerificationReport:
    """Verify the integration operator's norm bound: the squared line norm
    of the integrated field never exceeds the azimuthal measure times the
    squared surface norm, with equality for azimuthally constant fields.

    integrate = I (x) eta', so the squared norm of the operator is the
    largest ratio of eta eta' to m_az, c = eta' m_az^-1 eta (Cauchy-Schwarz
    in the m_az inner product), read from the weights m_az^-1 eta that
    `line_load` applies.  m_az 1 = eta, so c equals the measure exactly and
    the constant fields attain it."""
    measure2 = ops.surface.boundary.measure2
    c = float(ops.eta_integrals @ ops._az_weights)
    excess = max(c - measure2, 0.0) / measure2
    gap = abs(c - measure2) / measure2
    tol = _tolerance(ops)
    return VerificationReport(
        name="operator_norm_bound", passed=bool(gap <= tol),
        max_residual=excess, tolerance=tol,
        details={"equality_rel_gap_constant_fields": f"{gap:.6e}"})
