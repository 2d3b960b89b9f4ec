"""Nodal P1/Q1 finite element bases on the structured meshes and assembly of
the sparse operators used by both subsystems and by their interconnection:

* mass matrices on the line (m_chi) and on the product surface (m_psi),
* the rectangular coupling blocks d_chi / d_psi obtained by integrating the
  surface basis over the azimuthal factor,
* stiffness matrices with a positive constant coefficient.

Quadrature assembly happens on the 1D P1 `LineBasis` only.  A Q1 basis is
the tensor product of its `factors`, so each of its linear operators is a
Kronecker product of 1D matrices: the mass is M_1 (x) M_2 (x) ..., the
lumped mass l_1 (x) l_2 (x) ..., the stiffness the Kronecker sum
K_1 (x) M_2 + M_1 (x) K_2 + ..., and on the wall m_psi = m_chi (x) M_az and
d_chi = m_chi (x) l_az^T, with l_az the azimuthal hat integrals.  The
nonlinear heat kernel alone needs the volume basis's per-cell tables.  All
meshes are uniform, so one reference cell table serves every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, MaterialError, MeshCompatibilityError
from .geometry import IntervalMesh, QuadratureRule, SolidDomain, TensorBoundary, \
    quadrature_rule


@dataclass(frozen=True)
class Tables:
    """Per-quadrature-point reference data shared by all cells.

    values:    (nq, n_local) shape function values
    gradients: (nq, n_local, dim) physical gradients (uniform cells)
    wdet:      (nq,) quadrature weight times cell volume
    """

    values: np.ndarray
    gradients: np.ndarray
    wdet: np.ndarray


class LineBasis:
    """P1 hat functions on an interval mesh (periodic wraps the last node)."""

    def __init__(self, mesh: IntervalMesh):
        self.mesh = mesh
        self.n_dofs = mesh.n_nodes
        self.factors = (self,)

    def cell_dofs(self) -> np.ndarray:
        return self.mesh.cell_dofs()

    def tables(self, quad: QuadratureRule) -> Tables:
        if quad.degree < 2:
            raise ConfigurationError(
                f"quadrature degree {quad.degree} insufficient for products "
                f"of P1 functions (need >= 2)")
        h = self.mesh.h
        vals = np.stack([1.0 - quad.points, quad.points], axis=1)
        grads = np.tile([-1.0 / h, 1.0 / h], (quad.n_points, 1))[:, :, None]
        return Tables(vals, grads, quad.weights * h)


class SurfaceBasis:
    """Q1 tensor-product basis on a TensorBoundary.

    Global dof (i, j) -> i * n2 + j with i axial and j azimuthal, so the
    basis function factors as chi_i(x1) * eta_j(x2).
    """

    def __init__(self, boundary: TensorBoundary):
        self.boundary = boundary
        self.factors = (LineBasis(boundary.gamma1), LineBasis(boundary.gamma2))
        self.eta = self.factors[1]
        self.n_dofs = boundary.n_nodes


class VolumeBasis:
    """Q1 tensor-product basis on the solid box; dof order matches
    SolidDomain.node_index (thickness fastest)."""

    def __init__(self, domain: SolidDomain):
        self.domain = domain
        self.factors = tuple(LineBasis(m) for m in
                             (domain.axial, domain.azimuthal, domain.thickness))
        self.n_dofs = domain.n_nodes

    def cell_dofs(self) -> np.ndarray:
        d1, d2, d3 = (b.cell_dofs() for b in self.factors)
        n2, n3 = self.factors[1].n_dofs, self.factors[2].n_dofs
        # local dof l = 4*l1 + 2*l2 + l3; cells axial-major, thickness fastest
        glob = (d1[:, None, None, :, None, None] * n2
                + d2[None, :, None, None, :, None]) * n3 \
            + d3[None, None, :, None, None, :]
        return glob.reshape(-1, 8)

    def tables(self, quad: QuadratureRule) -> Tables:
        t = [b.tables(quad) for b in self.factors]
        nq = quad.n_points
        v1, v2, v3 = (ti.values for ti in t)
        g1, g2, g3 = (ti.gradients[:, :, 0] for ti in t)
        vals = np.einsum("qa,rb,sc->qrsabc", v1, v2, v3).reshape(nq ** 3, 8)
        gx = np.einsum("qa,rb,sc->qrsabc", g1, v2, v3).reshape(nq ** 3, 8)
        gy = np.einsum("qa,rb,sc->qrsabc", v1, g2, v3).reshape(nq ** 3, 8)
        gz = np.einsum("qa,rb,sc->qrsabc", v1, v2, g3).reshape(nq ** 3, 8)
        grads = np.stack([gx, gy, gz], axis=2)
        wdet = np.einsum("q,r,s->qrs", t[0].wdet, t[1].wdet, t[2].wdet).ravel()
        return Tables(vals, grads, wdet)


Basis = LineBasis | SurfaceBasis | VolumeBasis


def line_matrix(line: LineBasis, quad: QuadratureRule, left: int,
                right: int) -> sp.csr_matrix:
    """integral(phi_i^(left) phi_j^(right)) over a line, where phi^(0) is a
    hat and phi^(1) its derivative: the one quadrature assembly, which every
    other operator is built from."""
    t = line.tables(quad)
    shapes = (t.values, t.gradients[:, :, 0])
    local = np.einsum("q,qa,qb->ab", t.wdet, shapes[left], shapes[right])
    dofs = line.cell_dofs()
    nc = len(dofs)
    rows = np.broadcast_to(dofs[:, :, None], (nc, 2, 2)).ravel()
    cols = np.broadcast_to(dofs[:, None, :], (nc, 2, 2)).ravel()
    data = np.broadcast_to(local, (nc, 2, 2)).ravel()
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(line.n_dofs, line.n_dofs)).tocsr()


def _kron(mats) -> sp.csr_matrix:
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), mats)


def assemble_mass(basis: Basis, quad: QuadratureRule) -> sp.csr_matrix:
    """Mass matrix M_ij = integral(phi_i phi_j), the Kronecker product of
    the factors' line masses; symmetric, row sums equal integral(phi_i)."""
    return _kron(line_matrix(b, quad, 0, 0) for b in basis.factors)


def lumped_mass(basis: Basis, quad: QuadratureRule) -> np.ndarray:
    """Lumped (row-sum) mass vector m_i = integral(phi_i), the Kronecker
    product of the factors' hat integrals."""
    lumped = []
    for line in basis.factors:
        t = line.tables(quad)
        dofs = line.cell_dofs()
        lumped.append(np.bincount(dofs.ravel(),
                                  weights=np.tile(t.wdet @ t.values, len(dofs)),
                                  minlength=line.n_dofs))
    return reduce(np.kron, lumped)


def assemble_stiffness(basis: Basis, coefficient: float,
                       quad: QuadratureRule | None = None) -> sp.csr_matrix:
    """Stiffness matrix K_ij = coefficient * integral(grad(phi_i) .
    grad(phi_j)) for a positive constant coefficient: the Kronecker sum of
    the factors' line stiffness and mass matrices.  A non-positive
    coefficient raises MaterialError."""
    if not coefficient > 0:
        raise MaterialError(
            f"non-positive stiffness coefficient {coefficient!r}")
    if quad is None:
        quad = quadrature_rule(2)
    mass = [line_matrix(b, quad, 0, 0) for b in basis.factors]
    stiff = [line_matrix(b, quad, 1, 1) for b in basis.factors]
    total = sum(_kron(mass[:d] + [stiff[d]] + mass[d + 1:])
                for d in range(len(mass)))
    return (coefficient * total).tocsr()


@dataclass(eq=False)
class CouplingOperators:
    """Assembled interconnection matrices between the product surface and
    its axial factor.

    m_psi: surface mass, m_chi: line mass (both SPD); d_chi maps surface
    coefficients to line load vectors through the surface basis integrated
    over the azimuth (the line mass times `eta_integrals`, the integrals of
    the azimuthal hats), and d_psi is its exact transpose.

    Surface dofs are axial-major, azimuthal-minor; past assembly, `embed`
    and `embed_t` are the only code that relies on that layout.  `embed` is
    the nodal embedding B (replicate along the azimuth), `embed_t` its
    transpose (azimuthal row sums) and `integrate` the mass-consistent fiber
    integral m_chi^-1 d_chi.  On the tensor-product wall B = m_psi^-1 d_psi
    and d_chi m_psi^-1 = B^T, so B^T takes surface loads to line loads.  All
    three take one field (dofs,) or a column stack of them (dofs, trials),
    so sparse products take the stack as it is, without a transposed copy.
    """

    m_psi: sp.csr_matrix
    m_chi: sp.csr_matrix
    d_chi: sp.csr_matrix
    d_psi: sp.csr_matrix
    surface: SurfaceBasis
    line: LineBasis
    eta_integrals: np.ndarray
    _psi_lu: spla.SuperLU | None = field(default=None, repr=False)
    _chi_lu: spla.SuperLU | None = field(default=None, repr=False)

    @property
    def n_psi(self) -> int:
        return self.surface.n_dofs

    @property
    def n_chi(self) -> int:
        return self.line.n_dofs

    @property
    def measure2(self) -> float:
        """Total azimuthal length of the wall."""
        return self.surface.boundary.measure2

    def embed(self, y: np.ndarray) -> np.ndarray:
        """B y: line coefficients to azimuthally constant surface
        coefficients."""
        return y.repeat(self.surface.eta.n_dofs, axis=0)

    def embed_t(self, b: np.ndarray) -> np.ndarray:
        """B^T b: azimuthal row sums of surface arrays."""
        n_az = self.surface.eta.n_dofs
        return b.reshape(-1, n_az, *b.shape[1:]).sum(axis=1)

    def integrate(self, u: np.ndarray) -> np.ndarray:
        """m_chi^-1 d_chi u: fiber integral of surface coefficients, as
        line coefficients."""
        return self.solve_chi(self.d_chi @ u)

    def solve_psi(self, b: np.ndarray) -> np.ndarray:
        if self._psi_lu is None:
            self._psi_lu = spla.splu(sp.csc_matrix(self.m_psi))
        return self._psi_lu.solve(b)

    def solve_chi(self, b: np.ndarray) -> np.ndarray:
        if self._chi_lu is None:
            self._chi_lu = spla.splu(sp.csc_matrix(self.m_chi))
        return self._chi_lu.solve(b)

    def surface_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ (self.m_psi @ b))

    def line_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ (self.m_chi @ b))

    def surface_norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(self.surface_inner(a, a), 0.0)))

    def line_norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(self.line_inner(a, a), 0.0)))


def assemble_coupling(surface: SurfaceBasis, line: LineBasis,
                      quad: QuadratureRule) -> CouplingOperators:
    """Assemble the surface/line mass matrices and the coupling blocks.

    The line mesh must coincide node-for-node with the axial factor of the
    surface, so m_chi is also the surface's axial mass: m_psi = m_chi (x)
    M_az and d_chi = m_chi (x) eta_integrals^T (rows line dofs, columns
    surface dofs).  d_psi is set to the exact transpose of d_chi.
    """
    g1 = surface.boundary.gamma1
    if g1.periodic != line.mesh.periodic or \
            not np.array_equal(g1.nodes, line.mesh.nodes):
        raise MeshCompatibilityError(
            f"line mesh {line.mesh} does not match the axial factor {g1} "
            f"of the surface")
    m_chi = assemble_mass(line, quad)
    eta_integrals = lumped_mass(surface.eta, quad)
    m_psi = _kron([m_chi, assemble_mass(surface.eta, quad)])
    d_chi = _kron([m_chi, eta_integrals[None, :]])
    d_psi = d_chi.transpose().tocsr()
    d_psi.sort_indices()
    return CouplingOperators(
        m_psi=m_psi, m_chi=m_chi, d_chi=d_chi, d_psi=d_psi,
        surface=surface, line=line, eta_integrals=eta_integrals)
