"""Nodal P1/Q1 finite element bases on the structured meshes and assembly of
the sparse operators used by both subsystems and by their interconnection:

* mass matrices on the line (m_chi) and on the product surface (m_psi),
* the rectangular coupling blocks d_chi / d_psi obtained by integrating the
  surface basis over the azimuthal factor,
* stiffness matrices with a positive coefficient field.

All meshes are uniform, so the reference-cell tables are shared by every
cell and assembly reduces to a broadcast plus one deterministic scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, MaterialError, MeshCompatibilityError
from .geometry import IntervalMesh, QuadratureRule, SolidDomain, TensorBoundary, \
    quadrature_rule

Coefficient = Union[float, Callable[[np.ndarray], np.ndarray]]


def _values_1d(points: np.ndarray) -> np.ndarray:
    """P1 shape functions on the reference cell [0,1]: (nq, 2)."""
    return np.stack([1.0 - points, points], axis=1)


def _grads_1d(n_points: int) -> np.ndarray:
    """Reference gradients of the P1 shape functions: (nq, 2)."""
    return np.tile(np.array([-1.0, 1.0]), (n_points, 1))


class BasisSet:
    """Base class for the nodal bases; see LineBasis / SurfaceBasis /
    VolumeBasis.  Subclasses provide the reference tables consumed by the
    assembly routines."""

    kind: str = ""
    n_dofs: int = 0

    def cell_dofs(self) -> np.ndarray:
        raise NotImplementedError

    def tables(self, quad: QuadratureRule):
        raise NotImplementedError


@dataclass(frozen=True)
class Tables:
    """Per-quadrature-point reference data shared by all cells.

    values:    (nq, n_local) shape function values
    gradients: (nq, n_local, dim) physical gradients (uniform cells)
    wdet:      (nq,) quadrature weight times cell volume
    ref_points:(nq, dim) reference coordinates of the points
    origins:   (n_cells, dim) physical coordinate of each cell's corner
    sizes:     (dim,) cell edge lengths
    """

    values: np.ndarray
    gradients: np.ndarray
    wdet: np.ndarray
    ref_points: np.ndarray
    origins: np.ndarray
    sizes: np.ndarray

    def physical_points(self) -> np.ndarray:
        """(n_cells, nq, dim) quadrature point coordinates."""
        return self.origins[:, None, :] + self.ref_points[None, :, :] * self.sizes


class LineBasis(BasisSet):
    """P1 hat functions on an interval mesh (periodic wraps the last node)."""

    kind = "p1-interval"

    def __init__(self, mesh: IntervalMesh):
        self.mesh = mesh
        self.n_dofs = mesh.n_nodes
        self.n_cells = mesh.n_cells

    def cell_dofs(self) -> np.ndarray:
        return self.mesh.cell_dofs()

    def tables(self, quad: QuadratureRule) -> Tables:
        h = self.mesh.h
        vals = _values_1d(quad.points)
        grads = (_grads_1d(quad.n_points) / h)[:, :, None]
        wdet = quad.weights * h
        origins = (self.mesh.start + h * np.arange(self.n_cells))[:, None]
        return Tables(vals, grads, wdet, quad.points[:, None], origins,
                      np.array([h]))


class SurfaceBasis(BasisSet):
    """Q1 tensor-product basis on a TensorBoundary.

    Global dof (i, j) -> i * n2 + j with i axial and j azimuthal, so the
    basis function factors as chi_i(x1) * eta_j(x2).
    """

    kind = "q1-tensor-surface"

    def __init__(self, boundary: TensorBoundary):
        self.boundary = boundary
        self.chi = LineBasis(boundary.gamma1)
        self.eta = LineBasis(boundary.gamma2)
        self.n_dofs = self.chi.n_dofs * self.eta.n_dofs
        self.n_cells = boundary.n_cells

    def cell_dofs(self) -> np.ndarray:
        d1 = self.chi.cell_dofs()  # (c1, 2)
        d2 = self.eta.cell_dofs()  # (c2, 2)
        n2 = self.eta.n_dofs
        # cells ordered axial-major; local dof l = 2*l1 + l2
        glob = d1[:, None, :, None] * n2 + d2[None, :, None, :]
        return glob.reshape(self.n_cells, 4)

    def tables(self, quad: QuadratureRule) -> Tables:
        t1 = self.chi.tables(quad)
        t2 = self.eta.tables(quad)
        nq = quad.n_points
        vals = np.einsum("qa,rb->qrab", t1.values, t2.values).reshape(nq * nq, 4)
        gx = np.einsum("qa,rb->qrab", t1.gradients[:, :, 0], t2.values)
        gy = np.einsum("qa,rb->qrab", t1.values, t2.gradients[:, :, 0])
        grads = np.stack([gx.reshape(nq * nq, 4), gy.reshape(nq * nq, 4)], axis=2)
        wdet = np.outer(t1.wdet, t2.wdet).ravel()
        ref = np.stack(np.meshgrid(quad.points, quad.points, indexing="ij"),
                       axis=2).reshape(nq * nq, 2)
        o1 = t1.origins[:, 0]
        o2 = t2.origins[:, 0]
        origins = np.stack([np.repeat(o1, len(o2)), np.tile(o2, len(o1))], axis=1)
        return Tables(vals, grads, wdet, ref, origins,
                      np.array([self.chi.mesh.h, self.eta.mesh.h]))


class VolumeBasis(BasisSet):
    """Q1 tensor-product basis on the solid box; dof order matches
    SolidDomain.node_index (thickness fastest)."""

    kind = "q1-tensor-volume"

    def __init__(self, domain: SolidDomain):
        self.domain = domain
        self.b1 = LineBasis(domain.axial)
        self.b2 = LineBasis(domain.azimuthal)
        self.b3 = LineBasis(domain.thickness)
        self.n_dofs = domain.n_nodes
        self.n_cells = domain.n_cells

    def cell_dofs(self) -> np.ndarray:
        d1 = self.b1.cell_dofs()
        d2 = self.b2.cell_dofs()
        d3 = self.b3.cell_dofs()
        n2, n3 = self.b2.n_dofs, self.b3.n_dofs
        # local dof l = 4*l1 + 2*l2 + l3; cells axial-major, thickness fastest
        glob = (d1[:, None, None, :, None, None] * n2
                + d2[None, :, None, None, :, None]) * n3 \
            + d3[None, None, :, None, None, :]
        return glob.reshape(self.n_cells, 8)

    def tables(self, quad: QuadratureRule) -> Tables:
        t = [b.tables(quad) for b in (self.b1, self.b2, self.b3)]
        nq = quad.n_points
        v1, v2, v3 = (ti.values for ti in t)
        g1, g2, g3 = (ti.gradients[:, :, 0] for ti in t)
        vals = np.einsum("qa,rb,sc->qrsabc", v1, v2, v3).reshape(nq ** 3, 8)
        gx = np.einsum("qa,rb,sc->qrsabc", g1, v2, v3).reshape(nq ** 3, 8)
        gy = np.einsum("qa,rb,sc->qrsabc", v1, g2, v3).reshape(nq ** 3, 8)
        gz = np.einsum("qa,rb,sc->qrsabc", v1, v2, g3).reshape(nq ** 3, 8)
        grads = np.stack([gx, gy, gz], axis=2)
        wdet = np.einsum("q,r,s->qrs", t[0].wdet, t[1].wdet, t[2].wdet).ravel()
        ref = np.stack(np.meshgrid(quad.points, quad.points, quad.points,
                                   indexing="ij"), axis=3).reshape(nq ** 3, 3)
        o1, o2, o3 = (ti.origins[:, 0] for ti in t)
        origins = np.stack([
            np.repeat(o1, len(o2) * len(o3)),
            np.tile(np.repeat(o2, len(o3)), len(o1)),
            np.tile(o3, len(o1) * len(o2)),
        ], axis=1)
        sizes = np.array([b.mesh.h for b in (self.b1, self.b2, self.b3)])
        return Tables(vals, grads, wdet, ref, origins, sizes)


def _check_quad(basis: BasisSet, quad: QuadratureRule):
    if quad.degree < 2:
        raise ConfigurationError(
            f"quadrature degree {quad.degree} insufficient for products of "
            f"{basis.kind} functions (need >= 2)")


def _scatter(rows, cols, data, shape) -> sp.csr_matrix:
    mat = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return mat.tocsr()


def assemble_mass(basis: BasisSet, quad: QuadratureRule) -> sp.csr_matrix:
    """Mass matrix M_ij = integral(phi_i phi_j); symmetric, row sums equal
    integral(phi_i)."""
    _check_quad(basis, quad)
    t = basis.tables(quad)
    local = np.einsum("q,qa,qb->ab", t.wdet, t.values, t.values)
    dofs = basis.cell_dofs()
    nc, nl = dofs.shape
    rows = np.broadcast_to(dofs[:, :, None], (nc, nl, nl))
    cols = np.broadcast_to(dofs[:, None, :], (nc, nl, nl))
    data = np.broadcast_to(local, (nc, nl, nl))
    return _scatter(rows, cols, data, (basis.n_dofs, basis.n_dofs))


def lumped_mass(basis: BasisSet, quad: QuadratureRule) -> np.ndarray:
    """Lumped (row-sum) mass vector m_i = integral(phi_i)."""
    _check_quad(basis, quad)
    t = basis.tables(quad)
    local = t.wdet @ t.values
    dofs = basis.cell_dofs()
    return np.bincount(dofs.ravel(),
                       weights=np.broadcast_to(local, dofs.shape).ravel(),
                       minlength=basis.n_dofs)


def assemble_stiffness(basis: BasisSet, coefficient: Coefficient,
                       quad: QuadratureRule | None = None) -> sp.csr_matrix:
    """Stiffness matrix K_ij = integral(coef * grad(phi_i) . grad(phi_j)).

    The coefficient is a positive constant or a callable evaluated at the
    physical quadrature points; non-positive values raise MaterialError.
    """
    if quad is None:
        quad = quadrature_rule(2)
    _check_quad(basis, quad)
    t = basis.tables(quad)
    dofs = basis.cell_dofs()
    nc = dofs.shape[0]
    if callable(coefficient):
        coef = np.asarray(coefficient(t.physical_points()), dtype=float)
        coef = np.broadcast_to(coef, (nc, len(t.wdet)))
    else:
        coef = np.full((nc, len(t.wdet)), float(coefficient))
    if not np.all(coef > 0):
        bad = np.argwhere(~(coef > 0))[0]
        raise MaterialError(
            f"non-positive stiffness coefficient at cell {bad[0]}, "
            f"quadrature point {bad[1]}")
    local = np.einsum("q,cq,qad,qbd->cab", t.wdet, coef, t.gradients, t.gradients)
    nl = dofs.shape[1]
    rows = np.broadcast_to(dofs[:, :, None], (nc, nl, nl))
    cols = np.broadcast_to(dofs[:, None, :], (nc, nl, nl))
    return _scatter(rows, cols, local, (basis.n_dofs, basis.n_dofs))


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
    measure2: float
    eta_integrals: np.ndarray
    _psi_lu: spla.SuperLU | None = field(default=None, repr=False)
    _chi_lu: spla.SuperLU | None = field(default=None, repr=False)

    @property
    def n_psi(self) -> int:
        return self.surface.n_dofs

    @property
    def n_chi(self) -> int:
        return self.line.n_dofs

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
    surface.  d_chi rows are line dofs, columns surface dofs; d_psi is set
    to the exact transpose, as both come from the same quadrature loop.
    """
    g1 = surface.boundary.gamma1
    if g1.periodic != line.mesh.periodic or \
            not np.array_equal(g1.nodes, line.mesh.nodes):
        raise MeshCompatibilityError(
            f"line mesh {line.mesh} does not match the axial factor {g1} "
            f"of the surface")
    _check_quad(surface, quad)
    m_chi = assemble_mass(line, quad)
    m_psi = assemble_mass(surface, quad)
    eta_integrals = lumped_mass(surface.eta, quad)

    t1 = line.tables(quad)
    local = np.einsum("q,qa,qb->ab", t1.wdet, t1.values, t1.values)
    d1 = line.cell_dofs()
    nc = d1.shape[0]
    n2 = surface.eta.n_dofs
    jj = np.arange(n2)
    rows = np.broadcast_to(d1[:, :, None, None], (nc, 2, 2, n2))
    cols = np.broadcast_to(d1[:, None, :, None] * n2 + jj, (nc, 2, 2, n2))
    data = np.broadcast_to(local[None, :, :, None] * eta_integrals,
                           (nc, 2, 2, n2))
    d_chi = _scatter(rows, cols, data, (line.n_dofs, surface.n_dofs))
    d_psi = d_chi.transpose().tocsr()
    d_psi.sort_indices()
    return CouplingOperators(
        m_psi=m_psi, m_chi=m_chi, d_chi=d_chi, d_psi=d_psi,
        surface=surface, line=line, measure2=surface.boundary.measure2,
        eta_integrals=eta_integrals)
