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
meshes are uniform, so one reference cell table serves every cell.  The
lumped mass (the outer product of the hat integrals) and the volume tables
(one broadcast product of the line tables) are built from the factors by
direct array arithmetic, bitwise the Kronecker and `einsum` products.

The sparse operators are assembled straight into canonical CSR by numpy
index arithmetic: a line matrix from its cell triplets
(`_triplets_to_csr`), a Kronecker product from its factors' CSR arrays
(`_kron_pair`).  Both give bitwise what scipy's COO conversion and its
CSR Kronecker product give, without their COO round trips; the channel's
dense gradient pairing and the dense azimuthal mass scatter the same
triplets straight into an array (`dense_line_matrix`).  Every construction
assembles its own operators; nothing is cached across them.  A run's
construction makes no sparse matrix: the coupling operators hold the
wall's factors, and their four blocks m_chi, m_psi, d_chi and d_psi are
assembled on first read, which the stepper never makes: only the
structural checks and the fiber integral read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import MaterialError, MeshCompatibilityError
from .geometry import IntervalMesh, SolidDomain, TensorBoundary


@dataclass(frozen=True)
class Tables:
    """Per-quadrature-point reference data shared by all cells, read-only.

    values:    (nq, n_local) shape function values
    gradients: (nq, n_local, dim) physical gradients (uniform cells)
    wdet:      (nq,) quadrature weight times cell volume
    """

    values: np.ndarray
    gradients: np.ndarray
    wdet: np.ndarray

    def __post_init__(self):
        for arr in (self.values, self.gradients, self.wdet):
            arr.flags.writeable = False


# The one quadrature rule, read-only: 2-point Gauss-Legendre on [0, 1],
# exact to degree 3, so for every mass, stiffness and coupling integrand;
# every line basis shares the values of its two hats at the points
_x, _w = np.polynomial.legendre.leggauss(2)
GAUSS_POINTS, GAUSS_WEIGHTS = 0.5 * (_x + 1.0), 0.5 * _w
_HAT_VALUES = np.stack([1.0 - GAUSS_POINTS, GAUSS_POINTS], axis=1)
for _arr in (GAUSS_POINTS, GAUSS_WEIGHTS, _HAT_VALUES):
    _arr.flags.writeable = False


class LineBasis:
    """P1 hat functions on an interval mesh (periodic wraps the last node)."""

    def __init__(self, mesh: IntervalMesh):
        self.mesh = mesh
        self.n_dofs = mesh.n_nodes
        self.factors = (self,)

    def cell_dofs(self) -> np.ndarray:
        return self.mesh.cell_dofs()

    @cached_property
    def tables(self) -> Tables:
        """The reference tables at the Gauss points, computed on first use."""
        h = self.mesh.h
        slopes = np.array([[[-1.0 / h], [1.0 / h]]] * len(GAUSS_POINTS))
        return Tables(_HAT_VALUES, slopes, GAUSS_WEIGHTS * h)

    def hat_integrals(self) -> np.ndarray:
        """integral(phi_i) of every hat: the sum of a cell's two local
        integrals w at each node that two cell ends meet at (both ends of
        the one cell of a one-node periodic mesh), w alone at the two ends
        of a non-periodic mesh."""
        t = self.tables
        w = t.wdet @ t.values
        lumped = np.full(self.n_dofs, w[0] + w[1])
        if not self.mesh.periodic:
            lumped[[0, -1]] = w
        return lumped


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
        """(n_cells, 8) global dofs of each cell's local dofs l = 4 l1 +
        2 l2 + l3, cells axial-major and thickness fastest: the transpose
        of a local-major array, so that each sum runs along the cells."""
        d1, d2, d3 = (b.cell_dofs().T for b in self.factors)
        n2, n3 = self.factors[1].n_dofs, self.factors[2].n_dofs
        face = (d1[:, None, :, None] * n2 + d2[:, None, :]).reshape(4, -1)
        return (face[:, None, :, None] * n3 + d3[:, None, :]).reshape(8, -1).T

    @cached_property
    def tables(self) -> Tables:
        """The factors' tables multiplied out, computed on first use: factor
        d's table, extended to (q, a, 4) with its gradient in component d
        and its values in the others, gives in one broadcast product every
        x_qa y_rb z_sc over (q, r, s, a, b, c, component), the gradient
        along d in component d and the values in component 3."""
        t = [b.tables for b in self.factors]
        ext = []
        for d, ti in enumerate(t):
            e = ti.values[:, :, None].repeat(4, axis=2)
            e[:, :, d] = ti.gradients[:, :, 0]
            ext.append(e)
        x, y, z = ext
        product = x[:, None, None, :, None, None] * y[:, None, None, :, None] \
            * z[:, None, None, :]
        wdet = reduce(np.multiply.outer, (ti.wdet for ti in t)).ravel()
        return Tables(product[..., 3].reshape(-1, 8),
                      product[..., :3].reshape(-1, 8, 3), wdet)


Basis = LineBasis | SurfaceBasis | VolumeBasis


def _line_triplets(line: LineBasis, left: int, right: int):
    """The cell triplets (rows, cols, data) of integral(phi_i^(left)
    phi_j^(right)) over a line, where phi^(0) is a hat and phi^(1) its
    derivative: the one quadrature assembly, which every other operator is
    built from.  Each cell's 2x2 local matrix in turn, row-major."""
    t = line.tables
    shapes = (t.values, t.gradients[:, :, 0])
    local = np.einsum("q,qa,qb->ab", t.wdet, shapes[left], shapes[right])
    dofs = line.cell_dofs()
    return (dofs.repeat(2), dofs.repeat(2, axis=0).ravel(),
            local.reshape(1, 4).repeat(len(dofs), axis=0).ravel())


def line_matrix(line: LineBasis, left: int, right: int) -> sp.csr_matrix:
    """integral(phi_i^(left) phi_j^(right)) over a line (`_line_triplets`),
    in canonical CSR."""
    return _triplets_to_csr(*_line_triplets(line, left, right),
                            (line.n_dofs, line.n_dofs))


def dense_line_matrix(line: LineBasis, left: int,
                      right: int) -> np.ndarray:
    """`line_matrix` as a dense array: the cell triplets scattered by one
    `bincount`, which sums each entry's contributions in their input order
    as `_triplets_to_csr` does."""
    rows, cols, data = _line_triplets(line, left, right)
    n = line.n_dofs
    return np.bincount(rows * n + cols, weights=data,
                       minlength=n * n).reshape(n, n)


def _triplets_to_csr(rows, cols, data, shape) -> sp.csr_matrix:
    """The canonical CSR matrix (sorted, no duplicates) of the triplets
    (rows, cols, data).  One stable argsort of the flat keys groups the
    duplicates of an entry in their input order, and `bincount` sums them
    in that order, as scipy's COO conversion does; `np.add.reduceat` would
    add three or more in another order, and each entry of a one-cell
    periodic factor has four."""
    n_rows, n_cols = shape
    keys = rows * n_cols + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    data = np.bincount(np.cumsum(first) - 1, weights=data[order])
    keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
    return sp.csr_matrix((data, keys % n_cols, indptr), shape=shape)


def _kron_pair(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """a (x) b of canonical CSR factors, in canonical CSR.  Row i p + k
    holds, for each entry a_ij of row i in turn, the entries b_kl of row k:
    column j q + l, value the single product a_ij b_kl.  The index
    arithmetic runs in int32 whenever the result's indices fit, as scipy's
    do, which halves its temporaries."""
    (m, n), (p, q) = a.shape, b.shape
    nnz_b = np.diff(b.indptr)
    counts = np.multiply.outer(np.diff(a.indptr), nnz_b).ravel()
    nnz = int(counts.sum())
    idx = np.int32 if max(nnz, m * p, n * q) <= np.iinfo(np.int32).max \
        else np.int64
    indptr = np.zeros(m * p + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])

    def per_entry(per_row):
        return np.repeat(per_row.astype(idx, copy=False), counts)

    # an entry's place t in row (i, k) is ea nnz_b[k] + eb, for its offsets
    # ea in row i of a and eb in row k of b
    t = np.arange(nnz, dtype=idx)
    t -= per_entry(indptr[:-1])
    ea, eb = np.divmod(t, per_entry(np.tile(nnz_b, m)))
    del t
    ea += per_entry(np.repeat(a.indptr[:-1], p))
    eb += per_entry(np.tile(b.indptr[:-1], m))
    data = a.data[ea]
    data *= b.data[eb]
    indices = a.indices[ea].astype(idx, copy=False)
    indices *= q
    indices += b.indices[eb]
    return sp.csr_matrix((data, indices, indptr), shape=(m * p, n * q))


def _kron(mats) -> sp.csr_matrix:
    return reduce(_kron_pair, mats)


def assemble_mass(basis: Basis) -> sp.csr_matrix:
    """Mass matrix M_ij = integral(phi_i phi_j), the Kronecker product of
    the factors' line masses; symmetric, row sums equal integral(phi_i)."""
    return _kron(line_matrix(b, 0, 0) for b in basis.factors)


def lumped_mass(basis: Basis) -> np.ndarray:
    """Lumped (row-sum) mass vector m_i = integral(phi_i), the Kronecker
    product of the factors' hat integrals: their outer product, raveled."""
    return reduce(np.multiply.outer,
                  (b.hat_integrals() for b in basis.factors)).ravel()


def assemble_stiffness(basis: Basis, coefficient: float) -> sp.csr_matrix:
    """Stiffness matrix K_ij = coefficient * integral(grad(phi_i) .
    grad(phi_j)) for a positive constant coefficient: the Kronecker sum of
    the factors' line stiffness and mass matrices.  A non-positive
    coefficient raises MaterialError."""
    if not coefficient > 0:
        raise MaterialError(
            f"non-positive stiffness coefficient {coefficient!r}")
    mass = [line_matrix(b, 0, 0) for b in basis.factors]
    stiff = [line_matrix(b, 1, 1) for b in basis.factors]
    total = sum(_kron(mass[:d] + [stiff[d]] + mass[d + 1:])
                for d in range(len(mass)))
    return (coefficient * total).tocsr()


def require_fit(a: IntervalMesh | TensorBoundary, a_name: str,
                b: IntervalMesh | TensorBoundary, b_name: str) -> None:
    """The fit rule, which every mesh check of phmix applies: raise
    MeshCompatibilityError, naming both sides, unless the meshes (or wall
    boundaries) `a` and `b` are equal as values, that is in the start,
    end, cell count and periodicity of every factor.  Unlike node arrays,
    values tell the circumferences of one-cell periodic factors apart."""
    if a != b:
        raise MeshCompatibilityError(
            f"{a_name} {a} does not match {b_name} {b}")


@dataclass(eq=False)
class CouplingOperators:
    """The interconnection between the product surface and its axial
    factor, held as the wall's factors: the two bases, the azimuthal hat
    integrals `eta_integrals` and the azimuthal mass m_az.

    The assembled blocks are cached properties, each built from the
    factors on its first read: m_chi (line mass) and m_psi = m_chi (x) m_az
    (surface mass), both SPD; d_chi = m_chi (x) eta_integrals^T, which maps
    surface coefficients to line load vectors through the surface basis
    integrated over the azimuth; and d_psi, its exact transpose.  The
    stepper applies only `embed`, `embed_t` and `line_load`, which read the
    factors, so no run assembles a block.

    Surface dofs are axial-major, azimuthal-minor; besides the blocks'
    assembly, `embed`, `embed_t` and `line_load` are the only code that
    relies on that layout.  `embed` is the nodal embedding B (replicate
    along the azimuth), `embed_t` its transpose (azimuthal row sums) and
    `integrate` the mass-consistent fiber integral m_chi^-1 d_chi.  On the
    tensor-product wall B = m_psi^-1 d_psi and d_chi m_psi^-1 = B^T, so B^T
    takes surface loads to line loads.  All three take one field (dofs,) or
    a column stack of them (dofs, trials), so sparse products take the
    stack as it is, without a transposed copy.

    The blocks, the factorizations and `line_load`'s weights are cached
    properties: `dataclasses.replace` with new factors starts without
    them, and a block set on an instance overrides its assembly.
    """

    surface: SurfaceBasis
    line: LineBasis
    eta_integrals: np.ndarray
    m_az: np.ndarray

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

    def line_load(self, b: np.ndarray) -> np.ndarray:
        """d_chi m_psi^-1 b: the line load d_chi v of the surface load
        b = m_psi v (n_psi,), from the azimuthal factor.  d_chi m_psi^-1 =
        I (x) w^T with w = m_az^-1 eta_integrals (m_az is symmetric), so
        each line entry is one azimuthal row of b against w."""
        n_az = self.surface.eta.n_dofs
        return b.reshape(self.n_chi, n_az) @ self._az_weights

    @cached_property
    def m_chi(self) -> sp.csr_matrix:
        return assemble_mass(self.line)

    @cached_property
    def m_psi(self) -> sp.csr_matrix:
        return _kron([self.m_chi, sp.csr_matrix(self.m_az)])

    @cached_property
    def d_chi(self) -> sp.csr_matrix:
        n_az = len(self.eta_integrals)
        return _kron([self.m_chi, sp.csr_matrix(
            (self.eta_integrals, np.arange(n_az), [0, n_az]),
            shape=(1, n_az))])

    @cached_property
    def d_psi(self) -> sp.csr_matrix:
        """m_chi (x) eta_integrals, assembled from the factors on its own,
        not transposed from d_chi, so that `check_transpose_identity`
        compares two assemblies: m_chi is symmetric bit for bit and each
        entry is the one product m_chi_ik eta_j, so they agree exactly."""
        n_az = len(self.eta_integrals)
        return _kron([self.m_chi, sp.csr_matrix(
            (self.eta_integrals, np.zeros(n_az, dtype=np.intp),
             np.arange(n_az + 1)), shape=(n_az, 1))])

    @cached_property
    def _az_weights(self) -> np.ndarray:
        return np.linalg.solve(self.m_az, self.eta_integrals)

    @cached_property
    def _psi_lu(self) -> spla.SuperLU:
        return spla.splu(sp.csc_matrix(self.m_psi))

    @cached_property
    def _chi_lu(self) -> spla.SuperLU:
        return spla.splu(sp.csc_matrix(self.m_chi))

    def solve_psi(self, b: np.ndarray) -> np.ndarray:
        return self._psi_lu.solve(b)

    def solve_chi(self, b: np.ndarray) -> np.ndarray:
        return self._chi_lu.solve(b)


def assemble_coupling(surface: SurfaceBasis,
                      line: LineBasis) -> CouplingOperators:
    """The coupling operators of a surface and a line: their azimuthal
    factors, the hat integrals and the dense mass, with no block assembled.

    The line mesh must equal the axial factor of the surface
    (`require_fit`), so m_chi is also the surface's axial mass and the
    blocks m_psi = m_chi (x) m_az, d_chi = m_chi (x) eta_integrals^T (rows
    line dofs, columns surface dofs) and d_psi = m_chi (x) eta_integrals
    follow from the factors on first read.
    """
    require_fit(line.mesh, "line mesh", surface.boundary.gamma1,
                "the surface's axial factor")
    return CouplingOperators(
        surface=surface, line=line, eta_integrals=lumped_mass(surface.eta),
        m_az=dense_line_matrix(surface.eta, 0, 0))
