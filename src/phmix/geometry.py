"""Computational domains: structured interval meshes, the tensor-product
coupling face, the 3D solid box, and Gauss quadrature on the reference cell.

All meshes are uniform and immutable.  The solid box is axial x azimuthal x
thickness, with the coupling face at thickness = 0 and the external face at
thickness = depth.  The azimuthal direction is periodic, so the coupling face
factors exactly into (axial interval) x (periodic azimuthal interval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GeometryError


@dataclass(frozen=True)
class IntervalMesh:
    """Uniform 1D mesh on [start, end], optionally periodic.

    A periodic mesh identifies the last node with the first, so it has
    n_cells nodes; a non-periodic mesh has n_cells + 1.
    """

    start: float
    end: float
    n_cells: int
    periodic: bool = False

    def __post_init__(self):
        if not self.end > self.start:
            raise GeometryError(
                f"interval extent non-positive: start={self.start}, end={self.end}")
        if self.n_cells < 1:
            raise GeometryError(f"cell count must be >= 1, got {self.n_cells}")

    @property
    def h(self) -> float:
        return (self.end - self.start) / self.n_cells

    @property
    def measure(self) -> float:
        return self.end - self.start

    @property
    def n_nodes(self) -> int:
        return self.n_cells if self.periodic else self.n_cells + 1

    @property
    def nodes(self) -> np.ndarray:
        pts = np.linspace(self.start, self.end, self.n_cells + 1)
        return pts[:-1] if self.periodic else pts

    def cell_dofs(self) -> np.ndarray:
        """(n_cells, 2) array of the left/right node index of each cell."""
        left = np.arange(self.n_cells)
        right = left + 1
        if self.periodic:
            right = right % self.n_cells
        return np.stack([left, right], axis=1)


@dataclass(frozen=True)
class TensorBoundary:
    """Product surface gamma1 x gamma2: a non-periodic axial factor and a
    periodic azimuthal factor."""

    gamma1: IntervalMesh
    gamma2: IntervalMesh

    def __post_init__(self):
        if self.gamma1.periodic:
            raise GeometryError("gamma1 (axial factor) must be non-periodic")
        if not self.gamma2.periodic:
            raise GeometryError("gamma2 (azimuthal factor) must be periodic")

    @property
    def measure2(self) -> float:
        """Total azimuthal length."""
        return self.gamma2.measure

    @property
    def n_cells(self) -> int:
        return self.gamma1.n_cells * self.gamma2.n_cells

    @property
    def n_nodes(self) -> int:
        return self.gamma1.n_nodes * self.gamma2.n_nodes

    @property
    def measure(self) -> float:
        return self.gamma1.measure * self.measure2

    def node_coordinates(self) -> np.ndarray:
        """(n_nodes, 2) coordinates ordered axial-major, azimuthal-minor."""
        x1 = self.gamma1.nodes
        x2 = self.gamma2.nodes
        out = np.empty((self.n_nodes, 2))
        out[:, 0] = np.repeat(x1, self.gamma2.n_nodes)
        out[:, 1] = np.tile(x2, self.gamma1.n_nodes)
        return out


@dataclass(frozen=True)
class SolidDomain:
    """Box domain: axial x azimuthal (periodic) x thickness.

    The coupling face sits at thickness = start of the thickness interval,
    the external face at its end.  The trace mesh of the coupling face is
    node-for-node the tensor boundary of (axial, azimuthal).
    """

    axial: IntervalMesh
    azimuthal: IntervalMesh
    thickness: IntervalMesh

    def __post_init__(self):
        if self.axial.periodic:
            raise GeometryError("axial mesh must be non-periodic")
        if not self.azimuthal.periodic:
            raise GeometryError("azimuthal mesh must be periodic")
        if self.thickness.periodic:
            raise GeometryError("thickness mesh must be non-periodic")

    @property
    def n_cells(self) -> int:
        return self.axial.n_cells * self.azimuthal.n_cells * self.thickness.n_cells

    @property
    def n_nodes(self) -> int:
        return self.axial.n_nodes * self.azimuthal.n_nodes * self.thickness.n_nodes

    @property
    def measure(self) -> float:
        return self.axial.measure * self.azimuthal.measure * self.thickness.measure

    def coupling_boundary(self) -> TensorBoundary:
        return TensorBoundary(self.axial, self.azimuthal)

    def node_index(self, i, j, k):
        """Flat node index for axial i, azimuthal j, thickness k."""
        n2 = self.azimuthal.n_nodes
        n3 = self.thickness.n_nodes
        return (np.asarray(i) * n2 + np.asarray(j)) * n3 + np.asarray(k)

    def node_coordinates(self) -> np.ndarray:
        """(n_nodes, 3) coordinates in dof order (thickness fastest)."""
        x1, x2, x3 = self.axial.nodes, self.azimuthal.nodes, self.thickness.nodes
        n1, n2, n3 = len(x1), len(x2), len(x3)
        out = np.empty((self.n_nodes, 3))
        out[:, 0] = np.repeat(x1, n2 * n3)
        out[:, 1] = np.tile(np.repeat(x2, n3), n1)
        out[:, 2] = np.tile(x3, n1 * n2)
        return out

    def face_dofs(self, face: str) -> np.ndarray:
        """Volume dof indices of a tagged face, ordered like the trace
        boundary's dofs (axial-major, azimuthal-minor).

        face: 'coupling' (thickness start) or 'external' (thickness end).
        """
        if face == "coupling":
            k = 0
        elif face == "external":
            k = self.thickness.n_nodes - 1
        else:
            raise GeometryError(f"unknown face tag {face!r}")
        n1 = self.axial.n_nodes
        n2 = self.azimuthal.n_nodes
        ii = np.repeat(np.arange(n1), n2)
        jj = np.tile(np.arange(n2), n1)
        return self.node_index(ii, jj, k)


def build_solid_domain(a: float, b: float, circumference: float, depth: float,
                       n_ax: int, n_az: int, n_th: int) -> SolidDomain:
    """Construct the solid box [a,b] x [0,circumference) x [0,depth].

    The azimuthal factor is periodic (the unrolled cross-section
    circumference); the coupling face lies at thickness 0.
    """
    if not b > a:
        raise GeometryError(f"axial extent non-positive: a={a}, b={b}")
    if not circumference > 0:
        raise GeometryError(f"circumference non-positive: {circumference}")
    if not depth > 0:
        raise GeometryError(f"depth non-positive: {depth}")
    for name, n in (("n_ax", n_ax), ("n_az", n_az), ("n_th", n_th)):
        if n < 1:
            raise GeometryError(f"cell count {name} must be >= 1, got {n}")
    return SolidDomain(
        axial=IntervalMesh(a, b, n_ax),
        azimuthal=IntervalMesh(0.0, circumference, n_az, periodic=True),
        thickness=IntervalMesh(0.0, depth, n_th),
    )


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on the reference cell [0, 1].

    Exact for polynomials up to `degree`; weights sum to 1.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def n_points(self) -> int:
        return len(self.points)


def quadrature_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1] exact to the given polynomial degree."""
    if degree < 1:
        raise ConfigurationError(f"quadrature degree must be >= 1, got {degree}")
    n = (degree + 2) // 2  # n-point Gauss is exact to degree 2n - 1
    pts, wts = np.polynomial.legendre.leggauss(n)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(points=pts, weights=wts, degree=degree)
