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
Verification routines draw seeded random fields in cache-sized blocks of
trials, on the calling thread, and report the worst residual of all blocks
instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import CouplingOperators, require_fit
from .geometry import IntervalMesh, TensorBoundary

STRUCT_TOL = 1e-11   # identities that are exact in exact arithmetic
QUAD_REL_TOL = 1e-10  # identities limited by quadrature, relative


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
    """Result of a randomized structural check.

    Formats as 'key: value' lines; `passed` is the machine-checkable verdict.
    """

    name: str
    passed: bool
    max_residual: float
    tolerance: float
    trials: int
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [
            f"check: {self.name}",
            f"status: {'PASS' if self.passed else 'FAIL'}",
            f"max_residual: {self.max_residual:.6e}",
            f"tolerance: {self.tolerance:.6e}",
            f"trials: {self.trials}",
        ]
        if self.seed is not None:
            out.append(f"seed: {self.seed}")
        for key, val in self.details.items():
            out.append(f"{key}: {val}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


# each randomized check draws from its own stream [seed, k] of one seed, and
# each of its stacks from a child of that stream: no two stacks share fields
_STREAMS = {"adjointness": 1, "operator_norm_bound": 2, "dirac_pairing": 3,
            "power_balance": 4}
_BLOCK_BYTES = 2 ** 18  # of the largest stack: a block's work stays in cache


def _field_blocks(check: str, seed: int, trials: int, *sizes: int):
    """Yield a check's fields in blocks of trials: one column stack
    (n, block) per n in `sizes`, drawn trial-major from its own child of
    the check's stream, so trial t's fields depend on neither the block
    size nor `trials`.  A last single trial joins the block before it: a
    one-column stack takes numpy's vector paths, which round differently."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seqs = np.random.SeedSequence([seed, _STREAMS[check]]).spawn(len(sizes))
    rngs = [np.random.default_rng(seq) for seq in seqs]
    block = max(2, _BLOCK_BYTES // (8 * max(sizes)))
    bounds = [*range(0, max(trials - 1, 1), block), trials]
    for start, stop in zip(bounds, bounds[1:]):
        yield [np.ascontiguousarray(rng.standard_normal((stop - start, n)).T)
               for rng, n in zip(rngs, sizes)]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient dot product of matching columns of two stacks."""
    return np.einsum("it,it->t", a, b)


def check_adjointness(ops: CouplingOperators, trials: int = 100,
                      seed: int = 0) -> VerificationReport:
    """Verify <f, embed v> on the surface equals <integrate f, v> on the line
    for random field pairs; the normalized residual must stay below the
    structural tolerance."""
    def residual(f, v):
        # one mass product per stack: m_psi and m_chi are symmetric, so each
        # serves both the pairing and the norm of its stack
        mf = ops.m_psi @ f
        mv = ops.m_chi @ v
        lhs = _dots(ops.embed(v), mf)
        rhs = _dots(ops.integrate(f), mv)
        fnorm = np.sqrt(_dots(f, mf))
        vnorm = np.sqrt(_dots(v, mv))
        return np.max(np.abs(lhs - rhs) / (1.0 + fnorm * vnorm))
    blocks = _field_blocks("adjointness", seed, trials, ops.n_psi, ops.n_chi)
    worst = float(np.max([residual(*stacks) for stacks in blocks]))
    return VerificationReport(
        name="adjointness", passed=bool(worst <= STRUCT_TOL),
        max_residual=worst, tolerance=STRUCT_TOL, trials=trials, seed=seed)


def check_dirac_pairing(ops: CouplingOperators, trials: int = 100,
                        seed: int = 0) -> VerificationReport:
    """Verify the graph of the structure map is isotropic for the symmetric
    pairing.

    Maximality holds by construction: the graph of a linear map on the
    n-dimensional effort space has dimension n, half of the effort-flow
    space, so an isotropic graph is a Dirac structure.  The isotropy
    bracket is the whole gate."""
    def pair(me, b1, b2):
        return _dots(me[0], b1) + _dots(me[1], b2)

    def residual(e1, e2, e1p, e2p):
        f1 = -ops.integrate(e2)
        f2 = ops.embed(e1)
        f1p = -ops.integrate(e2p)
        f2p = ops.embed(e1p)
        # the mass products of the efforts, once each; by symmetry they
        # pair the efforts with the flows and with themselves
        m = (ops.m_chi @ e1, ops.m_psi @ e2)
        mp = (ops.m_chi @ e1p, ops.m_psi @ e2p)
        bracket = pair(m, f1p, f2p) + pair(mp, f1, f2)
        scale = 1.0 + np.sqrt(pair(m, e1, e2)) * np.sqrt(pair(mp, e1p, e2p))
        return np.max(np.abs(bracket) / scale)
    n1, n2 = ops.n_chi, ops.n_psi
    blocks = _field_blocks("dirac_pairing", seed, trials, n1, n2, n1, n2)
    worst = float(np.max([residual(*stacks) for stacks in blocks]))
    return VerificationReport(
        name="dirac_pairing", passed=bool(worst <= STRUCT_TOL),
        max_residual=worst, tolerance=STRUCT_TOL, trials=trials, seed=seed)


def operator_norm_bound_check(ops: CouplingOperators, trials: int = 100,
                              seed: int = 0) -> VerificationReport:
    """Verify the integration operator's norm bound: the squared line norm of
    the integrated field never exceeds the azimuthal measure times the squared
    surface norm, with equality for azimuthally constant fields."""
    measure2 = ops.surface.boundary.measure2

    def residuals(u, y):
        au = ops.integrate(u)
        lhs = _dots(au, ops.m_chi @ au)
        rhs = measure2 * _dots(u, ops.m_psi @ u)
        uc = ops.embed(y)
        auc = ops.integrate(uc)
        lhs_c = _dots(auc, ops.m_chi @ auc)
        rhs_c = measure2 * _dots(uc, ops.m_psi @ uc)
        return np.max(lhs - rhs), \
            np.max(np.abs(lhs_c - rhs_c) / np.maximum(rhs_c, 1e-300))
    blocks = _field_blocks("operator_norm_bound", seed, trials, ops.n_psi,
                           ops.n_chi)
    worst, eq_gap = map(float, np.max([residuals(*b) for b in blocks], axis=0))
    passed = worst <= STRUCT_TOL and eq_gap <= QUAD_REL_TOL
    return VerificationReport(
        name="operator_norm_bound", passed=bool(passed),
        max_residual=max(worst, 0.0), tolerance=STRUCT_TOL,
        trials=trials, seed=seed,
        details={"equality_rel_gap_constant_fields": f"{eq_gap:.6e}"})
