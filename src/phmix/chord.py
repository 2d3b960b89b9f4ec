"""The chord solver of the midpoint Newton iteration: the midpoint
Jacobian split by azimuthal Fourier modes into one narrow band, its band LU
(dgbtrf, partial pivoting) and the solves with it.

Newton reuses a factor (chord iterations) until convergence degrades, then
rebuilds.  The azimuth is periodic and uniform, the wall trace is pinned to
the channel temperature, which is constant along the azimuth, and the
channel's entropy rows take the azimuthal sums of the wall rows.  So once
each cell's 8x8 `HeatSystem.loads_tangent` block is replaced by its mean
over the cells that share its axial and thickness index, the Jacobian is
block-circulant in the azimuth, and a real Fourier transform along the
azimuth makes it block diagonal.  Mode 0 holds the azimuthal sums of the
solid rows, the azimuthal means of the solid unknowns and the channel: the
Jacobian of an n_az = 1 mesh with the cell blocks summed over the azimuth.
Every other mode holds the solid alone, once for its cos and once for its
sin.  Mode k's block contracts the mean blocks' azimuthal local pairs (l2,
l2') with cos(2 pi k (l2' - l2) / n_az), which leaves one 4x4 block per
(axial, thickness) cell, a 9-point stencil on those nodes.

The cosine is exact when the mean blocks are symmetric under the mirror
theta -> -theta, as they are at every azimuthally uniform state, where the
averaged matrix is the Jacobian itself.  Elsewhere the mode blocks are a
chord matrix like a stale factor is, and the residual that Newton drives to
its tolerance stays exact.  The mass is constant along the azimuth; the
columns of the pinned coupling dofs are carried to the channel (phi, s)
that pin them.  An exact zero pivot raises SingularJacobianError naming its
mode and unknown, which fails the Newton attempt like an invalid state
does.

When the factorization interchanged no rows, U has only ku superdiagonals,
and the build keeps contiguous copies of the two triangles in place of the
band, which a chord solve passes to two BLAS band-triangle solves (dtbsv).
A factor with row interchanges keeps the band and its pivots for dgbtrs,
which applies them.
"""

from __future__ import annotations

import time as _time
from functools import cached_property
from itertools import product

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import SingularJacobianError
from .fluid import FluidState, FluidSystem
from .heat import HeatSystem

# the places of a node's channel (phi, vel, s) in its mode-0 slab: (vel, s,
# phi) leaves the factors of the ladder's rungs up to 48x24x4 at dt without
# row interchanges
_CHANNEL_SLOTS = np.array([2, 0, 1])


class ModeLayout:
    """The azimuthal transform and the stacked mode band of one stepper,
    fixed by the mesh.

    The stepper's packed unknowns are the free solid entropy, in dof order
    (axial node i, azimuthal node j, thickness node k, with nk free k from
    1 up; none for a channel alone), then the channel's phi, vel and s.
    `forward` (n_az, n_az) transforms the solid rows along the azimuth: its
    row 0 sums, its other rows are the orthonormal cos rows of modes 1 to
    n_az // 2 (the Nyquist mode's is (-1)^j / sqrt(n_az)), then the sin
    rows of modes 1 to (n_az - 1) // 2; `mode` is each row's Fourier mode.
    Its transpose takes mode values back to the azimuth, so row 0's values
    are azimuthal means, and forward J forward^T is block diagonal.
    `az_major` gathers the packed solid as (n_az, (i, k)) for the GEMM.

    The transformed vector is the (n_az, (i, k)) mode values, row-major,
    then the channel.  The band holds it in the order `order` (`rank` the
    inverse): first mode 0 in slabs of `slab` = nk + 3, node i's channel
    (vel, s, phi) and then its nk mode-0 values, the wall-adjacent layer
    first; then each other row of `forward` in turn, in slabs of nk.  Every
    entry lies within kl = ku = slab + 2 of the diagonal, the reach of phi
    of node i + 1 to vel of node i and back, of the wall-adjacent row of
    node i + 1 to s of node i through the wall and of s of node i to the
    wall-adjacent row of node i + 1: the half-widths of an n_az = 1 mesh,
    which a channel alone or a thickness without free nodes may not fill.

    For the solid, `az_sum` sums the cell blocks over the azimuth as a
    GEMM from the right, `to_stencil` scatters each summed entry into the
    9-point stencil (pair 2 l2 + l2', di + 1, dk + 1, i, k) of its local
    azimuthal pair on the (axial, thickness) `nodes`, and `weights`
    (distinct modes, pair) contract the pairs into each distinct mode's
    stencil with -dt/2 folded in: mode 0 the sum over the azimuth, the
    others the mean times the cosine; `mass_weights` scale the lumped mass
    likewise.  `chan_src` and `chan_pos` take the channel tangent's entries
    within grad_pairing's reach to their flat positions in the (n, ldab)
    transposed band, `chan_diag` its diagonal.
    """

    def __init__(self, heat: HeatSystem, free: np.ndarray | None, nf: int,
                 dt: float):
        n_az = 1 if free is None else heat.domain.azimuthal.n_nodes
        nfree = 0 if free is None else len(free)
        self.n_az = n_az
        self.nk = nk = nfree // (nf * n_az)
        self.slab = slab = nk + 3
        self.kl = self.ku = kl = slab + 2
        self.ldab = 3 * kl + 1

        half = n_az // 2
        self.mode = mode = np.concatenate([np.arange(half + 1),
                                           np.arange(1, (n_az + 1) // 2)])
        angle = (2 * np.pi / n_az) * np.outer(mode, np.arange(n_az))
        forward = np.cos(angle)
        forward[half + 1:] = np.sin(angle[half + 1:])
        forward[1:] *= np.sqrt(np.where(2 * mode[1:] == n_az, 1.0, 2.0)
                               / n_az)[:, None]
        self.forward = forward
        self.az_major = np.arange(nfree).reshape(nf, n_az, nk) \
            .transpose(1, 0, 2).reshape(n_az, -1)

        channel = nfree + _CHANNEL_SLOTS.argsort() * nf \
            + np.arange(nf)[:, None]
        head = np.hstack([channel, np.arange(nf * nk).reshape(nf, nk)])
        self.order = np.concatenate([head.ravel(),
                                     np.arange(nf * nk, nfree)])
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(self.order))

        if free is not None:
            dom = heat.domain
            nac, ntc = dom.axial.n_cells, dom.thickness.n_cells
            self.nodes = (nf, ntc + 1)
            self.az_sum = np.tile(np.eye(ntc), (n_az, 1))
            l1, l2, l3, m1, m2, m3, ca, ct = np.indices((2,) * 6 + (nac, ntc))
            self.to_stencil = np.ravel_multi_index(
                (2 * l2 + m2, m1 - l1 + 1, m3 - l3 + 1, ca + l1, ct + l3),
                (4, 3, 3) + self.nodes).ravel()
            distinct = np.arange(half + 1)
            cos = np.cos((2 * np.pi / n_az) * distinct)
            self.mass_weights = np.where(distinct == 0, n_az, 1.0)
            self.weights = np.stack([np.ones(half + 1), cos, cos,
                                     np.ones(half + 1)], axis=1)
            self.weights[1:] *= 1.0 / n_az  # the other modes' mean blocks
            self.weights *= -0.5 * dt

        # the channel block: grad_pairing reaches the neighbouring nodes in
        # the (phi, vel), (vel, phi) and (vel, s) blocks, the rest is diagonal
        field, node = np.divmod(np.arange(3 * nf), nf)
        reach = np.array([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
        near = np.abs(node[:, None] - node) <= reach[field[:, None], field]
        rows, cols = np.nonzero(near)
        at = node * slab + _CHANNEL_SLOTS[field]

        def flat(r, c):
            return c * self.ldab + 2 * kl + r - c

        self.chan_src = rows * (3 * nf) + cols
        self.chan_pos = flat(at[rows], at[cols])
        self.chan_diag = flat(at, at)


def _add_stencil(band, stencil, first, kk):
    """Add 9-point stencils on the (axial, thickness) nodes into the
    transposed band `band` (..., node i, slab position, band row), whose
    slabs hold the free thickness nodes k = 1, 2, ... from position
    `first`: stencil[..., di + 1, dk + 1, i, k], the entry of row (i, k)
    and column (i + di, k + dk), for every free k and k + dk, goes to
    column (i + di, first + k + dk - 1), band row kk - di slab - dk."""
    n, slab = band.shape[-3:-1]
    nk = slab - first
    for di, dk in product((-1, 0, 1), repeat=2):
        i0, i1 = max(0, -di), n - max(0, di)
        k0, k1 = max(1, 1 - dk), min(nk, nk - dk) + 1
        band[..., i0 + di:i1 + di, first + k0 + dk - 1:first + k1 + dk - 1,
             kk - di * slab - dk] += stencil[..., di + 1, dk + 1, i0:i1, k0:k1]


class ChordSolver:
    """Builds and factors the midpoint Jacobian of one stepper in its
    azimuthal modes (`build`) and solves with the factor (`solve`) until
    the next build, `discard` or `reset`.

    The n unknowns are the stepper's packed vector (free solid entropy at
    the dofs `free`, None for a channel alone, then the channel's phi, vel
    and s); `mass_rows` are the residual's mass rows in that order and dt
    the step.  The factor of the stacked mode band (`ModeLayout`) is
    `triangles` (lower, upper) or `band_lu` (band, pivots), the other None.
    The counters add up since the last `reset`: `builds`,
    `row_interchanges` (pivot rows moved), `build_s` (building and
    factoring) and `solve_s`.
    """

    def __init__(self, heat: HeatSystem, fluid: FluidSystem,
                 free: np.ndarray | None, mass_rows: np.ndarray, dt: float):
        self.heat, self.fluid = heat, fluid
        self.free, self.mass_rows, self.dt = free, mass_rows, dt
        self.n = len(mass_rows)
        self.reset()

    def reset(self) -> None:
        """Drop the factor and zero the counters."""
        self.discard()
        self.builds = self.row_interchanges = 0
        self.build_s = self.solve_s = 0.0

    def discard(self) -> None:
        """Drop the factor: the next solve needs a build."""
        self.triangles = self.band_lu = None

    @property
    def factored(self) -> bool:
        return self.triangles is not None or self.band_lu is not None

    @cached_property
    def layout(self) -> ModeLayout:
        """The transform and the band's order, formed on first use: the
        first build."""
        return ModeLayout(self.heat, self.free, self.fluid.n_dofs, self.dt)

    def _stencils(self, s_mid: np.ndarray) -> np.ndarray:
        """Each distinct mode's solid block as a 9-point stencil (modes,
        di + 1, dk + 1, axial node i, thickness node k) at the pinned
        midpoint s_mid: mass - dt/2 times the loads' tangent blocks summed
        over the azimuth and contracted with the mode's weights, mode 0's
        scaled by n_az (the azimuthal sum of its rows), on every node,
        the wall's and the held external face's too."""
        lay = self.layout
        local = self.heat.loads_tangent(s_mid)
        summed = local.reshape(-1, len(lay.az_sum)) @ lay.az_sum
        pairs = np.bincount(lay.to_stencil, summed.reshape(-1),
                            minlength=36 * lay.nodes[0] * lay.nodes[1])
        stencils = (lay.weights @ pairs.reshape(4, -1)).reshape(
            -1, 3, 3, *lay.nodes)
        mass = self.heat.mass.reshape(lay.nodes[0], lay.n_az, -1)[:, 0]
        stencils[:, 1, 1] += lay.mass_weights[:, None, None] * mass
        return stencils

    def band(self, fluid_mid: FluidState, s_mid: np.ndarray | None,
             t_m: np.ndarray) -> np.ndarray:
        """The midpoint Jacobian in azimuthal modes as the layout's (ldab,
        n) Fortran-ordered band, at the channel midpoint `fluid_mid` and the
        residual's pinned solid midpoint entropy s_mid (None for a channel
        alone) and channel temperature output t_m there.

        The residual is M (x1 - x0) - dt F(x_mid), so J = M - (dt/2)
        dF/dx_mid.  On the channel rows dF/dx_mid is
        `FluidSystem.loads_tangent`, whose sealed-end rows are zero, as the
        rows mass vel1 need.  The wall rows dt wall = mass (s1 - s0) - dt
        loads, with the end value s1 = 2 s_mid - s0 that the pin implies,
        have the form of the free rows and, summed along the azimuth, enter
        the channel's entropy rows: mode 0's wall row of node i is the
        entropy row of node i.  A coupling dof at node j is pinned to
        entropy_of_temperature(t_m[j]), so mode 0's wall column of node j
        enters the phi and s columns of node j times ds1/dx1 = (rho c /
        t_m) dT/dx_mid.
        """
        lay = self.layout
        nf, kk = self.fluid.n_dofs, lay.kl + lay.ku
        fluid_tan, t_grad = self.fluid.loads_tangent(fluid_mid)
        bt = np.zeros((self.n, lay.ldab))  # entry (r, c) at [c, kk + r - c]
        flat = bt.reshape(-1)
        flat[lay.chan_pos] = (-0.5 * self.dt) * fluid_tan.reshape(-1)[
            lay.chan_src]
        flat[lay.chan_diag] += self.mass_rows[-3 * nf:]
        if s_mid is not None:
            stencils = self._stencils(s_mid)
            slab, ldab = lay.slab, lay.ldab
            head = bt[:nf * slab].reshape(nf, slab, ldab)
            _add_stencil(head, stencils[0], 3, kk)
            _add_stencil(bt[nf * slab:].reshape(lay.n_az - 1, nf, lay.nk,
                                                ldab),
                         stencils[lay.mode[1:]], 0, kk)
            dsw = self.heat.material.rho_c / t_m * t_grad
            wall = stencils[0, :, :, :, 0]  # the wall rows (di, dk, i)
            # mode 0's wall row of node i is its entropy row, and the
            # wall-adjacent free row follows the channel; the wall columns
            # of node j go to its phi and s, times dsw
            phi_at, s_at = _CHANNEL_SLOTS[[0, 2]]
            rows = [(s_at, wall[:, 1])]
            if lay.nk:
                rows.append((3, stencils[0, :, 0, :, 1]))
            cols = ((phi_at, dsw[0]), (s_at, dsw[1]))
            for di in (-1, 0, 1):
                i0, i1 = max(0, -di), nf - max(0, di)
                j = slice(i0 + di, i1 + di)
                for (a, values), (b, ds) in product(rows, cols):
                    head[j, b, kk + a - b - di * slab] += \
                        values[di + 1, i0:i1] * ds[j]
                if lay.nk:  # the wall rows' wall-adjacent columns
                    head[j, 3, kk + s_at - 3 - di * slab] += \
                        wall[di + 1, 2, i0:i1]
        return bt.T

    def build(self, fluid_mid: FluidState, s_mid: np.ndarray | None,
              t_m: np.ndarray) -> None:
        """Build the band at this midpoint (as `band` takes it) and factor
        it in place for the solves.  A factor that interchanged no rows is
        kept as contiguous copies of its triangles: the multipliers of L in
        band rows kl + ku on (the unit diagonal first) and U's ku
        superdiagonals and diagonal in rows kl to kl + ku; one with
        interchanges as the band and its pivots.  An exact zero pivot
        raises SingularJacobianError naming its mode and unknown and leaves
        no factor."""
        t0 = _time.perf_counter()
        lay = self.layout
        kl, ku = lay.kl, lay.ku
        lu, piv, info = dgbtrf(self.band(fluid_mid, s_mid, t_m), kl, ku,
                               overwrite_ab=1)
        moved = int(np.count_nonzero(piv != np.arange(len(piv))))
        self.band_lu = (lu, piv) if moved else None
        self.triangles = None if moved else (
            np.asfortranarray(lu[kl + ku:]),
            np.asfortranarray(lu[kl:kl + ku + 1]))
        self.builds += 1
        self.row_interchanges += moved
        self.build_s += _time.perf_counter() - t0
        if info > 0:
            self.discard()
            raise SingularJacobianError(*self._unknown(info - 1))

    def _unknown(self, p: int) -> tuple[int, str, int]:
        """The packed unknown, its field and node, and the azimuthal mode of
        band position p; a solid mode's unknown is its azimuthal line's at
        azimuthal node 0."""
        lay = self.layout
        q, nfree = int(lay.order[p]), self.n - 3 * self.fluid.n_dofs
        if q >= nfree:
            field, node = divmod(q - nfree, self.fluid.n_dofs)
            return q, f"{('phi', 'vel', 's')[field]}[{node}]", 0
        row, line = divmod(q, nfree // lay.n_az)
        unknown = int(lay.az_major[0, line])
        return (unknown, f"solid entropy[{self.free[unknown]}]",
                int(lay.mode[row]))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The Newton correction J^-1 r from the factor: the azimuthal
        transform of the solid rows (one GEMM), the band solve (the two
        triangle solves of a factor without row interchanges, dgbtrs for
        one with them) and the inverse transform (one GEMM)."""
        t0 = _time.perf_counter()
        lay = self.layout
        nfree = self.n - 3 * self.fluid.n_dofs
        y = np.empty(self.n)
        np.matmul(lay.forward, r.take(lay.az_major),
                  out=y[:nfree].reshape(lay.n_az, -1))
        y[nfree:] = r[nfree:]
        y = y.take(lay.order)
        if self.triangles is None:
            lu, piv = self.band_lu
            y, _ = dgbtrs(lu, lay.kl, lay.ku, y, piv, overwrite_b=1)
        else:
            lower, upper = self.triangles
            y = dtbsv(lay.kl, lower, y, lower=1, diag=1, overwrite_x=1)
            y = dtbsv(lay.ku, upper, y, overwrite_x=1)
        y = y.take(lay.rank)
        dx = np.empty(self.n)
        dx[lay.az_major] = lay.forward.T @ y[:nfree].reshape(lay.n_az, -1)
        dx[nfree:] = y[nfree:]
        self.solve_s += _time.perf_counter() - t0
        return dx
