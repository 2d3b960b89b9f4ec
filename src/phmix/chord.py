"""The chord solver of the midpoint Newton iteration: the midpoint
Jacobian in LAPACK's band storage, its band LU (dgbtrf, partial pivoting)
and the solves with it.

Newton reuses a factor (chord iterations) until convergence degrades, then
rebuilds.  The coupling graph is a thin tensor-product box plus a 1D
channel, so in the axial-slab order of `JacobianLayout` the Jacobian is a
band of half-width at most n_az (n_th + 1) + 5, into which a build sums its
entries and which dgbtrf factors in place.  Every column is exact: the
mass minus dt/2 times the tangents of the subsystems' loads, which
`HeatSystem.loads_tangent` (an 8x8 block per cell) and
`FluidSystem.loads_tangent` give in closed form, with the columns of the
pinned coupling dofs carried to the channel (phi, s) that pin them.  An
exact zero pivot raises SingularJacobianError, which fails the Newton
attempt like an invalid state does.

When the factorization interchanged no rows (the pivots are the identity,
as on every factor of the default cooldown and of the meshes up to
32x16x4), U has only ku superdiagonals, and the build keeps contiguous
copies of the two triangles in place of the band, which a chord solve
passes to two BLAS band-triangle solves (dtbsv).  A factor with row
interchanges keeps the band and its pivots for dgbtrs, which applies them.
"""

from __future__ import annotations

import time as _time
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import SingularJacobianError
from .fem import CouplingOperators
from .fluid import FluidState, FluidSystem
from .heat import HeatSystem


class JacobianLayout:
    """Band positions of the midpoint Jacobian's entries, fixed by the mesh.

    The band holds P J P^T, J in the packed unknowns (the solid entropy at
    the dofs `free`, None for a channel alone, then the channel's phi, vel
    and s) and P the axial-slab order: `order[i]` is the packed unknown at
    band row and column i, `rank` its inverse.  Slab i holds the free solid
    dofs at axial node i, thickness layers from the external face down to
    the wall-adjacent one, each layer's azimuth in the reflected order 0,
    n-1, 1, n-2, ... (periodic neighbours at most two apart), then the
    channel's (phi, vel, s) at node i.  Every axial node holds the same
    free dofs, so every slab has the same size m.  The entries span the
    half-widths kl and ku.

    Entry (i, j) of the permuted matrix has LAPACK's band position
    (kl + ku + i - j, j), so an (ldab, n) Fortran-ordered array with
    ldab = 2 kl + ku + 1 (the kl extra rows take the fill of row pivoting)
    is, flat, the vector whose position j ldab + kl + ku + i - j holds the
    entry.  A build sums into `bins` flat positions: the band, then the
    wall slots, then a dump bin.  Channel node j has 3 (n_az + 1) wall
    slots, one per row that the coupling dofs of node j may reach: for each
    row node j - 1, j and j + 1 in turn, the free rows next to the wall by
    azimuth, then the node's entropy row.

    Entry e of `HeatSystem.loads_tangent`'s raveled blocks adds into flat
    position pos[e]: its band position for a free column, the wall slot of
    its row and node for a coupling dof's column, the dump bin for a held
    row or external column.  The cells are axial-major and the pattern
    repeats along the axis, so the positions are worked out on the cells of
    axial layer 0 alone and tiled: layer i's band positions are layer 0's
    plus i m ldab, and its wall slots layer 0's plus 3 i (n_az + 1).  `chan`
    (3 n_f, 3 n_f) are the flat positions of `FluidSystem.loads_tangent`'s
    entries, the dump bin outside each block's reach (the tangent is zero
    there); `diag` those of the diagonal in the packed order.  Wall slot k
    enters the phi and s columns of its node `wall_node[k]` at the band
    positions `wall_cols[:, k]`, the dump bin for a slot whose row is held
    or past an axial end (no entry reaches it), and `wall_rate[j]` is the
    slot of node j's own entropy row.
    """

    def __init__(self, heat: HeatSystem, ops: CouplingOperators,
                 free: np.ndarray | None, nf: int):
        coupled = free is not None
        nfree = len(free) if coupled else 0
        nx = nfree + 3 * nf
        col_of = np.full(heat.n_dofs, -1)  # packed column, -1 if held
        # the channel's (phi, vel, s) of every node, one row per node
        slabs = nfree + nf * np.arange(3) + np.arange(nf)[:, None]
        if coupled:
            col_of[free] = np.arange(nfree)
            dom = heat.domain
            n_az, n_th = dom.azimuthal.n_nodes, dom.thickness.n_nodes
            reflected = np.empty(n_az, dtype=np.intp)
            reflected[0::2] = np.arange((n_az + 1) // 2)
            reflected[1::2] = n_az - 1 - np.arange(n_az // 2)
            nodes = dom.node_index(np.arange(nf)[:, None, None], reflected,
                                   np.arange(n_th)[::-1, None])
            slabs = np.hstack([col_of[nodes].reshape(nf, -1), slabs])
        self.order = order = slabs[slabs >= 0]
        self.rank = rank = np.empty(nx, dtype=np.intp)
        rank[order] = np.arange(nx)
        # the channel block: grad_pairing reaches the neighbouring nodes in
        # the (phi, vel), (vel, phi) and (vel, s) blocks, the rest is diagonal
        field, node = np.divmod(np.arange(3 * nf), nf)
        reach = np.array([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
        near = np.abs(node[:, None] - node) <= reach[field[:, None], field]
        chan_r, chan_c = rank[nfree:, None], rank[nfree:][None, :]
        offsets = [(chan_r - chan_c)[near]]
        wall_node = wall_rate = np.empty(0, dtype=np.intp)
        if coupled:
            # the row of each solid dof's load: its free row, or for a
            # coupling dof the entropy row of its channel node (embed_t)
            node_of = np.full(heat.n_dofs, -1)
            node_of[heat.coupling_dofs] = ops.embed(np.arange(nf))
            row_of = np.where(node_of < 0, col_of, nfree + 2 * nf + node_of)
            n_layers = dom.axial.n_cells
            layer = heat._gather[:, :dom.n_cells // n_layers]  # axial layer 0
            row = row_of[layer][:, None, :]  # (a, ., cell)
            col = col_of[layer][None, :, :]  # (., b, cell)
            wnode = node_of[layer][None, :, :]
            kept = (row >= 0) & (col >= 0)
            wall = (row >= 0) & (wnode >= 0)
            tan_c = rank[col]
            tan = rank[row] - tan_c  # the offsets, garbage where not kept
            offsets.append(tan[kept])
            # the wall slots of every node j: row node i = j - 1, j, j + 1,
            # then the free row at azimuth q next to the wall, or q = n_az
            # for node i's entropy row
            n_rows = n_az + 1
            j = np.arange(nf)[:, None, None]
            i = j + np.arange(-1, 2)[:, None]
            q = np.arange(n_rows)
            inside = (i >= 0) & (i < nf)
            i = i.clip(0, nf - 1)
            wall_row = np.where(
                q < n_az, col_of[dom.node_index(i, q.clip(max=n_az - 1), 1)],
                nfree + 2 * nf + i)
            live = (inside & (wall_row >= 0)).ravel()
            wall_node = np.arange(nf).repeat(3 * n_rows)
            wall_r = rank[wall_row.ravel()]
            wall_c = rank[nfree + np.array([[0], [2 * nf]]) + wall_node]
            offsets.append((wall_r - wall_c)[:, live].ravel())
            wall_rate = (3 * np.arange(nf) + 1) * n_rows + n_az
            # the slot of each layer-0 wall entry, from its row's dof
            i_r, rest = np.divmod(layer, n_az * n_th)
            az_r, k_r = np.divmod(rest, n_th)
            slot = (2 * wnode + i_r[:, None, :] + 1) * n_rows \
                + np.where(k_r == 0, n_az, az_r)[:, None, :]
        offsets = np.concatenate(offsets)
        self.kl, self.ku = kl, ku = int(offsets.max()), int(-offsets.min())
        self.ldab = ldab = 2 * kl + ku + 1
        size = nx * ldab
        dump = size + len(wall_node)
        self.bins = dump + 1

        def flat(r, c):
            return c * (ldab - 1) + r + (kl + ku)

        pos = np.empty(0, dtype=np.intp)
        self.wall_cols = np.empty((2, 0), dtype=np.intp)
        if coupled:
            pos = tan  # flat(rank[row], tan_c), in place on the offsets
            pos += tan_c * ldab + (kl + ku)
            pos[~kept] = dump
            pos[wall] = size + slot[wall]
            # how far each entry moves per axial layer: one slab of the
            # band, one node's wall slots, or not at all into the dump bin
            shift = np.where(kept, len(order) // nf * ldab, 0)
            shift[wall] = 3 * n_rows
            tiled = shift[:, :, None, :] * np.arange(n_layers)[:, None]
            tiled += pos[:, :, None, :]
            pos = tiled.ravel()
            self.wall_cols = np.where(live, flat(wall_r, wall_c), dump)
        self.pos, self.chan = pos, np.where(near, flat(chan_r, chan_c), dump)
        self.diag, self.wall_node, self.wall_rate = \
            flat(rank, rank), wall_node, wall_rate


class ChordSolver:
    """Builds and factors the midpoint Jacobian of one stepper (`build`) and
    solves with the factor (`solve`) until the next build, `discard` or
    `reset`.

    The n unknowns are the stepper's packed vector, as `JacobianLayout`
    orders them; `mass_rows` are the residual's mass rows in that order and
    dt the step.  The factor is `triangles` (lower, upper) or `band_lu`
    (band, pivots), the other None.  The counters add up since the last
    `reset`: `builds`, `row_interchanges` (pivot rows moved), `build_s`
    (building and factoring) and `solve_s`.
    """

    def __init__(self, heat: HeatSystem, fluid: FluidSystem,
                 ops: CouplingOperators, free: np.ndarray | None,
                 mass_rows: np.ndarray, dt: float):
        self.heat, self.fluid, self.ops = heat, fluid, ops
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
    def layout(self) -> JacobianLayout:
        """The band positions, formed on first use: the first build."""
        return JacobianLayout(self.heat, self.ops, self.free,
                              self.fluid.n_dofs)

    def band(self, fluid_mid: FluidState, s_mid: np.ndarray | None,
             t_m: np.ndarray) -> np.ndarray:
        """The midpoint Jacobian as the layout's (ldab, n) Fortran-ordered
        band, at the channel midpoint `fluid_mid` and the residual's pinned
        solid midpoint entropy s_mid (None for a channel alone) and channel
        temperature output t_m there.

        The residual is M (x1 - x0) - dt F(x_mid), so J = M - (dt/2)
        dF/dx_mid.  On the channel rows dF/dx_mid is
        `FluidSystem.loads_tangent`, whose sealed-end rows are zero, as the
        rows mass vel1 need.  The wall rows dt wall = mass (s1 - s0) - dt
        loads, with the end value s1 = 2 s_mid - s0 that the pin implies,
        have the form of the free rows, and both take
        `HeatSystem.loads_tangent` at the pinned midpoint.  A coupling dof
        at node j is pinned to entropy_of_temperature(t_m[j]), so its
        column, summed along the azimuth into the wall slots together with
        its mass, enters the phi and s columns of node j times ds1/dx1 =
        (rho c / t_m) dT/dx_mid.
        """
        lay = self.layout
        size = self.n * lay.ldab
        fluid_tan, t_grad = self.fluid.loads_tangent(fluid_mid)
        if s_mid is not None:
            local = self.heat.loads_tangent(s_mid)
            full = np.bincount(lay.pos, weights=local.ravel(),
                               minlength=lay.bins)
        else:
            full = np.zeros(lay.bins)
        full[lay.chan] += fluid_tan  # the far entries, all zero, share a bin
        full *= -0.5 * self.dt
        full[lay.diag] += self.mass_rows
        if s_mid is not None:
            heat, wall = self.heat, full[size:size + len(lay.wall_node)]
            wall[lay.wall_rate] += self.ops.embed_t(
                heat.mass[heat.coupling_dofs])
            dsw = heat.material.rho_c / t_m * t_grad
            full[lay.wall_cols] += wall * dsw[:, lay.wall_node]
        return full[:size].reshape(self.n, lay.ldab).T

    def build(self, fluid_mid: FluidState, s_mid: np.ndarray | None,
              t_m: np.ndarray) -> None:
        """Build the band at this midpoint (as `band` takes it) and factor
        it in place for the solves.  A factor that interchanged no rows is
        kept as contiguous copies of its triangles: the multipliers of L in
        band rows kl + ku on (the unit diagonal first) and U's ku
        superdiagonals and diagonal in rows kl to kl + ku; one with
        interchanges as the band and its pivots.  An exact zero pivot
        raises SingularJacobianError naming its unknown and leaves no
        factor."""
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
            unknown = int(lay.order[info - 1])
            raise SingularJacobianError(unknown, self._unknown_name(unknown))

    def _unknown_name(self, k: int) -> str:
        """The field and node of packed unknown k."""
        nf = self.fluid.n_dofs
        nfree = self.n - 3 * nf
        if k < nfree:
            return f"solid entropy[{self.free[k]}]"
        field, node = divmod(k - nfree, nf)
        return f"{('phi', 'vel', 's')[field]}[{node}]"

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The Newton correction J^-1 r from the factor: the two triangle
        solves of a factor without row interchanges, dgbtrs for one with
        them."""
        t0 = _time.perf_counter()
        lay = self.layout
        y = r[lay.order]
        if self.triangles is None:
            lu, piv = self.band_lu
            y, _ = dgbtrs(lu, lay.kl, lay.ku, y, piv, overwrite_b=1)
        else:
            lower, upper = self.triangles
            y = dtbsv(lay.kl, lower, y, lower=1, diag=1, overwrite_x=1)
            y = dtbsv(lay.ku, upper, y, overwrite_x=1)
        dx = y[lay.rank]
        self.solve_s += _time.perf_counter() - t0
        return dx
