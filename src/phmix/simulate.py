"""Monolithic implicit-midpoint integration of the coupled solid/channel
system with energy and entropy bookkeeping.

Each step solves the nonlinear midpoint system over (solid entropy, channel
state) with the ports eliminated inside the residual, which is assembled from
the subsystems' own operators: `FluidSystem.loads` gives the channel rates
and the temperature output, `CouplingOperators.embed` puts that temperature
on the wall, `HeatSystem.port_loads` pins the wall trace to it and returns
the solid loads and the wall output in load form, and
`CouplingOperators.embed_t` (azimuthal row sums) turns the wall output into
the channel's entropy-row load.  On the tensor-product wall these are the
paper's embed/integrate pair m_psi^-1 d_psi and d_chi m_psi^-1 in nodal form,
so the residual needs no surface solve.  Power conjugacy of the eliminated
relations makes the per-step coupling powers cancel to round-off and the
total-entropy increment a sum of squares, independent of the step size.  The
ledger's port powers are taken in load form as well, so no step needs a
surface solve either: the wall output is m_psi v, its power against the
embedded channel temperature is the pairing of that temperature with the
azimuthal sums the residual formed, and the channel's coupling power takes
d_chi v as (d_chi m_psi^-1) times the wall output, with the dense matrix
formed once from the assembled block d_chi, so the ledger's power residual
also checks that block against the nodal pair.

Newton factorizes the midpoint Jacobian with LAPACK's band LU (dgbtrf,
partial pivoting) and reuses it (chord iterations) until convergence
degrades, then rebuilds.  The coupling graph is a thin tensor-product box
plus a 1D channel, so the unknowns, permuted once into an axial-slab order
(slab by slab along the axis; inside a slab the free thickness layers from
the external face down to the wall, the azimuth reflected as 0, n-1, 1,
n-2, ... so that periodic neighbours stay close; the channel's (phi, vel,
s) of a node right after its slab), give a band of half-width at most
n_az (n_th + 1) + 5.  The Jacobian is built straight into LAPACK's band
storage, which dgbtrf factors in place, and every column is exact: the
mass minus dt/2 times the tangents of the subsystems' loads, which
`HeatSystem.loads_tangent` (an 8x8 block per cell) and
`FluidSystem.loads_tangent` give in closed form, with the columns of the
pinned coupling dofs carried to the channel (phi, s) that pin them.  The
slab order and the band position of every entry are fixed by the mesh and
built on the first Jacobian build.  An exact zero pivot fails the Newton
attempt like an invalid state does.

A chord solve takes the factor where dgbtrf left it.  When the
factorization interchanged no rows (the pivots are the identity, as on
every factor of the default cooldown and of the meshes up to 32x16x4), U
has only ku superdiagonals and the solve is two BLAS band-triangle solves
(dtbsv): the unit-lower triangle of half-width kl, then the upper of
half-width ku, each read in place from the factored buffer as an (ldab, n)
view at a flat offset.  A factor with row interchanges is solved by dgbtrs,
which applies them.

Each step starts from a prediction read off a backward-difference table of
the accepted states, of the order the table's own terms support (up to
PREDICTOR_ORDER), whose row 0 is the old state packed, and takes its end
state and port powers from the port fields of Newton's last residual, so an
accepted step costs one residual per iteration plus one to start.  Its
ledger row takes each subsystem's Hamiltonian and total entropy in one
`totals` pass over the end state the step has validated.

Everything is deterministic: same inputs give a bit-identical ledger.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import ConfigurationError, MeshCompatibilityError, PhmixError, \
    SingularJacobianError, StateValidityError, StepFailureError
from .fem import CouplingOperators
from .fluid import FluidState, FluidSystem, check_specific_volume, eos
from .heat import HeatState, HeatSystem, entropy_of_temperature, \
    temperature_of_entropy

SCENARIOS = ("equilibrium", "hot-wall-cooldown", "heated-ext-face",
             "acoustic-pulse")


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    newton_tol: float = 1e-12
    newton_max_iters: int = 40
    output_every: int = 10

    def __post_init__(self):
        for name in ("dt", "t_end", "newton_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ConfigurationError(
                f"t_end ({self.t_end}) must be at least dt ({self.dt})")
        ratio = self.t_end / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            # run() takes round(t_end / dt) steps and would stop short of
            # t_end or step past it
            raise ConfigurationError(
                f"t_end = {self.t_end} must be a whole number of steps of "
                f"dt = {self.dt} (t_end / dt = {ratio!r})")
        if not self.newton_tol > 0:
            raise ConfigurationError("newton_tol must be positive")
        if self.newton_max_iters < 1:
            raise ConfigurationError("newton_max_iters must be >= 1")
        if self.output_every < 1:
            raise ConfigurationError("output_every must be >= 1")


@dataclass
class LedgerRecord:
    """One ledger row.  The fields, in order, are the ledger's columns: the
    CSV header, `csv_row` and `EnergyLedger.column` all read them."""

    time: float
    Q_heat: float
    H_fluid: float
    total: float
    P_couple_heat: float
    P_couple_fluid: float
    P_couple_residual: float
    P_ext: float
    S_solid: float
    S_fluid: float

    def csv_row(self) -> str:
        return ",".join(map(repr, _ledger_values(self)))


_LEDGER_COLUMNS = tuple(f.name for f in fields(LedgerRecord))
_ledger_values = attrgetter(*_LEDGER_COLUMNS)
LEDGER_HEADER = ",".join(_LEDGER_COLUMNS)


class EnergyLedger:
    """Per-step record of Hamiltonians, port powers and entropy totals."""

    def __init__(self):
        self.records: list[LedgerRecord] = []

    def append(self, rec: LedgerRecord):
        self.records.append(rec)

    def column(self, name: str) -> np.ndarray:
        if name not in _LEDGER_COLUMNS:
            raise KeyError(name)
        return np.array([getattr(r, name) for r in self.records])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(LEDGER_HEADER + "\n")
            for rec in self.records:
                fh.write(rec.csv_row() + "\n")

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SimResult:
    ledger: EnergyLedger
    heat_state: HeatState
    fluid_state: FluidState
    steps: int
    newton_iterations: int
    step_iterations: np.ndarray  # Newton iterations of each step, retry too
    step_residuals: np.ndarray   # each step's final scaled residual
    jacobian_builds: int
    row_interchanges: int    # pivot rows moved, over all factorizations
    jacobian_build_s: float  # building and factoring the Jacobians
    chord_solve_s: float     # the chord solves with the factors
    wall_time: float


@dataclass
class ScenarioSetup:
    name: str
    heat_state: HeatState
    fluid_state: FluidState
    coupled: bool = True
    ext_temperature: float | None = None


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def build_scenario(name: str, heat_sys: HeatSystem, fluid_sys: FluidSystem,
                   params: dict | None = None) -> ScenarioSetup:
    """Initial states and coupling flags for a named scenario.

    equilibrium:       everything at one temperature, at rest.
    hot-wall-cooldown: hot solid, cold coolant; the solid temperature blends
                       smoothly down to the coolant value at the wall so the
                       initial data satisfy the trace condition.
    heated-ext-face:   as equilibrium, with the external face held hot.
    acoustic-pulse:    uncoupled, frictionless checks use it; small entropy
                       (pressure) bump at the channel center.
    """
    p = dict(params or {})
    if name == "equilibrium":
        t0 = p.pop("t_common", 320.0)
        setup = ScenarioSetup(name, heat_sys.uniform_state(t0),
                              fluid_sys.uniform_state(t0))
    elif name == "hot-wall-cooldown":
        t_solid = p.pop("t_solid", 390.0)
        t_fluid = p.pop("t_fluid", 300.0)
        zeta = heat_sys.domain.node_coordinates()[:, 2]
        depth = heat_sys.domain.thickness.measure
        t_profile = t_fluid + (t_solid - t_fluid) * _smoothstep(zeta / depth)
        heat0 = HeatState(entropy_of_temperature(t_profile, heat_sys.material))
        setup = ScenarioSetup(name, heat0, fluid_sys.uniform_state(t_fluid))
    elif name == "heated-ext-face":
        t0 = p.pop("t_common", 300.0)
        t_ext = p.pop("t_ext", 380.0)
        heat0 = heat_sys.uniform_state(t0)
        heat0.s[heat_sys.external_dofs] = entropy_of_temperature(
            t_ext, heat_sys.material)
        setup = ScenarioSetup(name, heat0, fluid_sys.uniform_state(t0),
                              ext_temperature=t_ext)
    elif name == "acoustic-pulse":
        t0 = p.pop("t_base", 300.0)
        amp = p.pop("amplitude", 1e-3)
        width = p.pop("width", 0.05)
        center = p.pop("center", 0.5)
        fluid0 = fluid_sys.uniform_state(t0, phi=1.0)
        mesh = fluid_sys.mesh
        zc = mesh.start + center * mesh.measure
        sigma = width * mesh.measure
        bump = np.exp(-((mesh.nodes - zc) / sigma) ** 2)
        fluid0.s = fluid0.s + amp * fluid_sys.material.c_v * bump
        setup = ScenarioSetup(name, heat_sys.uniform_state(t0), fluid0,
                              coupled=False)
    else:
        raise ConfigurationError(
            f"unknown scenario {name!r}; valid: {', '.join(SCENARIOS)}")
    if p:
        raise ConfigurationError(
            f"unknown scenario parameters for {name!r}: {sorted(p)}")
    return setup


PREDICTOR_ORDER = 7  # highest backward difference the predictor may add


def extrapolate(table: np.ndarray,
                typ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prediction of the next state from a backward-difference table.

    Row k of `table` is del^k x_n, k = 0..m-1, and the partial sums
    P[k] = x_n + del x_n + ... + del^k x_n are the order-k predictions of
    x_{n+1}.  The prediction adds del x_n whenever the table has it, then
    del^k x_n, k >= 2, while its size max|del^k x_n| / typ is below that of
    del^(k-1) x_n: the series is cut before its first term that does not
    shrink, so a rough history falls back to a low order.  A constant
    history gives x_n exactly.

    Returns (prediction, P); `advance_table` takes P.  P is summed row by
    row, which is what np.cumsum(table, axis=0) does, without its overhead
    on a table of a few rows.
    """
    sums = np.empty_like(table)
    sums[0] = table[0]
    for k in range(1, len(table)):
        np.add(sums[k - 1], table[k], out=sums[k])
    order = min(len(table) - 1, 1)
    if len(table) > 2:
        sizes = (np.abs(table[1:]) / typ).max(axis=1)  # del^1 .. del^(m-1)
        while order < len(sizes) and sizes[order] < sizes[order - 1]:
            order += 1
    return sums[order], sums


def advance_table(table: np.ndarray, sums: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """The backward-difference table once x = x_{n+1} is accepted: x, then
    del^(k+1) x_{n+1} = x - P[k], the error the order-k prediction made,
    up to del^PREDICTOR_ORDER."""
    rows = min(len(table), PREDICTOR_ORDER) + 1
    new = np.empty((rows, len(x)))
    new[0] = x
    np.subtract(x, sums[:rows - 1], out=new[1:])
    return new


@dataclass(frozen=True)
class JacobianLayout:
    """Band positions of the midpoint Jacobian's entries, fixed by the mesh.

    The band holds P J P^T, J in the packed unknowns (free solid entropy,
    phi, vel, s) and P the axial-slab order: `order[i]` is the packed
    unknown at band row and column i, `rank` its inverse.  Entry (i, j) of
    the permuted matrix has LAPACK's band position (kl + ku + i - j, j), so
    an (ldab, n) Fortran-ordered array with ldab = 2 kl + ku + 1 (the kl
    extra rows take the fill of row pivoting) is, flat, the vector whose
    position j ldab + kl + ku + i - j holds the entry.  A build sums into
    `bins` flat positions: the band, then one wall slot per (row, channel
    node) that the coupling dofs of that node reach, then a dump bin, at
    least kl + ku positions in all past the band, so that the triangle
    views of `triangles` fit in the buffer.

    Entry e of `HeatSystem.loads_tangent`'s raveled blocks adds into flat
    position pos[e]: its band position for a free column, the wall slot of
    its row and node for a coupling dof's column, the dump bin for a held
    row or external column.  `chan` (3 n_f, 3 n_f) are the flat positions
    of `FluidSystem.loads_tangent`'s entries, the dump bin outside each
    block's reach (the tangent is zero there); `diag` those of the
    diagonal in the packed order.  Wall slot k enters the phi and s
    columns of its node `wall_node[k]` at the band positions
    `wall_cols[:, k]`, and `wall_rate[j]` is the slot of node j's own
    entropy row.
    """

    pos: np.ndarray
    chan: np.ndarray
    diag: np.ndarray
    wall_cols: np.ndarray
    wall_node: np.ndarray
    wall_rate: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    kl: int
    ku: int

    @property
    def ldab(self) -> int:
        return 2 * self.kl + self.ku + 1

    @property
    def bins(self) -> int:
        return len(self.order) * self.ldab + \
            max(len(self.wall_node) + 1, self.kl + self.ku)

    def triangles(self, lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The unit-lower and the upper triangle of a factor `lu` that
        interchanged no rows, as the (ldab, n) band arrays dtbsv reads with
        half-widths kl and ku.

        Without interchanges U has only ku superdiagonals, in band rows kl
        to kl + ku, and the multipliers of L sit in rows kl + ku + 1 on.
        Both are F-ordered views of the flat buffer under `lu`, a build's
        `bins`, at flat offsets kl + ku and kl: row d of the lower view is
        band row kl + ku + d, row d of the upper one band row kl + d.
        dtbsv reads only the band entries of either; the lower view runs
        kl + ku positions past the band, into the buffer's slack.
        """
        buf = lu.base  # the flat buffer `_jacobian` built
        if buf is None or buf.ctypes.data != lu.ctypes.data:
            raise ValueError("the factor is not the band of a build's buffer")
        return tuple(np.ndarray((self.ldab, lu.shape[1]), order="F",
                                buffer=buf, offset=buf.itemsize * skip)
                     for skip in (self.kl + self.ku, self.kl))


class CoupledSimulation:
    """Implicit-midpoint stepper for the coupled (or channel-only) system."""

    def __init__(self, heat_sys: HeatSystem, fluid_sys: FluidSystem,
                 ops: CouplingOperators, cfg: SimConfig, *,
                 coupled: bool = True, ext_temperature: float | None = None):
        self.heat = heat_sys
        self.fluid = fluid_sys
        self.ops = ops
        self.cfg = cfg
        self.coupled = coupled
        self.ext_temperature = ext_temperature

        if coupled:
            if not np.array_equal(fluid_sys.mesh.nodes,
                                  heat_sys.domain.axial.nodes):
                raise MeshCompatibilityError(
                    f"channel mesh {fluid_sys.mesh} does not match the solid "
                    f"axial mesh {heat_sys.domain.axial}")
            if not np.array_equal(ops.line.mesh.nodes, fluid_sys.mesh.nodes):
                raise MeshCompatibilityError(
                    f"coupling operators' line mesh {ops.line.mesh} does not "
                    f"match the channel mesh {fluid_sys.mesh}")

        n_solid = heat_sys.n_dofs
        pinned = []
        if coupled:
            pinned.append(heat_sys.coupling_dofs)
            if ext_temperature is not None:
                pinned.append(heat_sys.external_dofs)
        self._pinned = np.concatenate(pinned) if pinned else np.array([], int)
        mask = np.ones(n_solid, dtype=bool)
        mask[self._pinned] = False
        self._free = np.nonzero(mask)[0]
        self._nf = fluid_sys.n_dofs
        self._nfree = len(self._free) if coupled else 0
        self._nx = self._nfree + 3 * self._nf

        self._layout = None  # JacobianLayout, built on the first build
        self._lu = None  # the factored band, its pivots and triangles
        self.newton_iterations = 0
        self.jacobian_builds = self.row_interchanges = 0
        self.jacobian_build_s = self.chord_solve_s = 0.0

    # ---- state packing -------------------------------------------------

    def _pack(self, heat_s: np.ndarray, fl: FluidState) -> np.ndarray:
        parts = []
        if self.coupled:
            parts.append(heat_s[self._free])
        parts.extend([fl.phi, fl.vel, fl.s])
        return np.concatenate(parts)

    def _unpack_fluid(self, x: np.ndarray):
        nf, off = self._nf, self._nfree
        return (x[off:off + nf], x[off + nf:off + 2 * nf],
                x[off + 2 * nf:off + 3 * nf])

    # ---- midpoint residual ----------------------------------------------

    def _residual(self, x: np.ndarray) -> np.ndarray:
        """Residual M (x1 - x0) - dt F(x_mid) of the midpoint system at the
        trial end-of-step state x.

        Ports are eliminated in nodal form: the channel's midpoint
        temperature output, embedded along the azimuth, is the wall input
        that pins the trace of the solid's midpoint state; the solid's wall
        output, summed along the azimuth, is minus the channel's entropy-row
        load.  The sealed-end velocity rows are the constraints vel1 = 0.

        Works on the packed vectors: the midpoint and M (x1 - x0) are
        formed once from the old state and the mass rows that `step` and
        `_prepare` keep packed, and dt times the solid, channel and wall
        loads is subtracted from the rows in place.

        Leaves the port fields of this evaluation in `self._ports`: the
        channel temperature output t_m, the solid midpoint entropy with its
        pinned rows, the load-form wall and external outputs, and the wall
        output's azimuthal sums embed_t(wall) (None for a face without a
        port).  `step` builds the end-of-step state and the powers from
        those of the residual at the converged x, and a Jacobian build takes
        the solid tangent at that midpoint entropy and the wall entropy's
        derivative at that temperature.
        """
        dt, nfree, nf = self.cfg.dt, self._nfree, self._nf
        x0 = self._x_old
        mid = x0 + x
        mid *= 0.5
        r = x - x0
        r *= self._mass_rows  # M (x1 - x0), every row
        f, t_m = self.fluid.loads(FluidState(*mid[nfree:].reshape(3, nf)))

        if self.coupled:
            heat = self.heat
            s_mid = np.empty(heat.n_dofs)
            s_mid[self._free] = mid[:nfree]
            loads, wall, ext = heat.port_loads(
                s_mid, self.ops.embed(t_m), self.ext_temperature,
                s_old=self._s_old, dt=dt)
            r[:nfree] -= dt * loads[self._free]
            wall_sums = self.ops.embed_t(wall)
            f.s -= wall_sums  # the wall's entropy-row load
        else:
            s_mid = wall = ext = wall_sums = None
        self._ports = (t_m, s_mid, wall, ext, wall_sums)

        r_phi, r_vel, r_s = r[nfree:].reshape(3, nf)
        r_phi -= dt * f.phi
        r_vel -= dt * f.vel
        mf, vel1 = self.fluid.mass, x[nfree + nf:nfree + 2 * nf]
        r_vel[0] = mf[0] * vel1[0]
        r_vel[-1] = mf[-1] * vel1[-1]
        r_s -= dt * f.s
        return r

    # ---- Newton ----------------------------------------------------------

    def _slab_order(self, col_of: np.ndarray) -> np.ndarray:
        """The packed unknowns in axial-slab order.  Slab i holds the free
        solid dofs at axial node i, thickness layers from the external face
        down to the wall-adjacent one, each layer's azimuth in the reflected
        order 0, n-1, 1, n-2, ... (periodic neighbours at most two apart),
        then the channel's (phi, vel, s) at node i.  `col_of` is the packed
        column of each solid dof, -1 for a held one."""
        nf, nfree = self._nf, self._nfree
        # the channel's (phi, vel, s) of every node, one row per node
        chan = nfree + nf * np.arange(3) + np.arange(nf)[:, None]
        if not self.coupled:
            return chan.ravel()
        dom = self.heat.domain
        n_az, n_th = dom.azimuthal.n_nodes, dom.thickness.n_nodes
        reflected = np.empty(n_az, dtype=np.intp)
        reflected[0::2] = np.arange((n_az + 1) // 2)
        reflected[1::2] = n_az - 1 - np.arange(n_az // 2)
        nodes = dom.node_index(np.arange(nf)[:, None, None], reflected,
                               np.arange(n_th)[::-1, None])
        slabs = np.hstack([col_of[nodes].reshape(nf, -1), chan])
        return slabs[slabs >= 0]

    def _jacobian_layout(self) -> JacobianLayout:
        """The index arrays of every Jacobian build: the slab order, the
        flat positions of the layout's entries, and the half-widths kl and
        ku they span."""
        nf, nfree, nx = self._nf, self._nfree, self._nx
        heat = self.heat
        col_of = np.full(heat.n_dofs, -1)  # packed column, -1 if held
        if self.coupled:
            col_of[self._free] = np.arange(nfree)
        order = self._slab_order(col_of)
        rank = np.empty(nx, dtype=np.intp)
        rank[order] = np.arange(nx)
        # the channel block: grad_pairing reaches the neighbouring nodes in
        # the (phi, vel), (vel, phi) and (vel, s) blocks, the rest is diagonal
        field, node = np.divmod(np.arange(3 * nf), nf)
        reach = np.array([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
        near = np.abs(node[:, None] - node) <= reach[field[:, None], field]
        chan_r, chan_c = rank[nfree:, None], rank[nfree:][None, :]
        offsets = [(chan_r - chan_c)[near]]
        keys = pos = wall_rate = np.empty(0, dtype=np.intp)
        if self.coupled:
            # the row of each solid dof's load: its free row, or for a
            # coupling dof the entropy row of its channel node (embed_t)
            node_of = np.full(heat.n_dofs, -1)
            node_of[heat.coupling_dofs] = self.ops.embed(np.arange(nf))
            row_of = np.where(node_of < 0, col_of, nfree + 2 * nf + node_of)
            row = row_of[heat._gather][:, None, :]  # (a, ., cell)
            col = col_of[heat._gather][None, :, :]  # (., b, cell)
            wnode = node_of[heat._gather][None, :, :]
            kept = (row >= 0) & (col >= 0)
            wall = (row >= 0) & (wnode >= 0)
            tan_c = rank[col]
            tan = rank[row] - tan_c  # the offsets, garbage where not kept
            offsets.append(tan[kept])
            # one slot per (row, node) that a coupling column reaches
            a, b, cell = np.nonzero(wall)
            keys, slot = np.unique(row[a, 0, cell] * nf + wnode[0, b, cell],
                                   return_inverse=True)
            wall_r = rank[keys // nf]
            wall_c = rank[nfree + np.array([[0], [2 * nf]]) + keys % nf]
            offsets.append((wall_r - wall_c).ravel())
            own = np.arange(nf)  # the slot of each node's own entropy row
            wall_rate = np.searchsorted(keys,
                                        (nfree + 2 * nf + own) * nf + own)
        offsets = np.concatenate(offsets)
        kl, ku = int(offsets.max()), int(-offsets.min())
        ldab = 2 * kl + ku + 1
        size = nx * ldab
        dump = size + len(keys)

        def flat(r, c):
            return c * (ldab - 1) + r + (kl + ku)

        wall_cols = np.empty((2, 0), dtype=np.intp)
        if self.coupled:
            pos = tan  # flat(rank[row], tan_c), in place on the offsets
            pos += tan_c * ldab + (kl + ku)
            pos[~kept] = dump
            pos[wall] = size + slot
            pos = pos.ravel()
            wall_cols = flat(wall_r, wall_c)
        return JacobianLayout(
            pos=pos, chan=np.where(near, flat(chan_r, chan_c), dump),
            diag=flat(rank, rank), wall_cols=wall_cols, wall_node=keys % nf,
            wall_rate=wall_rate, order=order, rank=rank, kl=kl, ku=ku)

    def _jacobian(self, x: np.ndarray) -> np.ndarray:
        """The midpoint Jacobian at x, where `_residual` last ran (its port
        fields are those at x), in slab order as the (ldab, nx)
        Fortran-ordered band of the layout.

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
        if self._layout is None:
            self._layout = self._jacobian_layout()
        lay, nfree, nf = self._layout, self._nfree, self._nf
        size = len(x) * lay.ldab
        mid = 0.5 * (self._x_old[nfree:] + x[nfree:])  # the channel's
        fluid_tan, t_grad = self.fluid.loads_tangent(
            FluidState(*mid.reshape(3, nf)))
        if self.coupled:
            local = self.heat.loads_tangent(self._ports[1])
            full = np.bincount(lay.pos, weights=local.ravel(),
                               minlength=lay.bins)
        else:
            full = np.zeros(lay.bins)
        full[lay.chan] += fluid_tan  # the far entries, all zero, share a bin
        full *= -0.5 * self.cfg.dt
        full[lay.diag] += self._mass_rows
        if self.coupled:
            heat, wall = self.heat, full[size:size + len(lay.wall_node)]
            wall[lay.wall_rate] += self.ops.embed_t(
                heat.mass[heat.coupling_dofs])
            dsw = heat.material.rho_c / self._ports[0] * t_grad
            full[lay.wall_cols] += wall * dsw[:, lay.wall_node]
        return full[:size].reshape(len(x), lay.ldab).T

    def _build_jacobian(self, x: np.ndarray):
        """Build the Jacobian at x, where `_residual` last ran, and
        factorize it in place for the chord solves, with the factor's
        triangles if it interchanged no rows.  An exact zero pivot raises
        SingularJacobianError naming its unknown."""
        t0 = _time.perf_counter()
        band = self._jacobian(x)
        lay = self._layout
        lu, piv, info = dgbtrf(band, lay.kl, lay.ku, overwrite_ab=1)
        moved = int(np.count_nonzero(piv != np.arange(len(piv))))
        self.jacobian_builds += 1
        self.row_interchanges += moved
        self.jacobian_build_s += _time.perf_counter() - t0
        if info > 0:
            unknown = int(lay.order[info - 1])
            raise SingularJacobianError(unknown, self._unknown_name(unknown))
        self._lu = lu, piv, None if moved else lay.triangles(lu)

    def _unknown_name(self, k: int) -> str:
        """The field and node of packed unknown k."""
        if k < self._nfree:
            return f"solid entropy[{self._free[k]}]"
        field, node = divmod(k - self._nfree, self._nf)
        return f"{('phi', 'vel', 's')[field]}[{node}]"

    def _chord_solve(self, r: np.ndarray) -> np.ndarray:
        """The Newton correction J^-1 r from the factored band: the two
        triangle solves of a factor without row interchanges, dgbtrs for
        one with them."""
        t0 = _time.perf_counter()
        lay = self._layout
        lu, piv, triangles = self._lu
        y = r[lay.order]
        if triangles is None:
            y, _ = dgbtrs(lu, lay.kl, lay.ku, y, piv, overwrite_b=1)
        else:
            lower, upper = triangles
            y = dtbsv(lay.kl, lower, y, lower=1, diag=1, overwrite_x=1)
            y = dtbsv(lay.ku, upper, y, overwrite_x=1)
        dx = y[lay.rank]
        self.chord_solve_s += _time.perf_counter() - t0
        return dx

    def _newton(self, x: np.ndarray):
        """Chord-Newton iterations from x until the scaled residual is at
        most newton_tol or newton_max_iters are spent; returns (x, norm,
        ports), with the port fields of the residual at the returned x.

        The factorization is rebuilt when there is none or when an
        iteration fails to halve the residual.  A StateValidityError from a
        trial iterate, or a SingularJacobianError from a build, propagates
        to the caller.
        """
        r = self._residual(x)
        norm = self._scaled_norm(r)
        stale = self._lu is None
        for _ in range(self.cfg.newton_max_iters):
            if norm <= self.cfg.newton_tol:
                break
            if stale:
                self._build_jacobian(x)
            x = x - self._chord_solve(r)
            self.newton_iterations += 1
            r = self._residual(x)
            new_norm = self._scaled_norm(r)
            stale = new_norm > 0.5 * norm  # chord Jacobian not contracting
            norm = new_norm
        return x, norm, self._ports

    def _scaled_norm(self, r: np.ndarray) -> float:
        return float((np.abs(r) / self._row_scale).max())

    def _prepare(self, heat_state: HeatState, fluid_state: FluidState):
        """Typical magnitudes for the residual row scaling and the
        predictor's term sizes, and the packed mass rows of the residual."""
        typ = []
        if self.coupled:
            typ.append(np.full(self._nfree,
                               max(1.0, float(np.max(np.abs(heat_state.s))))))
        for arr in (fluid_state.phi, fluid_state.vel, fluid_state.s):
            typ.append(np.full(self._nf, max(1.0, float(np.max(np.abs(arr))))))
        self._typ = np.concatenate(typ)
        mass_rows = []
        if self.coupled:
            mass_rows.append(self.heat.mass[self._free])
        mass_rows.extend([self.fluid.mass] * 3)
        self._mass_rows = np.concatenate(mass_rows)
        self._row_scale = self._mass_rows * self._typ

    def step(self, heat_state: HeatState, fluid_state: FluidState,
             x_pred: np.ndarray | None = None,
             x_old: np.ndarray | None = None):
        """One implicit-midpoint step.

        x_old is the old state packed, as `_pack` gives it; `run` passes
        its predictor table's row 0, which is that vector, and without it
        the step packs the old state itself.  Newton starts from x_pred
        (default: the old state).  If it does not converge, a trial iterate
        or the converged end state is not a valid state, or a Jacobian has
        an exact zero pivot, it is retried once from the old state with a
        fresh factorization; a second failure raises StepFailureError,
        chained to the StateValidityError that names the field or the
        SingularJacobianError that names the unknown, if there is one.

        Returns (heat', fluid', powers, p_ext, norm, x): the converged
        midpoint coupling powers (p_heat, p_fluid) and external power
        entering the ledger, Newton's final scaled residual, and the packed
        end-of-step unknowns x.  All of them come from the port fields of
        Newton's last residual, the one at x, and the residual is not
        evaluated again.  The ports are in load form: the wall output is
        m_psi v for the nodal output field v, so no surface solve is
        needed.  p_heat = embed(t_m) . m_psi v is t_m . embed_t(wall), the
        sums the residual formed; p_ext = T_ext sum(ext) likewise; and
        p_fluid = -t_m . d_chi v takes d_chi v = (d_chi m_psi^-1) wall from
        `CouplingOperators.line_load`, built on the assembled block d_chi,
        so that the power residual compares that block with the nodal pair
        the residual applied.
        """
        self._s_old = heat_state.s
        if not hasattr(self, "_row_scale"):
            self._prepare(heat_state, fluid_state)
        if x_old is None:
            x_old = self._pack(heat_state.s, fluid_state)
        x0 = self._x_old = x_old

        start = self.newton_iterations
        for x_start in (x0 if x_pred is None else x_pred, x0):
            try:
                x, norm, ports = self._newton(x_start)
                failure = None
                if norm <= self.cfg.newton_tol:
                    # the residual saw the midpoint; the end state 2 mid - old
                    # may still leave the ideal-gas states
                    check_specific_volume(self._unpack_fluid(x)[0])
            except (StateValidityError, SingularJacobianError) as exc:
                # an invalid iterate or end state, or a zero pivot
                norm, failure = np.inf, exc
            if norm <= self.cfg.newton_tol:
                break
            self._lu = None  # retry once from x0 with a fresh factorization
        else:
            reason = "did not converge" if failure is None \
                else f"failed: {failure}"
            raise StepFailureError(
                f"implicit midpoint step {reason}", residual=norm,
                iterations=self.newton_iterations - start) from failure

        # the port fields of the residual at the converged x
        t_m, s_mid, wall, ext, wall_sums = ports
        fluid_new = FluidState(*self._unpack_fluid(x))
        p_heat = p_fluid = p_ext = 0.0
        if self.coupled:
            s1 = 2.0 * s_mid - self._s_old  # the pinned rows
            s1[self._free] = x[:self._nfree]
            heat_new = HeatState(s1)
            p_heat = float(t_m @ wall_sums)
            # from the assembled block, not from the row sums the residual
            # applied, so that the power residual compares the two
            p_fluid = -float(t_m @ self.ops.line_load(wall))
            if ext is not None:
                p_ext = self.ext_temperature * float(ext.sum())
        else:
            heat_new = HeatState(self._s_old)
        return heat_new, fluid_new, (p_heat, p_fluid), p_ext, norm, x

    def run(self, setup: ScenarioSetup, output_dir=None) -> SimResult:
        """Integrate to t_end, recording one ledger row per step (plus the
        initial row) and optionally writing snapshots and the ledger CSV.

        The run keeps the backward differences del^k x_n, k < m, of the
        accepted end-of-step vectors as an (m, nx) table, m <= PREDICTOR_ORDER
        + 1.  Step k starts Newton from `extrapolate` of it: the old state at
        step 1, linear at step 2, then each higher difference while its size,
        scaled by the typical magnitudes behind Newton's norm, keeps
        shrinking.  `advance_table` then takes in the accepted vector, at
        O(order) work per step.  A constant history gives the old state
        exactly.  Row 0 of the table is the old state packed, which each
        step takes as it is.  Snapshot coordinates are formatted once per
        call.

        A ledger row takes each subsystem's Hamiltonian and total entropy
        from one `totals` pass over its end state, which the step has
        validated.

        Counters and the chord factorization start afresh on every call, so
        the result reports this run only, with the Newton iterations and
        the final scaled residual of every step.  An error raised by a step
        carries the step index (`step`) and the ledger so far (`ledger`).
        """
        t_start = _time.perf_counter()
        cfg = self.cfg
        if setup.coupled != self.coupled or \
                setup.ext_temperature != self.ext_temperature:
            raise ConfigurationError(
                f"scenario {setup.name!r} expects coupled={setup.coupled}, "
                f"ext_temperature={setup.ext_temperature}; the simulation was "
                f"built with coupled={self.coupled}, "
                f"ext_temperature={self.ext_temperature}")
        n_steps = int(round(cfg.t_end / cfg.dt))
        heat_state = setup.heat_state.copy()
        fluid_state = setup.fluid_state.copy()
        self._prepare(heat_state, fluid_state)
        self._lu = None
        self.newton_iterations = 0
        self.jacobian_builds = self.row_interchanges = 0
        self.jacobian_build_s = self.chord_solve_s = 0.0

        ledger = EnergyLedger()
        check_specific_volume(fluid_state.phi)
        ledger.append(self._record(0.0, heat_state, fluid_state, (0.0, 0.0),
                                   0.0))
        if output_dir is not None:
            # the coordinate fields of every snapshot row, formatted once
            prefixes = (node_prefixes([self.heat.domain.node_coordinates()]),
                        node_prefixes([self.fluid.mesh.nodes]))
            self._snapshot(output_dir, setup.name, 0, heat_state, fluid_state,
                           prefixes)

        table = self._pack(heat_state.s, fluid_state)[None, :]
        iterations = np.zeros(n_steps, dtype=int)
        residuals = np.zeros(n_steps)
        for k in range(1, n_steps + 1):
            x_pred, sums = extrapolate(table, self._typ)
            before = self.newton_iterations
            try:
                heat_state, fluid_state, powers, p_ext, norm, x_new = \
                    self.step(heat_state, fluid_state, x_pred=x_pred,
                              x_old=table[0])
            except PhmixError as exc:
                exc.step = k  # partial record for diagnostics
                exc.ledger = ledger
                raise
            iterations[k - 1] = self.newton_iterations - before
            residuals[k - 1] = norm
            table = advance_table(table, sums, x_new)
            ledger.append(self._record(k * cfg.dt, heat_state, fluid_state,
                                       powers, p_ext))
            if output_dir is not None and \
                    (k % cfg.output_every == 0 or k == n_steps):
                self._snapshot(output_dir, setup.name, k, heat_state,
                               fluid_state, prefixes)
        if output_dir is not None:
            ledger.write(os.path.join(output_dir, f"{setup.name}_ledger.csv"))
        return SimResult(
            ledger, heat_state, fluid_state, n_steps, self.newton_iterations,
            step_iterations=iterations, step_residuals=residuals,
            jacobian_builds=self.jacobian_builds,
            row_interchanges=self.row_interchanges,
            jacobian_build_s=self.jacobian_build_s,
            chord_solve_s=self.chord_solve_s,
            wall_time=_time.perf_counter() - t_start)

    def _record(self, time, heat_state, fluid_state, powers,
                p_ext) -> LedgerRecord:
        """The ledger row of a valid state: one `totals` pass per
        subsystem."""
        q, s_solid = self.heat.totals(heat_state)
        h, s_fluid = self.fluid.totals(fluid_state)
        p_heat, p_fluid = powers
        return LedgerRecord(time, q, h, q + h, p_heat, p_fluid,
                            p_heat + p_fluid, p_ext, s_solid, s_fluid)

    def _snapshot(self, output_dir, scenario, step, heat_state, fluid_state,
                  prefixes):
        write_heat_snapshot(
            os.path.join(output_dir, f"{scenario}_heat_{step}.csv"),
            self.heat, heat_state, prefixes[0])
        write_fluid_snapshot(
            os.path.join(output_dir, f"{scenario}_fluid_{step}.csv"),
            self.fluid, fluid_state, prefixes[1])


def node_prefixes(columns) -> list[str]:
    """The constant leading fields `i,c0,c1,...,` of every row of a nodal
    CSV: the node index, then each column (coordinates) at full precision."""
    rows = np.column_stack(columns).tolist()
    fmt = "%d" + ",%r" * len(rows[0]) + ","
    return [fmt % (i, *row) for i, row in enumerate(rows)]


def _write_nodal_csv(path, header: str, prefixes, columns) -> None:
    """One row per node: its prefix, then every column at full precision."""
    fmt = "%s" + ",".join(["%r"] * len(columns)) + "\n"
    rows = zip(prefixes, *(col.tolist() for col in columns), strict=True)
    text = "".join(map(fmt.__mod__, rows))
    with open(path, "w") as fh:
        fh.write(header + "\n" + text)


def write_heat_snapshot(path, system: HeatSystem, state: HeatState,
                        prefixes) -> None:
    """Nodal CSV of the solid: node, x, y, z, s, T.  `prefixes` are the
    formatted `node,x,y,z,` fields (`node_prefixes` of the node
    coordinates), which a run formats once for all its snapshots."""
    t = temperature_of_entropy(state.s, system.material)
    _write_nodal_csv(path, "node,x,y,z,s,T", prefixes, (state.s, t))


def write_fluid_snapshot(path, system: FluidSystem, state: FluidState,
                         prefixes) -> None:
    """Nodal CSV of the channel: node, z, phi, vel, s, T, p.  `prefixes`
    are the formatted `node,z,` fields (`node_prefixes` of the nodes)."""
    p, t, _ = eos(state.phi, state.s, system.material)
    _write_nodal_csv(path, "node,z,phi,vel,s,T,p", prefixes,
                     (state.phi, state.vel, state.s, t, p))


def measure_pulse_speed(system: FluidSystem, initial: FluidState,
                        final: FluidState, elapsed: float) -> float:
    """Propagation speed of the right-moving pressure pulse.

    Locates the pressure-perturbation peak (parabolic sub-cell refinement)
    in the right half-channel of the final state and divides the distance
    from the initial bump center by the elapsed time.
    """
    z = system.mesh.nodes
    h = system.mesh.h
    p0 = system.pressure(initial)
    p1 = system.pressure(final)
    d0 = p0 - np.median(p0)
    d1 = p1 - np.median(p1)
    k0 = int(np.argmax(d0))
    mask = z > z[k0] + 2 * h
    idx = np.nonzero(mask)[0]
    k1 = idx[int(np.argmax(d1[mask]))]
    z_peak = z[k1]
    if 0 < k1 < len(z) - 1:
        denom = d1[k1 - 1] - 2 * d1[k1] + d1[k1 + 1]
        if denom != 0:
            z_peak = z[k1] + 0.5 * h * (d1[k1 - 1] - d1[k1 + 1]) / denom
    return float((z_peak - z[k0]) / elapsed)
