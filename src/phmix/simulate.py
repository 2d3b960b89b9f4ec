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
ledger takes the channel's coupling power from the assembled block d_chi, so
its residual also checks that block against the nodal pair.

The closed-form ports leave the midpoint Jacobian with a fixed local
sparsity pattern, built from the mesh.  Newton builds the Jacobian by
column-colored finite differences (Curtis, Powell & Reid 1974; greedy
coloring after Coleman & More 1983), one residual per color, factorizes it
with a sparse LU under a minimum-degree ordering of A^T + A and reuses it
(chord iterations) until convergence degrades, then rebuilds; a build
differences against the residual Newton has just evaluated at its point.
Each step starts from a prediction read off a backward-difference table of
the accepted states, of the order the table's own terms support (up to
PREDICTOR_ORDER), and takes its end state and port powers from the port
fields of Newton's last residual, so an accepted step costs one residual per
iteration plus one to start.

The pattern and the coloring are the only per-run setup that grows with the
mesh.  Both are built on the first Jacobian build, from index arrays and
per-row color bitmasks rather than block-matrix composition and a
conflict-graph greedy, which give the same pattern and colors more slowly.
From n_az = 12 on the colors are one above the densest row's 3 n_az + 7
entries, so only speed is left to gain there.  Two other routes were tried
on prototypes and rejected: a coloring from the grid indices needs at least
3 n_az + 9 colors and is invalid below n_az = 9, and differencing the
unreduced wall output (27-36 colors at any n_az) moves the Jacobian 7e-10
to 1.2e-9 off the dense FD one, past the tests' 1e-12 gate.

Everything is deterministic: same inputs give a bit-identical ledger.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, MeshCompatibilityError, PhmixError, \
    StateValidityError, StepFailureError
from .fem import CouplingOperators
from .fluid import FluidState, FluidSystem, check_specific_volume, eos
from .heat import HeatState, HeatSystem, entropy_of_temperature, \
    temperature_of_entropy

LEDGER_HEADER = ("time,Q_heat,H_fluid,total,P_couple_heat,P_couple_fluid,"
                 "P_couple_residual,P_ext,S_solid,S_fluid")

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
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ConfigurationError(
                f"t_end ({self.t_end}) must be at least dt ({self.dt})")
        if not self.newton_tol > 0:
            raise ConfigurationError("newton_tol must be positive")
        if self.newton_max_iters < 1:
            raise ConfigurationError("newton_max_iters must be >= 1")
        if self.output_every < 1:
            raise ConfigurationError("output_every must be >= 1")


@dataclass
class LedgerRecord:
    time: float
    q_heat: float
    h_fluid: float
    total: float
    p_couple_heat: float
    p_couple_fluid: float
    p_couple_residual: float
    p_ext: float
    s_solid: float
    s_fluid: float

    def csv_row(self) -> str:
        vals = (self.time, self.q_heat, self.h_fluid, self.total,
                self.p_couple_heat, self.p_couple_fluid,
                self.p_couple_residual, self.p_ext, self.s_solid,
                self.s_fluid)
        return ",".join(repr(v) for v in vals)


_LEDGER_FIELDS = {
    "time": "time", "Q_heat": "q_heat", "H_fluid": "h_fluid", "total": "total",
    "P_couple_heat": "p_couple_heat", "P_couple_fluid": "p_couple_fluid",
    "P_couple_residual": "p_couple_residual", "P_ext": "p_ext",
    "S_solid": "s_solid", "S_fluid": "s_fluid",
}


class EnergyLedger:
    """Per-step record of Hamiltonians, port powers and entropy totals."""

    def __init__(self):
        self.records: list[LedgerRecord] = []

    def append(self, rec: LedgerRecord):
        self.records.append(rec)

    def column(self, name: str) -> np.ndarray:
        attr = _LEDGER_FIELDS[name]
        return np.array([getattr(r, attr) for r in self.records])

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
    jacobian_builds: int
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

    Returns (prediction, P); `advance_table` takes P.
    """
    sums = np.cumsum(table, axis=0)
    order = min(len(table) - 1, 1)
    if len(table) > 2:
        sizes = np.max(np.abs(table[1:]) / typ, axis=1)  # del^1 .. del^(m-1)
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


def greedy_column_coloring(pattern: sp.spmatrix) -> np.ndarray:
    """Color the columns of a sparsity pattern so that no two columns of one
    color share a row (greedy in column order, after Coleman & More 1983).

    Each row keeps the colors of the columns already placed on it as the
    bits of a Python int (so any number of colors fits).  A column takes
    the lowest bit clear in the OR of its rows' masks, the smallest color
    no earlier column sharing a row has, then sets that bit on its rows:
    the same colors as the greedy over the conflict graph pat^T pat,
    without forming it.

    Returns the color index of every column; one finite-difference residual
    per color then recovers every column of that color.
    """
    pat = sp.csc_matrix(pattern)
    indptr, indices = pat.indptr.tolist(), pat.indices.tolist()
    masks = [0] * pat.shape[0]
    colors = np.empty(pat.shape[1], dtype=np.intp)
    for j in range(pat.shape[1]):
        rows = indices[indptr[j]:indptr[j + 1]]
        used = 0
        for r in rows:
            used |= masks[r]
        bit = ~used & (used + 1)  # lowest clear bit
        colors[j] = bit.bit_length() - 1
        for r in rows:
            masks[r] |= bit
    return colors


class CoupledSimulation:
    """Implicit-midpoint stepper for the coupled (or channel-only) system."""

    _FD_EPS = 1.49e-8  # sqrt(machine epsilon)

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

        self._sparsity = None  # (pattern, colors), built on first use
        self._lu = None
        self.newton_iterations = 0
        self.jacobian_builds = 0

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

        Leaves the port fields of this evaluation in `self._ports`: the
        channel temperature output t_m, the solid midpoint entropy with its
        pinned rows, and the load-form wall and external outputs (None for
        a face without a port).  `step` builds the end-of-step state and
        the powers from those of the residual at the converged x.
        """
        dt = self.cfg.dt
        s0, fl0 = self._s_old, self._fluid_old
        phi1, vel1, sf1 = self._unpack_fluid(x)
        f, t_m = self.fluid.loads(FluidState(0.5 * (fl0.phi + phi1),
                                             0.5 * (fl0.vel + vel1),
                                             0.5 * (fl0.s + sf1)))

        if self.coupled:
            heat, free, s1_free = self.heat, self._free, x[:self._nfree]
            s_mid = np.empty(heat.n_dofs)
            s_mid[free] = 0.5 * (s0[free] + s1_free)
            loads, wall, ext = heat.port_loads(
                s_mid, self.ops.embed(t_m), self.ext_temperature,
                s_old=s0, dt=dt)
            w_load = -self.ops.embed_t(wall)
            r_solid = heat.mass[free] * (s1_free - s0[free]) \
                - dt * loads[free]
        else:
            s_mid = wall = ext = None
            w_load = 0.0
            r_solid = np.empty(0)
        self._ports = (t_m, s_mid, wall, ext)

        mf = self.fluid.mass
        r_phi = mf * (phi1 - fl0.phi) - dt * f.phi
        r_vel = mf * (vel1 - fl0.vel) - dt * f.vel
        r_vel[0] = mf[0] * vel1[0]
        r_vel[-1] = mf[-1] * vel1[-1]
        r_s = mf * (sf1 - fl0.s) - dt * (f.s + w_load)
        return np.concatenate([r_solid, r_phi, r_vel, r_s])

    # ---- Newton ----------------------------------------------------------

    def _jacobian_pattern(self) -> sp.csc_matrix:
        """Boolean sparsity pattern of the midpoint Jacobian, from the mesh.

        Unknowns are (free solid entropy, phi, vel, s).  The solid end state
        depends on the free entropies and, through the wall trace, on
        (phi, s) at the channel node of each coupling dof; the loads spread
        that over the cell neighbours; the wall flux rows reach the channel
        entropy rows through the azimuthal reduction; the channel rows
        couple through grad_pairing, and the sealed-end velocity rows
        depend on their own velocity only.

        The entries are listed as index arrays and summed into CSC once:
        one boolean map of the solid end state onto the unknowns, and one
        product incidence^T (incidence state) for the loads, whose rows go
        to the free rows or, for a coupling dof, to the entropy row of its
        channel node; composing the same pattern from block matrices is
        slower.
        """
        nf, nfree, nx = self._nf, self._nfree, self._nx
        phi, vel, s = nfree + np.arange(3 * nf).reshape(3, nf)
        gi, gj = np.nonzero(self.fluid.grad_pairing)  # tridiagonal
        inner = (gi > 0) & (gi < nf - 1)  # all but the sealed-end rows
        si, sj = gi[inner], gj[inner]
        # channel rows (phi, vel, s) against channel columns (phi, vel, s)
        rows = [phi, phi[gi], vel, vel[si], vel[si], s, s, s]
        cols = [phi, vel[gj], vel, phi[sj], s[sj], phi, vel, s]
        if self.coupled:
            heat = self.heat
            n_solid = heat.n_dofs
            cells = heat.dofmap
            incidence = sp.csr_matrix(
                (np.ones(cells.size), cells.ravel(),
                 np.arange(0, cells.size + 1, cells.shape[1])),
                shape=(len(cells), n_solid))
            cdofs = heat.coupling_dofs
            node = self.ops.embed(np.arange(nf))  # channel node of each cdof
            # solid end state against its free entropy, or against (phi, s)
            # at its channel node through the wall trace
            state = sp.csr_matrix(
                (np.ones(nfree + 2 * len(cdofs), dtype=bool),
                 (np.concatenate([self._free, cdofs, cdofs]),
                  np.concatenate([np.arange(nfree), phi[node], s[node]]))),
                shape=(n_solid, nx))
            loads = (incidence.T @ (incidence @ state)).tocoo()
            row_of = np.full(n_solid, -1)  # -1: a held external dof
            row_of[self._free] = np.arange(nfree)
            row_of[cdofs] = s[node]  # the wall output's azimuthal sum
            row = row_of[loads.row]
            keep = row >= 0
            rows.append(row[keep])
            cols.append(loads.col[keep])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        # duplicates are summed (OR-ed) and the indices sorted
        return sp.csc_matrix((np.ones(len(rows), dtype=bool), (rows, cols)),
                             shape=(nx, nx))

    def _fd_jacobian(self, x: np.ndarray, r0: np.ndarray) -> sp.csc_matrix:
        """Column-colored forward-difference Jacobian at x, where the
        residual is r0: one residual per color, with the step
        h_j = eps * max(|x_j|, typ_j) of column j."""
        if self._sparsity is None:
            pattern = self._jacobian_pattern()
            self._sparsity = (pattern, greedy_column_coloring(pattern))
        pattern, colors = self._sparsity
        h = self._FD_EPS * np.maximum(np.abs(x), self._typ)
        x_h = x + h
        diffs = np.empty((int(colors.max()) + 1, len(x)))
        for c in range(len(diffs)):
            diffs[c] = self._residual(np.where(colors == c, x_h, x)) - r0
        rows = pattern.indices
        cols = np.repeat(np.arange(len(x)), np.diff(pattern.indptr))
        return sp.csc_matrix((diffs[colors[cols], rows] / h[cols], rows,
                              pattern.indptr), shape=pattern.shape)

    def _build_jacobian(self, x: np.ndarray, r: np.ndarray):
        """Build the colored FD Jacobian at x, where the residual is r, and
        factorize it for the chord solves."""
        self._lu = spla.splu(self._fd_jacobian(x, r),
                             permc_spec="MMD_AT_PLUS_A")
        self.jacobian_builds += 1

    def _newton(self, x: np.ndarray):
        """Chord-Newton iterations from x until the scaled residual is at
        most newton_tol or newton_max_iters are spent; returns (x, norm,
        ports), with the port fields of the residual at the returned x.

        The factorization is rebuilt when there is none or when an
        iteration fails to halve the residual.  A StateValidityError from a
        trial iterate propagates to the caller.
        """
        r = self._residual(x)
        ports = self._ports  # before a Jacobian build overwrites them
        norm = self._scaled_norm(r)
        stale = self._lu is None
        for _ in range(self.cfg.newton_max_iters):
            if norm <= self.cfg.newton_tol:
                break
            if stale:
                self._build_jacobian(x, r)
            x = x - self._lu.solve(r)
            self.newton_iterations += 1
            r = self._residual(x)
            ports = self._ports
            new_norm = self._scaled_norm(r)
            stale = new_norm > 0.5 * norm  # chord Jacobian not contracting
            norm = new_norm
        return x, norm, ports

    def _scaled_norm(self, r: np.ndarray) -> float:
        return float(np.max(np.abs(r) / self._row_scale))

    def _prepare(self, heat_state: HeatState, fluid_state: FluidState):
        """Typical magnitudes for FD steps, residual row scaling and the
        predictor's term sizes."""
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
        self._row_scale = np.concatenate(mass_rows) * self._typ

    def step(self, heat_state: HeatState, fluid_state: FluidState,
             x_pred: np.ndarray | None = None):
        """One implicit-midpoint step.

        Newton starts from x_pred (default: the old state).  If it does not
        converge, or a trial iterate or the converged end state is not a
        valid state, it is retried once from the old state with a fresh
        factorization; a second failure raises StepFailureError, chained to
        the StateValidityError that names the field, if there is one.

        Returns (heat', fluid', powers, p_ext, x): the converged midpoint
        coupling powers (p_heat, p_fluid) and external power entering the
        ledger, and the packed end-of-step unknowns x.  All of them come
        from the port fields of Newton's last residual, the one at x; the
        residual is not evaluated again, and only the nodal wall (and
        external) outputs are recovered, by one surface mass solve each.
        """
        self._s_old = heat_state.s
        self._fluid_old = fluid_state
        if not hasattr(self, "_row_scale"):
            self._prepare(heat_state, fluid_state)
        x0 = self._pack(heat_state.s, fluid_state)

        start = self.newton_iterations
        for x_start in (x0 if x_pred is None else x_pred, x0):
            try:
                x, norm, ports = self._newton(x_start)
                failure = None
                if norm <= self.cfg.newton_tol:
                    # the residual saw the midpoint; the end state 2 mid - old
                    # may still leave the ideal-gas states
                    check_specific_volume(self._unpack_fluid(x)[0])
            except StateValidityError as exc:
                norm, failure = np.inf, exc  # an invalid iterate or end state
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
        t_m, s_mid, wall, ext = ports
        fluid_new = FluidState(*self._unpack_fluid(x))
        p_heat = p_fluid = p_ext = 0.0
        if self.coupled:
            s1 = 2.0 * s_mid - self._s_old  # the pinned rows
            s1[self._free] = x[:self._nfree]
            heat_new = HeatState(s1)
            ops = self.ops
            v = ops.solve_psi(wall)
            # from the assembled block, not from the row sums the residual
            # applied, so that the power residual compares the two
            p_heat = ops.surface_inner(ops.embed(t_m), v)
            p_fluid = -float(t_m @ (ops.d_chi @ v))
            if ext is not None:
                u_ext = np.full(ops.n_psi, self.ext_temperature)
                p_ext = ops.surface_inner(u_ext, ops.solve_psi(ext))
        else:
            heat_new = HeatState(self._s_old)
        return heat_new, fluid_new, (p_heat, p_fluid), p_ext, x

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
        exactly.  Snapshot coordinates are formatted once per call.

        Counters and the chord factorization start afresh on every call, so
        the result reports this run only.  An error raised by a step carries
        the step index (`step`) and the ledger so far (`ledger`).
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
        self.jacobian_builds = 0

        ledger = EnergyLedger()
        q0 = self.heat.hamiltonian(heat_state)
        h0 = self.fluid.hamiltonian(fluid_state)
        ledger.append(LedgerRecord(
            0.0, q0, h0, q0 + h0, 0.0, 0.0, 0.0, 0.0,
            self.heat.total_entropy(heat_state),
            self.fluid.total_entropy(fluid_state)))
        if output_dir is not None:
            # the coordinate fields of every snapshot row, formatted once
            prefixes = (node_prefixes([self.heat.domain.node_coordinates()]),
                        node_prefixes([self.fluid.mesh.nodes]))
            self._snapshot(output_dir, setup.name, 0, heat_state, fluid_state,
                           prefixes)

        table = self._pack(heat_state.s, fluid_state)[None, :]
        for k in range(1, n_steps + 1):
            x_pred, sums = extrapolate(table, self._typ)
            try:
                heat_state, fluid_state, powers, p_ext, x_new = self.step(
                    heat_state, fluid_state, x_pred=x_pred)
            except PhmixError as exc:
                exc.step = k  # partial record for diagnostics
                exc.ledger = ledger
                raise
            table = advance_table(table, sums, x_new)
            q = self.heat.hamiltonian(heat_state)
            h = self.fluid.hamiltonian(fluid_state)
            ledger.append(LedgerRecord(
                k * cfg.dt, q, h, q + h, powers[0], powers[1],
                powers[0] + powers[1], p_ext,
                self.heat.total_entropy(heat_state),
                self.fluid.total_entropy(fluid_state)))
            if output_dir is not None and \
                    (k % cfg.output_every == 0 or k == n_steps):
                self._snapshot(output_dir, setup.name, k, heat_state,
                               fluid_state, prefixes)
        if output_dir is not None:
            ledger.write(os.path.join(output_dir, f"{setup.name}_ledger.csv"))
        return SimResult(ledger, heat_state, fluid_state, n_steps,
                         self.newton_iterations, self.jacobian_builds,
                         _time.perf_counter() - t_start)

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
