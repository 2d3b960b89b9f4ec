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
d_chi v as (d_chi m_psi^-1) times the wall output from the assembled
azimuthal pair (m_az, eta_integrals) (`CouplingOperators.line_load`), so the
ledger's power residual also checks that pair against the nodal row sums.

Newton's chord iterations build, factor and solve with the midpoint
Jacobian through the stepper's `chord.ChordSolver`, `sim.chord`, which
splits it by azimuthal Fourier modes into one narrow band: exact at the
azimuthally uniform states every committed scenario keeps, and the
azimuthal mean of the solid's tangent blocks elsewhere, a chord matrix
under an exact residual.

The data flow of a step is explicit: `step` takes the old state and the
row scale as arguments and returns one `StepOutcome`, `_residual` returns
its `Ports` with the residual, `_build_jacobian` builds from those ports,
and `_newton` counts its own iterations and puts the residual and ports at
the converged x into the outcome.  `run` reads the outcome by name and
`_record` makes the ledger row of it.  After construction the only state a
`CoupledSimulation` changes is `sim.chord`'s factor and counters: a step
continues the chord factor of the previous step on the same object, and
`run` starts with none.

Each step starts from a prediction read off a backward-difference table of
the accepted states, of the order the table's own terms support (up to
PREDICTOR_ORDER), whose row 0 is the old state packed, and takes its end
state and port powers from the ports of Newton's last residual, so an
accepted step costs one residual per iteration plus one to start.  Its
ledger row takes each subsystem's Hamiltonian and total entropy in one
`totals` pass over the end state the step has validated.

Everything is deterministic: same inputs give a bit-identical ledger.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .chord import ChordSolver
from .errors import ConfigurationError, PhmixError, SingularJacobianError, \
    StateValidityError, StepFailureError
from .fem import CouplingOperators, require_fit
from .fluid import FluidState, FluidSystem, check_specific_volume, eos, \
    gas_temperature
from .heat import HeatState, HeatSystem, entropy_of_temperature, \
    temperature_of_entropy

SCENARIOS = ("equilibrium", "hot-wall-cooldown", "heated-ext-face",
             "acoustic-pulse")


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float

    def __post_init__(self):
        for name in ("dt", "t_end"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ConfigurationError(
                f"t_end ({self.t_end}) must be at least dt ({self.dt})")
        ratio = self.t_end / self.dt
        if not np.isfinite(ratio):
            raise ConfigurationError(f"t_end / dt overflows: t_end = "
                                     f"{self.t_end}, dt = {self.dt}")
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            # run() takes round(t_end / dt) steps and would stop short of
            # t_end or step past it
            raise ConfigurationError(
                f"t_end = {self.t_end} must be a whole number of steps of "
                f"dt = {self.dt} (t_end / dt = {ratio!r})")


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

    def column(self, name: str) -> np.ndarray:
        if name not in _LEDGER_COLUMNS:
            raise KeyError(name)
        return np.array([getattr(r, name) for r in self.records])

    def write(self, path) -> None:
        """The header, then one row per record with every field at full
        precision (`repr`), written in one call."""
        text = "\n".join([LEDGER_HEADER,
                          *map(LedgerRecord.csv_row, self.records), ""])
        with open(path, "w") as fh:
            fh.write(text)

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
        temperatures = {"t_common": t0}
        setup = ScenarioSetup(name, heat_sys.uniform_state(t0),
                              fluid_sys.uniform_state(t0))
    elif name == "hot-wall-cooldown":
        t_solid = p.pop("t_solid", 390.0)
        t_fluid = p.pop("t_fluid", 300.0)
        temperatures = {"t_solid": t_solid, "t_fluid": t_fluid}
        domain = heat_sys.domain
        # the thickness coordinate of every node (thickness fastest)
        zeta = np.tile(domain.thickness.nodes,
                       domain.axial.n_nodes * domain.azimuthal.n_nodes)
        depth = domain.thickness.measure
        t_profile = t_fluid + (t_solid - t_fluid) * _smoothstep(zeta / depth)
        heat0 = HeatState(entropy_of_temperature(t_profile, heat_sys.material))
        setup = ScenarioSetup(name, heat0, fluid_sys.uniform_state(t_fluid))
    elif name == "heated-ext-face":
        t0 = p.pop("t_common", 300.0)
        t_ext = p.pop("t_ext", 380.0)
        temperatures = {"t_common": t0, "t_ext": t_ext}
        heat0 = heat_sys.uniform_state(t0)
        heat0.s[heat_sys.external_dofs] = entropy_of_temperature(
            t_ext, heat_sys.material)
        setup = ScenarioSetup(name, heat0, fluid_sys.uniform_state(t0),
                              ext_temperature=t_ext)
    elif name == "acoustic-pulse":
        t0 = p.pop("t_base", 300.0)
        temperatures = {"t_base": t0}
        amp = p.pop("amplitude", 1e-3)
        width = p.pop("width", 0.05)
        center = p.pop("center", 0.5)
        if not width > 0:
            raise ConfigurationError(
                f"acoustic-pulse width must be > 0, got {width!r}")
        heat0 = heat_sys.uniform_state(t0)  # rejects a t_base <= 0 first
        fluid0 = fluid_sys.uniform_state(t0, phi=1.0)
        mesh = fluid_sys.mesh
        with np.errstate(all="ignore"):  # checked below
            zc = mesh.start + center * mesh.measure
            exponent = ((mesh.nodes - zc) / (width * mesh.measure)) ** 2
            fluid0.s = fluid0.s + amp * fluid_sys.material.c_v \
                * np.exp(-exponent)
            t = gas_temperature(fluid0.phi, fluid0.s, fluid_sys.material)
        if not np.isfinite(exponent).all():  # a center off [0, 1] is at fault
            key, value = ("width", width) if 0 <= center <= 1 else \
                ("center", center)
            raise ConfigurationError(
                f"acoustic-pulse {key} {value!r} puts the channel nodes a "
                f"non-finite number of widths from the pulse center")
        if not (t.min() > 0 and t.max() < np.inf):  # NaN fails both
            raise ConfigurationError(
                f"acoustic-pulse amplitude {amp!r} makes the channel "
                f"temperature non-finite or non-positive")
        setup = ScenarioSetup(name, heat0, fluid0, coupled=False)
    else:
        raise ConfigurationError(
            f"unknown scenario {name!r}; valid: {', '.join(SCENARIOS)}")
    if p:
        raise ConfigurationError(
            f"unknown scenario parameters for {name!r}: {sorted(p)}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        totals = (*heat_sys.totals(setup.heat_state),
                  *fluid_sys.totals(setup.fluid_state))
    if not np.isfinite(totals).all():  # name the largest temperature
        key = max(temperatures, key=temperatures.get)
        raise ConfigurationError(
            f"{name} {key} {temperatures[key]!r} with this material and "
            f"geometry gives a non-finite initial energy or entropy")
    return setup


PREDICTOR_ORDER = 7  # highest backward difference the predictor may add
NEWTON_TOL = 1e-12  # a step converges at this max-norm scaled residual
NEWTON_MAX_ITERS = 40  # Newton iterations of one attempt at a step
OUTPUT_EVERY = 20  # steps between snapshots; the last step writes one too


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


class Ports(NamedTuple):
    """The port fields of one residual evaluation.  The last four are None
    for a channel alone, ext also for a face without a port."""

    fluid_mid: FluidState  # the channel midpoint state
    t_m: np.ndarray        # its temperature output
    s_mid: np.ndarray      # the solid midpoint entropy, pinned rows included
    wall: np.ndarray       # the load-form wall output, m_psi v
    ext: np.ndarray        # the load-form external-face output
    wall_sums: np.ndarray  # the wall output's azimuthal sums embed_t(wall)


@dataclass(frozen=True)
class StepOutcome:
    """One implicit-midpoint step, as `step` returns it.  Given only its
    states, it stands for the initial state, whose ledger row no step made.

    The end states and powers come from the ports of Newton's last
    residual, the one at x, which is not evaluated again.  The ports are
    in load form, so no surface solve is needed: p_heat = embed(t_m) .
    m_psi v is t_m . wall_sums; p_ext = T_ext sum(ext); and p_fluid =
    -t_m . d_chi v takes d_chi v = (d_chi m_psi^-1) wall from
    `CouplingOperators.line_load`, built on the assembled azimuthal pair
    (m_az, eta_integrals), so that the power residual compares that pair
    with the nodal row sums the residual applied."""

    heat_state: HeatState    # the end-of-step states
    fluid_state: FluidState
    p_heat: float = 0.0      # the midpoint coupling and external powers
    p_fluid: float = 0.0
    p_ext: float = 0.0
    norm: float = 0.0        # Newton's final scaled residual
    iterations: int = 0      # Newton iterations of the step, a retry's too
    x: np.ndarray | None = None  # the packed end-of-step unknowns
    r: np.ndarray | None = None  # Newton's residual at x, unscaled
    ports: Ports | None = None   # the port fields of that residual


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
            require_fit(fluid_sys.mesh, "channel mesh", heat_sys.domain.axial,
                        "the solid axial mesh")
            require_fit(ops.line.mesh, "coupling operators' line mesh",
                        fluid_sys.mesh, "the channel mesh")
            require_fit(ops.surface.boundary, "coupling operators' wall",
                        heat_sys.boundary, "the solid's coupling face")

        self._free = None  # the free solid dofs, None for a channel alone
        mass_rows = [fluid_sys.mass] * 3  # the residual's, packed
        if coupled:
            free = np.ones(heat_sys.n_dofs, dtype=bool)
            free[heat_sys.coupling_dofs] = False
            if ext_temperature is not None:
                free[heat_sys.external_dofs] = False
            self._free = np.flatnonzero(free)
            mass_rows.insert(0, heat_sys.mass[self._free])
        self._nf = fluid_sys.n_dofs
        self._nfree = len(self._free) if coupled else 0
        self._mass_rows = np.concatenate(mass_rows)
        self.chord = ChordSolver(heat_sys, fluid_sys, self._free,
                                 self._mass_rows, cfg.dt)

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

    def _residual(self, x: np.ndarray, x_old: np.ndarray,
                  s_old: np.ndarray) -> tuple[np.ndarray, Ports]:
        """Residual M (x1 - x0) - dt F(x_mid) of the midpoint system at the
        trial end-of-step state x, for the step from the packed old state
        x_old = x0 with solid entropy s_old, and the `Ports` of this
        evaluation, at whose midpoint `_build_jacobian` takes the tangents.

        Ports are eliminated in nodal form: the channel's midpoint
        temperature output, embedded along the azimuth, is the wall input
        that pins the trace of the solid's midpoint state; the solid's wall
        output, summed along the azimuth, is minus the channel's entropy-row
        load.  The sealed-end velocity rows are the constraints vel1 = 0.

        Works on the packed vectors: the midpoint and M (x1 - x0) are
        formed once from x_old and the packed mass rows, and dt times the
        solid, channel and wall loads is subtracted from the rows in place.
        """
        dt, nfree, nf = self.cfg.dt, self._nfree, self._nf
        mid = x_old + x
        mid *= 0.5
        r = x - x_old
        r *= self._mass_rows  # M (x1 - x0), every row
        fluid_mid = FluidState(*mid[nfree:].reshape(3, nf))
        f, t_m = self.fluid.loads(fluid_mid)

        if self.coupled:
            heat = self.heat
            s_mid = np.empty(heat.n_dofs)
            s_mid[self._free] = mid[:nfree]
            loads, wall, ext = heat.port_loads(
                s_mid, self.ops.embed(t_m), self.ext_temperature,
                s_old=s_old, dt=dt)
            r[:nfree] -= dt * loads[self._free]
            wall_sums = self.ops.embed_t(wall)
            f.s -= wall_sums  # the wall's entropy-row load
        else:
            s_mid = wall = ext = wall_sums = None

        r_phi, r_vel, r_s = r[nfree:].reshape(3, nf)
        r_phi -= dt * f.phi
        r_vel -= dt * f.vel
        mf, vel1 = self.fluid.mass, x[nfree + nf:nfree + 2 * nf]
        r_vel[0] = mf[0] * vel1[0]
        r_vel[-1] = mf[-1] * vel1[-1]
        r_s -= dt * f.s
        return r, Ports(fluid_mid, t_m, s_mid, wall, ext, wall_sums)

    # ---- Newton ----------------------------------------------------------

    def _build_jacobian(self, ports: Ports) -> None:
        """Build and factor the Jacobian at the midpoint of a residual from
        its ports: the channel midpoint state, its temperature output and
        the pinned solid midpoint entropy.  Writes into none of them."""
        self.chord.build(ports.fluid_mid, ports.s_mid, ports.t_m)

    def _newton(self, x: np.ndarray, x_old: np.ndarray, s_old: np.ndarray,
                row_scale: np.ndarray, spent: int = 0) -> StepOutcome:
        """One attempt at the step from x_old (solid entropy s_old):
        chord-Newton iterations from x until the residual, divided row by
        row by row_scale, is at most NEWTON_TOL in max norm or
        NEWTON_MAX_ITERS are spent.  `spent` are the iterations of an
        earlier attempt at the step, which the outcome and the error count.

        The first iteration solves with the chord solver's factor if it
        holds one; a factor is built when there is none or when an
        iteration fails to halve the residual.

        A converged attempt returns the step's `StepOutcome`, with the
        residual r and the ports it already holds at x.  An attempt that
        does not converge, or that a StateValidityError from a trial
        iterate or from the converged end state or a SingularJacobianError
        from a build ends, discards the factor and raises
        StepFailureError, chained to that error if there is one.
        """
        iterations, failure = 0, None
        try:
            r, ports = self._residual(x, x_old, s_old)
            norm = float((np.abs(r) / row_scale).max())
            stale = not self.chord.factored
            while norm > NEWTON_TOL and iterations < NEWTON_MAX_ITERS:
                if stale:
                    self._build_jacobian(ports)
                x = x - self.chord.solve(r)
                iterations += 1
                r, ports = self._residual(x, x_old, s_old)
                new_norm = float((np.abs(r) / row_scale).max())
                stale = new_norm > 0.5 * norm  # chord Jacobian not contracting
                norm = new_norm
            fluid_new = FluidState(*self._unpack_fluid(x))
            if norm <= NEWTON_TOL:
                # the residual saw the midpoint; the end state 2 mid - old
                # may still leave the ideal-gas states
                check_specific_volume(fluid_new.phi)
        except (StateValidityError, SingularJacobianError) as exc:
            # an invalid iterate or end state, or a zero pivot
            failure, norm = exc, np.inf
        iterations += spent
        if not norm <= NEWTON_TOL:
            self.chord.discard()
            reason = "did not converge" if failure is None \
                else f"failed: {failure}"
            raise StepFailureError(
                f"implicit midpoint step {reason}", residual=norm,
                iterations=iterations) from failure

        p_heat = p_fluid = p_ext = 0.0
        if self.coupled:
            s1 = 2.0 * ports.s_mid - s_old  # the pinned rows
            s1[self._free] = x[:self._nfree]
            heat_new = HeatState(s1)
            p_heat = float(ports.t_m @ ports.wall_sums)
            # from the assembled azimuthal pair, not from the row sums the
            # residual applied, so that the power residual compares the two
            p_fluid = -float(ports.t_m @ self.ops.line_load(ports.wall))
            if ports.ext is not None:
                p_ext = self.ext_temperature * float(ports.ext.sum())
        else:
            heat_new = HeatState(s_old)
        return StepOutcome(heat_new, fluid_new, p_heat, p_fluid, p_ext, norm,
                           iterations, x, r, ports)

    def _magnitudes(self, heat_s: np.ndarray,
                    fluid_state: FluidState) -> np.ndarray:
        """Typical magnitudes of the packed unknowns, per field: the
        predictor's term sizes and, times the mass rows, the residual's row
        scale."""
        typ = []
        if self.coupled:
            typ.append(np.full(self._nfree,
                               max(1.0, float(np.max(np.abs(heat_s))))))
        for arr in (fluid_state.phi, fluid_state.vel, fluid_state.s):
            typ.append(np.full(self._nf, max(1.0, float(np.max(np.abs(arr))))))
        return np.concatenate(typ)

    def step(self, s_old: np.ndarray, x_old: np.ndarray, x_pred: np.ndarray,
             row_scale: np.ndarray) -> StepOutcome:
        """One implicit-midpoint step from the old state: its solid entropy
        s_old and the old state packed, x_old, as `_pack` gives it.  Newton
        starts from x_pred and divides the residual's rows by row_scale,
        the mass rows times the `_magnitudes` of a state (`run` passes
        those of its initial state).

        The step continues the chord factor of the previous step on this
        object, if there is one; `sim.chord.discard()` starts afresh.  If
        Newton does not converge, a trial iterate or the converged end
        state is not a valid state, or a Jacobian has an exact zero pivot,
        the step is retried once from x_old with a fresh factorization; a
        second failure raises StepFailureError with the iterations of both
        attempts, chained to the StateValidityError that names the field or
        the SingularJacobianError that names the unknown, if there is one.
        """
        try:
            return self._newton(x_pred, x_old, s_old, row_scale)
        except StepFailureError as first:  # retry once, with a fresh factor
            return self._newton(x_old, x_old, s_old, row_scale,
                                first.iterations)

    def run(self, setup: ScenarioSetup, output_dir=None) -> SimResult:
        """Integrate to t_end, recording one ledger row per step (plus the
        initial row) and optionally writing snapshots and the ledger CSV.

        The run keeps the backward differences del^k x_n, k < m, of the
        accepted end-of-step vectors as an (m, nx) table, m <= PREDICTOR_ORDER
        + 1.  Step k starts Newton from `extrapolate` of it: the old state at
        step 1, linear at step 2, then each higher difference while its size,
        scaled by the `_magnitudes` of the initial state, keeps
        shrinking.  `advance_table` then takes in the accepted vector, at
        O(order) work per step.  A constant history gives the old state
        exactly.  Row 0 of the table is the old state packed, which each
        step takes as it is, with the row scale the same magnitudes give.
        Snapshot coordinates are formatted once per call.

        `_record` makes each ledger row from a `StepOutcome`, the initial
        row from one of the initial state.  No outcome outlives the next
        step: the run keeps its Newton iterations and final scaled residual.

        The run starts with no chord factor and zeroed chord counters, and
        keeps its row scale and predictor magnitudes to itself, so the
        result reports this run only.  An error raised by a step, an
        OSError from its snapshot or a MemoryError from either carries the
        step index (`step`, 0 for the initial snapshot) and the ledger so
        far (`ledger`).  With an output directory the run also writes that
        ledger before it re-raises and names the file (`ledger_path`); if
        that write fails, the error carries the OSError (`ledger_error`)
        instead.
        """
        t_start = _time.perf_counter()
        if setup.coupled != self.coupled or \
                setup.ext_temperature != self.ext_temperature:
            raise ConfigurationError(
                f"scenario {setup.name!r} expects coupled={setup.coupled}, "
                f"ext_temperature={setup.ext_temperature}; the simulation was "
                f"built with coupled={self.coupled}, "
                f"ext_temperature={self.ext_temperature}")
        n_steps = int(round(self.cfg.t_end / self.cfg.dt))
        outcome = StepOutcome(setup.heat_state.copy(),
                              setup.fluid_state.copy())
        heat0, fluid0 = outcome.heat_state, outcome.fluid_state
        typ = self._magnitudes(heat0.s, fluid0)
        row_scale = self._mass_rows * typ
        self.chord.reset()

        ledger = EnergyLedger()
        check_specific_volume(fluid0.phi)
        ledger.records.append(self._record(0.0, outcome))
        if output_dir is not None:
            ledger_path = os.path.join(output_dir, f"{setup.name}_ledger.csv")
            # the coordinate fields of every snapshot row, formatted once
            dom = self.heat.domain
            prefixes = (node_prefixes([dom.axial.nodes, dom.azimuthal.nodes,
                                       dom.thickness.nodes]),
                        node_prefixes([self.fluid.mesh.nodes]))

        table = self._pack(heat0.s, fluid0)[None, :]
        iterations, residuals = [], []  # per step, as the steps complete
        k = 0  # the step an error is attached to; 0 is the initial snapshot
        try:
            if output_dir is not None:
                self._snapshot(output_dir, setup.name, 0, outcome, prefixes)
            for k in range(1, n_steps + 1):
                x_pred, sums = extrapolate(table, typ)
                outcome = self.step(outcome.heat_state.s, table[0], x_pred,
                                    row_scale)
                iterations.append(outcome.iterations)
                residuals.append(outcome.norm)
                table = advance_table(table, sums, outcome.x)
                ledger.records.append(self._record(k * self.cfg.dt, outcome))
                if output_dir is not None and \
                        (k % OUTPUT_EVERY == 0 or k == n_steps):
                    self._snapshot(output_dir, setup.name, k, outcome,
                                   prefixes)
        except (PhmixError, OSError, MemoryError) as exc:
            # a failed step, a snapshot that could not be written, or an
            # array the run could not allocate
            exc.step = k  # partial record for diagnostics
            exc.ledger = ledger
            if output_dir is not None:
                try:
                    ledger.write(ledger_path)
                    exc.ledger_path = ledger_path
                except OSError as err:  # the first error stays
                    exc.ledger_error = err
            raise
        if output_dir is not None:
            ledger.write(ledger_path)
        return SimResult(
            ledger, outcome.heat_state, outcome.fluid_state, n_steps,
            sum(iterations), np.array(iterations, dtype=int),
            np.array(residuals),
            jacobian_builds=self.chord.builds,
            row_interchanges=self.chord.row_interchanges,
            jacobian_build_s=self.chord.build_s,
            chord_solve_s=self.chord.solve_s,
            wall_time=_time.perf_counter() - t_start)

    def _record(self, time, outcome: StepOutcome) -> LedgerRecord:
        """The ledger row of a step's outcome, whose states are valid: one
        `totals` pass per subsystem."""
        q, s_solid = self.heat.totals(outcome.heat_state)
        h, s_fluid = self.fluid.totals(outcome.fluid_state)
        p_heat, p_fluid = outcome.p_heat, outcome.p_fluid
        return LedgerRecord(time, q, h, q + h, p_heat, p_fluid,
                            p_heat + p_fluid, outcome.p_ext, s_solid, s_fluid)

    def _snapshot(self, output_dir, scenario, step, outcome, prefixes):
        write_heat_snapshot(
            os.path.join(output_dir, f"{scenario}_heat_{step}.csv"),
            self.heat, outcome.heat_state, prefixes[0])
        write_fluid_snapshot(
            os.path.join(output_dir, f"{scenario}_fluid_{step}.csv"),
            self.fluid, outcome.fluid_state, prefixes[1])


def node_prefixes(axes) -> list[str]:
    """The constant leading fields `i,x0,x1,...,` of every row of a nodal
    CSV on the grid of the node coordinate arrays `axes`: the node index,
    then its coordinate on each axis at full precision, nodes in dof order
    (the last axis fastest).  Each coordinate is formatted once."""
    fields = [""]
    for axis in axes:
        coords = [f",{x!r}" for x in axis.tolist()]
        fields = [f + c for f in fields for c in coords]
    return [f"{i}{f}," for i, f in enumerate(fields)]


def _write_nodal_csv(path, header: str, prefixes, columns) -> None:
    """One row per node: its prefix, then every column at full precision
    (`repr`); the file is written in one call.  Each distinct row of column
    values is formatted once, keyed by its bit pattern, not by value, so
    `0.0` and `-0.0` print apart.  An azimuthally uniform state repeats
    each row `n_az` times."""
    fmt = ",".join(["%r"] * len(columns)) + "\n"
    table = np.array(columns).T.copy()  # a row's key is its values' bytes
    keys = table.view(f"V{table.shape[1] * table.itemsize}").ravel().tolist()
    first = dict(zip(keys, zip(*(col.tolist() for col in columns))))
    text = dict(zip(first, map(fmt.__mod__, first.values())))
    rows = zip(prefixes, map(text.__getitem__, keys), strict=True)
    with open(path, "w") as fh:
        fh.write("".join(chain((header, "\n"), chain.from_iterable(rows))))


def write_heat_snapshot(path, system: HeatSystem, state: HeatState,
                        prefixes) -> None:
    """Nodal CSV of the solid: node, x, y, z, s, T, every value at full
    precision (`repr`) and each distinct bit pattern of a row's (s, T)
    formatted once.  `prefixes` are the formatted `node,x,y,z,` fields
    (`node_prefixes` of the domain's three axes), which a run formats once
    for all its snapshots."""
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
    p0, _, _ = eos(initial.phi, initial.s, system.material)
    p1, _, _ = eos(final.phi, final.s, system.material)
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
