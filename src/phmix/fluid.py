"""1D compressible coolant channel in entropy formulation.

State: specific volume phi, velocity and specific entropy on the channel
nodes.  The ideal-gas law realizes the Gibbs relation du = -p dphi + T ds in
closed form; friction enters as the matched pair -f v / T (momentum row) and
+f v / T (entropy row), so it moves kinetic energy into heat without creating
or destroying energy.

Discretization: collocated P1 fields with a lumped mass on the left.  The
derivative pairing integral(phi_i dphi_j/dz) is assembled once; its symmetric
part is supported on the two endpoints only, so with sealed ends (v = 0 at
both) the semi-discrete energy rate reduces exactly to the distributed port
power T . w_load, where the port input enters the entropy rows as the line
load w_load = m_chi w.  Friction loss and heating cancel nodally.  The
Hamiltonian is the matching nodal quadrature sum_i m_i (v_i^2 / 2 + c_v T_i).

`FluidSystem.loads` is the one definition of the semi-discrete operator, in
load (mass-weighted) form; the midpoint stepper calls it, and its Jacobian
takes `loads_tangent`, the exact tangent in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, MaterialError, StateValidityError
from .fem import LineBasis, dense_line_matrix, lumped_mass
from .geometry import IntervalMesh


@dataclass(frozen=True)
class FluidMaterial:
    """Ideal-gas coolant: gas constant, heat capacity at constant volume,
    friction coefficient and t_ref, the temperature at the entropy origin
    phi_ref = 1, s_ref = 0 (a gauge: class constants, not fields)."""

    r_gas: float
    c_v: float
    friction: float = 0.0
    t_ref: float = 1.0

    phi_ref = 1.0
    s_ref = 0.0

    def __post_init__(self):
        for name in ("r_gas", "c_v", "t_ref"):
            if not 0 < getattr(self, name) < np.inf:
                raise MaterialError(f"fluid material {name} must be positive "
                                    f"and finite, got {getattr(self, name)}")
        if not self.r_gas / self.c_v < np.inf:
            raise MaterialError(f"fluid material r_gas / c_v = {self.r_gas} "
                                f"/ {self.c_v} must be finite")
        if not 0 <= self.friction < np.inf:
            raise MaterialError(
                f"friction must be >= 0 and finite, got {self.friction}")

    @property
    def gamma(self) -> float:
        return 1.0 + self.r_gas / self.c_v


def check_specific_volume(phi: np.ndarray) -> None:
    """Raise StateValidityError at the first specific volume that is not
    positive; a positive one makes every ideal-gas state valid."""
    if not phi.min() > 0:  # NaN fails too: the minimum propagates it
        node = int(np.argmax(~(phi > 0)))
        raise StateValidityError("specific volume", node, float(phi.flat[node]))


def eos(phi, s, mat: FluidMaterial):
    """Pressure, temperature and internal energy of the ideal gas.

    T = t_ref (phi_ref/phi)^(r/c_v) exp((s - s_ref)/c_v), p = r T / phi,
    u = c_v T; these satisfy du/dphi = -p and du/ds = T identically.
    """
    phi = np.asarray(phi, dtype=float)
    s = np.asarray(s, dtype=float)
    check_specific_volume(phi)
    t = gas_temperature(phi, s, mat)
    p = mat.r_gas * t / phi
    return p, t, mat.c_v * t


def gas_temperature(phi: np.ndarray, s: np.ndarray,
                    mat: FluidMaterial) -> np.ndarray:
    """T = t_ref (phi_ref/phi)^(r/c_v) exp((s - s_ref)/c_v), for specific
    volumes already known to be positive; `eos` checks them first."""
    return mat.t_ref * (mat.phi_ref / phi) ** (mat.r_gas / mat.c_v) \
        * np.exp((s - mat.s_ref) / mat.c_v)


def sound_speed(temperature: float, mat: FluidMaterial) -> float:
    """Acoustic propagation speed sqrt(gamma r T) at unit specific volume."""
    return float(np.sqrt(mat.gamma * mat.r_gas * temperature))


@dataclass
class FluidState:
    """Nodal (specific volume, velocity, specific entropy) fields."""

    phi: np.ndarray
    vel: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.vel = np.asarray(self.vel, dtype=float)
        self.s = np.asarray(self.s, dtype=float)

    def copy(self) -> "FluidState":
        return FluidState(self.phi.copy(), self.vel.copy(), self.s.copy())


class FluidSystem:
    """Semi-discrete channel operator with sealed ends."""

    def __init__(self, mesh: IntervalMesh, material: FluidMaterial):
        if mesh.periodic:
            raise GeometryError("channel mesh must be non-periodic")
        self.mesh = mesh
        self.material = material
        self.basis = LineBasis(mesh)
        self.mass = lumped_mass(self.basis)
        # integral(phi_i dphi_j/dz), dense: a few dozen nodes
        self.grad_pairing = dense_line_matrix(self.basis, 0, 1)

    @property
    def n_dofs(self) -> int:
        return self.basis.n_dofs

    def uniform_state(self, temperature: float, phi: float | None = None,
                      velocity: float = 0.0) -> FluidState:
        mat = self.material
        phi0 = mat.phi_ref if phi is None else float(phi)
        # invert T(phi, s) for s at the requested temperature
        s0 = mat.s_ref + mat.c_v * np.log(temperature / mat.t_ref) \
            + mat.r_gas * np.log(phi0 / mat.phi_ref)
        n = self.n_dofs
        return FluidState(np.full(n, phi0), np.full(n, float(velocity)),
                          np.full(n, s0))

    def totals(self, state: FluidState) -> tuple[float, float]:
        """The Hamiltonian sum_i m_i (v_i^2 / 2 + c_v T_i) and the total
        entropy sum_i m_i s_i, the ledger's H_fluid and S_fluid, from one
        temperature.  The specific volumes must be positive: the stepper
        checks every end state before its ledger row, so this does not
        check them again."""
        mat = self.material
        t = gas_temperature(state.phi, state.s, mat)
        return (float(self.mass @ (0.5 * state.vel ** 2 + mat.c_v * t)),
                float(self.mass @ state.s))

    def loads(self, state: FluidState) -> tuple[FluidState, np.ndarray]:
        """Semi-discrete rates in load form, M d(phi, vel, s)/dt, with the
        port open, and the temperature output y.

        Ends are sealed: the endpoint velocity rows carry no load.  The
        distributed port's input is the line load w_load = m_chi w on the
        entropy rows; it depends on y through the interconnection, so the
        caller adds it once it is resolved, and its power is y . w_load.
        """
        mat = self.material
        p, t, _ = eos(state.phi, state.s, mat)
        f_phi = self.grad_pairing @ state.vel
        f_vel = -(self.grad_pairing @ p) \
            - mat.friction * self.mass * state.vel
        f_vel[0] = f_vel[-1] = 0.0
        f_s = self.mass * mat.friction * state.vel ** 2 / t
        return FluidState(f_phi, f_vel, f_s), t

    def loads_tangent(self,
                      state: FluidState) -> tuple[np.ndarray, np.ndarray]:
        """Exact tangent of `loads` at state.

        Returns the dense (3n, 3n) d(f_phi, f_vel, f_s) / d(phi, vel, s),
        fields in that order, and the temperature output's (2, n) nodal
        derivatives (dT/dphi, dT/ds) = (-(r/c_v) T/phi, T/c_v).  Through
        grad_pairing, dp/dphi = -gamma p/phi and dp/ds = p/c_v; the friction
        terms are diagonal, and the sealed-end velocity rows are zero.
        """
        mat, n = self.material, self.n_dofs
        p, t, _ = eos(state.phi, state.s, mat)
        t_grad = np.stack([-(mat.r_gas / mat.c_v) * t / state.phi,
                           t / mat.c_v])
        jac = np.zeros((3, n, 3, n))
        jac[0, :, 1] = self.grad_pairing
        jac[1, :, 0] = self.grad_pairing * (mat.gamma * p / state.phi)
        jac[1, :, 2] = self.grad_pairing * (-p / mat.c_v)
        node = np.arange(n)
        jac[1, node, 1, node] = -mat.friction * self.mass
        jac[1, [0, -1]] = 0.0
        heating = self.mass * mat.friction * state.vel / t  # f_s / vel
        df_dt = -heating * state.vel / t  # d f_s / dT
        jac[2, node, 0, node] = df_dt * t_grad[0]
        jac[2, node, 1, node] = 2.0 * heating
        jac[2, node, 2, node] = df_dt * t_grad[1]
        return jac.reshape(3 * n, 3 * n), t_grad

    def entropy_production(self, state: FluidState) -> float:
        """Total friction production sum_i m_i f v_i^2 / T_i >= 0."""
        _, t, _ = eos(state.phi, state.s, self.material)
        return float(self.mass @ (self.material.friction * state.vel ** 2 / t))
