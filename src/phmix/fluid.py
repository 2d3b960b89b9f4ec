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
load (mass-weighted) form; the midpoint stepper calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaterialError, StateValidityError
from .fem import LineBasis, line_matrix, lumped_mass
from .geometry import IntervalMesh, quadrature_rule


@dataclass(frozen=True)
class FluidMaterial:
    """Ideal-gas coolant: gas constant, heat capacity at constant volume,
    friction coefficient and the reference point of the entropy scale."""

    r_gas: float
    c_v: float
    friction: float = 0.0
    phi_ref: float = 1.0
    s_ref: float = 0.0
    t_ref: float = 1.0

    def __post_init__(self):
        for name in ("r_gas", "c_v", "phi_ref", "t_ref"):
            if not getattr(self, name) > 0:
                raise MaterialError(f"fluid material {name} must be positive, "
                                    f"got {getattr(self, name)}")
        if self.friction < 0:
            raise MaterialError(f"friction must be >= 0, got {self.friction}")

    @property
    def gamma(self) -> float:
        return 1.0 + self.r_gas / self.c_v


def check_specific_volume(phi: np.ndarray) -> None:
    """Raise StateValidityError at the first specific volume that is not
    positive; a positive one makes every ideal-gas state valid."""
    bad = ~(phi > 0)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise StateValidityError("specific volume", node, float(phi.flat[node]))


def eos(phi, s, mat: FluidMaterial):
    """Pressure, temperature and internal energy of the ideal gas.

    T = t_ref (phi_ref/phi)^(r/c_v) exp((s - s_ref)/c_v), p = r T / phi,
    u = c_v T; these satisfy du/dphi = -p and du/ds = T identically.
    """
    phi = np.asarray(phi, dtype=float)
    s = np.asarray(s, dtype=float)
    check_specific_volume(phi)
    t = mat.t_ref * (mat.phi_ref / phi) ** (mat.r_gas / mat.c_v) \
        * np.exp((s - mat.s_ref) / mat.c_v)
    p = mat.r_gas * t / phi
    return p, t, mat.c_v * t


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

    def __init__(self, mesh: IntervalMesh, material: FluidMaterial,
                 quad_degree: int = 3):
        if mesh.periodic:
            raise MaterialError("channel mesh must be non-periodic")
        self.mesh = mesh
        self.material = material
        self.quad = quadrature_rule(quad_degree)
        self.basis = LineBasis(mesh)
        self.mass = lumped_mass(self.basis, self.quad)
        # integral(phi_i dphi_j/dz), dense: a few dozen nodes
        self.grad_pairing = line_matrix(self.basis, self.quad, 0, 1).toarray()

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

    def temperature(self, state: FluidState) -> np.ndarray:
        _, t, _ = eos(state.phi, state.s, self.material)
        return t

    def pressure(self, state: FluidState) -> np.ndarray:
        p, _, _ = eos(state.phi, state.s, self.material)
        return p

    def hamiltonian(self, state: FluidState) -> float:
        _, _, u = eos(state.phi, state.s, self.material)
        return float(self.mass @ (0.5 * state.vel ** 2 + u))

    def total_entropy(self, state: FluidState) -> float:
        return float(self.mass @ state.s)

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

    def entropy_production(self, state: FluidState) -> float:
        """Total friction production sum_i m_i f v_i^2 / T_i >= 0."""
        _, t, _ = eos(state.phi, state.s, self.material)
        return float(self.mass @ (self.material.friction * state.vel ** 2 / t))
