"""Entropy-formulation heat conduction on the solid box.

State is the nodal entropy density s.  The constitutive law T(s) =
t_ref * exp(s / (rho c)) keeps temperature positive for every real s and
satisfies dq/ds = T for the energy density q(s) = rho c (T(s) - t_ref).

Discretization: Q1 Galerkin with a lumped (row-sum) mass.  The fluxes are
built from the interpolated temperature, and the entropy production term is
evaluated at the same quadrature points, so the discrete energy rate
sum_i m_i T_i ds_i/dt reduces exactly to the boundary port power: interior
flux work and production cancel pointwise at the quadrature points.  The
discrete Hamiltonian is the matching nodal quadrature sum_i m_i q(s_i).

The load kernel is two matrix products on precomputed reference tables,
in work arrays that every call on one system reuses: the gathered cell
temperatures times an interpolation table give T and grad T at the
points, and the stack of u = grad T / T and u^2 times one back table (the
weighted test tables with the conductivity folded in) gives the local
loads, which are scattered to the nodes.  All cells share one table
because the mesh is uniform.
`loads_tangent` is the kernel's exact tangent, one 8x8 block per cell from
the same tables, which the stepper's Jacobian scatters itself.

The coupling face takes a temperature input (enforced nodally on the trace
through the entropy variable); the conjugate output, the negative normal
entropy flux, is recovered variationally from the boundary-row residuals
and returned in load form, M_c ds_c/dt - loads_c, i.e. as m_psi times the
nodal output (solve with the coupling operators' m_psi for the field).
`port_loads` is the one definition of this constrained operator, and the
midpoint stepper calls it.  All other faces are adiabatic unless the
external face temperature is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MaterialError, StateValidityError
from .fem import VolumeBasis, lumped_mass
from .geometry import SolidDomain


@dataclass(frozen=True)
class HeatMaterial:
    """Solid material: density, specific heat, conductivity and the
    reference temperature of the entropy origin."""

    rho: float
    c: float
    conductivity: float
    t_ref: float

    def __post_init__(self):
        for name in ("rho", "c", "conductivity", "t_ref"):
            if not 0 < getattr(self, name) < np.inf:
                raise MaterialError(f"heat material {name} must be positive "
                                    f"and finite, got {getattr(self, name)}")
        if not 0 < self.rho_c < np.inf:
            raise MaterialError(f"heat material rho * c = {self.rho} * "
                                f"{self.c} must be positive and finite")

    @property
    def rho_c(self) -> float:
        return self.rho * self.c


def temperature_of_entropy(s, mat: HeatMaterial):
    """T(s) = t_ref * exp(s / (rho c)); positive for all real s."""
    return mat.t_ref * np.exp(np.asarray(s, dtype=float) / mat.rho_c)


def entropy_of_temperature(t, mat: HeatMaterial, name: str = "temperature"):
    """Inverse constitutive law, s = rho c * log(T / t_ref).

    Every temperature must be finite and positive; the first one that is
    not raises StateValidityError labelled `name`.
    """
    t = np.asarray(t, dtype=float)
    if not (t.min() > 0 and t.max() < np.inf):  # NaN fails both
        node = int(np.argmax(~((t > 0) & (t < np.inf))))
        raise StateValidityError(name, node, float(t.flat[node]))
    return mat.rho_c * np.log(t / mat.t_ref)


def energy_density(s, mat: HeatMaterial):
    """Thermal energy density q(s) with q(0) = 0 and dq/ds = T(s)."""
    return mat.rho_c * (temperature_of_entropy(s, mat) - mat.t_ref)


@dataclass
class HeatState:
    """Nodal entropy density on the solid domain."""

    s: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)

    def copy(self) -> "HeatState":
        return HeatState(self.s.copy())


class HeatSystem:
    """Semi-discrete conduction operator on a solid domain."""

    def __init__(self, domain: SolidDomain, material: HeatMaterial):
        self.domain = domain
        self.material = material
        self.basis = VolumeBasis(domain)
        tab = self.basis.tables
        self.dofmap = self.basis.cell_dofs()
        # The kernel works point-major: every array is (point row, cell), so
        # the pointwise steps run along contiguous rows of n_cells values.
        # _interp maps the (8, n_cells) nodal gather to the rows T(q) and
        # dT/dx_d(q) (q-major, d-minor); _back maps the point rows
        # [u; u^2] back to the 8 local loads.
        nq, nb, dim = tab.gradients.shape
        lam = material.conductivity
        self._gather = np.ascontiguousarray(self.dofmap.T)
        self._interp = np.vstack([
            tab.values, tab.gradients.transpose(0, 2, 1).reshape(nq * dim, nb)])
        # test tables F[a, (q, d)] = w_q dV_a/dx_d(q) and P[a, q] = w_q V_a(q)
        self._flux_test = np.ascontiguousarray(
            (tab.gradients * tab.wdet[:, None, None])
            .transpose(1, 0, 2).reshape(nb, nq * dim))
        self._prod_test = np.ascontiguousarray((tab.values * tab.wdet[:, None]).T)
        self._wdet = tab.wdet
        # with u = grad T / T the flux is -lambda u and the production
        # lambda |u|^2, so the local loads are one GEMM of
        # [-lambda F, lambda P repeated over d] against the rows [u; u^2]
        self._back = np.hstack([-lam * self._flux_test,
                                np.repeat(lam * self._prod_test, dim, axis=1)])
        self.mass = lumped_mass(self.basis)

        self.boundary = domain.coupling_boundary()
        self.coupling_dofs = domain.face_dofs("coupling")
        self.external_dofs = domain.face_dofs("external")

    @property
    def n_dofs(self) -> int:
        return self.basis.n_dofs

    def uniform_state(self, temperature: float) -> HeatState:
        s0 = entropy_of_temperature(temperature, self.material)
        return HeatState(np.full(self.n_dofs, float(s0)))

    def totals(self, state: HeatState) -> tuple[float, float]:
        """The Hamiltonian sum_i m_i q(s_i) and the total entropy
        sum_i m_i s_i, the ledger's Q_heat and S_solid, in one pass."""
        return (float(self.mass @ energy_density(state.s, self.material)),
                float(self.mass @ state.s))

    def _quad_fields(self, s: np.ndarray):
        """Temperature (nq, n_cells) and its gradient (nq, 3, n_cells) at
        every quadrature point: one gather and one GEMM.  Both are views of
        a workspace that the next kernel call overwrites."""
        if not np.isfinite(s).all():
            node = int(np.argmax(~np.isfinite(s)))
            raise StateValidityError("entropy", node, float(s[node]))
        cell_t, points = self._work[:2]
        # mode "clip": the indices are in range, and "raise" would buffer
        # the output
        temperature_of_entropy(s, self.material).take(
            self._gather, out=cell_t, mode="clip")
        q = np.matmul(self._interp, cell_t, out=points[:len(self._interp)])
        nq = self._wdet.size
        return q[:nq], q[nq:].reshape(nq, -1, q.shape[1])

    def _flux_production(self, s: np.ndarray):
        """Entropy flux -lambda grad T / T (nq, 3, n_cells) and production
        lambda |grad T|^2 / T^2 = |flux|^2 / lambda (nq, n_cells)."""
        lam = self.material.conductivity
        tq, gq = self._quad_fields(s)
        flux = gq * (-lam / tq)[:, None, :]
        return flux, (flux * flux).sum(axis=1) / lam

    def assemble_loads(self, s: np.ndarray) -> np.ndarray:
        """Galerkin load vector: flux work plus entropy production.

        Both terms use the interpolated temperature at the same quadrature
        points, which makes the temperature-weighted sum of the loads vanish
        identically (the flux work against the temperature gradient equals
        minus the production heating).  Gather, GEMM to the points,
        u = grad T / T in place of grad T and u^2 in the rows after it, one
        GEMM of that stack back to the 8 local loads of every cell (lambda
        folded into the table), scatter.  Every step but the scatter writes
        into the system's workspaces; the returned loads are a fresh array.
        """
        tq, gq = self._quad_fields(s)
        points, local = self._work[1:]
        np.divide(gq, tq[:, None, :], out=gq)
        np.square(gq, out=points[len(self._interp):].reshape(gq.shape))
        np.matmul(self._back, points[len(tq):], out=local)
        return np.bincount(self._gather.ravel(), weights=local.ravel(),
                           minlength=self.n_dofs)

    @cached_property
    def _work(self):
        """The kernel's work arrays, reused by every call: the gathered cell
        temperatures, the point rows [T; grad T] with room after them for
        u^2, so that [u; u^2] is one contiguous block, and the local loads.
        Allocated on the first call, so that a system whose loads are never
        evaluated (set-up, `phmix verify`) holds none."""
        nb, n_cells = self._gather.shape
        nq = self._wdet.size
        return (np.empty((nb, n_cells)),
                np.empty((nq + self._back.shape[1], n_cells)),
                np.empty((nb, n_cells)))

    def loads_tangent(self, s: np.ndarray) -> np.ndarray:
        """Exact tangent of `assemble_loads` at s, as one 8x8 block per cell.

        Returns (8, 8, n_cells) `local`, local[a, b, c] = d(local load a of
        cell c) / d(s at local node b of cell c); `assemble_loads`' scatter
        sums these blocks into d loads / d s.  With dT = (T / rho c) ds at the
        nodes, dT_q and dg_q from `_interp`, dflux = -lambda (dg / T_q -
        g dT_q / T_q^2) and dprod = 2 flux . dflux / lambda, the block is
        `_flux_test` dflux + `_prod_test` dprod.  Collecting the terms by
        their pointwise factor makes it one GEMM, like the kernel: the 64-row
        `_tangent_table` of test x trial products, built once per system,
        against the point fields 1 / T_q, prod / T_q and flux / T_q, then a
        scaling of column b by dT_b / ds_b.
        """
        nq, nb = self._wdet.size, self._gather.shape[0]
        lam = self.material.conductivity
        tq, gq = self._quad_fields(s)
        inv = 1.0 / tq
        flux = gq * (-lam * inv)[:, None, :]
        prod = (flux * flux).sum(axis=1) / lam
        points = np.concatenate([inv, prod * inv,
                                 (flux * inv[:, None, :]).reshape(3 * nq, -1)])
        local = (self._tangent_table @ points).reshape(nb, nb, -1)
        local *= temperature_of_entropy(s, self.material)[self._gather] \
            / self.material.rho_c
        return local

    @cached_property
    def _tangent_table(self) -> np.ndarray:
        """The (64, 5 nq) test x trial table of `loads_tangent`, against the
        point fields [1 / T_q; prod / T_q; flux / T_q]: dflux = -(lambda G_b
        + flux V_b) dT_b / T_q and dprod = -2 (flux . G_b + prod V_b) dT_b /
        T_q per unit dT_b.  Built on the first tangent, so that building a
        system does not pay for it."""
        nq, nb = self._wdet.size, self._gather.shape[0]
        lam = self.material.conductivity
        vals = self._interp[:nq]                      # V[q, b]
        grads = self._interp[nq:].reshape(nq, 3, nb)  # G[q, d, b]
        ftest = self._flux_test.reshape(nb, nq, 3)    # F[a, q, d]
        ptest = self._prod_test                       # P[a, q]
        return np.concatenate([
            -lam * np.einsum("aqd,qdb->abq", ftest, grads),
            -2.0 * np.einsum("aq,qb->abq", ptest, vals),
            -(np.einsum("aqd,qb->abqd", ftest, vals)
              + 2.0 * np.einsum("aq,qdb->abqd", ptest, grads))
            .reshape(nb, nb, 3 * nq)], axis=2).reshape(nb * nb, 5 * nq)

    def entropy_production(self, state: HeatState) -> float:
        """Total production integral(lambda |grad T|^2 / T^2) >= 0."""
        _, prod = self._flux_production(state.s)
        return float(self._wdet @ prod.sum(axis=1))

    def port_loads(self, s: np.ndarray, wall_temperature,
                   ext_temperature: float | None, *,
                   s_old: np.ndarray, dt: float):
        """Loads with the face ports pinned, and the port outputs.

        Pins, in place, the coupling trace of s to the entropy of
        wall_temperature (one value per wall node) and the external face to
        that of ext_temperature, for each port that is not None, and
        evaluates the loads at the pinned state.  s is the midpoint of a step
        of length dt from s_old, so the pinned rows move at
        ds/dt = 2 (s - s_old) / dt, and the output of a pinned face is its
        load-form flux M ds/dt - loads on the face rows.  Passing s itself as
        s_old holds the faces (ds/dt = 0).

        Returns (loads, wall output, external output); an output is None for
        a face without a port.  A wall temperature that is not finite and
        positive raises StateValidityError.
        """
        faces = (
            (self.coupling_dofs, wall_temperature, "boundary temperature"),
            (self.external_dofs, ext_temperature, "external temperature"))
        for dofs, t, name in faces:
            if t is not None:
                s[dofs] = entropy_of_temperature(t, self.material, name)
        loads = self.assemble_loads(s)
        outputs = []
        for dofs, t, _ in faces:
            out = None
            if t is not None:
                rate = (s[dofs] - s_old[dofs]) * (2.0 / dt)
                out = self.mass[dofs] * rate - loads[dofs]
            outputs.append(out)
        return loads, outputs[0], outputs[1]
