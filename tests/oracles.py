"""Independent reference computations for the tests.

Everything here avoids the package's assembly/quadrature code paths:
hat functions are evaluated from the distance formula, integrals use
composite high-order Gauss-Legendre built directly on numpy, and
derivatives use central differences.  The Jacobian references are the
channel columns' pattern composed from block matrices, the heat kernel's
tangent by the complex step, which differentiates the kernel's arithmetic
on its own reference tables, and the midpoint Jacobian assembled as a
sorted CSC matrix in the packed order, the stepper's earlier layout, which
its band must equal entry for entry.  The midpoint residual's
reference composes the subsystems' own operators field by field, in the
unpacked form the stepper's packed residual must match bit for bit, and
the ledger's port powers are also formed through surface mass solves, the
route the stepper's load-form powers must match to round-off.
"""

import numpy as np
import scipy.sparse as sp

from phmix.fluid import FluidState

GAUSS_ORDER = 24


def gauss(a, b, order=GAUSS_ORDER):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def integrate(fn, a, b, pieces=8, order=GAUSS_ORDER):
    """Composite Gauss quadrature of fn over [a, b]."""
    edges = np.linspace(a, b, pieces + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss(lo, hi, order)
        total += float(w @ np.asarray(fn(x), dtype=float))
    return total


def integrate_2d(fn, ax, bx, ay, by, pieces=8, order=GAUSS_ORDER):
    """Composite tensor Gauss quadrature of fn(x, y) over a rectangle."""
    ex = np.linspace(ax, bx, pieces + 1)
    ey = np.linspace(ay, by, pieces + 1)
    total = 0.0
    for lx, hx in zip(ex[:-1], ex[1:]):
        xq, wx = gauss(lx, hx, order)
        for ly, hy in zip(ey[:-1], ey[1:]):
            yq, wy = gauss(ly, hy, order)
            vals = np.asarray(fn(xq[:, None], yq[None, :]), dtype=float)
            total += float(wx @ vals @ wy)
    return total


def hat(x, node, h, periodic=False, length=None):
    """P1 hat centered at `node`, evaluated from the distance formula."""
    d = np.asarray(x, dtype=float) - node
    if periodic:
        d = (d + 0.5 * length) % length - 0.5 * length
    return np.maximum(0.0, 1.0 - np.abs(d) / h)


def hat_deriv(x, node, h, periodic=False, length=None):
    """Derivative of the hat (±1/h inside the support, 0 outside)."""
    d = np.asarray(x, dtype=float) - node
    if periodic:
        d = (d + 0.5 * length) % length - 0.5 * length
    inside = np.abs(d) < h
    return np.where(inside, -np.sign(d) / h, 0.0)


def mesh_nodes(start, end, n_cells, periodic=False):
    pts = np.linspace(start, end, n_cells + 1)
    return pts[:-1] if periodic else pts


def mass_matrix_oracle(start, end, n_cells, periodic=False):
    """Entrywise quadrature of the P1 mass matrix, cell by cell."""
    nodes = mesh_nodes(start, end, n_cells, periodic)
    h = (end - start) / n_cells
    length = end - start
    n = len(nodes)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = integrate(
                lambda x: hat(x, nodes[i], h, periodic, length)
                * hat(x, nodes[j], h, periodic, length),
                start, end, pieces=n_cells)
    return out


def stiffness_matrix_oracle(start, end, n_cells, coefficient=1.0,
                            periodic=False):
    """Entrywise quadrature of the P1 stiffness matrix."""
    nodes = mesh_nodes(start, end, n_cells, periodic)
    h = (end - start) / n_cells
    length = end - start
    n = len(nodes)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = integrate(
                lambda x: coefficient
                * hat_deriv(x, nodes[i], h, periodic, length)
                * hat_deriv(x, nodes[j], h, periodic, length),
                start, end, pieces=n_cells)
    return out


def eta_integrals_oracle(circumference, n_cells):
    """Integral of each periodic hat over the azimuthal circle."""
    nodes = mesh_nodes(0.0, circumference, n_cells, periodic=True)
    h = circumference / n_cells
    return np.array([
        integrate(lambda x: hat(x, nodes[j], h, True, circumference),
                  0.0, circumference, pieces=n_cells)
        for j in range(n_cells)])


def coupling_block_oracle(a, b, n_ax, circumference, n_az):
    """D entries (k, (i,j)) = integral(chi_k chi_i) * integral(eta_j),
    built from the reference hats only."""
    m1 = mass_matrix_oracle(a, b, n_ax)
    c = eta_integrals_oracle(circumference, n_az)
    return np.kron(m1, c[None, :])


def central_difference(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def interp_1d(nodes, values, x, periodic=False, length=None):
    """Evaluate the P1 interpolant with given nodal values via the hats."""
    h = nodes[1] - nodes[0] if len(nodes) > 1 else length
    out = np.zeros_like(np.asarray(x, dtype=float))
    for i, node in enumerate(nodes):
        out = out + values[i] * hat(x, node, h, periodic, length)
    return out


def two_body_equilibrium_temperature(total_energy, heat_mat, volume,
                                     fluid_mat, length):
    """Equilibrium temperature of the lumped two-body exchange: both
    Hamiltonians are linear in T, so conservation fixes T directly."""
    rc = heat_mat.rho * heat_mat.c
    return (total_energy + rc * heat_mat.t_ref * volume) / \
        (rc * volume + fluid_mat.c_v * length)


def jacobian_pattern_oracle(sim):
    """The pattern of the midpoint Jacobian's channel columns composed block
    by block: channel rows from identities and grad_pairing, solid rows and
    wall rows from the loads of the wall trace, the wall rows summed along
    the azimuth into the channel entropy rows."""
    nf, nfree = sim._nf, sim._nfree
    eye = sp.identity(nf, format="csr")
    grad = sp.csr_matrix(sim.fluid.grad_pairing != 0)
    inner = np.ones(nf)
    inner[[0, -1]] = 0.0
    sealed = sp.diags(inner) @ grad
    pattern = sp.bmat([[eye, grad, None],
                       [sealed, eye, sealed],
                       [eye, eye, eye]], format="csr")
    if sim.coupled:
        heat = sim.heat
        n_solid = heat.n_dofs
        cells = heat.dofmap
        incidence = sp.csr_matrix(
            (np.ones(cells.size), cells.ravel(),
             np.arange(0, cells.size + 1, cells.shape[1])),
            shape=(len(cells), n_solid))
        cdofs = heat.coupling_dofs
        trace = sp.csr_matrix(
            (np.ones(len(cdofs)), (cdofs, sim.ops.embed(np.arange(nf)))),
            shape=(n_solid, nf))
        state = sp.hstack([trace, sp.csr_matrix((n_solid, nf)), trace])
        loads = (incidence.T @ (incidence @ state)).tocsr()
        wall = sp.vstack([sp.csr_matrix((2 * nf, 3 * nf)), trace.T @ loads])
        pattern = sp.vstack([loads[sim._free], pattern + wall])
    pattern = sp.csc_matrix(pattern, dtype=bool)
    pattern.eliminate_zeros()
    pattern.sort_indices()
    return pattern


def complex_step_loads_tangent(heat, s, h=1e-30):
    """d loads / d s (n_dofs, n_dofs) of the heat load kernel at s by the
    complex step (Squire & Trapp 1998): column j is Im loads(s + i h e_j) / h.
    No difference is taken, so the columns are exact to round-off for any
    small h.

    The kernel is written out again in complex arithmetic on the system's
    reference tables: the exponential law, the interpolation GEMM, the flux
    -lambda g / T and the production flux . flux / lambda (no conjugate, so
    that it stays analytic), the test GEMMs, and a scatter with np.add.at,
    because np.bincount takes no complex weights.
    """
    mat = heat.material
    lam = mat.conductivity
    nq = heat._wdet.size
    out = np.empty((heat.n_dofs, heat.n_dofs))
    for j in range(heat.n_dofs):
        sc = s.astype(complex)
        sc[j] += 1j * h
        t = mat.t_ref * np.exp(sc / mat.rho_c)
        q = heat._interp @ t[heat._gather]
        tq, gq = q[:nq], q[nq:].reshape(nq, 3, -1)
        flux = gq * (-lam / tq)[:, None, :]
        prod = (flux * flux).sum(axis=1) / lam
        local = heat._flux_test @ flux.reshape(3 * nq, -1) \
            + heat._prod_test @ prod
        loads = np.zeros(heat.n_dofs, dtype=complex)
        np.add.at(loads, heat._gather.ravel(), local.ravel())
        out[:, j] = loads.imag / h
    return out


def midpoint_residual_oracle(sim, x):
    """The midpoint residual M (x1 - x0) - dt F(x_mid) at x, assembled field
    by field from unpacked states, for the step `sim` is in (its `_s_old`
    and packed `_x_old`), without touching `sim`.  Returns (residual,
    (t_m, s_mid, wall, ext, wall_sums)), the port fields in the order
    `_residual` leaves them in `sim._ports`, wall_sums = embed_t(wall)."""
    dt = sim.cfg.dt
    s0 = sim._s_old
    fl0 = FluidState(*sim._unpack_fluid(sim._x_old))
    phi1, vel1, sf1 = sim._unpack_fluid(x)
    f, t_m = sim.fluid.loads(FluidState(0.5 * (fl0.phi + phi1),
                                        0.5 * (fl0.vel + vel1),
                                        0.5 * (fl0.s + sf1)))
    if sim.coupled:
        heat, free, s1_free = sim.heat, sim._free, x[:sim._nfree]
        s_mid = np.empty(heat.n_dofs)
        s_mid[free] = 0.5 * (s0[free] + s1_free)
        loads, wall, ext = heat.port_loads(
            s_mid, sim.ops.embed(t_m), sim.ext_temperature, s_old=s0, dt=dt)
        wall_sums = sim.ops.embed_t(wall)
        w_load = -wall_sums
        r_solid = heat.mass[free] * (s1_free - s0[free]) - dt * loads[free]
    else:
        s_mid = wall = ext = wall_sums = None
        w_load = 0.0
        r_solid = np.empty(0)
    mf = sim.fluid.mass
    r_phi = mf * (phi1 - fl0.phi) - dt * f.phi
    r_vel = mf * (vel1 - fl0.vel) - dt * f.vel
    r_vel[0] = mf[0] * vel1[0]
    r_vel[-1] = mf[-1] * vel1[-1]
    r_s = mf * (sf1 - fl0.s) - dt * (f.s + w_load)
    return np.concatenate([r_solid, r_phi, r_vel, r_s]), (t_m, s_mid, wall,
                                                           ext, wall_sums)


def surface_solve_powers(ops, t_m, wall, ext, t_ext):
    """The ledger's port powers through the nodal output fields, the way
    the stepper first formed them: one surface mass solve per face port,
    v = m_psi^-1 wall, then P_couple_heat = embed(t_m)' m_psi v,
    P_couple_fluid = -t_m' d_chi v and P_ext = T_ext 1' m_psi v_ext.
    Returns (p_heat, p_fluid, p_ext), p_ext 0.0 without an external
    port."""
    v = ops.solve_psi(wall)
    p_heat = ops.surface_inner(ops.embed(t_m), v)
    p_fluid = -float(t_m @ (ops.d_chi @ v))
    p_ext = 0.0
    if ext is not None:
        u_ext = np.full(ops.n_psi, t_ext)
        p_ext = ops.surface_inner(u_ext, ops.solve_psi(ext))
    return p_heat, p_fluid, p_ext


def band_to_dense(band, layout):
    """The Jacobian held in the (ldab, n) LAPACK band `band` of `layout`
    (slab order), as a dense matrix in the packed order.  The kl fill rows
    on top, which only the factorization writes, must be empty."""
    kl, ku = layout.kl, layout.ku
    n = band.shape[1]
    assert band.shape == (layout.ldab, n)
    assert not band[:kl].any()
    d, j = np.mgrid[kl:layout.ldab, 0:n]
    i = j + d - (kl + ku)  # band row d of column j is matrix row i
    inside = (i >= 0) & (i < n)
    dense = np.zeros((n, n))
    order = layout.order
    dense[order[i[inside]], order[j[inside]]] = band[d[inside], j[inside]]
    return dense


def band_structure(layout, n):
    """Boolean (n, n) structure in the packed order of the entries a build
    writes: the kept tangent entries, the free diagonal and the channel
    pattern."""
    flat = np.zeros(n * layout.ldab + 1)
    flat[layout.pos] = flat[layout.diag] = flat[layout.chan] = 1.0
    band = flat[:-1].reshape(n, layout.ldab).T
    return band_to_dense(band, layout) != 0.0


def csc_jacobian_layout(sim):
    """The index arrays of the CSC assembly in the packed order: the solid
    block's structure from one sort of the tangent entries' (column, row)
    keys, with the data position `pos` of every tangent entry (past the
    block for a held one) and `diag` of the free diagonal, then the
    channel block of `_jacobian_pattern`.  Returns (pos, diag, indices,
    indptr)."""
    nf, nfree, nx = sim._nf, sim._nfree, sim._nx
    pattern = sim._jacobian_pattern()
    pos = diag = indices = np.empty(0, dtype=np.intp)
    indptr = np.zeros(1, dtype=np.intp)
    if sim.coupled:
        col_of = np.full(sim.heat.n_dofs, -1)
        col_of[sim._free] = np.arange(nfree)
        gather = sim.heat._gather
        row = sim._solid_rows()[gather][:, None, :]
        col = col_of[gather][None, :, :]
        key = col * nx + row
        key[(row < 0) | (col < 0)] = nx * nx
        keys, pos = np.unique(key.ravel(), return_inverse=True)
        keys = keys[keys < nx * nx]
        indices = keys % nx
        indptr = np.searchsorted(keys // nx, np.arange(nfree + 1))
        diag = np.searchsorted(keys, np.arange(nfree) * (nx + 1))
    return (pos, diag, np.concatenate([indices, pattern.indices]),
            np.concatenate([indptr, indptr[-1] + pattern.indptr[1:]]))


def csc_jacobian_structure(sim):
    """(rows, cols) in the packed order of every entry of the CSC
    assembly."""
    _, _, indices, indptr = csc_jacobian_layout(sim)
    return indices, np.repeat(np.arange(sim._nx), np.diff(indptr))


def csc_jacobian_oracle(sim, x, r):
    """The midpoint Jacobian at x (residual r, `sim._residual` last run at
    x) as the stepper assembled it before its band: a CSC matrix on
    `csc_jacobian_layout`, the tangent blocks summed with np.bincount and
    scaled in the same order of operations, and the channel columns by
    colored forward differences."""
    nf, nfree, nx = sim._nf, sim._nfree, sim._nx
    pos, diag, indices, indptr = csc_jacobian_layout(sim)
    data = []
    if sim.coupled:
        local = sim.heat.loads_tangent(sim._ports[1])
        solid = np.bincount(pos, weights=local.ravel())[:indptr[nfree]]
        solid *= -0.5 * sim.cfg.dt
        solid[diag] += sim.heat.mass[sim._free]
        data.append(solid)
    pattern = sim._jacobian_pattern()
    cols = np.repeat(np.arange(3 * nf), np.diff(pattern.indptr))
    colors = (3 * np.arange(3)[:, None] + np.arange(nf) % 3).ravel()
    xc = x[nfree:]
    h = sim._FD_EPS * np.maximum(np.abs(xc), sim._typ[nfree:])
    x_h = xc + h
    diffs = np.empty((9, len(x)))
    for c in range(9):
        trial = x.copy()
        trial[nfree:] = np.where(colors == c, x_h, xc)
        diffs[c] = sim._residual(trial) - r
    data.append(diffs[colors[cols], pattern.indices] / h[cols])
    return sp.csc_matrix((np.concatenate(data), indices, indptr),
                         shape=(nx, nx))
