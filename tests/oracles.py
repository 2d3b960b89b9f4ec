"""Independent reference computations for the tests.

Everything here avoids the package's assembly/quadrature code paths:
hat functions are evaluated from the distance formula, integrals use
composite high-order Gauss-Legendre built directly on numpy, and
derivatives use central differences.  The Jacobian references are its
pattern composed from block matrices, the heat kernel's tangent by the
complex step, which differentiates the kernel's arithmetic on its own
reference tables, and the midpoint Jacobian composed from sparse blocks by
the chain rule of the residual, as a CSC matrix in the packed order.  The
chord solver's mode band, taken back by the real Fourier rows of the
azimuth (`azimuthal_rows`, built from complex exponentials, and
`mode_transform`), must equal it to round-off at an azimuthally uniform
state, and at any state once its cell blocks are averaged along the
azimuth, as the chord matrix averages them.  The midpoint residual's
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
    """The structural pattern (nx, nx) of the midpoint Jacobian composed
    block by block in the packed order: channel rows from identities and
    grad_pairing; the solid loads' rows from the cells' incidence, on the
    free columns and, through the wall trace, on the (phi, s) columns of
    each coupling dof's channel node; the wall rows summed along the
    azimuth into the channel entropy rows."""
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
        free = sp.identity(n_solid, format="csr")[:, sim._free]
        state = sp.hstack([free, trace, sp.csr_matrix((n_solid, nf)), trace])
        loads = (incidence.T @ (incidence @ state)).tocsr()
        wall = sp.vstack([sp.csr_matrix((2 * nf, nfree + 3 * nf)),
                          trace.T @ loads])
        pattern = sp.vstack([loads[sim._free],
                             sp.hstack([sp.csr_matrix((3 * nf, nfree)),
                                        pattern]) + wall])
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


def midpoint_residual_oracle(sim, x, x_old, s_old):
    """The midpoint residual M (x1 - x0) - dt F(x_mid) at x, assembled field
    by field from unpacked states, for the step of `sim` from the packed old
    state x_old with solid entropy s_old.  Returns (residual, (fluid_mid,
    t_m, s_mid, wall, ext, wall_sums)), the port fields in the order
    `sim._residual` returns them, wall_sums = embed_t(wall)."""
    dt = sim.cfg.dt
    s0 = s_old
    fl0 = FluidState(*sim._unpack_fluid(x_old))
    phi1, vel1, sf1 = sim._unpack_fluid(x)
    fluid_mid = FluidState(0.5 * (fl0.phi + phi1), 0.5 * (fl0.vel + vel1),
                           0.5 * (fl0.s + sf1))
    f, t_m = sim.fluid.loads(fluid_mid)
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
    return np.concatenate([r_solid, r_phi, r_vel, r_s]), (
        fluid_mid, t_m, s_mid, wall, ext, wall_sums)


def surface_solve_powers(ops, t_m, wall, ext, t_ext):
    """The ledger's port powers through the nodal output fields, the way
    the stepper first formed them: one surface mass solve per face port,
    v = m_psi^-1 wall, then P_couple_heat = embed(t_m)' m_psi v,
    P_couple_fluid = -t_m' d_chi v and P_ext = T_ext 1' m_psi v_ext.
    Returns (p_heat, p_fluid, p_ext), p_ext 0.0 without an external
    port."""
    v = ops.solve_psi(wall)
    p_heat = float(ops.embed(t_m) @ (ops.m_psi @ v))
    p_fluid = -float(t_m @ (ops.d_chi @ v))
    p_ext = 0.0
    if ext is not None:
        u_ext = np.full(ops.n_psi, t_ext)
        p_ext = float(u_ext @ (ops.m_psi @ ops.solve_psi(ext)))
    return p_heat, p_fluid, p_ext


def band_to_csr(band, kl, ku):
    """The matrix held in the (2 kl + ku + 1, n) LAPACK band `band`, as a
    CSR matrix of its nonzero entries in the band's own order.  The kl fill
    rows on top, which only the factorization writes, must be empty."""
    n = band.shape[1]
    assert band.shape == (2 * kl + ku + 1, n)
    assert not band[:kl].any()
    d, j = np.nonzero(band)
    i = j + d - (kl + ku)  # band row d of column j is matrix row i
    assert np.all((i >= 0) & (i < n))
    return sp.csr_matrix((band[d, j], (i, j)), shape=(n, n))


def azimuthal_rows(n_az):
    """The real Fourier rows of the chord solver's azimuthal transform, from
    the complex exponentials: row 0 sums, then the orthonormal cos rows of
    modes 1 to n_az // 2 (the Nyquist mode's scaled by sqrt(1 / n_az), the
    others by sqrt(2 / n_az)), then the orthonormal sin rows of modes 1 to (n_az - 1) // 2.  Returns (rows,
    the mode of each row)."""
    half = n_az // 2
    modes = np.concatenate([np.arange(half + 1),
                            np.arange(1, (n_az + 1) // 2)])
    phase = np.exp(2j * np.pi * np.outer(modes, np.arange(n_az)) / n_az)
    rows = np.where(np.arange(n_az)[:, None] <= half, phase.real, phase.imag)
    norm = np.where(modes == 0, 1.0,
                    np.sqrt(np.where(2 * modes == n_az, 1.0, 2.0) / n_az))
    return rows * norm[:, None], modes


def azimuthal_lines(sim):
    """(n_az, the (axial, thickness) line of each free solid unknown, its
    azimuthal node, the number of lines): packed unknown p is dof (i, j,
    k) in dof order, k over the nk free thickness nodes, on line i nk + k."""
    nfree, nf = sim._nfree, sim._nf
    n_az = sim.heat.domain.azimuthal.n_nodes if sim.coupled else 1
    nk = nfree // (nf * n_az)
    i, rest = np.divmod(np.arange(nfree), n_az * nk)
    j, k = np.divmod(rest, nk) if nk else (rest, rest)
    return n_az, i * nk + k, j, nf * nk


def mode_transform(sim, fourier=None):
    """The sparse (n, n) matrix T that takes the stepper's packed vector to
    the chord solver's mode band order: the free solid entropy of every
    azimuthal line to its `azimuthal_rows` values (row c of line l at
    c lines + l), the channel unchanged, then the band's permutation
    `order`.  The band holds T J T^T, J the chord matrix in the packed
    order, and the chord solve is T^T B^-1 T.  `fourier` replaces the
    Fourier rows."""
    n, nfree = sim.chord.n, sim._nfree
    n_az, line, j, lines = azimuthal_lines(sim)
    if fourier is None:
        fourier = azimuthal_rows(n_az)[0]
    rows = np.concatenate([(np.arange(n_az)[:, None] * lines + line).ravel(),
                           np.arange(nfree, n)])
    cols = np.concatenate([np.tile(np.arange(nfree), n_az),
                           np.arange(nfree, n)])
    vals = np.concatenate([fourier[:, j].ravel(), np.ones(n - nfree)])
    transformed = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return transformed[sim.chord.layout.order]


def mode_pattern_oracle(sim):
    """The structural pattern (n, n) of the mode band, in its order, from
    the packed pattern `jacobian_pattern_oracle`: every mode holds the
    pattern of the free solid collapsed along the azimuth (a line reaches
    another if any of their dofs do), and mode 0 also the channel, which
    reaches and is reached by the lines as their dofs are.  A CSR matrix
    of booleans."""
    n, nfree = sim.chord.n, sim._nfree
    n_az, line, _, lines = azimuthal_lines(sim)
    packed = jacobian_pattern_oracle(sim).astype(float)
    collapse = sp.block_diag([
        sp.csr_matrix((np.ones(nfree), (line, np.arange(nfree))),
                      shape=(lines, nfree)),
        sp.identity(n - nfree)])
    mode0 = sp.coo_matrix(collapse @ packed @ collapse.T)
    solid = sp.coo_matrix(mode0.tocsr()[:lines, :lines])
    at0 = np.concatenate([np.arange(lines), np.arange(nfree, n)])
    rows = [at0[mode0.row]] + [c * lines + solid.row for c in range(1, n_az)]
    cols = [at0[mode0.col]] + [c * lines + solid.col for c in range(1, n_az)]
    rank = sim.chord.layout.rank
    rows, cols = (rank[np.concatenate(ix)] for ix in (rows, cols))
    return sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)),
                         shape=(n, n))


def csc_jacobian_oracle(sim, x, x_old, s_old, average=False):
    """The midpoint Jacobian at x of the step of `sim` from x_old (solid
    entropy s_old), at the port fields of `midpoint_residual_oracle`
    there, as a CSC matrix in the packed order, composed with sparse blocks
    by the chain rule of the residual: mass - (dt/2)
    `FluidSystem.loads_tangent` on the channel block, plus R (mass - (dt/2) d loads) C for the solid loads,
    with d loads the tangent blocks summed into (n_solid, n_solid), R the
    residual row of each solid row (its free row, or its channel node's
    entropy row for a coupling dof; none for a held external dof) and C the
    end-of-step change of each solid dof per unknown (1 on a free dof's own
    column; ds_w/dx_mid = (rho c / t_m) dT/dx_mid from its node's phi and s
    for a coupling dof)."""
    nf, nfree, nx = sim._nf, sim._nfree, sim.chord.n
    dt = sim.cfg.dt
    fluid_mid, t_m, s_mid = midpoint_residual_oracle(sim, x, x_old,
                                                     s_old)[1][:3]
    fluid_tan, t_grad = sim.fluid.loads_tangent(fluid_mid)
    chan = sp.diags(sim._mass_rows[nfree:]) - 0.5 * dt * sp.csr_matrix(
        fluid_tan)
    jac = sp.block_diag([sp.csr_matrix((nfree, nfree)), chan], format="csr")
    if sim.coupled:
        heat, free = sim.heat, sim._free
        n_solid = heat.n_dofs
        local = heat.loads_tangent(s_mid)
        if average:  # each cell block the mean over its azimuthal ring
            dom = heat.domain
            rings = local.reshape(8, 8, dom.axial.n_cells, -1,
                                  dom.thickness.n_cells)
            local = np.broadcast_to(rings.mean(axis=3, keepdims=True),
                                    rings.shape).reshape(local.shape)
        gather = heat._gather
        dloads = sp.csr_matrix(
            (local.ravel(),
             (np.broadcast_to(gather[:, None, :], local.shape).ravel(),
              np.broadcast_to(gather[None, :, :], local.shape).ravel())),
            shape=(n_solid, n_solid))
        cdofs = heat.coupling_dofs
        node = sim.ops.embed(np.arange(nf))
        rows = sp.csr_matrix(
            (np.ones(nfree + len(cdofs)),
             (np.concatenate([np.arange(nfree), nfree + 2 * nf + node]),
              np.concatenate([free, cdofs]))),
            shape=(nx, n_solid))
        dsw = heat.material.rho_c / t_m * t_grad
        cols = sp.csr_matrix(
            (np.concatenate([np.ones(nfree), dsw[0, node], dsw[1, node]]),
             (np.concatenate([free, cdofs, cdofs]),
              np.concatenate([np.arange(nfree), nfree + node,
                              nfree + 2 * nf + node]))),
            shape=(n_solid, nx))
        jac = jac + rows @ (sp.diags(heat.mass) - 0.5 * dt * dloads) @ cols
    return jac.tocsc()
