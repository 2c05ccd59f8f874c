"""Pointwise series references for the far field and the near fields of a ball.

The package assembles its operators from modal coefficients and never
evaluates a field at a point. These evaluators do, from the same
coefficients and radial profiles: the far field pattern E_inf and the
magnetic and impedance operator kernels, the plane wave, and the total
and scattered fields at given points. The tests check physics
identities on them and compare the assembled operators against them
column by column. ``tikhonov_solve`` and ``from_vectors`` are the
field-level forms of the package's normal-equation solver and frame
projection that the solver tests read.

The operator theorems of acceptance criteria 04 and 05 are checked here
too, on no path a command runs: the absorption energy identity, which
integrates the interior field, and the positivity of Im((-ik F_e) g, g),
with the discrete inner product, norm and operator action they read.
"""

from dataclasses import replace

import numpy as np

from scatsig.ffop import TangentVectorField
from scatsig.forward import (
    RadialLayer,
    _modal_solve,
    impedance_coefficients,
    mie_coefficients,
    radial_energy,
    radial_profile,
)
from scatsig.scan import _NormalSolver
from scatsig.sphfun import mode_list, vsh_tables


def from_vectors(quad, vectors):
    """Project ambient vectors at the nodes onto the tangent frames."""
    return TangentVectorField(quad, quad.frame_components(np.asarray(vectors, complex)))


def tikhonov_solve(A, rhs, alpha="auto"):
    """Regularized solution of A g = rhs by the scans' normal-equation solver, on a copy of A."""
    g = _NormalSolver(replace(A, matrix=A.matrix.copy()), alpha).solve(rhs.coeffs.reshape(-1))
    return TangentVectorField.from_flat(A.quad, g)


def inner_product(u, v):
    """Discrete L2 inner product sum_j w_j u_j . conj(v_j), with the weights of u's rule."""
    if u.quad.n_nodes != v.quad.n_nodes:
        raise ValueError("fields live on different quadratures")
    return complex(np.sum(u.quad.weights[:, None] * u.coeffs * v.coeffs.conj()))


def field_norm(g):
    """Discrete L2 norm sqrt(sum_j w_j |g_j|^2)."""
    return float(np.sqrt(np.sum(g.quad.weights[:, None] * np.abs(g.coeffs) ** 2)))


def apply(A, g):
    """Action of a dense operator on a TangentVectorField."""
    return TangentVectorField.from_flat(A.quad, A.matrix @ g.coeffs.reshape(-1))


def modal_weights(k, L, dirs, amps):
    """Degrees l and incident modal coefficients a_lm (TE), b_lm (TM) of a plane-wave sum.

        a_lm = 4 pi i^(l+1) k sum_j (p_j . conj V_lm(d_j))
        b_lm = 4 pi i^(l+2) k sum_j (p_j . conj U_lm(d_j))

    over directions d_j and amplitudes p_j, both of shape (n, 3).
    """
    _, U, V = vsh_tables(L, dirs)
    ells, _ = mode_list(L)
    pv = np.einsum("jc,mjc->m", amps, V.conj())
    pu = np.einsum("jc,mjc->m", amps, U.conj())
    a = 4.0 * np.pi * 1j ** (ells + 1) * k * pv
    b = 4.0 * np.pi * 1j ** (ells + 2) * k * pu
    return ells, a, b


def interior_solutions(medium, k):
    """Per-layer radial profiles of the total interior field.

    Returns (coefs, layers) where layers[j] is the RadialLayer of layer
    j with (TE, TM) rows of zeta = A psi + B chi coefficients over
    degree, scaled so the exterior incident wave has unit modal
    amplitude. ``coefs`` are the exterior scattering coefficients, and
    the profiles come from the modal solve at their truncation degree.
    """
    coefs = mie_coefficients(medium, k)
    _, _, tau, layers = _modal_solve(medium, k, coefs.L)
    return coefs, [replace(lay, A=tau * lay.A, B=tau * lay.B) for lay in layers]


def energy_identity_residual(A, g, h, medium):
    """LHS minus RHS of the absorption energy identity at the operator's k.

    RHS = -2 pi (Ag, h) - 2 pi (g, Ah) - (Ag, Ah) in the discrete inner
    product. LHS = k * sum_layers Im(n) int |interior field cross term|,
    evaluated mode by mode with the exact radial profiles of ``medium``
    (48-point Gauss per layer); it vanishes when the index is real.
    Returns the complex difference.
    """
    quad, k = A.quad, A.k
    ag = apply(A, g)
    ah = apply(A, h)
    rhs = (
        -2.0 * np.pi * inner_product(ag, h)
        - 2.0 * np.pi * inner_product(g, ah)
        - inner_product(ag, ah)
    )
    lhs = 0.0 + 0.0j
    if any(abs(n.imag) != 0.0 for _, n in medium.layers):
        coefs, layers = interior_solutions(medium, k)
        L = coefs.L
        # the Herglotz kernels g, h are plane-wave sums over the quadrature nodes
        w = quad.weights[:, None]
        ells, a_g, b_g = modal_weights(k, L, quad.nodes, w * g.vectors())
        _, a_h, b_h = modal_weights(k, L, quad.nodes, w * h.vectors())
        for lay, (_, n_layer) in zip(layers, medium.layers):
            if n_layer.imag == 0.0:
                continue
            i_te, i_tm = radial_energy(lay, L, 48)
            lhs += k * n_layer.imag * np.sum(
                a_g * a_h.conj() * i_te[0, ells] + b_g * b_h.conj() * i_tm[1, ells]
            )
    return complex(lhs - rhs)


def lidski_positivity(A, samples=32, seed=0):
    """Minimum of Im((-ik A) g, g) over random unit kernels g.

    The scaled electric operator -ik F_e has nonnegative imaginary part
    whenever Im n >= 0, which is what puts its eigenvalues in the closed
    upper half plane (trace-class positivity argument). Sampling uses a
    seeded Philox stream, so the same call returns the same minimum.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    quad = A.quad
    worst = np.inf
    for _ in range(samples):
        c = gen.standard_normal((quad.n_nodes, 2)) + 1j * gen.standard_normal((quad.n_nodes, 2))
        g = TangentVectorField(quad, c)
        nrm = field_norm(g)
        if nrm == 0.0:
            continue
        g = TangentVectorField(quad, c / nrm)
        val = (-1j * A.k) * inner_product(apply(A, g), g)
        worst = min(worst, val.imag)
    return float(worst)


# Incidence and observation families of the alpha term and the beta term:
# electric (alpha on V(d) x V(xh)) and dual (alpha on U x U, the magnetic
# and impedance operator kernels).
_PAIRINGS = {
    "electric": ("V", "V", "U", "U"),
    "dual": ("U", "U", "V", "V"),
}


def _far_field_sum(alpha, beta, L, d, p, xhat, pairing="electric", scale=4.0 * np.pi):
    """Common bilinear far field series.

        scale * sum [ alpha_l (p.conj X(d)) Y(xh) + beta_l (p.conj X'(d)) Y'(xh) ]

    with the harmonic families X, Y, X', Y' in {U, V} chosen by
    ``pairing`` (see _PAIRINGS). Broadcasts d, p, xhat against each other.
    """
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=complex)
    xhat = np.asarray(xhat, dtype=float)
    shape = np.broadcast_shapes(d.shape, p.shape, xhat.shape)
    d_b = np.broadcast_to(d, shape).reshape(-1, 3)
    p_b = np.broadcast_to(p, shape).reshape(-1, 3)
    x_b = np.broadcast_to(xhat, shape).reshape(-1, 3)
    _, U_d, V_d = vsh_tables(L, d_b)
    _, U_x, V_x = vsh_tables(L, x_b)
    at_d = {"U": U_d, "V": V_d}
    at_x = {"U": U_x, "V": V_x}
    a_d, a_x, b_d, b_x = _PAIRINGS[pairing]
    ells, _ = mode_list(L)
    w_a = alpha[ells, None] * np.einsum("pc,mpc->mp", p_b, at_d[a_d].conj())
    w_b = beta[ells, None] * np.einsum("pc,mpc->mp", p_b, at_d[b_d].conj())
    out = np.einsum("mp,mpc->pc", w_a, at_x[a_x]) + np.einsum("mp,mpc->pc", w_b, at_x[b_x])
    return (scale * out).reshape(shape)


def electric_far_field(medium, k, d, p, xhat):
    """Far field pattern E_inf(xh; d, p) of the scattered electric field."""
    coefs = mie_coefficients(medium, k)
    return _far_field_sum(coefs.alpha, coefs.beta, coefs.L, d, p, xhat)


def magnetic_far_field_kernel(medium, k, d, q, xhat):
    """Magnetic far field operator kernel in the tangential dual pairing.

    This is the kernel whose quadrature against tangential q-fields
    produces the discretized magnetic far field operator:

        FF_m(xh; d, q) = (i/k) xh x E_inf(xh; d, d x q)
                       = -(4 pi i / k) sum [ alpha_l (q.conj U(d)) U(xh)
                                           + beta_l  (q.conj V(d)) V(xh) ].

    Diagonal in the harmonic basis with eigenvalues -(4 pi i/k) alpha_l
    and -(4 pi i/k) beta_l, which for lossless media lie exactly on the
    circle |z - 2 pi i/k| = 2 pi/k.
    """
    coefs = mie_coefficients(medium, k)
    return _far_field_sum(
        coefs.alpha, coefs.beta, coefs.L, d, q, xhat, pairing="dual", scale=-4.0j * np.pi / k
    )


def impedance_far_field_kernel(ball, k, d, q, xhat):
    """Impedance-ball kernel in the same dual pairing as the magnetic one."""
    coefs = impedance_coefficients(ball, k)
    return _far_field_sum(
        coefs.alpha, coefs.beta, coefs.L, d, q, xhat, pairing="dual", scale=-4.0j * np.pi / k
    )


def incident_field(k, d, p, x):
    """(E^i, H^i) of the plane wave at points x."""
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=complex)
    x = np.asarray(x, dtype=float)
    phase = np.exp(1j * k * (x @ d))
    p_perp = p - (d @ p) * d
    e = 1j * k * p_perp * phase[..., None]
    h = 1j * k * np.cross(d, p) * phase[..., None]
    return e, h


def _exterior_layer(coefs, k, a, incident):
    """Exterior profile psi + alpha xi (incident + scattered) or alpha xi alone.

    With xi = psi + i chi this is A psi + B chi for A = alpha (+ 1) and
    B = i alpha, per family (TE rows alpha, TM rows beta).
    """
    c = np.stack([coefs.alpha, coefs.beta])
    return RadialLayer(k, a, np.inf, c + (1.0 if incident else 0.0), 1j * c)


def _layer_field(lay, points, k, L, d, p):
    """(E, H) of the plane wave (d, p) from one layer's profile at points in its range."""
    ells, a, b = modal_weights(k, L, np.reshape(d, (1, 3)), np.reshape(p, (1, 3)))
    pts = np.asarray(points, dtype=float)
    r = np.linalg.norm(pts, axis=1)
    xhat = pts / r[:, None]
    Y, U, V = vsh_tables(L, xhat)
    (zeta_te, zeta_tm), (dzeta_te, dzeta_tm) = radial_profile(lay, r, L)
    kap = lay.kappa
    kr = kap * r
    te_tan = zeta_te[ells] / kr  # (M, n)
    tm_tan = -dzeta_tm[ells] / kr
    root = np.sqrt(ells * (ells + 1.0))
    tm_rad = -root[:, None] * zeta_tm[ells] / kr**2
    E = (
        np.einsum("m,mp,mpc->pc", a, te_tan, V)
        + np.einsum("m,mp,mpc->pc", b, tm_tan, U)
        + np.einsum("m,mp,mp,pc->pc", b, tm_rad, Y, xhat)
    )
    fac = kap / (1j * k)
    h_te_tan = -dzeta_te[ells] / kr
    h_te_rad = -root[:, None] * zeta_te[ells] / kr**2
    h_tm_tan = zeta_tm[ells] / kr
    H = fac * (
        np.einsum("m,mp,mpc->pc", a, h_te_tan, U)
        + np.einsum("m,mp,mp,pc->pc", a, h_te_rad, Y, xhat)
        + np.einsum("m,mp,mpc->pc", b, h_tm_tan, V)
    )
    return E, H


def total_field(medium, k, d, p, points, region=None):
    """Total (E, H) of the plane-wave scattering problem at given points.

    ``region`` picks the representation: layer index 0..J-1 forces the
    interior formula of that layer, "exterior" the incident+scattered
    series, None selects by radius. Forcing a representation is how the
    interface-continuity oracle evaluates one-sided limits.
    """
    pts = np.asarray(points, dtype=float)
    coefs, layers = interior_solutions(medium, k)
    exterior = _exterior_layer(coefs, k, medium.radius, incident=True)
    if region is not None:
        lay = exterior if region == "exterior" else layers[int(region)]
        return _layer_field(lay, pts, k, coefs.L, d, p)

    E = np.zeros(pts.shape, dtype=complex)
    H = np.zeros(pts.shape, dtype=complex)
    r = np.linalg.norm(pts, axis=1)
    for lay in layers + [exterior]:
        sub = (r >= lay.r_lo) & (r < lay.r_hi)
        if np.any(sub):
            E[sub], H[sub] = _layer_field(lay, pts[sub], k, coefs.L, d, p)
    return E, H


def scattered_field(medium, k, d, p, points):
    """Scattered (E, H) outside the scatterer (series in outgoing waves)."""
    pts = np.asarray(points, dtype=float)
    if np.any(np.linalg.norm(pts, axis=1) < medium.radius):
        raise ValueError("scattered_field is the exterior series; points must have r >= a")
    coefs = mie_coefficients(medium, k)
    lay = _exterior_layer(coefs, k, medium.radius, incident=False)
    return _layer_field(lay, pts, k, coefs.L, d, p)
