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
"""

from dataclasses import replace

import numpy as np

from scatsig.ffop import TangentVectorField
from scatsig.forward import (
    RadialLayer,
    _modal_weights,
    impedance_coefficients,
    interior_solutions,
    mie_coefficients,
    radial_profile,
)
from scatsig.scan import _NormalSolver
from scatsig.sphfun import mode_list, vsh_tables


def from_vectors(quad, vectors):
    """Project ambient vectors at the nodes onto the tangent frames."""
    return TangentVectorField(quad, quad.frame_components(np.asarray(vectors, complex)))


def tikhonov_solve(A, rhs, alpha="auto"):
    """Regularized solution of A g = rhs by the scans' normal-equation solver, on a copy of A."""
    g = _NormalSolver(replace(A, matrix=A.matrix.copy()), alpha).solve(rhs.flat())
    return TangentVectorField.from_flat(A.quad, g)


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
    ells, a, b = _modal_weights(k, L, np.reshape(d, (1, 3)), np.reshape(p, (1, 3)))
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
