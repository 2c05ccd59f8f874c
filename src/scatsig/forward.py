"""Series forward solvers for spherically symmetric scatterers.

Produces far field patterns and interior fields for:

* penetrable balls with piecewise-constant radial permittivity
  (``MediumSpec``), solved per mode by 2x2 transfer matrices,
* balls with a generalized impedance boundary condition
  (``ImpedanceBall``),
* electric point dipoles and Herglotz superpositions.

The scattering convention: incident plane wave

    E^i(x) = i k (p - (d.p) d) exp(i k x.d),   H^i = curl E^i / (i k),

total exterior field E = E^i + E^s with E^s outgoing. Per degree l the
scattered field carries coefficients alpha_l (TE, tangential kernel V)
and beta_l (TM, tangential kernel U) relative to the incident modal
coefficients. The far field of the scattered wave is then

    E_inf(xh; d, p) = 4 pi sum_lm [ alpha_l (p . conj V_lm(d)) V_lm(xh)
                                  + beta_l  (p . conj U_lm(d)) U_lm(xh) ].

The derivation of this form and of every boundary-matching formula below
lives in docs/derivations.md; each formula is cross-checked by residual
oracles in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .sphfun import mode_list, riccati_all, vsh_tables

_DECAY_TOL = 1.0e-14


class TruncationError(RuntimeError):
    """Modal coefficients failed to decay at the requested truncation."""


class ResonantParameterError(RuntimeError):
    """The impedance boundary system is singular for this parameter."""


@dataclass(frozen=True)
class MediumSpec:
    """Piecewise-constant radial relative permittivity profile.

    ``layers`` is a tuple of (outer_radius, n) pairs with strictly
    increasing radii; the background outside the last radius has n = 1.
    Hashable so solver results can be cached per medium.
    """

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("MediumSpec needs at least one layer")
        norm = tuple((float(r), complex(n)) for r, n in self.layers)
        object.__setattr__(self, "layers", norm)
        radii = [r for r, _ in norm]
        if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("layer radii must be positive and strictly increasing")
        for _, n in norm:
            if n.real <= 0 or n.imag < 0:
                raise ValueError("each layer needs Re n > 0 and Im n >= 0")

    @property
    def radius(self):
        """Outermost boundary radius."""
        return self.layers[-1][0]

    @property
    def is_vacuum(self):
        return all(n == 1 for _, n in self.layers)

    @staticmethod
    def ball(radius, n):
        """Homogeneous ball of the given radius and index."""
        return MediumSpec(((radius, n),))

    def to_json(self):
        return json.dumps(
            {"layers": [{"r": r, "n_re": n.real, "n_im": n.imag} for r, n in self.layers]}
        )

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        layers = tuple((lay["r"], complex(lay["n_re"], lay.get("n_im", 0.0))) for lay in data["layers"])
        return MediumSpec(layers)


@dataclass(frozen=True, eq=False)
class PlaneWave:
    """Incident plane wave: direction d, polarization p, wave number k."""

    d: np.ndarray
    p: np.ndarray
    k: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        p = np.asarray(self.p, dtype=complex)
        if abs(np.linalg.norm(d) - 1.0) > 1e-10:
            raise ValueError("incidence direction must be a unit vector")
        if self.k <= 0:
            raise ValueError("wave number must be positive")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class DipoleSource:
    """Electric point dipole at z with moment q."""

    z: np.ndarray
    q: np.ndarray
    k: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        q = np.asarray(self.q, dtype=complex)
        if np.linalg.norm(q) == 0:
            raise ValueError("dipole moment must be nonzero")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class ImpedanceBall:
    """Ball with boundary condition nu x curl E = lam * S(E_T) on r = R.

    ``s_kind`` selects S: "IDENTITY" for S = I, "CURL_CURL" for the
    smoothing operator built from the surface curl and the inverse
    Laplace-Beltrami operator (which annihilates gradient-type traces).
    """

    R: float
    lam: complex
    s_kind: str = "CURL_CURL"

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("radius must be positive")
        if self.s_kind not in ("IDENTITY", "CURL_CURL"):
            raise ValueError(f"unknown s_kind {self.s_kind!r}")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "R", float(self.R))


@dataclass(frozen=True, eq=False)
class ModalCoefficients:
    """Scattering coefficients alpha_l (TE), beta_l (TM) for l = 1..L.

    Arrays are indexed by degree l (slot 0 unused, kept zero) and are
    read-only. ``decayed`` reports whether the tail fell below the decay
    tolerance relative to the largest coefficient.
    """

    alpha: np.ndarray
    beta: np.ndarray
    L: int

    @property
    def peak(self):
        return max(np.abs(self.alpha).max(), np.abs(self.beta).max())

    @property
    def decayed(self):
        tail = max(abs(self.alpha[self.L]), abs(self.beta[self.L]))
        return tail <= _DECAY_TOL * max(self.peak, 1e-300)


def truncation_degree(k, a):
    """Series truncation for size parameter ka: ceil(ka + 4 (ka)^(1/3) + 6)."""
    ka = k * a
    return int(np.ceil(ka + 4.0 * ka ** (1.0 / 3.0) + 6.0))


@dataclass(frozen=True, eq=False)
class RadialLayer:
    """Radial profile zeta = A psi_l(kappa r) + B chi_l(kappa r) on r_lo < r <= r_hi.

    A and B broadcast against the degree axis: a scalar (one degree), an
    array over degree, or (TE, TM) rows over degree.
    """

    kappa: complex
    r_lo: float
    r_hi: float
    A: object
    B: object


def radial_profile(layer, r, l_max):
    """(zeta, zeta') of a layer at radii r, primes in the argument kappa*r.

    Both have the shape of A * (degrees 0..l_max), plus a trailing axis
    over r: (l_max+1, n_r) for scalar A, B and (2, l_max+1, n_r) for
    (TE, TM) rows.
    """
    psi, dpsi, chi, dchi = riccati_all(l_max, layer.kappa * np.atleast_1d(r))
    A = np.asarray(layer.A)[..., None]
    B = np.asarray(layer.B)[..., None]
    return A * psi + B * chi, A * dpsi + B * dchi


def radial_energy(layer, l_max, n_radial, r_max=None):
    """Per-degree TE and TM energy integrals of a layer profile (§7, §14).

        I_TE(l) = (1/|kappa|^2) int |zeta|^2 dr
        I_TM(l) = (1/|kappa|^2) int |zeta'|^2 dr
                + l(l+1)/|kappa|^4 int |zeta|^2 / r^2 dr

    over (r_lo, min(r_hi, r_max)), which must be nonempty, by n_radial-point
    Gauss-Legendre. Shapes are those of radial_profile without the r axis.
    """
    lo = layer.r_lo
    hi = layer.r_hi if r_max is None else min(layer.r_hi, r_max)
    x_gl, w_gl = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * (hi - lo) * x_gl + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w_gl
    z, dz = radial_profile(layer, r, l_max)
    ak2 = abs(layer.kappa) ** 2
    ell = np.arange(l_max + 1, dtype=float)
    i_te = (np.abs(z) ** 2 @ w) / ak2
    i_tm = (np.abs(dz) ** 2 @ w) / ak2
    i_tm += ell * (ell + 1.0) * ((np.abs(z) ** 2 / r**2) @ w) / ak2**2
    return i_te, i_tm


def _interior_states(medium, k, l_max):
    """Transfer the regular interior solution to the outer boundary.

    Returns (s_te, s_tm, layers) where s_te / s_tm hold the continuity
    state per degree at r = a (shape (2, l_max+1)) and layers[j] is the
    RadialLayer of layer j with (TE, TM) coefficient rows, before
    exterior scaling.

    The continuity states are (zeta(kr)/kappa, zeta'(kr)) for TE and
    (zeta'(kr)/kappa, zeta(kr)) for TM; both are continuous across
    material interfaces for tangential-field matching.
    """
    A = np.ones((2, l_max + 1), dtype=complex)
    B = np.zeros((2, l_max + 1), dtype=complex)
    layers = []
    r_lo = 0.0
    for r_hi, n in medium.layers:
        kap = k * np.sqrt(complex(n))
        if layers:
            # re-expand the states at r_lo in this layer: the inverse of
            # [[psi/kap, chi/kap], [psi', chi']] times the Wronskian
            psi, dpsi, chi, dchi = riccati_all(l_max, kap * r_lo)
            A = np.stack([kap * dchi * s_te[0] - chi * s_te[1],
                          -kap * chi * s_tm[0] + dchi * s_tm[1]])
            B = np.stack([-kap * dpsi * s_te[0] + psi * s_te[1],
                          kap * psi * s_tm[0] - dpsi * s_tm[1]])
        layers.append(RadialLayer(kap, r_lo, r_hi, A, B))
        z, dz = radial_profile(layers[-1], r_hi, l_max)
        s_te = np.stack([z[0, :, 0] / kap, dz[0, :, 0]])
        s_tm = np.stack([dz[1, :, 0] / kap, z[1, :, 0]])
        r_lo = r_hi
    return s_te, s_tm, layers


def _solve_exterior(s_te, s_tm, k, a, l_max):
    """Match interior states to incident + scattered exterior waves.

    Solves tau * s - alpha * xi_col = psi_col per degree for both
    families; returns (alpha, beta, tau_te, tau_tm).
    """
    x = k * a
    psi, dpsi, chi, dchi = riccati_all(l_max, x + 0j)
    xi = psi + 1j * chi
    dxi = dpsi + 1j * dchi
    alpha = np.zeros(l_max + 1, dtype=complex)
    beta = np.zeros(l_max + 1, dtype=complex)
    tau_te = np.zeros(l_max + 1, dtype=complex)
    tau_tm = np.zeros(l_max + 1, dtype=complex)
    for fam, s, rc, drc, tau, coef in (
        ("TE", s_te, psi, dpsi, tau_te, alpha),
        ("TM", s_tm, psi, dpsi, tau_tm, beta),
    ):
        if fam == "TE":
            rhs0, rhs1 = rc / k, drc
            xc0, xc1 = xi / k, dxi
        else:
            rhs0, rhs1 = drc / k, rc
            xc0, xc1 = dxi / k, xi
        det = -s[0] * xc1 + s[1] * xc0
        coef[:] = (s[0] * rhs1 - s[1] * rhs0) / det
        tau[:] = (xc0 * rhs1 - xc1 * rhs0) / det
    return alpha, beta, tau_te, tau_tm


@lru_cache(maxsize=512)
def _mie_cached(medium, k, L):
    if medium.is_vacuum:
        alpha = np.zeros(L + 1, dtype=complex)
        beta = np.zeros(L + 1, dtype=complex)
    else:
        s_te, s_tm, _ = _interior_states(medium, k, L)
        alpha, beta, _, _ = _solve_exterior(s_te, s_tm, k, medium.radius, L)
        alpha[0] = 0.0
        beta[0] = 0.0
    alpha.flags.writeable = False
    beta.flags.writeable = False
    return ModalCoefficients(alpha=alpha, beta=beta, L=L)


def mie_coefficients(medium, k, L=None):
    """Scattering coefficients of a layered penetrable ball.

    L defaults to the size-parameter truncation rule and is extended
    automatically until the coefficients decay below 1e-14 of their
    peak; an explicit L that has not decayed raises TruncationError.
    """
    if k <= 0:
        raise ValueError("wave number must be positive")
    if L is not None:
        coefs = _mie_cached(medium, float(k), int(L))
        if not (medium.is_vacuum or coefs.decayed):
            raise TruncationError(f"coefficients not decayed at l = {L}")
        return coefs
    L_try = truncation_degree(k, medium.radius)
    while True:
        coefs = _mie_cached(medium, float(k), L_try)
        if medium.is_vacuum or coefs.decayed:
            return coefs
        if L_try >= 200:
            raise TruncationError("no coefficient decay below l = 200")
        L_try = int(L_try * 1.5) + 5


def impedance_coefficients(ball, k, L=None):
    """Scattering coefficients of the generalized impedance ball.

    TE family (both S kinds):   alpha_l = -(k psi' + lam psi)/(k xi' + lam xi)
    TM family, S = identity:    beta_l  = -(k psi - lam psi')/(k xi - lam xi')
    TM family, S = curl-curl:   beta_l  = -psi/xi
    with all Riccati functions evaluated at kR. A vanishing denominator
    means lam sits on the measure-zero resonant set and raises
    ResonantParameterError.
    """
    if k <= 0:
        raise ValueError("wave number must be positive")
    if L is None:
        L = truncation_degree(k, ball.R)
    psi, dpsi, chi, dchi = riccati_all(L, k * ball.R + 0j)
    xi = psi + 1j * chi
    dxi = dpsi + 1j * dchi
    lam = ball.lam
    den_te = k * dxi + lam * xi
    scale_te = k * np.abs(dxi) + abs(lam) * np.abs(xi)
    if np.any(np.abs(den_te[1:]) < 1e-12 * scale_te[1:]):
        raise ResonantParameterError(f"TE boundary system singular at lam = {lam}")
    alpha = -(k * dpsi + lam * psi) / den_te
    if ball.s_kind == "IDENTITY":
        den_tm = k * xi - lam * dxi
        scale_tm = k * np.abs(xi) + abs(lam) * np.abs(dxi)
        if np.any(np.abs(den_tm[1:]) < 1e-12 * scale_tm[1:]):
            raise ResonantParameterError(f"TM boundary system singular at lam = {lam}")
        beta = -(k * psi - lam * dpsi) / den_tm
    else:
        beta = -psi / xi
    alpha[0] = 0.0
    beta[0] = 0.0
    alpha.flags.writeable = False
    beta.flags.writeable = False
    return ModalCoefficients(alpha=alpha, beta=beta, L=L)


# Incidence and observation families of the alpha term and the beta term:
# electric (alpha on V(d) x V(xh)), dual (alpha on U x U, the magnetic and
# impedance operator kernels) and magnetic (alpha on V(d) x U(xh)).
_PAIRINGS = {
    "electric": ("V", "V", "U", "U"),
    "dual": ("U", "U", "V", "V"),
    "magnetic": ("V", "U", "U", "V"),
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
    _, _, U_d, V_d = vsh_tables(L, d_b)
    _, _, U_x, V_x = vsh_tables(L, x_b)
    at_d = {"U": U_d, "V": V_d}
    at_x = {"U": U_x, "V": V_x}
    a_d, a_x, b_d, b_x = _PAIRINGS[pairing]
    ells = np.array([m.l for m in mode_list(L)])
    w_a = alpha[ells, None] * np.einsum("pc,mpc->mp", p_b, at_d[a_d].conj())
    w_b = beta[ells, None] * np.einsum("pc,mpc->mp", p_b, at_d[b_d].conj())
    out = np.einsum("mp,mpc->pc", w_a, at_x[a_x]) + np.einsum("mp,mpc->pc", w_b, at_x[b_x])
    return (scale * out).reshape(shape)


def electric_far_field(medium, k, d, p, xhat):
    """Far field pattern E_inf(xh; d, p) of the scattered electric field."""
    coefs = mie_coefficients(medium, k)
    return _far_field_sum(coefs.alpha, coefs.beta, coefs.L, d, p, xhat)


def magnetic_far_field(medium, k, d, p, xhat):
    """Far field pattern of the scattered magnetic field, H_inf = xh x E_inf.

    Computed from its own modal series (not by crossing the electric
    pattern), so agreement with xh x E_inf is a real consistency check:

        H_inf = 4 pi sum [ -alpha_l (p.conj V(d)) U(xh)
                           + beta_l (p.conj U(d)) V(xh) ].
    """
    coefs = mie_coefficients(medium, k)
    return _far_field_sum(-coefs.alpha, coefs.beta, coefs.L, d, p, xhat, pairing="magnetic")


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


def impedance_far_field(ball, k, d, p, xhat):
    """Electric far field pattern of the impedance-ball scattering problem."""
    coefs = impedance_coefficients(ball, k)
    return _far_field_sum(coefs.alpha, coefs.beta, coefs.L, d, p, xhat)


def impedance_far_field_kernel(ball, k, d, q, xhat):
    """Impedance-ball kernel in the same dual pairing as the magnetic one."""
    coefs = impedance_coefficients(ball, k)
    return _far_field_sum(
        coefs.alpha, coefs.beta, coefs.L, d, q, xhat, pairing="dual", scale=-4.0j * np.pi / k
    )


def dipole_far_fields(src, xhat):
    """(E_inf, H_inf) of an electric point dipole at src.z with moment src.q.

        E_inf(xh) = (i k / 4 pi) (xh x q) x xh exp(-i k xh.z)
        H_inf(xh) = (i k / 4 pi) (xh x q)      exp(-i k xh.z)
    """
    xh = np.asarray(xhat, dtype=float)
    k = src.k
    phase = np.exp(-1j * k * (xh @ src.z))
    cross = np.cross(np.broadcast_to(xh, xh.shape), np.broadcast_to(src.q, xh.shape))
    pref = 1j * k / (4.0 * np.pi)
    h_inf = pref * cross * phase[..., None]
    e_inf = pref * np.cross(cross, xh) * phase[..., None]
    return e_inf, h_inf


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


def _modal_weights(k, L, d, p):
    """Degrees l and incident-wave modal coefficients a_lm (TE), b_lm (TM).

        a_lm = 4 pi i^(l+1) k (p . conj V_lm(d))
        b_lm = 4 pi i^(l+2) k (p . conj U_lm(d))
    """
    d = np.asarray(d, dtype=float)[None, :]
    _, _, U_d, V_d = vsh_tables(L, d)
    ells = np.array([m.l for m in mode_list(L)])
    pv = np.einsum("c,mc->m", np.asarray(p, complex), V_d[:, 0, :].conj())
    pu = np.einsum("c,mc->m", np.asarray(p, complex), U_d[:, 0, :].conj())
    a = 4.0 * np.pi * 1j ** (ells + 1) * k * pv
    b = 4.0 * np.pi * 1j ** (ells + 2) * k * pu
    return ells, a, b


def _exterior_layer(coefs, k, a, incident):
    """Exterior profile psi + alpha xi (incident + scattered) or alpha xi alone.

    With xi = psi + i chi this is A psi + B chi for A = alpha (+ 1) and
    B = i alpha, per family (TE rows alpha, TM rows beta).
    """
    c = np.stack([coefs.alpha, coefs.beta])
    return RadialLayer(k, a, np.inf, c + (1.0 if incident else 0.0), 1j * c)


def interior_solutions(medium, k, L=None):
    """Per-layer radial profiles of the total interior field.

    Returns (coefs, layers) where layers[j] is the RadialLayer of layer
    j with (TE, TM) rows of zeta = A psi + B chi coefficients over
    degree, scaled so the exterior incident wave has unit modal
    amplitude. Exterior scattering coefficients come along as ``coefs``
    for convenience.
    """
    if L is None:
        coefs = mie_coefficients(medium, k)
        L = coefs.L
    else:
        coefs = mie_coefficients(medium, k, L)
    s_te, s_tm, layers = _interior_states(medium, k, L)
    _, _, tau_te, tau_tm = _solve_exterior(s_te, s_tm, k, medium.radius, L)
    tau = np.stack([tau_te, tau_tm])
    return coefs, [replace(lay, A=tau * lay.A, B=tau * lay.B) for lay in layers]


def _layer_field(lay, points, k, L, d, p):
    """(E, H) of the plane wave (d, p) from one layer's profile at points in its range."""
    ells, a, b = _modal_weights(k, L, d, p)
    pts = np.asarray(points, dtype=float)
    r = np.linalg.norm(pts, axis=1)
    xhat = pts / r[:, None]
    _, Y, U, V = vsh_tables(L, xhat)
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


def herglotz_field(g, k, x):
    """Electric Herglotz function v_g(x) = -ik sum_j w_j g_j exp(-ik x.d_j).

    ``g`` is a tangential field on a sphere quadrature (anything with
    .quad and .vectors()). The quadrature rule of g fixes the accuracy.
    """
    x = np.asarray(x, dtype=float)
    nodes = g.quad.nodes
    w = g.quad.weights
    vals = g.vectors()
    phase = np.exp(-1j * k * (x @ nodes.T))  # (..., N)
    return -1j * k * np.einsum("...j,j,jc->...c", phase, w, vals)


def magnetic_herglotz_field(g, k, x):
    """Magnetic member of the Herglotz pair: curl v_g / (ik)."""
    x = np.asarray(x, dtype=float)
    nodes = g.quad.nodes
    w = g.quad.weights
    vals = np.cross(nodes, g.vectors())
    phase = np.exp(-1j * k * (x @ nodes.T))
    return 1j * k * np.einsum("...j,j,jc->...c", phase, w, vals)


def herglotz_ball_norm(g, k, R_ball, center=(0.0, 0.0, 0.0), magnetic=False, n_radial=None, n_theta=12):
    """L2 norm of the (electric or magnetic) Herglotz field over a ball.

    Product quadrature: Gauss-Legendre in radius, Gauss-Legendre in
    cos(theta) times uniform azimuth on the angular factor.
    """
    center = np.asarray(center, dtype=float)
    if n_radial is None:
        n_radial = max(8, int(np.ceil(2 + k * R_ball)))
    t, wt = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * R_ball * (t + 1.0)
    wr = 0.5 * R_ball * wt
    mu, wmu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(2 * n_theta) / (2 * n_theta)
    wphi = 2.0 * np.pi / (2 * n_theta)
    st = np.sqrt(1.0 - mu**2)
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(mu, np.ones_like(phi)).ravel(),
        ],
        axis=1,
    )
    wang = (np.outer(wmu, np.ones_like(phi)) * wphi).ravel()
    pts = center[None, None, :] + r[:, None, None] * dirs[None, :, :]
    field = magnetic_herglotz_field(g, k, pts) if magnetic else herglotz_field(g, k, pts)
    dens = np.sum(np.abs(field) ** 2, axis=-1)
    val = np.einsum("i,j,ij->", wr * r**2, wang, dens)
    return float(np.sqrt(val))
