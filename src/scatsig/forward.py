"""Series forward solvers for spherically symmetric scatterers.

Produces modal scattering coefficients, interior radial profiles and
dipole and Herglotz data for:

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

``ffop`` assembles the far field operators from the coefficients
directly. The pointwise series for the far field pattern and for the
total and scattered fields at given points, and the interior field and
incident modal weights that the absorption energy identity integrates,
serve only as test references, in tests/field_oracle.py. The
derivation of this form and of every boundary-matching formula below
lives in docs/derivations.md; each formula is cross-checked by residual
oracles in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphfun import _L_MAX_HARD, riccati_all

_DECAY_TOL = 1.0e-14


class TruncationError(RuntimeError):
    """Modal coefficients failed to decay at the requested truncation."""


class ResonantParameterError(RuntimeError):
    """The impedance boundary system is singular for this parameter."""


class ConvergenceError(RuntimeError):
    """An iterative numeric method did not reach its tolerance in its step budget."""


@dataclass(frozen=True)
class MediumSpec:
    """Piecewise-constant radial relative permittivity profile.

    ``layers`` is a tuple of (outer_radius, n) pairs with strictly
    increasing radii; the background outside the last radius has n = 1.
    """

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("MediumSpec needs at least one layer")
        norm = tuple((float(r), complex(n)) for r, n in self.layers)
        object.__setattr__(self, "layers", norm)
        if not all(np.isfinite(r) and np.isfinite(n) for r, n in norm):
            raise ValueError("layer radii and indices must be finite")
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
        if not 0 < self.R < np.inf:
            raise ValueError(f"radius R must be positive and finite, got {self.R}")
        if self.s_kind not in ("IDENTITY", "CURL_CURL"):
            raise ValueError(f"unknown s_kind {self.s_kind!r}")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "R", float(self.R))
        if not np.isfinite(self.lam):
            raise ValueError(f"impedance parameter lam must be finite, got {self.lam}")


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
    """Series truncation for size parameter ka: ceil(ka + 4 (ka)^(1/3) + 6).

    A degree above the supported maximum raises ValueError naming ka,
    before any table is sized by it.
    """
    ka = k * a
    L = np.ceil(ka + 4.0 * ka ** (1.0 / 3.0) + 6.0)
    if not L <= _L_MAX_HARD:
        raise ValueError(f"k = {k:g} at radius {a:g} (size parameter k a = {ka:g}) needs "
                         f"degrees above the supported maximum {_L_MAX_HARD}")
    return int(L)


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
    (TE, TM) rows. A layer of a k sweep (``_interior_states``) carries
    a kappa per k, A and B with a trailing k axis and ``l_max`` one
    degree per k; the r axis then follows the k axis.
    """
    deg = np.asarray(l_max)
    x = np.multiply.outer(layer.kappa, np.atleast_1d(r))
    psi, dpsi, chi, dchi = riccati_all(deg[..., None] if deg.ndim else deg, x)
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

    ``k`` may also be a 1-D array of wavenumbers, with ``l_max`` an
    array of one degree per k: every array then carries a trailing k
    axis, the layers' kappa too, with rows up to the largest degree, and
    each k's column holds, up to its own degree, the bits of its own call
    (``sphfun.riccati_all`` of a degree array).
    """
    A = np.ones((2, int(np.max(l_max)) + 1) + np.shape(k), dtype=complex)
    B = np.zeros_like(A)
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
        s_te = np.stack([z[0, ..., 0] / kap, dz[0, ..., 0]])
        s_tm = np.stack([dz[1, ..., 0] / kap, z[1, ..., 0]])
        r_lo = r_hi
    return s_te, s_tm, layers


def _modal_solve(medium, k, L):
    """Transfer the interior solution to r = a and match it to the exterior waves.

    Solves tau * s - c * xi_col = psi_col per degree for each family,
    with the TE column (psi/k, psi') and the TM column (psi'/k, psi) of
    the Riccati functions at ka. Returns (alpha, beta, tau, layers):
    the scattering coefficients, the (TE, TM) rows of interior scalings
    tau and the RadialLayer list of ``_interior_states``, whose k and
    degree arrays this takes as well.
    """
    s_te, s_tm, layers = _interior_states(medium, k, L)
    psi, dpsi, chi, dchi = riccati_all(L, k * medium.radius + 0j)
    xi = psi + 1j * chi
    dxi = dpsi + 1j * dchi

    def match(s, rhs0, rhs1, xc0, xc1):
        det = -s[0] * xc1 + s[1] * xc0
        return (s[0] * rhs1 - s[1] * rhs0) / det, (xc0 * rhs1 - xc1 * rhs0) / det

    # above a k's own degree the tables hold zeros, and 0 / 0 there is discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha, tau_te = match(s_te, psi / k, dpsi, xi / k, dxi)
        beta, tau_tm = match(s_tm, dpsi / k, psi, dxi / k, xi)
    return alpha, beta, np.stack([tau_te, tau_tm]), layers


def mie_coefficients(medium, k):
    """Scattering coefficients of a layered penetrable ball.

    The series starts at ``truncation_degree(k, a)`` and grows by half its
    degree plus 5, capped at the supported maximum 200, until the
    coefficients decay below 1e-14 of their peak. Coefficients still
    undecayed at degree 200 raise TruncationError naming k.

    ``k`` may also be a 1-D array of wavenumbers: the result is then a
    list with one ModalCoefficients per k, in order, each the bits of its
    own call. Every step of the ladder is one ``_modal_solve`` of all the
    k still undecayed, each at its own degree.
    """
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    for kj in ks:
        if not 0 < kj < np.inf:
            raise ValueError(f"wave number must be positive and finite, got {kj}")
    L = np.array([truncation_degree(kj, medium.radius) for kj in ks], dtype=int)
    coefs = [None] * ks.size
    todo = list(range(ks.size))
    while todo:
        alpha, beta = (np.zeros((2, L[todo].max() + 1, len(todo)), dtype=complex)
                       if medium.is_vacuum else _modal_solve(medium, ks[todo], L[todo])[:2])
        for col, j in enumerate(todo):
            a, b = alpha[:L[j] + 1, col].copy(), beta[:L[j] + 1, col].copy()
            a[0] = b[0] = 0.0
            a.flags.writeable = b.flags.writeable = False
            coefs[j] = ModalCoefficients(alpha=a, beta=b, L=int(L[j]))
        todo = [j for j in todo if not (medium.is_vacuum or coefs[j].decayed)]
        for j in todo:
            if L[j] == _L_MAX_HARD:
                raise TruncationError(f"coefficients at k = {ks[j]:g} not decayed at the "
                                      f"supported maximum degree {_L_MAX_HARD}")
        L[todo] = np.minimum(L[todo] * 3 // 2 + 5, _L_MAX_HARD)
    return coefs if np.ndim(k) else coefs[0]


@lru_cache(maxsize=64)
def _boundary_tables(L, x):
    """Read-only (psi, psi', xi, xi') of degrees 0..L at the boundary argument x = kR.

    They do not depend on lam, so a lam scan at fixed k and R evaluates
    them once. ``riccati_all`` is looked up when the tables are built,
    so a wrapper installed on this module sees that one evaluation.
    """
    psi, dpsi, chi, dchi = riccati_all(L, x + 0j)
    tables = (psi, dpsi, psi + 1j * chi, dpsi + 1j * dchi)
    for t in tables:
        t.flags.writeable = False
    return tables


def impedance_coefficients(ball, k):
    """Scattering coefficients of the generalized impedance ball.

    With the quotient q(lam, f, g, f_xi, g_xi) = -(k g + lam f)/(k g_xi + lam f_xi):

    TE family (both S kinds):   alpha_l = q(lam, psi, psi', xi, xi')
    TM family, S = identity:    beta_l  = q(-lam, psi', psi, xi', xi)
    TM family, S = curl-curl:   beta_l  = -psi/xi
    for l up to L = truncation_degree(k, R), with all Riccati functions
    evaluated at kR, read from the tables cached per (L, kR). A vanishing
    denominator means lam sits on the measure-zero resonant set and
    raises ResonantParameterError naming the family.
    """
    if not 0 < k < np.inf:
        raise ValueError(f"wave number must be positive and finite, got {k}")
    L = truncation_degree(k, ball.R)
    psi, dpsi, xi, dxi = _boundary_tables(L, float(k * ball.R))

    def quotient(family, lam, f, g, f_xi, g_xi):
        den = k * g_xi + lam * f_xi
        scale = k * np.abs(g_xi) + abs(lam) * np.abs(f_xi)
        if np.any(np.abs(den[1:]) < 1e-12 * scale[1:]):
            raise ResonantParameterError(f"{family} boundary system singular at lam = {ball.lam}")
        return -(k * g + lam * f) / den

    alpha = quotient("TE", ball.lam, psi, dpsi, xi, dxi)
    if ball.s_kind == "IDENTITY":
        beta = quotient("TM", -ball.lam, dpsi, psi, dxi, xi)
    else:
        beta = -psi / xi
    alpha[0] = 0.0
    beta[0] = 0.0
    alpha.flags.writeable = False
    beta.flags.writeable = False
    return ModalCoefficients(alpha=alpha, beta=beta, L=L)


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


def herglotz_field(g, k, x, magnetic=False):
    """Electric Herglotz function v_g(x) = -ik sum_j w_j g_j exp(-ik x.d_j).

    ``magnetic`` gives its partner curl v_g / (ik), with ik and d_j x g_j
    in place of -ik and g_j. ``g`` is a tangential field on a sphere
    quadrature (anything with .quad and .vectors()), whose rule fixes
    the accuracy.
    """
    x = np.asarray(x, dtype=float)
    nodes = g.quad.nodes
    w = g.quad.weights
    vals = np.cross(nodes, g.vectors()) if magnetic else g.vectors()
    phase = np.exp(-1j * k * (x @ nodes.T))  # (..., N)
    prefactor = 1j * k if magnetic else -1j * k
    return prefactor * np.einsum("...j,j,jc->...c", phase, w, vals)


def herglotz_ball_norm(g, k, R_ball, center=(0.0, 0.0, 0.0), magnetic=False, n_radial=None,
                       n_theta=None):
    """L2 norm of the (electric or magnetic) Herglotz field over a ball.

    Product quadrature: Gauss-Legendre in radius, and the PRODUCT_GAUSS
    sphere rule of ``ffop.build_quadrature`` of order n_theta (Gauss-Legendre
    in cos(theta) times uniform azimuth) on the angular factor. Both
    orders grow with k R by default, the angular one from 12 for k R <= 4.
    """
    from .ffop import build_quadrature  # ffop imports this module at load time

    center = np.asarray(center, dtype=float)
    if n_radial is None:
        n_radial = max(8, int(np.ceil(2 + k * R_ball)))
    if n_theta is None:
        n_theta = max(12, int(np.ceil(k * R_ball)) + 8)
    t, wt = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * R_ball * (t + 1.0)
    wr = 0.5 * R_ball * wt
    sphere = build_quadrature("PRODUCT_GAUSS", n_theta)
    dirs, wang = sphere.nodes, sphere.weights
    pts = center[None, None, :] + r[:, None, None] * dirs[None, :, :]
    field = herglotz_field(g, k, pts, magnetic=magnetic)
    dens = np.sum(np.abs(field) ** 2, axis=-1)
    val = np.einsum("i,j,ij->", wr * r**2, wang, dens)
    return float(np.sqrt(val))
