"""Analytic eigenvalue oracles on balls.

Everything here is independent of the operator pipeline: transmission
eigenvalues come from per-mode Cauchy-data matching determinants of
Riccati-Bessel functions, generalized Stekloff eigenvalues from closed
per-mode formulas on the transfer states, and both feed cross-checks of
the scan and phase-track detectors. Derivations of the modal formulas
are written out in docs/derivations.md.

Mode families: on a ball every tangential vector harmonic decouples
into a TE mode (field proportional to V_lm, the curl-type harmonic)
and a TM mode (U_lm tangential part plus a radial component).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from . import forward
from .forward import MediumSpec
from .sphfun import riccati_all

_GRID_STEP = 0.01
_REFINE_TOL = 1e-12


class BracketError(ValueError):
    """A root search found no sign change in the given interval."""


class NeumannResonanceError(RuntimeError):
    """k^2 is (numerically) an interior Neumann eigenvalue of the ball."""


@dataclass(frozen=True)
class ModeFamily:
    """Tangential family tag: TE (curl-type, V_lm) or TM (gradient-type, U_lm)."""

    family: str
    l: int

    def __post_init__(self):
        if self.family not in ("TE", "TM"):
            raise ValueError("family must be 'TE' or 'TM'")
        if self.l < 1:
            raise ValueError("degree l must be >= 1")


def s_modal_multiplier(l, R):
    """Eigenvalues of the boundary smoothing operator S on the two families.

    S u solves the surface Poisson problem for the surface curl of u and
    takes the vector curl of the solution. A gradient-type harmonic
    U_lm has vanishing surface curl, so S U_lm = 0. For V_lm the chain
    surface-curl -> inverse Laplace-Beltrami -> vector-curl returns
    V_lm itself: the 1/R factors of the two curls cancel against the
    R^2 of the inverse Laplacian, leaving multiplier 1 for every l, R.
    Returns (c_gradient, c_curl) = (0.0, 1.0).
    """
    if l < 1:
        raise ValueError("degree l must be >= 1")
    if R <= 0:
        raise ValueError("radius must be positive")
    return (0.0, 1.0)


def _single_layer(medium):
    if len(medium.layers) != 1:
        raise ValueError("transmission determinant needs a single-layer ball")
    a, n = medium.layers[0]
    if n == 1.0:
        raise ValueError("index n = 1 is degenerate: every k matches trivially")
    return a, n


def tev_determinant(medium, l, family, k):
    """Per-mode transmission eigenvalue determinant, vectorized over k.

    With x = k a and y = k sqrt(n) a:

        TE:  psi_l(y) psi_l'(x) - sqrt(n) psi_l(x) psi_l'(y)
        TM:  psi_l'(y) psi_l(x) - sqrt(n) psi_l'(x) psi_l(y)

    Zeros over k > 0 are the transmission eigenvalues of that mode. The
    expression is real for real n; no extra normalization is needed.
    """
    a, n = _single_layer(medium)
    fam = family.family if isinstance(family, ModeFamily) else family
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    if np.any(k <= 0):
        raise ValueError("wavenumbers must be positive")
    root_n = np.sqrt(complex(n))
    x = k * a
    y = k * root_n * a
    psi_x, dpsi_x, _, _ = riccati_all(l, x)
    psi_y, dpsi_y, _, _ = riccati_all(l, y)
    if fam == "TE":
        det = psi_y[l] * dpsi_x[l] - root_n * psi_x[l] * dpsi_y[l]
    elif fam == "TM":
        det = dpsi_y[l] * psi_x[l] - root_n * dpsi_x[l] * psi_y[l]
    else:
        raise ValueError("family must be 'TE' or 'TM'")
    if (not isinstance(n, complex)) or n.imag == 0:
        det = det.real + 0.0j
    return complex(det[0]) if scalar else det


def tev_min_singular(medium, l, family, k):
    """Smallest singular value of the column-normalized 2x2 matching matrix.

    Columns are the Cauchy states (zeta/kappa, zeta') of the free-space
    and interior solutions at r = a; a transmission eigenvalue makes the
    columns parallel, so this is an independent root check for
    tev_determinant (which is proportional to the matrix determinant).
    """
    a, n = _single_layer(medium)
    fam = family.family if isinstance(family, ModeFamily) else family
    root_n = np.sqrt(complex(n))
    x = complex(k * a)
    y = complex(k * root_n * a)
    psi_x, dpsi_x, _, _ = riccati_all(l, np.array([x]))
    psi_y, dpsi_y, _, _ = riccati_all(l, np.array([y]))
    if fam == "TE":
        cols = np.array(
            [[psi_x[l, 0] / k, psi_y[l, 0] / (k * root_n)],
             [dpsi_x[l, 0], dpsi_y[l, 0]]]
        )
    elif fam == "TM":
        cols = np.array(
            [[dpsi_x[l, 0] / k, dpsi_y[l, 0] / (k * root_n)],
             [psi_x[l, 0], psi_y[l, 0]]]
        )
    else:
        raise ValueError("family must be 'TE' or 'TM'")
    cols = cols / np.linalg.norm(cols, axis=0)[None, :]
    return float(np.linalg.svd(cols, compute_uv=False)[-1])


def _roots_on_grid(fn, grid):
    """Brent refinement of every sign change of fn on the grid."""
    vals = fn(grid)
    roots = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(brentq(fn, grid[i], grid[i + 1], xtol=_REFINE_TOL))
    for i in np.nonzero(vals == 0.0)[0]:
        roots.append(float(grid[i]))
    return sorted(roots)


def tev_roots(medium, l_max, k_range, step=_GRID_STEP):
    """All transmission eigenvalues with l <= l_max in the given k interval.

    Determinant sign changes on a grid of step <= 0.01 are refined by
    Brent's method to better than 1e-8. Returns a list of (k, l, family)
    sorted by k.
    """
    a, n = _single_layer(medium)
    if isinstance(n, complex) and n.imag != 0:
        raise ValueError("transmission eigenvalue search needs a real index")
    if n.real <= 0:
        raise ValueError("index must be positive")
    step = min(step, _GRID_STEP)
    k_lo, k_hi = k_range
    if not (0 < k_lo < k_hi):
        raise ValueError("need 0 < k_lo < k_hi")
    count = int(np.ceil((k_hi - k_lo) / step)) + 1
    grid = np.linspace(k_lo, k_hi, count)
    out = []
    for l in range(1, l_max + 1):
        for fam in ("TE", "TM"):
            fn = lambda k, l=l, fam=fam: np.real(tev_determinant(medium, l, fam, k))
            for r in _roots_on_grid(fn, grid):
                out.append((r, l, fam))
    out.sort(key=lambda t: (t[0], t[1], t[2]))
    return out


def first_tev(medium, l_max=5, k_start=0.05, k_max=200.0):
    """Smallest transmission eigenvalue, extending the search window as needed."""
    lo = k_start
    width = 4.0 / medium.radius
    while lo < k_max:
        hi = min(lo + width, k_max)
        roots = tev_roots(medium, l_max, (lo, hi))
        if roots:
            return roots[0]
        lo = hi
        width *= 2.0
    raise BracketError(f"no transmission eigenvalue found below k = {k_max}")


def index_bound_from_tev(k1_measured, a, n_search, l_max=5):
    """Constant index whose ball of radius a has first eigenvalue k1_measured.

    Inverts n -> k_1(n ball) by bisection, after checking numerically
    that k_1 is strictly monotone over the search interval. Raises
    BracketError when k1_measured is not attained on the interval.
    """
    if k1_measured <= 0:
        raise ValueError("measured eigenvalue must be positive")
    n_lo, n_hi = n_search
    if not (0 < n_lo < n_hi):
        raise ValueError("need 0 < n_lo < n_hi")
    if n_lo <= 1.0 <= n_hi:
        raise ValueError("search interval must not contain n = 1")

    def k1_of(n):
        return first_tev(MediumSpec.ball(a, n), l_max=l_max)[0]

    probe = [k1_of(n) for n in (n_lo, 0.5 * (n_lo + n_hi), n_hi)]
    if not (probe[0] > probe[1] > probe[2] or probe[0] < probe[1] < probe[2]):
        raise ValueError("first eigenvalue is not monotone on the search interval")
    g_lo = probe[0] - k1_measured
    g_hi = probe[2] - k1_measured
    if g_lo * g_hi > 0:
        raise BracketError(
            f"k1 = {k1_measured} not bracketed: k1({n_lo}) = {probe[0]:.6f}, "
            f"k1({n_hi}) = {probe[2]:.6f}"
        )
    n_est = brentq(lambda n: k1_of(n) - k1_measured, n_lo, n_hi, xtol=1e-10)
    if abs(k1_of(n_est) - k1_measured) > 1e-6:
        raise BracketError("bisection failed to reach the 1e-6 eigenvalue tolerance")
    return float(n_est)


@dataclass(eq=False)
class StekloffMode:
    """One generalized Stekloff eigenpair with its radial profile.

    The eigenfunction is w = (zeta(kappa r)/(kappa r)) V_lm for TE modes
    and the usual two-component form for TM modes, with zeta given per
    layer by A psi + B chi. ``layers`` holds forward.RadialLayer records
    with scalar A, B covering (0, R].
    """

    mode: ModeFamily
    lam: complex
    k: float
    R: float
    s_kind: str
    layers: list

    def profile(self, r):
        """(zeta, dzeta, kappa) at radii r, dzeta w.r.t. the argument kappa*r."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        zeta = np.zeros(r.shape, dtype=complex)
        dzeta = np.zeros(r.shape, dtype=complex)
        kap = np.zeros(r.shape, dtype=complex)
        l = self.mode.l
        for lay in self.layers:
            sel = (r > lay.r_lo) & (r <= lay.r_hi) if lay.r_lo > 0 else (r <= lay.r_hi)
            if not np.any(sel):
                continue
            z, dz = forward.radial_profile(lay, r[sel], l)
            zeta[sel] = z[l]
            dzeta[sel] = dz[l]
            kap[sel] = lay.kappa
        return zeta, dzeta, kap

    def boundary_residual(self):
        """Relative residual of nu x curl w - lam * S w_T at r = R."""
        z, dz, kap = self.profile(np.array([self.R]))
        z, dz, kap = z[0], dz[0], kap[0]
        c_grad, c_curl = s_modal_multiplier(self.mode.l, self.R)
        if self.mode.family == "TE":
            curl_term = -kap * dz / (kap * self.R)
            s_term = c_curl * z / (kap * self.R)
        else:
            curl_term = -z / self.R
            c_u = c_grad if self.s_kind == "CURL_CURL" else 1.0
            s_term = -c_u * dz / (kap * self.R)
        num = abs(curl_term - self.lam * s_term)
        scale = max(abs(curl_term), abs(self.lam * s_term))
        return num / scale if scale > 0 else num

    def volume_norm2(self, r_max=None, n_radial=64):
        """Integral of |w|^2 over the ball r < r_max (default: all of B)."""
        r_max = self.R if r_max is None else min(r_max, self.R)
        fam = 0 if self.mode.family == "TE" else 1
        total = 0.0
        for lay in self.layers:
            if lay.r_lo < r_max:
                ints = forward.radial_energy(lay, self.mode.l, n_radial, r_max)
                total += float(ints[fam][self.mode.l])
        return total

    def boundary_s_norm2(self):
        """<S w_T, S w_T> over the sphere r = R."""
        z, dz, kap = self.profile(np.array([self.R]))
        z, dz, kap = z[0], dz[0], kap[0]
        c_grad, c_curl = s_modal_multiplier(self.mode.l, self.R)
        if self.mode.family == "TE":
            amp = c_curl * z / (kap * self.R)
        else:
            c_u = c_grad if self.s_kind == "CURL_CURL" else 1.0
            amp = c_u * (-dz / (kap * self.R))
        return abs(amp) ** 2 * self.R**2


def _scene_with_shell(scene, R):
    if R < scene.radius:
        raise ValueError("the reference ball must contain the scatterer")
    if R == scene.radius:
        return scene
    return MediumSpec(layers=tuple(scene.layers) + ((R, 1.0 + 0.0j),))


def stekloff_eigs_ball(scene, R, k, l_max, s_kind="CURL_CURL"):
    """Generalized Stekloff eigenvalues of a layered ball inside radius R.

    Per mode the boundary condition is linear in lam, giving for the
    transfer states s = (zeta/kappa, zeta') at r = R:

        TE:              lam = -s_2 / s_1
        TM (S identity): lam = +s_2 / s_1   (TM state has zeta in slot 2)

    TM modes under the curl-curl smoother sit in the kernel of S and
    contribute no eigenvalues. Requires k^2 away from interior Neumann
    eigenvalues: the per-mode Neumann data (TE zeta', TM zeta) must not
    vanish within 1e-8 relative to the state scale.
    """
    if s_kind not in ("IDENTITY", "CURL_CURL"):
        raise ValueError(f"unknown smoother kind {s_kind!r}")
    eff = _scene_with_shell(scene, R)
    s_te, s_tm, layers = forward._interior_states(eff, k, l_max)
    kap_out = layers[-1].kappa
    modes = []
    for l in range(1, l_max + 1):
        scale_te = abs(kap_out * s_te[0, l]) + abs(s_te[1, l])
        scale_tm = abs(kap_out * s_tm[0, l]) + abs(s_tm[1, l])
        if abs(s_te[1, l]) < 1e-8 * scale_te:
            raise NeumannResonanceError(
                f"TE Neumann data vanishes at l = {l}: k^2 is an interior Neumann eigenvalue"
            )
        if abs(s_tm[1, l]) < 1e-8 * scale_tm:
            raise NeumannResonanceError(
                f"TM Neumann data vanishes at l = {l}: k^2 is an interior Neumann eigenvalue"
            )

    def build_layers(l, family):
        row = {"TE": 0, "TM": 1}[family]
        return [replace(lay, A=lay.A[row, l], B=lay.B[row, l]) for lay in layers]

    real_scene = all(n.imag == 0 for _, n in eff.layers)
    for l in range(1, l_max + 1):
        lam_te = -s_te[1, l] / s_te[0, l]
        if real_scene:
            lam_te = lam_te.real + 0.0j
        modes.append(
            StekloffMode(ModeFamily("TE", l), complex(lam_te), float(k), float(R),
                         s_kind, build_layers(l, "TE"))
        )
        if s_kind == "IDENTITY":
            lam_tm = s_tm[1, l] / s_tm[0, l]
            if real_scene:
                lam_tm = lam_tm.real + 0.0j
            modes.append(
                StekloffMode(ModeFamily("TM", l), complex(lam_tm), float(k), float(R),
                             s_kind, build_layers(l, "TM"))
            )
    modes.sort(key=lambda m: (abs(m.lam), m.mode.l, m.mode.family))
    return modes


def shift_estimate(mode, dn, r_c, k=None):
    """First-order prediction of lam - lam_perturbed for an index bump.

    The perturbation adds dn to the index on r < r_c. The linearized
    shift is -k^2 * dn * int_{r<r_c} |w|^2 dx / <S w_T, S w_T>. Modes in
    the kernel of S (TM with the curl-curl smoother) are rejected.
    """
    k = mode.k if k is None else k
    denom = mode.boundary_s_norm2()
    if denom == 0.0:
        raise ValueError("mode lies in the kernel of S: shift undefined")
    if r_c <= 0 or r_c > mode.R:
        raise ValueError("perturbation radius must lie in (0, R]")
    num = mode.volume_norm2(r_max=r_c)
    return -(k**2) * complex(dn) * num / denom

