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

from . import _extension, forward
from .forward import ConvergenceError, MediumSpec
from .sphfun import _L_MAX_HARD, riccati_all, riccati_psi

_GRID_STEP = 0.01
_REFINE_TOL = 1e-12
_TINY = np.finfo(float).tiny


class BracketError(ValueError):
    """A root search found no sign change in the given interval."""


class NeumannResonanceError(RuntimeError):
    """k^2 is (numerically) an interior Neumann eigenvalue of the ball."""


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


def _check_l_max(l_max):
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    if l_max > _L_MAX_HARD:
        raise ValueError(f"l_max must be <= {_L_MAX_HARD}, the largest supported degree, got {l_max}")


def _family_pair(family, psi, dpsi):
    """The (f, g) pair of a mode family: (psi, psi') for TE, (psi', psi) for TM."""
    if family == "TE":
        return psi, dpsi
    if family == "TM":
        return dpsi, psi
    raise ValueError("family must be 'TE' or 'TM'")


def _tev_terms(a, n, l, family, k):
    """The two products f(y) g(x) and sqrt(n) f(x) g(y) of ``tev_determinant``, over 1-D k."""
    k = np.atleast_1d(k)
    if np.any(k <= 0):
        raise ValueError("wavenumbers must be positive")
    root_n = np.sqrt(complex(n))
    x = k * a
    y = k * root_n * a
    l = np.asarray(l)
    l_top = int(l.max())
    psi_x, dpsi_x = riccati_psi(l_top, x)
    psi_y, dpsi_y = riccati_psi(l_top, y)
    f_x, g_x = _family_pair(family, psi_x[l], dpsi_x[l])
    f_y, g_y = _family_pair(family, psi_y[l], dpsi_y[l])
    return f_y * g_x, root_n * f_x * g_y


def tev_determinant(medium, l, family, k):
    """Per-mode transmission eigenvalue determinant, vectorized over k.

    With x = k a, y = k sqrt(n) a and the family's (f, g) pair of
    ``_family_pair``, (psi_l, psi_l') for TE and (psi_l', psi_l) for TM:

        f(y) g(x) - sqrt(n) f(x) g(y)

    Zeros over k > 0 are the transmission eigenvalues of that mode. The
    expression is real for real n; no extra normalization is needed.
    ``l`` may also be a 1-D array of degrees: the result then has one
    row per degree, all read off one pair of Riccati tables up to the
    largest of them.
    """
    a, n = _single_layer(medium)
    k = np.asarray(k, dtype=float)
    left, right = _tev_terms(a, n, l, family, k)
    det = left - right
    if n.imag == 0:
        det = det.real + 0.0j
    if k.ndim != 0:
        return det
    return complex(det[0]) if np.ndim(l) == 0 else det[:, 0]


def tev_min_singular(medium, l, family, k):
    """Smallest singular value of the column-normalized 2x2 matching matrix.

    Columns are the Cauchy states (f/kappa, g), with the family's (f, g)
    pair of ``_family_pair``, of the free-space and interior solutions
    at r = a; a transmission eigenvalue makes the columns parallel, so
    this is an independent root check for tev_determinant (which is
    proportional to the matrix determinant). Each column is first scaled
    by the power of two that brings its largest entry into [1/2, 1), which
    is exact, so the squares of the norm neither underflow nor overflow
    at high degree. An all-zero or non-finite column raises
    FloatingPointError naming l, family and k, where the normalization
    would give NaN.
    """
    a, n = _single_layer(medium)
    root_n = np.sqrt(complex(n))
    x = complex(k * a)
    y = complex(k * root_n * a)
    psi_x, dpsi_x, _, _ = riccati_all(l, np.array([x]))
    psi_y, dpsi_y, _, _ = riccati_all(l, np.array([y]))
    f_x, g_x = _family_pair(family, psi_x[l, 0], dpsi_x[l, 0])
    f_y, g_y = _family_pair(family, psi_y[l, 0], dpsi_y[l, 0])
    cols = np.array([[f_x / k, f_y / (k * root_n)], [g_x, g_y]])
    cols = cols * np.exp2(-np.frexp(np.abs(cols).max(axis=0))[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = cols / np.linalg.norm(cols, axis=0)[None, :]
    if not np.isfinite(cols).all():
        raise FloatingPointError(f"the {family} matching matrix of l = {l} at k = {k} "
                                 "has a column that is zero or not finite")
    return float(np.linalg.svd(cols, compute_uv=False)[-1])


_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brentq(f, xa, xb, xtol):
    """Root of f bracketed by [xa, xb], by the call scipy.optimize.brentq makes.

    The compiled routine (rtol 4 eps, 100 iterations, full output, whose
    flag reports non-convergence) comes from its module loaded by file. Raises
    ValueError when f has the same sign at both ends or returns NaN,
    ConvergenceError when it does not converge, and ImportError for a
    scipy without that module.
    """
    zeros = _extension.load(_extension.BRENT)

    def value(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    root, _, _, flag = zeros._brentq(value, xa, xb, xtol, _BRENT_RTOL, _BRENT_MAXITER, (), True, False)
    if flag != 0:
        raise ConvergenceError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {root}")
    return root


def _roots_on_grid(fn, grid, vals, is_root):
    """Brent refinement by fn of every sign change of the values ``vals`` on the grid.

    A grid point where ``vals`` is exactly zero is a root where the
    boolean array ``is_root`` over the grid holds.
    """
    roots = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(_brentq(fn, grid[i], grid[i + 1], xtol=_REFINE_TOL))
    roots += [float(k) for k in grid[(vals == 0.0) & is_root]]
    return sorted(roots)


def tev_roots(medium, l_max, k_range, step=_GRID_STEP):
    """All transmission eigenvalues with l <= l_max in the given k interval.

    Determinant sign changes on a grid of step <= 0.01 are refined by
    Brent's method to better than 1e-8. Returns a list of (k, l, family)
    sorted by k. The grid determinants of all degrees of a family, and
    the two products each is the difference of, come from one
    ``_tev_terms`` call, so from one pair of psi tables up to l_max;
    Brent evaluates tev_determinant per degree on scalars.
    """
    a, n = _single_layer(medium)
    if n.imag != 0:
        raise ValueError("transmission eigenvalue search needs a real index")
    step = min(step, _GRID_STEP)
    k_lo, k_hi = k_range
    if not (0 < k_lo < k_hi):
        raise ValueError("need 0 < k_lo < k_hi")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    _check_l_max(l_max)
    count = int(np.ceil((k_hi - k_lo) / step)) + 1
    grid = np.linspace(k_lo, k_hi, count)
    out = []
    for fam in ("TE", "TM"):
        # an exact zero of a determinant row is a root where its two products
        # cancel, not where they are subnormal and equal only for want of digits
        left, right = _tev_terms(a, n, np.arange(1, l_max + 1), fam, grid)
        normal = (np.abs(left) >= _TINY) | (np.abs(right) >= _TINY)
        for l, vals in enumerate(np.real(left - right), start=1):
            fn = lambda k, l=l, fam=fam: np.real(tev_determinant(medium, l, fam, k))
            for r in _roots_on_grid(fn, grid, vals, normal[l - 1]):
                out.append((r, l, fam))
    out.sort(key=lambda t: (t[0], t[1], t[2]))
    return out


def first_tev(medium, l_max=5, k_max=200.0):
    """Smallest transmission eigenvalue above k = 0.05, extending the search window as needed."""
    lo = 0.05
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
    n_est = _brentq(lambda n: k1_of(n) - k1_measured, n_lo, n_hi, xtol=1e-10)
    if abs(k1_of(n_est) - k1_measured) > 1e-6:
        raise BracketError("bisection failed to reach the 1e-6 eigenvalue tolerance")
    return float(n_est)


@dataclass(eq=False)
class StekloffMode:
    """One generalized Stekloff eigenpair with its radial profile.

    The eigenfunction is w = (zeta(kappa r)/(kappa r)) V_lm for TE modes
    and the usual two-component form for TM modes, with zeta given per
    layer by A psi + B chi. ``layers`` holds forward.RadialLayer records
    with scalar A, B covering (0, R]. ``family`` is "TE" or "TM" and
    ``l`` the degree.
    """

    family: str
    l: int
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
        l = self.l
        for lay in self.layers:
            sel = (r > lay.r_lo) & (r <= lay.r_hi) if lay.r_lo > 0 else (r <= lay.r_hi)
            if not np.any(sel):
                continue
            z, dz = forward.radial_profile(lay, r[sel], l)
            zeta[sel] = z[l]
            dzeta[sel] = dz[l]
            kap[sel] = lay.kappa
        return zeta, dzeta, kap

    def _boundary_trace(self):
        """Amplitudes (nu x curl w, S w_T) of the mode's boundary trace at r = R."""
        z, dz, kap = (v[0] for v in self.profile(np.array([self.R])))
        c_grad, c_curl = s_modal_multiplier(self.l, self.R)
        if self.family == "TE":
            return -kap * dz / (kap * self.R), c_curl * z / (kap * self.R)
        c_u = c_grad if self.s_kind == "CURL_CURL" else 1.0
        return -z / self.R, c_u * (-dz / (kap * self.R))

    def boundary_residual(self):
        """Relative residual of nu x curl w - lam * S w_T at r = R."""
        curl_term, s_term = self._boundary_trace()
        num = abs(curl_term - self.lam * s_term)
        scale = max(abs(curl_term), abs(self.lam * s_term))
        return num / scale if scale > 0 else num

    def volume_norm2(self, r_max=None):
        """Integral of |w|^2 over the ball r < r_max (default: all of B), by 64-point Gauss."""
        r_max = self.R if r_max is None else min(r_max, self.R)
        fam = 0 if self.family == "TE" else 1
        total = 0.0
        for lay in self.layers:
            if lay.r_lo < r_max:
                ints = forward.radial_energy(lay, self.l, 64, r_max)
                total += float(ints[fam][self.l])
        return total

    def boundary_s_norm2(self):
        """<S w_T, S w_T> over the sphere r = R."""
        return abs(self._boundary_trace()[1]) ** 2 * self.R**2


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
    if k <= 0:
        raise ValueError("wave number must be positive")
    _check_l_max(l_max)
    eff = _scene_with_shell(scene, R)
    s_te, s_tm, layers = forward._interior_states(eff, k, l_max)
    kap_out = layers[-1].kappa
    families = (("TE", 0, s_te, -1), ("TM", 1, s_tm, 1))
    for l in range(1, l_max + 1):
        for family, _, s, _ in families:
            if abs(s[1, l]) < 1e-8 * (abs(kap_out * s[0, l]) + abs(s[1, l])):
                raise NeumannResonanceError(f"{family} Neumann data vanishes at l = {l}: "
                                            "k^2 is an interior Neumann eigenvalue")
    real_scene = all(n.imag == 0 for _, n in eff.layers)
    modes = []
    for family, row, s, sign in families if s_kind == "IDENTITY" else families[:1]:
        for l in range(1, l_max + 1):
            lam = sign * s[1, l] / s[0, l]
            if real_scene:
                lam = lam.real + 0.0j
            radial = [replace(lay, A=lay.A[row, l], B=lay.B[row, l]) for lay in layers]
            modes.append(StekloffMode(family, l, complex(lam), float(k), float(R), s_kind, radial))
    modes.sort(key=lambda m: (abs(m.lam), m.l, m.family))
    return modes


def shift_estimate(mode, dn, r_c):
    """First-order prediction of lam - lam_perturbed for an index bump.

    The perturbation adds dn to the index on r < r_c. The linearized
    shift is -k^2 * dn * int_{r<r_c} |w|^2 dx / <S w_T, S w_T>. Modes in
    the kernel of S (TM with the curl-curl smoother) are rejected.
    """
    denom = mode.boundary_s_norm2()
    if denom == 0.0:
        raise ValueError("mode lies in the kernel of S: shift undefined")
    if r_c <= 0 or r_c > mode.R:
        raise ValueError("perturbation radius must lie in (0, R]")
    num = mode.volume_norm2(r_max=r_c)
    return -(mode.k**2) * complex(dn) * num / denom

