"""Complex-argument spherical special functions and vector spherical harmonics.

This module is the numerical bedrock for every series expansion in the
package: spherical Bessel functions of complex argument, the
Riccati-Bessel pairs used in boundary matching, and the orthonormal
tangential harmonics U_lm (gradient type) and V_lm (curl type) on the
unit sphere.

Conventions, fixed once and used everywhere downstream:

* Y_lm are fully normalized complex spherical harmonics with the
  Condon-Shortley phase, so that the integral of |Y_lm|^2 over the unit
  sphere is 1.
* U_lm = surface gradient of Y_lm divided by sqrt(l(l+1)),
  V_lm = xhat x U_lm.  Both families are orthonormal in L^2 of the
  sphere and mutually orthogonal.
* Riccati-Bessel functions are psi_l(x) = x j_l(x), chi_l(x) = x y_l(x)
  and xi_l(x) = x h1_l(x) = psi_l + i chi_l, with Wronskians
  psi chi' - psi' chi = 1 and psi xi' - psi' xi = i.

* Tangential modes (l, m), 1 <= l <= L, |m| <= l, are ordered l-major
  with m ascending, so mode (l, m) is row l(l+1) + m - 1 of every table.

All functions are pure and accept numpy arrays for the argument where
that is useful (radial quadratures, wave-number grids).
"""

from __future__ import annotations

import numpy as np

_L_MAX_HARD = 200
_X_ABS_MAX = 1.0e4
_SERIES_CUTOFF = 0.5
_RESCALE = 1.0e250


class RecurrenceOverflowError(ArithmeticError):
    """Intermediate recurrence values left the representable range."""


def mode_list(l_max):
    """Degrees and orders (l, m) of all tangential modes with 1 <= l <= l_max, |m| <= l.

    Two read-only int arrays in l-major, m-ascending order, so row
    l(l+1) + m - 1 is mode (l, m); the operator assembly code relies
    on this order, so do not change it.
    """
    l = np.repeat(np.arange(1, l_max + 1), 2 * np.arange(1, l_max + 1) + 1)
    m = np.arange(l.size) - l * (l + 1) + 1
    l.setflags(write=False)
    m.setflags(write=False)
    return l, m


def _check_bessel_domain(deg, x):
    low, high = np.min(deg, initial=0), np.max(deg, initial=0)
    if low < 0:
        raise ValueError(f"degree {low} must be >= 0")
    if high > _L_MAX_HARD:
        raise ValueError(f"degree {high} exceeds supported maximum {_L_MAX_HARD}")
    if not np.all(np.abs(x) < _X_ABS_MAX):  # NaN fails too
        raise ValueError(f"|x| must be < {_X_ABS_MAX:g}")


def _table_args(l_max, x):
    """(deg, x, scalar) of a table call: the degrees, and x as a complex array.

    ``l_max`` is one degree, kept as a 0-d array, or an int array of
    degrees, which is broadcast with x. x comes back at least 1-D, and
    ``scalar`` says both were 0-d.
    """
    deg = np.asarray(l_max)
    x = np.asarray(x, dtype=complex)
    scalar = deg.ndim == x.ndim == 0
    if deg.ndim:
        deg, x = np.broadcast_arrays(deg, x)
    return deg, np.atleast_1d(x), scalar


def _zero_rows_above(out, deg):
    """Set each column of the table ``out`` to 0 above its own degree; one degree has no such rows."""
    if deg.ndim:
        out[np.arange(len(out)).reshape((-1,) + (1,) * deg.ndim) > deg] = 0.0


# Row broadcasts. A product of a table (rows over degree) with a row over the
# arguments gives the row an explicit leading axis and writes a new array.
# numpy runs a complex product of one element without its SIMD loop, which
# rounds differently, when its operands differ in rank or it runs in place;
# so formed, a table of degree 0 at one argument rounds as every column of a
# wider table does.


def _bessel_j_series(l_max, x):
    """Power series for j_0..j_lmax, accurate for small |x| (used below 0.5).

    The (2l+1)!! prefactor is accumulated over degree as a running product
    of x/(2l+1) factors, so it underflows gracefully instead of
    overflowing. The 11 terms of the series then step once each, for
    every degree at once, with the operations of the per-degree loop
    (tests/sphfun_oracle.py), so the table keeps its bits.
    """
    x = np.asarray(x, dtype=complex)
    pref = np.empty((l_max + 1,) + x.shape, dtype=complex)
    pref[0] = 1.0
    for l in range(1, l_max + 1):
        pref[l] = pref[l - 1] * x / (2 * l + 1)
    ell = np.arange(l_max + 1).reshape((-1,) + (1,) * x.ndim)
    half_x2 = 0.5 * x * x
    term = np.ones_like(pref)
    total = np.ones_like(pref)
    for s in range(1, 12):
        term = term * (-half_x2)[None] / (s * (2 * ell + 2 * s + 1))  # a row broadcast
        total = total + term
    return pref * total


def _odd_over_x(count, inv_x):
    """Rows (2l+1) * inv_x for l = 0..count-1, each the product the recurrences form."""
    return (2 * np.arange(count) + 1).reshape((-1,) + (1,) * inv_x.ndim) * inv_x


def _abs_max(a):
    """Largest |a| as one reduction; NaN entries are skipped, as ``np.any(|a| > c)`` skips them."""
    return np.fmax.reduce(np.abs(a), axis=None, initial=0.0)


def _bessel_j_miller(l_max, x):
    """Backward (Miller) recurrence for j_0..j_lmax, arbitrary complex x.

    Downward recurrence is unconditionally stable for j because it is the
    minimal solution as l grows. An argument of degree l holds zeros until
    step max(l, ceil|x|) + 40 + l // 2, where it starts from the pair
    (0, 1e-280); one int degree takes the largest |x| of the call, so all
    arguments start together. The unnormalized solution is rescaled
    whenever it threatens to overflow and finally normalized against
    whichever of j_0, j_1 is better conditioned. Rows above an argument's
    degree are 0.
    """
    x = np.asarray(x, dtype=complex)
    deg = np.asarray(l_max)
    xa = np.abs(x)
    reach = np.ceil(xa.max(initial=0.0) if deg.ndim == 0 else xa)
    start = np.fmax(deg, reach).astype(int) + 40 + deg // 2
    top = int(np.max(deg, initial=0))
    out = np.zeros((top + 1,) + x.shape, dtype=complex)
    hi = np.zeros_like(x)
    lo = np.zeros_like(x)
    inv_x = 1.0 / x
    first = int(np.max(start, initial=0))
    odd = _odd_over_x(first + 1, inv_x)
    fresh = {s: start == s for s in set(np.ravel(start).tolist())}
    for l in range(first, 0, -1):
        if l in fresh:
            hi[fresh[l]] = 0.0
            lo[fresh[l]] = 1.0e-280
        hi, lo = lo, odd[l] * lo - hi
        if _abs_max(lo) > _RESCALE:
            # Rescale the running pair and everything already stored for
            # the affected arguments; stored rows may underflow to zero,
            # which is the correct representable limit there.
            big = np.abs(lo) > _RESCALE
            hi[big] *= 1e-250
            lo[big] *= 1e-250
            out[:, big] *= 1e-250
        if l - 1 <= top:
            out[l - 1] = lo
    ref0 = np.sin(x) * inv_x
    ref1 = ref0 * inv_x - np.cos(x) * inv_x
    one = min(1, top)
    use1 = (deg >= 1) & (np.abs(out[one]) > np.abs(out[0]))
    scale = np.where(use1, ref1, ref0) / np.where(use1, out[one], out[0])
    out = out * scale[None]  # a row broadcast, not in place
    _zero_rows_above(out, deg)
    if not np.all(np.isfinite(out)):
        raise RecurrenceOverflowError("spherical Bessel j recurrence overflowed")
    return out


def bessel_j_all(l_max, x):
    """Spherical Bessel functions j_0(x)..j_lmax(x) for complex x.

    ``l_max`` is one degree, or an int array of degrees broadcast against
    x, and the table has shape (max l_max + 1,) + the broadcast shape.
    With a degree array each column holds, up to its own degree, the bits
    of that degree's call at its argument alone, and zeros above. Small
    arguments go through the power series, everything else through
    Miller's backward recurrence.
    """
    deg, x, scalar = _table_args(l_max, x)
    _check_bessel_domain(deg, x)
    top = int(np.max(deg, initial=0))
    out = np.zeros((top + 1,) + x.shape, dtype=complex)
    small = np.abs(x) <= _SERIES_CUTOFF
    if np.any(small):
        out[:, small] = _bessel_j_series(top, x[small])
        _zero_rows_above(out, deg)
    if np.any(~small):
        miller = _bessel_j_miller(deg[~small] if deg.ndim else deg, x[~small])
        out[:len(miller), ~small] = miller
    return out[:, 0] if scalar else out


def bessel_y_all(l_max, x):
    """Spherical Bessel functions y_0..y_lmax by forward recurrence.

    ``l_max`` and the columns are those of ``bessel_j_all``. Forward
    recurrence is stable for y (the dominant solution). A value beyond
    1e300 at large l and small |x|, up to its argument's own degree,
    raises RecurrenceOverflowError naming that degree, because the true
    values themselves are not representable.
    """
    deg, x, scalar = _table_args(l_max, x)
    _check_bessel_domain(deg, x)
    if np.any(x == 0):
        raise ValueError("y_l is singular at x = 0")
    top = int(np.max(deg, initial=0))
    out = np.empty((top + 1,) + x.shape, dtype=complex)
    inv_x = 1.0 / x
    cos_x = np.cos(x)
    sin_x = np.sin(x)
    out[0] = -cos_x * inv_x
    if top >= 1:
        out[1] = (-cos_x * inv_x - sin_x) * inv_x
    odd = _odd_over_x(top, inv_x)
    # a column runs on past its own degree, where it may overflow: those rows go
    # to 0 before the test, which reads every row from l = 2 up
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(1, top):
            out[l + 1] = odd[l] * out[l] - out[l - 1]
    _zero_rows_above(out, deg)
    over = np.abs(out[2:]) > 1.0e300
    over = np.flatnonzero(over.reshape(len(over), x.size).any(axis=1))
    if over.size:
        raise RecurrenceOverflowError(
            f"spherical Bessel y overflow at l={over[0] + 2}, min|x|={np.abs(x).min():.3g}"
        )
    if not np.all(np.isfinite(out)):
        raise RecurrenceOverflowError("spherical Bessel y recurrence produced non-finite values")
    return out[:, 0] if scalar else out


def _riccati_pair(f, f_minus1, x):
    """(x f_l, x f_{l-1} - l f_l) over the degrees of the table f, with f_{-1} given."""
    ell = np.arange(len(f)).reshape((-1,) + (1,) * x.ndim)
    f_prev = np.concatenate([f_minus1[None], f[:-1]], axis=0)
    x = x[None]  # for the row broadcasts
    return x * f, x * f_prev - ell * f


def riccati_psi(l_max, x):
    """Riccati-Bessel tables (psi, psi') for degrees 0..l_max: the regular half of ``riccati_all``.

    psi_l(x) = x j_l(x) and psi'_l = x j_{l-1} - l j_l with j_{-1} = cos(x)/x.
    ``l_max`` and the columns are those of ``bessel_j_all``; a prime
    table is not 0 in the row just above a column's degree. No chi table
    is built, so no y recurrence can overflow at high degree and small
    argument.
    """
    deg, x, scalar = _table_args(l_max, x)
    if np.any(x == 0):
        raise ValueError("Riccati-Bessel functions require x != 0")
    psi, dpsi = _riccati_pair(bessel_j_all(deg, x), np.cos(x) / x, x)
    return (psi[:, 0], dpsi[:, 0]) if scalar else (psi, dpsi)


def riccati_all(l_max, x):
    """Riccati-Bessel tables (psi, psi', chi, chi') for degrees 0..l_max.

    psi_l(x) = x j_l(x), chi_l(x) = x y_l(x); primes are derivatives in x,
    computed from psi'_l = x j_{l-1} - l j_l (and likewise for chi, with
    y_{-1} = sin(x)/x). ``l_max`` and the columns are those of
    ``bessel_j_all``. The psi half is ``riccati_psi``. The outgoing
    xi = psi + i chi is formed only where a boundary matching needs it.
    """
    deg, x, scalar = _table_args(l_max, x)
    tables = riccati_psi(deg, x) + _riccati_pair(bessel_y_all(deg, x), np.sin(x) / x, x)
    return tuple(t[:, 0] for t in tables) if scalar else tables


# ---------------------------------------------------------------------------
# Normalized associated Legendre machinery for the vector harmonics.
#
# ptilde[l, m] = Pbar_l^m(cos theta) / sin theta for m >= 1 is finite at the
# poles and satisfies the same degree recurrence as Pbar itself, so no
# division by sin theta ever happens.
# ---------------------------------------------------------------------------


def _legendre_ptilde_tau(l_max, u, s):
    """Tables ptilde[l,m] and tau[l,m] for 0 <= m <= l <= l_max.

    u = cos(theta), s = sin(theta) >= 0, arrays of shape (n,). tau is the
    theta-derivative of Pbar_l^m; ptilde is Pbar_l^m / sin(theta) for
    m >= 1 and is left zero for m = 0 (unused there). Column m = 0
    carries the plain Legendre values Pbar_l^0 through the same degree
    recurrence until they are returned as pbar0.
    """
    n = u.shape[0]
    ptilde = np.zeros((l_max + 1, l_max + 1, n))
    tau = np.zeros((l_max + 1, l_max + 1, n))
    if l_max == 0:
        return np.full((1, n), 1.0 / np.sqrt(4.0 * np.pi)), ptilde, tau
    ptilde[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    ptilde[1, 0] = np.sqrt(3.0 / (4.0 * np.pi)) * u
    # diagonal ptilde[m, m] = -sqrt((2m+1)/(2m)) s ptilde[m-1, m-1] as a running product
    d = np.arange(1, l_max + 1)
    step = -np.sqrt((2.0 * d + 1.0) / (2.0 * d))[:, None] * s
    step[0] = -np.sqrt(3.0 / (8.0 * np.pi))
    ptilde[d, d] = np.multiply.accumulate(step, axis=0)
    # sub-diagonal ptilde[m+1, m] = a u ptilde[m, m]
    a = np.sqrt((4.0 * d[1:] * d[1:] - 1.0) / (2 * d[1:] - 1))[:, None]
    ptilde[d[1:], d[:-1]] = a * u * ptilde[d[:-1], d[:-1]]
    # upward in l, all orders m <= l - 2 at once
    coef = np.zeros((l_max + 1, l_max + 1, 1))
    li, mi = np.tril_indices(l_max + 1, -1)
    coef[li, mi, 0] = np.sqrt((4.0 * li * li - 1.0) / (li * li - mi * mi))
    for l in range(2, l_max + 1):
        m = slice(0, l - 1)
        ptilde[l, m] = coef[l, m] * (u * ptilde[l - 1, m] - ptilde[l - 2, m] / coef[l - 1, m])
    pbar0 = ptilde[:, 0].copy()
    ptilde[:, 0] = 0.0

    # m = 0: tau = sqrt(l(l+1)) * Pbar_l^1 = sqrt(l(l+1)) * s * ptilde[l,1]
    l = np.arange(1, l_max + 1)
    tau[1:, 0] = np.sqrt(l * (l + 1.0))[:, None] * s * ptilde[1:, 1]
    # m >= 1, where ptilde[l-1, l] = 0 stands in for the missing lower degree
    li, mi = np.tril_indices(l_max + 1)
    li, mi = li[mi > 0], mi[mi > 0]
    g = np.sqrt((2.0 * li + 1.0) * (li * li - mi * mi) / (2.0 * li - 1.0))[:, None]
    tau[li, mi] = li[:, None] * u * ptilde[li, mi] - g * ptilde[li - 1, mi]
    return pbar0, ptilde, tau


def _sphere_angles(points):
    """Angular data (u, s, phi, theta-hat, phi-hat) for unit vectors."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1.0e-10):
        raise ValueError("evaluation points must be unit vectors")
    u = np.clip(pts[:, 2], -1.0, 1.0)
    s = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    cphi, sphi = np.cos(phi), np.sin(phi)
    theta_hat = np.stack([u * cphi, u * sphi, -s], axis=1)
    phi_hat = np.stack([-sphi, cphi, np.zeros_like(sphi)], axis=1)
    return u, s, phi, theta_hat, phi_hat


def vsh_tables(l_max, points):
    """Vector spherical harmonic tables at a batch of unit vectors.

    Returns (Y, U, V) with one row per mode of mode_list(l_max): Y has
    shape (n_modes, n_pts) and U, V have shape (n_modes, n_pts, 3). Every
    mode row is first built at order |m|; the negative orders then become
    U_{l,-m} = (-1)^m conj(U_{lm}), valid for these normalized harmonics.
    """
    ell, m = mode_list(l_max)
    u, s, phi, theta_hat, phi_hat = _sphere_angles(points)
    pbar0, ptilde, tau = _legendre_ptilde_tau(l_max, u, s)
    am = np.abs(m)
    eim = np.exp(1j * np.outer(np.arange(l_max + 1), phi))[am][..., None]  # (M, n, 1)
    pt = ptilde[ell, am]
    pb = s * pt
    pb[m == 0] = pbar0[ell[m == 0]]
    Y = pb * eim[..., 0]
    pi_m = (am[:, None] * pt)[..., None]  # zero for m = 0
    tau_m = tau[ell, am][..., None]
    inv_rt = (1.0 / np.sqrt(ell * (ell + 1.0)))[:, None, None]
    # U = (tau thetahat + i pi phihat) e^{i m phi} / sqrt(l(l+1)) with the product
    # operands in this order: numpy's complex product is not bit-commutative
    U = 1j * pi_m * phi_hat
    U += tau_m * theta_hat
    U *= eim
    U *= inv_rt
    V = -1j * pi_m * theta_hat
    V += tau_m * phi_hat
    V *= eim
    V *= inv_rt
    neg = m < 0
    sign = (-1) ** am[neg]
    Y[neg] = sign[:, None] * np.conj(Y[neg])
    U[neg] = sign[:, None, None] * np.conj(U[neg])
    V[neg] = sign[:, None, None] * np.conj(V[neg])
    return Y, U, V

