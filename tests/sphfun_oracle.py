"""Per-mode loop references for the special-function tables.

These are the scalar-loop forms of the five table kernels of
``scatsig.sphfun``: the Legendre tables ``_legendre_ptilde_tau``, the
harmonic tables ``vsh_tables``, the power series ``_bessel_j_series``,
Miller's backward recurrence ``_bessel_j_miller`` and the forward
recurrence ``bessel_y_all``. Each
steps over degree and order one pair at a time, with the operand order
of every floating-point operation that the package's array forms keep,
so the tests can compare the package's tables with these bit for bit.
``vector_spherical_harmonics`` reads one mode at one point off the
package's own ``vsh_tables``, for the closed-form and pole checks.
"""

import numpy as np

from scatsig import sphfun
from scatsig.sphfun import (
    _RESCALE,
    RecurrenceOverflowError,
    _check_bessel_domain,
    _sphere_angles,
)


def _bessel_j_series(l_max, x):
    """Power series for j_l, accurate for small |x| (used below 0.5).

    The (2l+1)!! prefactor is accumulated as a running product of
    x/(2i+1) factors so it underflows gracefully instead of overflowing.
    """
    x = np.asarray(x, dtype=complex)
    out = np.zeros((l_max + 1,) + x.shape, dtype=complex)
    half_x2 = 0.5 * x * x
    pref = np.ones_like(x)
    for l in range(l_max + 1):
        if l > 0:
            pref = pref * x / (2 * l + 1)
        term = np.ones_like(x)
        total = np.ones_like(x)
        for s in range(1, 12):
            term = term * (-half_x2) / (s * (2 * l + 2 * s + 1))
            total = total + term
        out[l] = pref * total
    return out


def _bessel_j_miller(l_max, x):
    """Backward (Miller) recurrence for j_0..j_lmax, arbitrary complex x.

    Downward recurrence is unconditionally stable for j because it is the
    minimal solution as l grows. The unnormalized solution is rescaled
    whenever it threatens to overflow and finally normalized against
    whichever of j_0, j_1 is better conditioned.
    """
    x = np.asarray(x, dtype=complex)
    xa = np.abs(x)
    start = int(max(l_max, np.ceil(xa.max() if xa.size else 0.0))) + 40 + l_max // 2
    out = np.zeros((l_max + 1,) + x.shape, dtype=complex)
    hi = np.zeros_like(x)
    lo = np.full_like(x, 1.0e-280)
    inv_x = 1.0 / x
    for l in range(start, 0, -1):
        nxt = (2 * l + 1) * inv_x * lo - hi
        hi, lo = lo, nxt
        big = np.abs(lo) > _RESCALE
        if np.any(big):
            # Rescale the running pair and everything already stored for
            # the affected arguments; stored rows may underflow to zero,
            # which is the correct representable limit there.
            hi[big] *= 1e-250
            lo[big] *= 1e-250
            out[:, big] *= 1e-250
        if l - 1 <= l_max:
            out[l - 1] = lo
    ref0 = np.sin(x) * inv_x
    ref1 = ref0 * inv_x - np.cos(x) * inv_x
    use1 = np.abs(out[min(1, l_max)]) > np.abs(out[0]) if l_max >= 1 else np.zeros(x.shape, bool)
    sel_ref = np.where(use1, ref1, ref0) if l_max >= 1 else ref0
    sel_u = np.where(use1, out[1], out[0]) if l_max >= 1 else out[0]
    scale = sel_ref / sel_u
    # a new array with a row axis on the scale, as the package forms it: numpy
    # rounds a one-element complex product in place without its SIMD loop
    out = out * scale[None]
    if not np.all(np.isfinite(out)):
        raise RecurrenceOverflowError("spherical Bessel j recurrence overflowed")
    return out


def bessel_y_all(l_max, x):
    """Spherical Bessel functions y_0..y_lmax by forward recurrence.

    Forward recurrence is stable for y (the dominant solution). Overflow
    for large l at small |x| raises RecurrenceOverflowError because the
    true values themselves are not representable.
    """
    x = np.asarray(x, dtype=complex)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    _check_bessel_domain(l_max, x)
    if np.any(x == 0):
        raise ValueError("y_l is singular at x = 0")
    out = np.empty((l_max + 1,) + x.shape, dtype=complex)
    inv_x = 1.0 / x
    cos_x = np.cos(x)
    sin_x = np.sin(x)
    out[0] = -cos_x * inv_x
    if l_max >= 1:
        out[1] = (-cos_x * inv_x - sin_x) * inv_x
    for l in range(1, l_max):
        out[l + 1] = (2 * l + 1) * inv_x * out[l] - out[l - 1]
        if np.any(np.abs(out[l + 1]) > 1.0e300):
            raise RecurrenceOverflowError(
                f"spherical Bessel y overflow at l={l + 1}, min|x|={np.abs(x).min():.3g}"
            )
    if not np.all(np.isfinite(out)):
        raise RecurrenceOverflowError("spherical Bessel y recurrence produced non-finite values")
    return out[:, 0] if scalar else out


def _legendre_ptilde_tau(l_max, u, s):
    """Tables ptilde[l,m] and tau[l,m] for 0 <= m <= l <= l_max.

    u = cos(theta), s = sin(theta) >= 0, arrays of shape (n,). tau is the
    theta-derivative of Pbar_l^m; ptilde is Pbar_l^m / sin(theta) for
    m >= 1 and is left zero for m = 0 (unused there).
    """
    n = u.shape[0]
    ptilde = np.zeros((l_max + 1, l_max + 1, n))
    tau = np.zeros((l_max + 1, l_max + 1, n))
    pbar0 = np.zeros((l_max + 1, n))

    # m = 0 column: plain normalized Legendre recurrence (pole safe).
    pbar0[0] = 1.0 / np.sqrt(4.0 * np.pi)
    if l_max >= 1:
        pbar0[1] = np.sqrt(3.0 / (4.0 * np.pi)) * u
    for l in range(2, l_max + 1):
        a_l = np.sqrt((4.0 * l * l - 1.0) / (l * l))
        a_lm1 = np.sqrt((4.0 * (l - 1) ** 2 - 1.0) / ((l - 1) ** 2))
        pbar0[l] = a_l * (u * pbar0[l - 1] - pbar0[l - 2] / a_lm1)

    # diagonal seeds ptilde[m, m]
    if l_max >= 1:
        ptilde[1, 1] = -np.sqrt(3.0 / (8.0 * np.pi))
    for m in range(1, l_max):
        ptilde[m + 1, m + 1] = -np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * s * ptilde[m, m]

    # upward in l for each m >= 1
    for m in range(1, l_max + 1):
        if m + 1 <= l_max:
            a = np.sqrt((4.0 * (m + 1) ** 2 - 1.0) / ((m + 1) ** 2 - m * m))
            ptilde[m + 1, m] = a * u * ptilde[m, m]
        for l in range(m + 2, l_max + 1):
            a_l = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            a_lm1 = np.sqrt((4.0 * (l - 1) ** 2 - 1.0) / ((l - 1) ** 2 - m * m))
            ptilde[l, m] = a_l * (u * ptilde[l - 1, m] - ptilde[l - 2, m] / a_lm1)

    # tau tables
    for l in range(1, l_max + 1):
        # m = 0: tau = sqrt(l(l+1)) * Pbar_l^1 = sqrt(l(l+1)) * s * ptilde[l,1]
        tau[l, 0] = np.sqrt(l * (l + 1.0)) * s * ptilde[l, 1]
        for m in range(1, l + 1):
            g = np.sqrt((2.0 * l + 1.0) * (l * l - m * m) / (2.0 * l - 1.0))
            prev = ptilde[l - 1, m] if l - 1 >= m else 0.0
            tau[l, m] = l * u * ptilde[l, m] - g * prev

    return pbar0, ptilde, tau


def vsh_tables(l_max, points):
    """Vector spherical harmonic tables at a batch of unit vectors.

    Returns (Y, U, V) with rows over the modes (l, m), l = 1..l_max and
    m = -l..l, l-major: Y has shape (n_modes, n_pts) and U, V have shape
    (n_modes, n_pts, 3). Negative orders come from
    U_{l,-m} = (-1)^m conj(U_{lm}), valid for these normalized harmonics.
    """
    n_modes = l_max * (l_max + 2)
    u, s, phi, theta_hat, phi_hat = _sphere_angles(points)
    n = u.shape[0]
    pbar0, ptilde, tau = _legendre_ptilde_tau(l_max, u, s)
    eim = np.exp(1j * np.outer(np.arange(l_max + 1), phi))  # (m, n)

    Y = np.zeros((n_modes, n), dtype=complex)
    U = np.zeros((n_modes, n, 3), dtype=complex)
    V = np.zeros((n_modes, n, 3), dtype=complex)

    idx = 0
    for l in range(1, l_max + 1):
        inv_rt = 1.0 / np.sqrt(l * (l + 1.0))
        block = {}
        for m in range(0, l + 1):
            pb = pbar0[l] if m == 0 else s * ptilde[l, m]
            ym = pb * eim[m]
            pi_m = m * ptilde[l, m]  # zero for m = 0
            gu = (tau[l, m][:, None] * theta_hat + 1j * pi_m[:, None] * phi_hat) * eim[m][:, None]
            um = gu * inv_rt
            vm = (-1j * pi_m[:, None] * theta_hat + tau[l, m][:, None] * phi_hat) * eim[m][:, None] * inv_rt
            block[m] = (ym, um, vm)
        for m in range(-l, l + 1):
            if m >= 0:
                ym, um, vm = block[m]
            else:
                ym0, um0, vm0 = block[-m]
                sign = (-1) ** (-m)
                ym, um, vm = sign * np.conj(ym0), sign * np.conj(um0), sign * np.conj(vm0)
            Y[idx] = ym
            U[idx] = um
            V[idx] = vm
            idx += 1
    return Y, U, V


def vector_spherical_harmonics(l, m, xhat):
    """(Y, U, V) of the single mode (l, m) at a single unit vector.

    U is the normalized surface gradient of Y, V = xhat x U; both are
    tangential. Evaluation arbitrarily close to the poles is safe: the
    Legendre recurrences never divide by sin(theta).
    """
    if l < 1:
        raise ValueError(f"tangential harmonics need l >= 1, got l={l}")
    if abs(m) > l:
        raise ValueError(f"order |m| <= l violated: l={l}, m={m}")
    Y, U, V = sphfun.vsh_tables(l, np.asarray(xhat, dtype=float)[None, :])
    row = l * (l + 1) + m - 1
    return Y[row, 0], U[row, 0], V[row, 0]
