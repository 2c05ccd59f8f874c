"""Special function layer: values against mpmath, identities, pole safety."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scatsig.sphfun import (
    ModeIndex,
    RecurrenceOverflowError,
    bessel_j_all,
    bessel_y_all,
    mode_list,
    riccati_all,
    scalar_harmonics,
    vector_spherical_harmonics,
    vsh_tables,
)

mp.mp.dps = 30


def _mp_sph_j(l, z):
    # reflect to Re z >= 0 first: the half-integer Bessel route crosses a
    # branch cut there while j_l itself is single valued with parity (-1)^l
    z = mp.mpc(z)
    if z.real < 0:
        return (-1) ** l * _mp_sph_j(l, -z)
    return mp.sqrt(mp.pi / (2 * z)) * mp.besselj(l + mp.mpf(1) / 2, z)


def _mp_sph_y(l, z):
    z = mp.mpc(z)
    if z.real < 0:
        return (-1) ** (l + 1) * _mp_sph_y(l, -z)
    return mp.sqrt(mp.pi / (2 * z)) * mp.bessely(l + mp.mpf(1) / 2, z)


# Reference values computed with mpmath at 30 digits and frozen here so a
# regression cannot hide behind a simultaneously broken live comparison.
FROZEN = [
    ("j", 2, 2 + 1j, 0.21890731036371971 + 0.15881574297707539j),
    ("j", 0, 0.3, 0.98506735553779858 + 0.0j),
    ("j", 10, 8 - 3j, -0.03453422125891951 - 0.029723216272578952j),
    ("y", 4, 2.7, -1.3286601214587469 + 0.0j),
    ("h1", 3, 1.5, 0.028324641582471801 - 3.7892735647020435j),
]


@pytest.mark.parametrize("kind,l,z,want", FROZEN)
def test_frozen_reference_values(kind, l, z, want):
    j, y = bessel_j_all(l, z)[l], bessel_y_all(l, z)[l]
    got = {"j": j, "y": y, "h1": j + 1j * y}[kind]
    assert_allclose(got, want, rtol=5e-14, atol=1e-300)


def test_riccati_frozen_complex_argument():
    psi, dpsi, chi, dchi = (f[5] for f in riccati_all(5, 3 - 0.5j))
    assert_allclose(psi, 0.03482803447386632 - 0.041274172156511187j, rtol=5e-13)
    assert_allclose(psi + 1j * chi, 3.6143438516945725 - 5.0313834718144025j, rtol=5e-13)
    # derivative columns checked through the Wronskians below
    assert np.isfinite(dpsi) and np.isfinite(dchi)


@pytest.mark.parametrize(
    "z",
    [0.05, 0.49, 0.51, 1.0, 3.7, 20.0, 95.0, 0.2 + 0.3j, 2 - 2j, 14 + 5j, -4.0, -0.1 - 0.4j],
)
def test_bessel_sweep_against_mpmath(z):
    l_max = 12
    j = bessel_j_all(l_max, z)
    y = bessel_y_all(l_max, z)
    for l in range(l_max + 1):
        ref_j = complex(_mp_sph_j(l, z))
        ref_y = complex(_mp_sph_y(l, z))
        assert_allclose(j[l], ref_j, rtol=2e-12, atol=1e-280)
        assert_allclose(y[l], ref_y, rtol=2e-12, atol=1e-280)


def test_high_degree_small_argument():
    # j_60(0.9) underflows toward 1e-120; Miller recurrence must still track it
    val = bessel_j_all(60, 0.9)[60]
    ref = complex(_mp_sph_j(60, mp.mpf("0.9")))
    assert_allclose(val, ref, rtol=1e-10)


def test_array_argument_matches_scalar_calls():
    xs = np.array([0.3, 1.0, 2.5 + 1j, 40.0])
    table = bessel_j_all(6, xs)
    for i, x in enumerate(xs):
        assert_allclose(table[:, i], bessel_j_all(6, x), rtol=1e-14)


def test_wronskian_psi_xi():
    # psi xi' - psi' xi = i exactly, all degrees, mixed arguments
    xs = np.array([0.2, 1.0, 3.0 - 0.5j, 7.7, 30.0 + 2j])
    psi, dpsi, chi, dchi = riccati_all(40, xs)
    w = psi * (dpsi + 1j * dchi) - dpsi * (psi + 1j * chi)
    assert_allclose(w, np.full_like(w, 1j), rtol=0, atol=5e-11)


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=50),
    re=st.floats(min_value=-30, max_value=30),
    im=st.floats(min_value=-5, max_value=5),
)
def test_wronskian_property(l, re, im):
    # psi xi' - psi' xi = i with xi = psi + i chi, and psi chi' - psi' chi = 1
    # on the chi column riccati_all hands out
    z = complex(re, im)
    if abs(z) < 1e-3:
        z += 0.1
    psi, dpsi, chi, dchi = riccati_all(l, z)
    w = psi[l] * (dpsi[l] + 1j * dchi[l]) - dpsi[l] * (psi[l] + 1j * chi[l])
    assert abs(w - 1j) < 1e-9
    assert abs(psi[l] * dchi[l] - dpsi[l] * chi[l] - 1.0) < 1e-9


def test_riccati_chi_is_x_times_y():
    # chi and chi' come straight from y_l, not from a round trip through xi
    xs = np.array([0.3, 1.0, 2.5 + 1j, 7.7, 40.0 - 3j, -4.0])
    l_max = 20
    _, _, chi, dchi = riccati_all(l_max, xs)
    y = bessel_y_all(l_max, xs)
    y_prev = np.concatenate([(np.sin(xs) / xs)[None], y[:-1]])
    ell = np.arange(l_max + 1)[:, None]
    assert np.array_equal(chi, xs * y)
    assert np.array_equal(dchi, xs * y_prev - ell * y)


def test_recurrence_relation_consistency():
    # f_{l-1} + f_{l+1} = (2l+1)/x f_l for both kinds
    x = 5.3 - 1.1j
    j = bessel_j_all(15, x)
    y = bessel_y_all(15, x)
    for f in (j, y):
        for l in range(1, 14):
            lhs = f[l - 1] + f[l + 1]
            rhs = (2 * l + 1) / x * f[l]
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_domain_guards():
    with pytest.raises(ValueError):
        bessel_j_all(201, 1.0)
    with pytest.raises(ValueError):
        bessel_j_all(3, 1.0e4)
    with pytest.raises(ValueError):
        bessel_y_all(3, 0.0)
    with pytest.raises(ValueError):
        riccati_all(2, 0.0)


def test_y_overflow_raises():
    with pytest.raises(RecurrenceOverflowError):
        bessel_y_all(200, 1e-3)


def test_mode_index_validation():
    with pytest.raises(ValueError):
        ModeIndex(2, 3)
    with pytest.raises(ValueError):
        ModeIndex(-1, 0)
    assert len(mode_list(4)) == sum(2 * l + 1 for l in range(1, 5))


def _product_quadrature(n_theta):
    """Gauss-Legendre in cos(theta) times uniform phi, for testing only."""
    u, w_u = np.polynomial.legendre.leggauss(n_theta)
    n_phi = 2 * n_theta
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(1.0 - uu**2)
    pts = np.stack([s * np.cos(pp), s * np.sin(pp), uu], axis=-1).reshape(-1, 3)
    w = np.repeat(w_u, n_phi) * (2 * np.pi / n_phi)
    return pts, w


def test_vsh_orthonormality():
    pts, w = _product_quadrature(12)
    modes, Y, U, V = vsh_tables(6, pts)
    nm = len(modes)
    gram_y = (Y * w) @ Y.conj().T
    gram_u = np.einsum("ipc,p,jpc->ij", U, w, U.conj())
    gram_v = np.einsum("ipc,p,jpc->ij", V, w, V.conj())
    cross = np.einsum("ipc,p,jpc->ij", U, w, V.conj())
    eye = np.eye(nm)
    assert np.max(np.abs(gram_y - eye)) < 1e-12
    assert np.max(np.abs(gram_u - eye)) < 1e-12
    assert np.max(np.abs(gram_v - eye)) < 1e-12
    assert np.max(np.abs(cross)) < 1e-12


def test_scalar_harmonics_include_monopole():
    pts, w = _product_quadrature(10)
    Y = scalar_harmonics(4, pts)
    assert Y.shape[0] == 25
    assert_allclose(Y[0], np.full(pts.shape[0], 1 / np.sqrt(4 * np.pi)), rtol=1e-14)
    gram = (Y * w) @ Y.conj().T
    assert np.max(np.abs(gram - np.eye(25))) < 1e-12


def test_negative_order_symmetry():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    modes, Y, U, V = vsh_tables(5, pts)
    lookup = {(mo.l, mo.m): i for i, mo in enumerate(modes)}
    for l in range(1, 6):
        for m in range(1, l + 1):
            i_p, i_n = lookup[(l, m)], lookup[(l, -m)]
            sgn = (-1) ** m
            assert np.max(np.abs(U[i_n] - sgn * np.conj(U[i_p]))) < 1e-13
            assert np.max(np.abs(V[i_n] - sgn * np.conj(V[i_p]))) < 1e-13
            assert np.max(np.abs(Y[i_n] - sgn * np.conj(Y[i_p]))) < 1e-13


def test_v_is_xhat_cross_u():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(15, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    _, _, U, V = vsh_tables(4, pts)
    crossed = np.cross(pts[None, :, :], U)
    assert np.max(np.abs(crossed - V)) < 1e-13


def test_tangency():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(25, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    _, _, U, V = vsh_tables(6, pts)
    assert np.max(np.abs(np.einsum("mpc,pc->mp", U, pts))) < 1e-13
    assert np.max(np.abs(np.einsum("mpc,pc->mp", V, pts))) < 1e-13


@pytest.mark.parametrize("theta", [1e-9, 1e-7, np.pi - 1e-9])
def test_pole_proximity_is_finite_and_accurate(theta):
    # no sin(theta) division anywhere: values stay finite and match the
    # closed forms for l = 1 arbitrarily close to the poles
    xhat = np.array([np.sin(theta), 0.0, np.cos(theta)])
    y, u, v = vector_spherical_harmonics(ModeIndex(1, 1), xhat)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    # closed form: U_11 = -sqrt(3/16pi) e^{i phi} (cos theta thetahat + i phihat) / sqrt... check via
    # explicit formula U_11 = grad Y_11 / sqrt(2)
    c = -np.sqrt(3.0 / (8.0 * np.pi))
    th = np.array([np.cos(theta), 0.0, -np.sin(theta)])
    ph = np.array([0.0, 1.0, 0.0])
    u_ref = c / np.sqrt(2.0) * (np.cos(theta) * th + 1j * ph)
    assert np.max(np.abs(u - u_ref)) < 1e-12


def test_closed_form_y10():
    xhat = np.array([0.0, 0.6, 0.8])
    y, _, _ = vector_spherical_harmonics(ModeIndex(1, 0), xhat)
    assert_allclose(y, np.sqrt(3 / (4 * np.pi)) * 0.8, rtol=1e-14)


def test_addition_theorem():
    # sum_m |Y_lm|^2 = (2l+1)/4pi at any point
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(8, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    modes, Y, _, _ = vsh_tables(7, pts)
    for l in range(1, 8):
        rows = [i for i, mo in enumerate(modes) if mo.l == l]
        total = np.sum(np.abs(Y[rows]) ** 2, axis=0)
        assert_allclose(total, (2 * l + 1) / (4 * np.pi), rtol=1e-12)
