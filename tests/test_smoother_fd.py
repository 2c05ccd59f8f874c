"""Finite-difference validation of the boundary smoothing operator.

The curl-curl boundary condition uses S = vector-curl o (surface
Laplacian)^-1 o scalar-curl on the sphere of radius R. The solver relies
on the modal statement that S annihilates gradient-type traces U_lm and
fixes curl-type traces V_lm with multiplier exactly 1, independent of l
and R. These tests rebuild that statement from centered finite
differences of the surface differential operators, with no recourse to
the modal algebra: the only spectral fact used is the surface Laplacian
eigenvalue of Y_lm, which is itself verified by FD first.
"""

from collections import namedtuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scatsig.oracles import s_modal_multiplier

from field_oracle import from_vectors, inner_product
from sphfun_oracle import vector_spherical_harmonics

H = 1e-5


def _frame(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    xhat = np.array([st * cp, st * sp, ct])
    theta_hat = np.array([ct * cp, ct * sp, -st])
    phi_hat = np.array([-sp, cp, 0.0])
    return xhat, theta_hat, phi_hat


def _y(mode, theta, phi):
    xhat, _, _ = _frame(theta, phi)
    y, _, _ = vector_spherical_harmonics(*mode, xhat)
    return y


def _components(mode, which, theta, phi):
    """(u_theta, u_phi) of U_lm or V_lm at one point."""
    xhat, th, ph = _frame(theta, phi)
    _, u, v = vector_spherical_harmonics(*mode, xhat)
    vec = u if which == "U" else v
    return vec @ th, vec @ ph


def _scalar_curl_fd(mode, which, theta, phi, R):
    """curl_R u = (1/(R sin)) [d_theta(sin u_phi) - d_phi u_theta] by FD."""
    st = np.sin(theta)
    f_p = np.sin(theta + H) * _components(mode, which, theta + H, phi)[1]
    f_m = np.sin(theta - H) * _components(mode, which, theta - H, phi)[1]
    d_theta = (f_p - f_m) / (2 * H)
    g_p = _components(mode, which, theta, phi + H)[0]
    g_m = _components(mode, which, theta, phi - H)[0]
    d_phi = (g_p - g_m) / (2 * H)
    return (d_theta - d_phi) / (R * st)


def _vector_curl_fd(mode, theta, phi, R):
    """vector-curl_R Y = xhat x grad_R Y = (1/R) d_theta Y phi_hat - (1/(R sin)) d_phi Y theta_hat.

    This orientation is the partner of _scalar_curl_fd for which the
    smoothing chain has multiplier +1 on curl-type traces; the mirror
    choice grad Y x xhat would flip the sign of the whole chain.
    """
    _, th, ph = _frame(theta, phi)
    d_phi = (_y(mode, theta, phi + H) - _y(mode, theta, phi - H)) / (2 * H)
    d_theta = (_y(mode, theta + H, phi) - _y(mode, theta - H, phi)) / (2 * H)
    return (d_theta * ph - d_phi / np.sin(theta) * th) / R


def _laplacian_fd(mode, theta, phi, R):
    """Laplace-Beltrami of Y on the radius-R sphere by second differences."""
    st = np.sin(theta)
    y0 = _y(mode, theta, phi)
    d2_phi = (_y(mode, theta, phi + H) - 2 * y0 + _y(mode, theta, phi - H)) / H**2
    f = lambda t: np.sin(t) * (_y(mode, t + H, phi) - _y(mode, t - H, phi)) / (2 * H)
    d_theta_term = (f(theta + H) - f(theta - H)) / (2 * H)
    return (d_theta_term / st + d2_phi / st**2) / R**2


SAMPLE_POINTS = [(0.7, 0.3), (1.2, 2.1), (1.9, 4.4), (2.4, 5.6)]
Mode = namedtuple("Mode", "l m")
MODES = [Mode(1, 0), Mode(2, 1), Mode(3, -2), Mode(5, 4)]


@pytest.mark.parametrize("mode", MODES)
def test_fd_laplacian_eigenvalue(mode):
    # ground the FD machinery: Delta Y = -l(l+1)/R^2 Y
    lam = mode.l * (mode.l + 1)
    for theta, phi in SAMPLE_POINTS:
        y0 = _y(mode, theta, phi)
        got = _laplacian_fd(mode, theta, phi, R=1.0)
        assert abs(got + lam * y0) < 5e-5 * max(lam, 1.0)


@pytest.mark.parametrize("mode", MODES)
def test_gradient_traces_are_curl_free(mode):
    # scalar curl of U_lm vanishes, so S U_lm = 0 without any inversion
    for theta, phi in SAMPLE_POINTS:
        w = _scalar_curl_fd(mode, "U", theta, phi, R=1.3)
        assert abs(w) < 1e-6


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("R", [0.7, 1.0, 1.9])
def test_smoother_fixes_curl_traces(mode, R):
    """End-to-end FD composition gives S V_lm = V_lm for every R.

    Chain: w = curl_R V_lm is proportional to Y_lm (checked), the
    Poisson solve q = w / (-l(l+1)/R^2) follows from the FD-verified
    Laplacian eigenvalue, and the vector curl of q lands back on V_lm
    with coefficient 1.
    """
    lam = mode.l * (mode.l + 1)
    for theta, phi in SAMPLE_POINTS[:2]:
        xhat, th, ph = _frame(theta, phi)
        _, _, v = vector_spherical_harmonics(*mode, xhat)
        w = _scalar_curl_fd(mode, "V", theta, phi, R)
        y0 = _y(mode, theta, phi)
        ratio = w / y0  # proportionality constant of curl_R V to Y
        # constancy of the ratio across points is part of the claim
        theta2, phi2 = SAMPLE_POINTS[2]
        ratio2 = _scalar_curl_fd(mode, "V", theta2, phi2, R) / _y(mode, theta2, phi2)
        assert abs(ratio - ratio2) < 1e-5 * abs(ratio)
        q_coef = ratio / (-lam / R**2)  # q = q_coef * Y solves Delta_R q = w
        s_u = q_coef * _vector_curl_fd(mode, theta, phi, R)
        assert np.max(np.abs(s_u - v)) < 1e-5 * np.max(np.abs(v))


@pytest.mark.parametrize("l", [1, 2, 3, 7, 20])
@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
def test_modal_multiplier_contract(l, R):
    cu, cv = s_modal_multiplier(l, R)
    assert cu == 0.0
    assert cv == 1.0


def test_modal_multiplier_rejects_bad_degree():
    with pytest.raises(ValueError):
        s_modal_multiplier(0, 1.0)
    with pytest.raises(ValueError):
        s_modal_multiplier(1, -1.0)


def test_smoother_positive_and_selfadjoint():
    # with multipliers (0, 1) the discrete S is the orthogonal projector
    # onto curl-type traces: self-adjoint and positive semidefinite in the
    # weighted inner product
    from scatsig.ffop import TangentVectorField, build_quadrature
    from scatsig.sphfun import vsh_tables

    quad = build_quadrature("PRODUCT_GAUSS", 6)
    L = 5
    _, U, V = vsh_tables(L, quad.nodes)
    rng = np.random.default_rng(4)

    def apply_s(gfield):
        gv = gfield.vectors()
        wgt = quad.weights[:, None] * gv
        coeff_v = np.einsum("jc,mjc->m", wgt, V.conj())
        out = np.einsum("m,mjc->jc", coeff_v, V)
        return from_vectors(quad, out)

    for _ in range(5):
        gu = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2))
                                + 1j * rng.normal(size=(quad.n_nodes, 2)))
        hv = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2))
                                + 1j * rng.normal(size=(quad.n_nodes, 2)))
        sg, sh = apply_s(gu), apply_s(hv)
        quad_form = inner_product(sg, gu)
        assert quad_form.real >= -1e-12
        assert abs(quad_form.imag) < 1e-12 * max(abs(quad_form), 1.0)
        sym = inner_product(sg, hv) - inner_product(gu, sh)
        assert abs(sym) < 1e-12 * max(abs(inner_product(sg, hv)), 1.0)
    # idempotence: S(S g) = S g for band-limited g
    g = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2)) + 0j)
    s1 = apply_s(g)
    s2 = apply_s(s1)
    assert np.max(np.abs(s2.coeffs - s1.coeffs)) < 1e-12
