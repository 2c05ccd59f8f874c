"""Forward scattering solvers: frozen references, physics identities, errors."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scatsig.forward import (
    DipoleSource,
    ImpedanceBall,
    MediumSpec,
    ResonantParameterError,
    TruncationError,
    dipole_far_fields,
    herglotz_ball_norm,
    herglotz_field,
    impedance_coefficients,
    interior_solutions,
    mie_coefficients,
    radial_profile,
    truncation_degree,
)
from scatsig import ffop, forward
from scatsig.ffop import TangentVectorField, build_quadrature
from scatsig.sphfun import bessel_j_all, riccati_all

from field_oracle import (
    electric_far_field,
    incident_field,
    magnetic_far_field_kernel,
    scattered_field,
    total_field,
)

BALL2 = MediumSpec.ball(1.0, 2.0)
BALL4 = MediumSpec.ball(1.0, 4.0)


# --------------------------------------------------------------------------
# Frozen Mie coefficients, computed with a separate 40-digit mpmath
# implementation of the layer transfer and boundary matching (closed-form
# quotients of Riccati-Bessel functions, not the linear solve used here).
# --------------------------------------------------------------------------

SINGLE_LAYER_REFERENCE = [
    # (n, k, l, alpha, beta)
    (2.0, 1.0, 1, -0.00047804030286505877 + 0.021858906201681169j,
     -0.024088499549697614 + 0.15332398292224812j),
    (2.0, 1.0, 2, -3.5724168037881825e-7 + 0.00059769687363846906j,
     -7.5821247446600121e-5 + 0.0087072095751185272j),
    (4.0, 1.0, 1, -0.0081419309520260429 + 0.089864564275349843j,
     -0.12414272608585072 + 0.32974430949725904j),
    (4.0, 1.0, 2, -4.022931724399355e-6 + 0.0020057207034928108j,
     -0.00030793264654890372 + 0.017545307749768686j),
    (2 + 2j, 1.0, 1, -0.044187702777685209 + 0.0084449732201243439j,
     -0.22521650141987755 + 0.13716638830768514j),
    (2 + 2j, 1.0, 2, -0.0012421970280374244 + 0.00046536855219275506j,
     -0.010647211495074214 + 0.013574892432700834j),
    (2.0, 3.7, 1, -0.91559622005154685 + 0.27799241334767798j,
     -0.99887148076271495 - 0.033574479617949763j),
    (2.0, 3.7, 2, -0.98793907992214462 + 0.10915793276134799j,
     -0.85718893217519248 + 0.34988007478498364j),
]

LAYERED_REFERENCE = [
    (1, -0.0038538893558789699 + 0.061959962013477806j,
     -0.093664307724216995 + 0.29136112503688645j),
    (2, -4.7339161628605499e-6 + 0.0021757513076862238j,
     -0.00049929875961778604 + 0.022339414951301437j),
    (3, -2.3165507779053783e-9 + 4.813055965329066e-5j,
     -6.6640145691159698e-7 + 0.00081633388562566433j),
]


@pytest.mark.parametrize("n,k,l,alpha_ref,beta_ref", SINGLE_LAYER_REFERENCE)
def test_mie_single_layer_reference(n, k, l, alpha_ref, beta_ref):
    coefs = mie_coefficients(MediumSpec.ball(1.0, n), k)
    assert_allclose(coefs.alpha[l], alpha_ref, rtol=1e-12)
    assert_allclose(coefs.beta[l], beta_ref, rtol=1e-12)


@pytest.mark.parametrize("l,alpha_ref,beta_ref", LAYERED_REFERENCE)
def test_mie_two_layer_reference(l, alpha_ref, beta_ref):
    med = MediumSpec(((0.6, 3.0), (1.0, 2.0)))
    coefs = mie_coefficients(med, 1.2)
    assert_allclose(coefs.alpha[l], alpha_ref, rtol=1e-12)
    assert_allclose(coefs.beta[l], beta_ref, rtol=1e-12)


def test_unitarity_lossless():
    # energy conservation: 1 + 2 alpha_l on the unit circle for real n
    coefs = mie_coefficients(BALL2, 2.0)
    for arr in (coefs.alpha[1:], coefs.beta[1:]):
        assert np.max(np.abs(np.abs(1.0 + 2.0 * arr) - 1.0)) < 1e-12


def test_absorbing_contraction():
    coefs = mie_coefficients(MediumSpec.ball(1.0, 2.0 + 0.7j), 2.0)
    assert np.all(np.abs(1.0 + 2.0 * coefs.alpha[1:]) <= 1.0 + 1e-12)
    assert np.all(np.abs(1.0 + 2.0 * coefs.beta[1:]) <= 1.0 + 1e-12)
    # strictly inside for the low modes that interact with the scatterer
    assert abs(1.0 + 2.0 * coefs.beta[1]) < 1.0 - 1e-3


def test_layer_merge_equivalence():
    split = MediumSpec(((0.4, 2.0), (1.0, 2.0)))
    merged = MediumSpec.ball(1.0, 2.0)
    c1 = mie_coefficients(split, 1.7)
    c2 = mie_coefficients(merged, 1.7)
    assert_allclose(c1.alpha, c2.alpha, rtol=0, atol=1e-13)
    assert_allclose(c1.beta, c2.beta, rtol=0, atol=1e-13)


def test_vacuum_scatters_nothing():
    coefs = mie_coefficients(MediumSpec.ball(1.0, 1.0), 2.0)
    assert np.all(coefs.alpha == 0) and np.all(coefs.beta == 0)
    e = electric_far_field(MediumSpec.ball(1.0, 1.0), 2.0,
                           np.array([0, 0, 1.0]), np.array([1.0, 0, 0]),
                           np.array([0, 1.0, 0]))
    assert np.max(np.abs(e)) == 0.0


def test_truncation_error_when_not_decayed():
    with pytest.raises(TruncationError):
        mie_coefficients(BALL4, 3.0, L=3)


@pytest.mark.parametrize("k", [0.0, -1.0, np.nan])
def test_a_wave_number_that_is_not_positive_is_rejected_by_every_coefficient_set(k):
    # nan passed the old k <= 0 test and died turning the truncation degree into an integer
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    imp = ImpedanceBall(R=1.0, lam=2.0, s_kind="IDENTITY")
    calls = [lambda: mie_coefficients(BALL4, k), lambda: mie_coefficients(BALL4, k, L=20),
             lambda: impedance_coefficients(imp, k)]
    calls += [lambda kind=kind, scene=scene: ffop.assemble_blocks(kind, scene, k, quad)
              for kind, scene in (("ELECTRIC", BALL4), ("IMPEDANCE", imp),
                                  ("MODIFIED", (BALL4, imp)))]
    for call in calls:
        with pytest.raises(ValueError, match="wave number must be positive"):
            call()


@pytest.mark.parametrize("call", [
    lambda k: mie_coefficients(MediumSpec.ball(1.0, 2.0), k),
    lambda k: impedance_coefficients(ImpedanceBall(R=1.0, lam=2.0, s_kind="IDENTITY"), k),
], ids=["mie", "impedance"])
def test_an_infinite_wave_number_is_rejected_by_name(call):
    # inf passed the k > 0 test and died as an OverflowError in truncation_degree
    with pytest.raises(ValueError, match="wave number must be positive and finite, got inf"):
        call(np.inf)


def test_truncation_degree_rule():
    assert truncation_degree(2.0, 1.0) == int(np.ceil(2 + 4 * 2 ** (1 / 3) + 6))
    assert truncation_degree(1.0, 0.5) >= 7


def test_medium_spec_validation():
    with pytest.raises(ValueError):
        MediumSpec(())
    with pytest.raises(ValueError):
        MediumSpec(((1.0, 2.0), (0.5, 3.0)))  # radii not increasing
    with pytest.raises(ValueError):
        MediumSpec(((1.0, -2.0),))
    with pytest.raises(ValueError):
        MediumSpec(((1.0, 2.0 - 0.5j),))  # active medium rejected
    for layers in (((np.nan, 2.0),), ((1.0, np.nan),), ((0.5, 2.0), (np.inf, 3.0)),
                   ((1.0, complex(2.0, np.inf)),)):
        with pytest.raises(ValueError, match="finite"):
            MediumSpec(layers)
    with pytest.raises(ValueError):
        DipoleSource(np.zeros(3), np.zeros(3), 1.0)


@pytest.mark.parametrize("R, lam, name", [
    (1.0, np.nan, "lam"), (1.0, complex(2.0, np.inf), "lam"), (1.0, complex(np.nan, 1.0), "lam"),
    (np.nan, 2.0, "radius R"), (np.inf, 2.0, "radius R"), (0.0, 2.0, "radius R"),
])
def test_impedance_ball_rejects_non_finite_parameters(R, lam, name):
    # a NaN lam used to pass and give NaN coefficients with only a RuntimeWarning
    with pytest.raises(ValueError, match=name):
        ImpedanceBall(R=R, lam=lam)


# --------------------------------------------------------------------------
# field-level physics
# --------------------------------------------------------------------------


def _sphere_points(r, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return r * pts


D0 = np.array([0.0, 0.0, 1.0])
P0 = np.array([1.0, 0.0, 0.0])


def test_tangential_continuity_outer_boundary():
    pts = _sphere_points(1.0, 30, 2)
    xhat = pts / np.linalg.norm(pts, axis=1)[:, None]
    e_in, h_in = total_field(BALL2, 1.3, D0, P0, pts, region=0)
    e_out, h_out = total_field(BALL2, 1.3, D0, P0, pts, region="exterior")
    for a_f, b_f in ((e_in, e_out), (h_in, h_out)):
        jump = np.cross(xhat, a_f - b_f)
        scale = np.abs(np.cross(xhat, b_f)).max()
        assert np.max(np.abs(jump)) < 1e-10 * scale


def test_tangential_continuity_internal_interface():
    med = MediumSpec(((0.6, 3.0), (1.0, 2.0)))
    pts = _sphere_points(0.6, 30, 5)
    xhat = pts / np.linalg.norm(pts, axis=1)[:, None]
    e0, h0 = total_field(med, 1.2, D0, P0, pts, region=0)
    e1, h1 = total_field(med, 1.2, D0, P0, pts, region=1)
    for a_f, b_f in ((e0, e1), (h0, h1)):
        jump = np.cross(xhat, a_f - b_f)
        assert np.max(np.abs(jump)) < 1e-10 * np.abs(b_f).max()


def test_radial_profile_states_continuous_in_absorbing_three_layer_ball():
    # docs §3: the TE state (zeta/kappa, zeta') and the TM state
    # (zeta'/kappa, zeta) of adjacent layers agree at each interface, and
    # the outer layer meets the exterior profile psi + alpha xi at r = a
    med = MediumSpec(((0.4, 3.0 + 1.0j), (0.7, 1.5 + 0.2j), (1.0, 2.0 + 0.5j)))
    k = 1.7
    coefs, layers = interior_solutions(med, k)
    L = coefs.L

    def states(z, dz, kap):
        return np.stack([z[0] / kap, dz[0], dz[1] / kap, z[1]])[:, 1:]

    def layer_states(lay, r):
        z, dz = radial_profile(lay, r, L)
        return states(z[..., 0], dz[..., 0], lay.kappa)

    psi, dpsi, chi, dchi = riccati_all(L, k * med.radius + 0j)
    c = np.stack([coefs.alpha, coefs.beta])
    ext = states(psi + c * (psi + 1j * chi), dpsi + c * (dpsi + 1j * dchi), k)
    pairs = [(layer_states(a, a.r_hi), layer_states(b, a.r_hi)) for a, b in zip(layers, layers[1:])]
    pairs.append((layer_states(layers[-1], med.radius), ext))
    assert len(pairs) == 3
    for inner, outer in pairs:
        assert np.all(np.abs(inner - outer) <= 1e-12 * np.abs(outer))


def test_interior_solutions_reuse_the_modal_solve_of_their_coefficients(monkeypatch):
    # one transfer-and-match: _interior_states and the match at ka each evaluate riccati_all once
    coefs = mie_coefficients(BALL4, 3.1)
    _, _, tau, ref_layers = forward._modal_solve(BALL4, 3.1, coefs.L)
    calls = []

    def counted(*args):
        calls.append(args)
        return riccati_all(*args)

    monkeypatch.setattr(forward, "riccati_all", counted)
    mie_coefficients(BALL4, 3.1)
    assert len(calls) == 2
    calls.clear()
    got, layers = interior_solutions(BALL4, 3.1)
    assert len(calls) == 2
    assert got.L == coefs.L
    assert got.alpha.tobytes() == coefs.alpha.tobytes()
    assert got.beta.tobytes() == coefs.beta.tobytes()
    assert len(layers) == len(ref_layers) == 1
    for lay, ref in zip(layers, ref_layers):
        assert (lay.kappa, lay.r_lo, lay.r_hi) == (ref.kappa, ref.r_lo, ref.r_hi)
        assert lay.A.tobytes() == (tau * ref.A).tobytes()
        assert lay.B.tobytes() == (tau * ref.B).tobytes()


def test_region_autoselection_matches_forced():
    med = MediumSpec(((0.6, 3.0), (1.0, 2.0)))
    pts = np.array([[0.1, 0.2, 0.1], [0.5, 0.5, 0.3], [1.5, -0.4, 0.8]])
    e_auto, h_auto = total_field(med, 1.2, D0, P0, pts)
    e0, h0 = total_field(med, 1.2, D0, P0, pts[:1], region=0)
    e1, h1 = total_field(med, 1.2, D0, P0, pts[1:2], region=1)
    e2, h2 = total_field(med, 1.2, D0, P0, pts[2:], region="exterior")
    assert_allclose(e_auto, np.vstack([e0, e1, e2]), atol=1e-14)
    assert_allclose(h_auto, np.vstack([h0, h1, h2]), atol=1e-14)


def test_field_finite_at_origin():
    pts = np.array([[1e-9, 0, 0], [0, 1e-9, 1e-9]])
    e, h = total_field(BALL2, 1.0, D0, P0, pts)
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(h))
    assert np.abs(e).max() < 50 and np.abs(h).max() < 50


def test_total_minus_incident_is_scattered():
    # the exterior series carries the incident wave in truncated modal
    # form while incident_field is the closed form, so the agreement is
    # limited by the j_l(kr) tail at the evaluation radius, not by 1e-14
    pts = _sphere_points(1.8, 12, 9)
    e_t, h_t = total_field(BALL2, 1.1, D0, P0, pts)
    e_i, h_i = incident_field(1.1, D0, P0, pts)
    e_s, h_s = scattered_field(BALL2, 1.1, D0, P0, pts)
    assert_allclose(e_t - e_i, e_s, rtol=0, atol=1e-7 * np.abs(e_s).max())
    assert_allclose(h_t - h_i, h_s, rtol=0, atol=1e-7 * np.abs(h_s).max())


def test_scattered_field_rejects_interior_points():
    with pytest.raises(ValueError):
        scattered_field(BALL2, 1.0, D0, P0, np.array([[0.2, 0.0, 0.0]]))


def test_near_to_far_asymptotics():
    # E_s(r xh) = exp(ikr)/r [E_inf(xh) + O(1/r)]. The O(1/r) remainder
    # is a few percent of E_inf/r at kr = 50, so assert the honest level
    # and, more stringently, the first-order decay rate of the remainder.
    xh = np.array([np.sin(0.7), 0.0, np.cos(0.7)])
    e_inf = electric_far_field(BALL2, 1.0, D0, P0, xh)
    errs = []
    for r in (50.0, 100.0, 200.0):
        e_s, _ = scattered_field(BALL2, 1.0, D0, P0, (r * xh)[None, :])
        approx = np.exp(1j * r) / r * e_inf
        errs.append(np.linalg.norm(e_s[0] - approx) / (np.linalg.norm(e_inf) / r))
    assert errs[0] < 0.05
    assert errs[2] < 0.05 / 3.5
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(abs(rt - 2.0) < 0.3 for rt in ratios)


def test_reciprocity():
    rng = np.random.default_rng(0)
    k = 1.3
    for _ in range(4):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        xh = rng.normal(size=3)
        xh /= np.linalg.norm(xh)
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        q = rng.normal(size=3) + 1j * rng.normal(size=3)
        lhs = q @ electric_far_field(BALL2, k, d, p, xh)
        rhs = p @ electric_far_field(BALL2, k, -xh, q, -d)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_rotation_equivariance():
    from scipy.spatial.transform import Rotation

    rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    d = np.array([0.0, 0.6, 0.8])
    p = np.array([1.0, 0.5j, 0.0], dtype=complex)
    p = p - (d @ p) * d
    xh = np.array([0.48, -0.6, 0.64])
    xh /= np.linalg.norm(xh)
    e1 = electric_far_field(BALL2, 1.4, rot @ d, rot @ p, rot @ xh)
    e2 = rot @ electric_far_field(BALL2, 1.4, d, p, xh)
    assert_allclose(e1, e2, rtol=0, atol=1e-12 * np.abs(e2).max())


def test_far_field_tangential():
    pts = _sphere_points(1.0, 25, 13)
    e = electric_far_field(BALL2, 2.2, D0, P0, pts)
    radial = np.einsum("pc,pc->p", e, pts)
    assert np.max(np.abs(radial)) < 1e-12 * np.abs(e).max()


def test_magnetic_far_field_is_cross_product():
    # the dual-pairing series of the magnetic operator kernel against its
    # definition FF_m(xh; d, q) = (i/k) xh x E_inf(xh; d, d x q)
    k = 1.6
    pts = _sphere_points(1.0, 20, 17)
    q = np.array([0.3, 1.0 - 0.4j, 0.2j])
    ff_m = magnetic_far_field_kernel(BALL2, k, D0, q, pts)
    e = electric_far_field(BALL2, k, D0, np.cross(D0, q), pts)
    assert_allclose(ff_m, (1j / k) * np.cross(pts, e), rtol=0, atol=1e-12 * np.abs(ff_m).max())


def test_incident_field_properties():
    pts = _sphere_points(0.7, 10, 21)
    e, h = incident_field(1.9, D0, P0, pts)
    # polarization is projected onto the plane orthogonal to d
    assert np.max(np.abs(e @ D0)) < 1e-14
    assert np.max(np.abs(h @ D0)) < 1e-14
    # closed form at the origin
    e0, h0 = incident_field(1.9, D0, P0, np.zeros((1, 3)))
    assert_allclose(e0[0], 1j * 1.9 * P0, rtol=1e-14)
    assert_allclose(h0[0], 1j * 1.9 * np.cross(D0, P0), rtol=1e-14)


def test_incident_field_solves_maxwell():
    # centered finite differences for curl E - ik H and curl E at a point
    k, x0, h = 1.9, np.array([0.2, -0.1, 0.4]), 1e-6
    d = np.array([0.6, 0.0, 0.8])
    p = np.array([0.3, 1.0, 0.2])

    def curl(f, x):
        out = np.zeros(3, dtype=complex)
        for c in range(3):
            e1 = np.zeros(3)
            e1[(c + 1) % 3] = h
            e2 = np.zeros(3)
            e2[(c + 2) % 3] = h
            dYdx = (f(x + e1)[(c + 2) % 3] - f(x - e1)[(c + 2) % 3]) / (2 * h)
            dXdy = (f(x + e2)[(c + 1) % 3] - f(x - e2)[(c + 1) % 3]) / (2 * h)
            out[c] = dYdx - dXdy
        return out

    f_e = lambda x: incident_field(k, d, p, x[None, :])[0][0]
    f_h = lambda x: incident_field(k, d, p, x[None, :])[1][0]
    e0 = f_e(x0)
    h0 = f_h(x0)
    assert np.max(np.abs(curl(f_e, x0) - 1j * k * h0)) < 1e-6
    assert np.max(np.abs(curl(f_h, x0) + 1j * k * e0)) < 1e-6


def test_scattered_field_solves_maxwell():
    k, x0, h = 1.3, np.array([1.1, 0.5, 0.9]), 1e-5

    def curl(f, x):
        out = np.zeros(3, dtype=complex)
        for c in range(3):
            e1 = np.zeros(3)
            e1[(c + 1) % 3] = h
            e2 = np.zeros(3)
            e2[(c + 2) % 3] = h
            dYdx = (f(x + e1)[(c + 2) % 3] - f(x - e1)[(c + 2) % 3]) / (2 * h)
            dXdy = (f(x + e2)[(c + 1) % 3] - f(x - e2)[(c + 1) % 3]) / (2 * h)
            out[c] = dYdx - dXdy
        return out

    f_e = lambda x: scattered_field(BALL2, k, D0, P0, x[None, :])[0][0]
    f_h = lambda x: scattered_field(BALL2, k, D0, P0, x[None, :])[1][0]
    assert np.max(np.abs(curl(f_e, x0) - 1j * k * f_h(x0))) < 1e-7
    assert np.max(np.abs(curl(f_h, x0) + 1j * k * f_e(x0))) < 1e-7


# --------------------------------------------------------------------------
# impedance ball
# --------------------------------------------------------------------------


def _riccati_xi(l, x):
    """(psi_l, psi_l', xi_l, xi_l') with xi = psi + i chi, as the boundary matchings form it."""
    psi, dpsi, chi, dchi = (f[l] for f in riccati_all(l, x))
    return psi, dpsi, psi + 1j * chi, dpsi + 1j * dchi


def test_impedance_te_closed_form():
    ball = ImpedanceBall(R=1.0, lam=2.0, s_kind="CURL_CURL")
    k = 1.5
    coefs = impedance_coefficients(ball, k)
    for l in (1, 2, 3):
        psi, dpsi, xi, dxi = _riccati_xi(l, k * 1.0 + 0j)
        ref = -(k * dpsi + 2.0 * psi) / (k * dxi + 2.0 * xi)
        assert_allclose(coefs.alpha[l], ref, rtol=1e-13)


def test_impedance_tm_identity_vs_curlcurl():
    k = 1.5
    ball_id = ImpedanceBall(R=1.0, lam=2.0, s_kind="IDENTITY")
    ball_cc = ImpedanceBall(R=1.0, lam=2.0, s_kind="CURL_CURL")
    c_id = impedance_coefficients(ball_id, k)
    c_cc = impedance_coefficients(ball_cc, k)
    # TE families agree, TM families do not
    assert_allclose(c_id.alpha, c_cc.alpha, rtol=1e-14)
    assert np.abs(c_id.beta[1] - c_cc.beta[1]) > 1e-3
    for l in (1, 2):
        psi, dpsi, xi, dxi = _riccati_xi(l, k + 0j)
        assert_allclose(c_cc.beta[l], -psi / xi, rtol=1e-13)
        assert_allclose(c_id.beta[l], -(k * psi - 2.0 * dpsi) / (k * xi - 2.0 * dxi), rtol=1e-13)


def test_curlcurl_tm_is_lambda_independent():
    k = 1.5
    c1 = impedance_coefficients(ImpedanceBall(1.0, 0.5, "CURL_CURL"), k)
    c2 = impedance_coefficients(ImpedanceBall(1.0, 7.0, "CURL_CURL"), k)
    assert_allclose(c1.beta, c2.beta, rtol=1e-14)
    assert np.abs(c1.alpha[1] - c2.alpha[1]) > 1e-3


def test_resonant_parameter_raises():
    k = 1.5
    psi, dpsi, xi, dxi = _riccati_xi(1, k + 0j)
    lam_res = -k * dxi / xi  # puts the l = 1 TE denominator exactly at zero
    with pytest.raises(ResonantParameterError):
        impedance_coefficients(ImpedanceBall(1.0, lam_res, "CURL_CURL"), k)


# --------------------------------------------------------------------------
# dipoles and Herglotz fields
# --------------------------------------------------------------------------


def test_dipole_far_field_structure():
    src = DipoleSource(np.array([0.1, -0.2, 0.3]), np.array([0.0, 1.0, 1j]), 1.7)
    xh = _sphere_points(1.0, 15, 8)
    e, h = dipole_far_fields(src, xh)
    assert_allclose(h, np.cross(xh, e), rtol=0, atol=1e-14)
    assert np.max(np.abs(np.einsum("pc,pc->p", e, xh))) < 1e-14
    # closed form at a cardinal direction for a dipole at the origin
    src0 = DipoleSource(np.zeros(3), np.array([1.0, 0, 0]), 2.0)
    e0, h0 = dipole_far_fields(src0, np.array([[0.0, 0.0, 1.0]]))
    assert_allclose(e0[0], 1j * 2.0 / (4 * np.pi) * np.array([1.0, 0, 0]), rtol=1e-14)
    assert_allclose(h0[0], 1j * 2.0 / (4 * np.pi) * np.array([0, 1.0, 0]), rtol=1e-14)


def test_herglotz_ball_norm_closed_form():
    # v_g is a finite sum of plane waves, so the ball integral of |v_g|^2
    # has the exact value  k^2 sum_ij w_i w_j (g_i . conj g_j) I(|d_i - d_j|)
    # with I(q) = Vol * 3 j_1(qR)/(qR) (and the obvious center phase).
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    rng = np.random.default_rng(42)
    coeffs = rng.normal(size=(quad.n_nodes, 2)) + 1j * rng.normal(size=(quad.n_nodes, 2))
    g = TangentVectorField(quad, coeffs)
    k, R, center = 1.3, 0.8, np.array([0.2, 0.1, -0.3])

    def exact(vecs):
        diff = quad.nodes[:, None, :] - quad.nodes[None, :, :]
        vol = 4 * np.pi * R**3 / 3
        arg = k * np.linalg.norm(diff, axis=-1) * R  # |q| R with q = -k (d_i - d_j)
        with np.errstate(invalid="ignore", divide="ignore"):
            form = 3.0 * bessel_j_all(1, arg + 0j)[1] / arg
        form = np.where(arg < 1e-12, 1.0, form)
        phase = np.exp(-1j * (diff @ center) * k)
        gram = np.einsum("ic,jc->ij", vecs, vecs.conj())
        total = vol * k**2 * np.einsum("i,j,ij,ij,ij->", quad.weights, quad.weights, gram, form, phase)
        return float(np.sqrt(abs(total)))

    got = herglotz_ball_norm(g, k, R, center=center, n_radial=20, n_theta=16)
    assert_allclose(got, exact(g.vectors()), rtol=1e-9)
    got_m = herglotz_ball_norm(g, k, R, center=center, magnetic=True, n_radial=20, n_theta=16)
    vecs_m = np.cross(quad.nodes, g.vectors())
    assert_allclose(got_m, exact(vecs_m), rtol=1e-9)


def test_herglotz_norm_refinement_stable():
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    rng = np.random.default_rng(1)
    g = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2)) + 0j)
    coarse = herglotz_ball_norm(g, 1.0, 1.0)
    fine = herglotz_ball_norm(g, 1.0, 1.0, n_radial=30, n_theta=24)
    assert abs(coarse - fine) < 1e-9 * fine


def test_herglotz_single_node_exact():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    coeffs = np.zeros((quad.n_nodes, 2), dtype=complex)
    coeffs[7, 0] = 2.0 - 1.0j
    g = TangentVectorField(quad, coeffs)
    k, R = 2.1, 0.6
    # single plane wave: |v_g| is constant, norm = k w |g| sqrt(Vol)
    amp = k * quad.weights[7] * np.linalg.norm(g.vectors()[7])
    ref = amp * np.sqrt(4 * np.pi * R**3 / 3)
    assert_allclose(herglotz_ball_norm(g, k, R, n_radial=12), ref, rtol=1e-12)


def test_herglotz_field_values():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    coeffs = np.zeros((quad.n_nodes, 2), dtype=complex)
    coeffs[3, 1] = 1.0
    g = TangentVectorField(quad, coeffs)
    x = np.array([0.3, -0.2, 0.5])
    d = quad.nodes[3]
    vec = g.vectors()[3]
    ref = -1j * 1.4 * quad.weights[3] * vec * np.exp(-1j * 1.4 * (x @ d))
    assert_allclose(herglotz_field(g, 1.4, x), ref, rtol=1e-13)
    ref_m = 1j * 1.4 * quad.weights[3] * np.cross(d, vec) * np.exp(-1j * 1.4 * (x @ d))
    assert_allclose(herglotz_field(g, 1.4, x, magnetic=True), ref_m, rtol=1e-13)
