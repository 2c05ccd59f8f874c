"""Special function layer: values against mpmath, identities, pole safety."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scatsig import sphfun
from scatsig.ffop import build_quadrature
from scatsig.sphfun import (
    RecurrenceOverflowError,
    bessel_j_all,
    bessel_y_all,
    mode_list,
    riccati_all,
    vsh_tables,
)

import sphfun_oracle as loop
from sphfun_oracle import vector_spherical_harmonics

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
    with pytest.raises(ValueError, match="degree -1 must be >= 0"):
        riccati_all(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j_all(3, 1.0e4)
    with pytest.raises(ValueError):
        bessel_y_all(3, 0.0)
    with pytest.raises(ValueError):
        riccati_all(2, 0.0)


@pytest.mark.parametrize("fn", [bessel_j_all, bessel_y_all, riccati_all])
@pytest.mark.parametrize("x", [np.nan, complex(np.nan, 1.0), complex(1.0, np.nan),
                               np.array([1.0, np.nan])])
def test_nan_argument_fails_the_domain_guard(fn, x):
    # |nan| >= 1e4 is False: the guard must reject what is not inside the domain
    with pytest.raises(ValueError, match=r"\|x\| must be <"):
        fn(5, x)


def test_y_overflow_raises():
    with pytest.raises(RecurrenceOverflowError):
        bessel_y_all(200, 1e-3)


def test_mode_list_order_row_formula_and_single_mode_checks():
    ell, m = mode_list(4)
    want = [(l, mm) for l in range(1, 5) for mm in range(-l, l + 1)]
    assert list(zip(ell.tolist(), m.tolist())) == want
    assert not (ell.flags.writeable or m.flags.writeable)
    assert np.array_equal(ell * (ell + 1) + m - 1, np.arange(len(want)))
    assert [a.size for a in mode_list(0)] == [0, 0]
    xhat = np.array([0.0, 0.6, 0.8])
    Y, U, V = vsh_tables(4, xhat[None, :])
    for l, mm in [(1, -1), (3, 2), (4, -4), (4, 4)]:
        row = l * (l + 1) + mm - 1
        got = vector_spherical_harmonics(l, mm, xhat)
        assert all(np.array_equal(g, t[row, 0]) for g, t in zip(got, (Y, U, V)))
    for l, mm in [(2, 3), (2, -3), (0, 0), (-1, 0)]:
        with pytest.raises(ValueError, match=r"l >= 1|\|m\| <= l"):
            vector_spherical_harmonics(l, mm, xhat)


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
    Y, U, V = vsh_tables(6, pts)
    nm = Y.shape[0]
    gram_y = (Y * w) @ Y.conj().T
    gram_u = np.einsum("ipc,p,jpc->ij", U, w, U.conj())
    gram_v = np.einsum("ipc,p,jpc->ij", V, w, V.conj())
    cross = np.einsum("ipc,p,jpc->ij", U, w, V.conj())
    eye = np.eye(nm)
    assert np.max(np.abs(gram_y - eye)) < 1e-12
    assert np.max(np.abs(gram_u - eye)) < 1e-12
    assert np.max(np.abs(gram_v - eye)) < 1e-12
    assert np.max(np.abs(cross)) < 1e-12


def test_negative_order_symmetry():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    Y, U, V = vsh_tables(5, pts)
    lookup = {lm: i for i, lm in enumerate(zip(*(a.tolist() for a in mode_list(5))))}
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
    _, U, V = vsh_tables(4, pts)
    crossed = np.cross(pts[None, :, :], U)
    assert np.max(np.abs(crossed - V)) < 1e-13


def test_tangency():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(25, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    _, U, V = vsh_tables(6, pts)
    assert np.max(np.abs(np.einsum("mpc,pc->mp", U, pts))) < 1e-13
    assert np.max(np.abs(np.einsum("mpc,pc->mp", V, pts))) < 1e-13


@pytest.mark.parametrize("theta", [1e-9, 1e-7, np.pi - 1e-9])
def test_pole_proximity_is_finite_and_accurate(theta):
    # no sin(theta) division anywhere: values stay finite and match the
    # closed forms for l = 1 arbitrarily close to the poles
    xhat = np.array([np.sin(theta), 0.0, np.cos(theta)])
    y, u, v = vector_spherical_harmonics(1, 1, xhat)
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
    y, _, _ = vector_spherical_harmonics(1, 0, xhat)
    assert_allclose(y, np.sqrt(3 / (4 * np.pi)) * 0.8, rtol=1e-14)


def test_addition_theorem():
    # sum_m |Y_lm|^2 = (2l+1)/4pi at any point
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(8, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    Y, _, _ = vsh_tables(7, pts)
    ell, _ = mode_list(7)
    for l in range(1, 8):
        rows = ell == l
        total = np.sum(np.abs(Y[rows]) ** 2, axis=0)
        assert_allclose(total, (2 * l + 1) / (4 * np.pi), rtol=1e-12)


# ---------------------------------------------------------------------------
# The array forms of the table kernels against their per-mode loops
# (tests/sphfun_oracle.py), bit for bit.
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    same_layout = a.shape == b.shape and a.dtype == b.dtype
    return same_layout and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _point_sets():
    sets = {}
    for kind, order in (("PRODUCT_GAUSS", 10), ("PRODUCT_GAUSS", 12)):
        quad = build_quadrature(kind, order)
        sets[f"{kind}{order}-meridian"] = quad.nodes[:: 2 * order]
        sets[f"{kind}{order}-full"] = quad.nodes
    pts = np.random.default_rng(5).normal(size=(40, 3))
    sets["random"] = pts / np.linalg.norm(pts, axis=1)[:, None]
    sets["poles"] = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    theta = np.array([1e-300, 1e-9, 1e-7, np.pi - 1e-7, np.pi - 1e-9])
    sets["near-poles"] = np.stack([np.sin(theta), 0.0 * theta, np.cos(theta)], axis=1)
    return sets


POINT_SETS = _point_sets()
TABLE_DEGREES = (0, 1, 2, 3, 11, 15, 16, 30)


@pytest.mark.parametrize("name", sorted(POINT_SETS))
def test_harmonic_tables_equal_loop_reference_bit_for_bit(name):
    pts = POINT_SETS[name]
    u, s = pts[:, 2], np.hypot(pts[:, 0], pts[:, 1])
    for l_max in TABLE_DEGREES:
        legendre = zip(sphfun._legendre_ptilde_tau(l_max, u, s), loop._legendre_ptilde_tau(l_max, u, s))
        for got, want in legendre:
            assert _same_bits(got, want), l_max
        for got, want in zip(vsh_tables(l_max, pts), loop.vsh_tables(l_max, pts)):
            assert _same_bits(got, want), l_max


_rng = np.random.default_rng(8)
BESSEL_ARGS = {
    "real": np.linspace(0.55, 40.0, 17) + 0j,
    "complex": _rng.normal(size=9) * 6 + 1j * _rng.normal(size=9) * 3,
    # the Miller branch starts just above the series cutoff; y takes the cutoff itself
    "cutoff": np.array([0.5, 0.5 + 1e-15, 0.5000001 + 0j, 0.35 + 0.36j]),
    "small-imaginary": np.array([1e-3 + 2j]),
    # at l_max = 150 the recurrence rescales 0.6 alone at l = 71 and
    # 0.7 + 0.3j alone at l = 62; the other two never rescale
    "rescale": np.array([0.6, 0.7 + 0.3j, 2.0, 30.0 - 4j]),
    "shaped": _rng.normal(size=(3, 4)) * 4 + 2 + 1j * _rng.normal(size=(3, 4)),
}
BESSEL_DEGREES = (0, 1, 2, 3, 11, 15, 16, 30, 60, 100, 150)


def _outcome(f, *args):
    # a NaN argument fails the domain guard, which both implementations share
    try:
        return f(*args), None
    except (RecurrenceOverflowError, ValueError) as e:
        return None, f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("name", sorted(BESSEL_ARGS))
def test_bessel_recurrences_equal_loop_reference_bit_for_bit(name):
    x = BESSEL_ARGS[name]
    for l_max in BESSEL_DEGREES:
        miller = x if np.all(np.abs(x) > 0.5) else x[np.abs(x) > 0.5]  # bessel_j_all's split
        got = sphfun._bessel_j_miller(l_max, miller)
        assert _same_bits(got, loop._bessel_j_miller(l_max, miller)), l_max
        got, got_err = _outcome(bessel_y_all, l_max, x)
        want, want_err = _outcome(loop.bessel_y_all, l_max, x)
        assert got_err == want_err, l_max
        if want is not None:
            assert _same_bits(got, want), l_max


def test_miller_rescale_steps_equal_loop_reference(monkeypatch):
    # a threshold of 1e10 rescales at most steps, each time for a different
    # subset of the arguments; the stored rows must be scaled exactly alike
    monkeypatch.setattr(sphfun, "_RESCALE", 1e10)
    monkeypatch.setattr(loop, "_RESCALE", 1e10)
    for x in (BESSEL_ARGS["rescale"], BESSEL_ARGS["shaped"], BESSEL_ARGS["real"]):
        for l_max in (3, 30, 150):
            assert _same_bits(sphfun._bessel_j_miller(l_max, x), loop._bessel_j_miller(l_max, x))


@pytest.mark.parametrize("l_max,x", [(200, 1e-3), (150, 0.6), (100, np.array([0.05, 3.0])),
                                     (5, np.nan), (200, np.array([np.nan, 1e-3]))])
def test_overflow_errors_equal_loop_reference(l_max, x):
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    with np.errstate(invalid="ignore"):
        got, got_err = _outcome(bessel_y_all, l_max, x)
        _, want_err = _outcome(loop.bessel_y_all, l_max, x)
        assert got is None and got_err == want_err
        if np.any(np.isnan(x)):
            _, got_err = _outcome(sphfun._bessel_j_miller, l_max, x)
            assert got_err is not None and got_err == _outcome(loop._bessel_j_miller, l_max, x)[1]


SERIES_ARGS = {
    "real": np.linspace(-0.5, 0.5, 11) + 0j,
    "complex": 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 7)) * np.linspace(0.05, 1.0, 7),
    "tiny": np.array([1e-300, 1e-30 - 1e-30j, 1e-8j]),
    "shaped": (_rng.normal(size=(2, 3)) + 1j * _rng.normal(size=(2, 3))) * 0.15,
    "one": np.array([0.3 - 0.2j]),
}


@pytest.mark.parametrize("name", sorted(SERIES_ARGS))
def test_series_equals_loop_reference_bit_for_bit(name):
    # the 11 terms step over all degrees at once; the loop steps one degree at a time
    x = SERIES_ARGS[name]
    for l_max in (0, 1, 2, 15, 60, 100, 150, 200):
        assert _same_bits(sphfun._bessel_j_series(l_max, x), loop._bessel_j_series(l_max, x)), l_max


def _own_columns(fn, deg, x):
    """``fn`` of the degree array against each column's one-argument call, as uint64 patterns."""
    tables = fn(deg, x)
    tables = tables if isinstance(tables, tuple) else (tables,)
    for j in range(x.size):
        own = fn(int(deg[j]), x[j:j + 1])
        own = own if isinstance(own, tuple) else (own,)
        for t, o in zip(tables, own):
            assert _same_bits(t[:deg[j] + 1, j], o[:, 0]), (j, deg[j], x[j])
            assert t.shape == (deg.max() + 1, x.size)


_modulus = st.one_of(st.floats(1e-3, 0.5), st.floats(0.5, 1.0), st.floats(1.0, 250.0))
_argument = st.builds(lambda r, t: r * np.exp(1j * t), _modulus, st.floats(-3.1, 3.1))


@settings(max_examples=80, deadline=None)
@given(cols=st.lists(st.tuples(st.integers(0, 200), _argument), min_size=1, max_size=6),
       real=st.booleans())
def test_a_degree_per_argument_gives_each_column_its_own_call(cols, real):
    # series (|x| <= 0.5) and Miller columns side by side, each at its own degree;
    # |x| up to 250 puts the Miller start at ceil|x| above the degree
    deg = np.array([l for l, _ in cols])
    x = np.array([z for _, z in cols])
    x = np.abs(x) + 0j if real else x
    _own_columns(sphfun.bessel_j_all, deg, x)
    _own_columns(sphfun.riccati_psi, deg, x)
    try:
        own = [riccati_all(int(l), x[j:j + 1]) for j, l in enumerate(deg)]
    except RecurrenceOverflowError:
        own = None
    if own is None:
        # some column overflows within its own degrees, so the batch does too
        with pytest.raises(RecurrenceOverflowError):
            riccati_all(deg, x)
    else:
        _own_columns(riccati_all, deg, x)
        _own_columns(bessel_y_all, deg, x)


def test_a_low_degree_column_at_tiny_argument_overflows_only_within_its_degree():
    # y_l at x = 1e-3 passes 1e300 at l = 64: up to degree 60 the batch is the
    # own calls, whatever the degree of the column beside it; at 150 it raises
    x = np.array([1e-3 + 0j, 40.0 + 0j])
    _own_columns(riccati_all, np.array([20, 200]), x)
    _own_columns(bessel_y_all, np.array([60, 150]), x)
    with pytest.raises(RecurrenceOverflowError, match="overflow at l="):
        bessel_y_all(np.array([150, 20]), x)
    with pytest.raises(RecurrenceOverflowError, match="overflow at l="):
        riccati_all(150, x[:1])
    assert not np.any(bessel_y_all(np.array([20, 200]), x)[21:, 0])


def test_one_degree_starts_every_argument_where_the_largest_needs():
    # an int degree keeps one Miller start for the call, at its largest |x|; the
    # same degree as an array starts each argument at its own step
    x = np.array([0.6 + 0j, 30.0 + 0j])
    shared = bessel_j_all(5, x)
    assert _same_bits(shared, loop._bessel_j_miller(5, x))
    own = bessel_j_all(np.array([5, 5]), x)
    assert _same_bits(own[:, 0], bessel_j_all(5, x[:1])[:, 0])
    assert_allclose(own, shared, rtol=1e-13)

