"""Tests for the analytic eigenvalue oracles.

Reference eigenvalues are frozen from a 35-digit mpmath computation that
builds the Riccati-Bessel functions from mpmath half-integer Bessel
functions and solves the layer transfer with exact 2x2 elimination, so
they share no code with the package.
"""

import dataclasses
import importlib.machinery
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import spherical_jn

from scatsig import (
    BracketError,
    MediumSpec,
    NeumannResonanceError,
    first_tev,
    index_bound_from_tev,
    shift_estimate,
    stekloff_eigs_ball,
    tev_determinant,
    tev_min_singular,
    tev_roots,
)
from scatsig import _extension, oracles
from scatsig.oracles import _brentq

BALL2 = MediumSpec.ball(1.0, 2.0)
BALL3 = MediumSpec.ball(1.0, 3.0)
BALL4 = MediumSpec.ball(1.0, 4.0)
BALL_QUARTER = MediumSpec.ball(1.0, 0.25)
VACUUM = MediumSpec.ball(1.0, 1.0 + 0.0j)

# Stekloff eigenvalues of the n = 2 ball, R = 1, k = 1, TE family (the
# full curl-curl spectrum), l = 1..5.
STEKLOFF_N2_TE = [
    -1.5748945918925663,
    -2.7047154937500942,
    -3.7731288220972743,
    -4.8155755106870793,
    -5.8445467706109093,
]

# Vacuum ball (N = 1), R = 1, k = 1, identity smoother: TE and TM per l.
STEKLOFF_VAC_TE = [
    -1.7940189124919500,
    -2.8548146438974340,
    -3.8877469935297844,
    -4.9084473676465225,
]
STEKLOFF_VAC_TM = [
    0.55740772465490223,
    0.35028543871933682,
    0.25721838423751813,
    0.20373041108505864,
]

# Absorbing ball n = 2 + 2j, R = 1, k = 1, TE family, l = 1..4.
STEKLOFF_ABSORBING_TE = [
    -1.6049193457384956 + 0.44968453619150706j,
    -2.7153425899375771 + 0.30479003272186312j,
    -3.7781092428598299 + 0.23150684153684638j,
    -4.8183121026362709 + 0.18702708982715381j,
]

# n = 2 ball of radius 0.7 with a vacuum gap out to R = 1, k = 1, TE.
STEKLOFF_SHELL_TE = [
    -1.7541328500984456,
    -2.8416847171811487,
    -3.8828921980309948,
]

# First transmission eigenvalues of unit balls; n = 4 and n = 1/4 are
# exact at pi and 2 pi (the l = 1 TE determinant vanishes identically).
FIRST_TEV_N3 = 4.10181218272603242
FIRST_TEV_N2 = 7.35855014384329347
NEXT_TEV_N4 = [(3.49282177536997272, 2, "TM"), (3.59286297941411448, 1, "TM")]

# First positive root of psi_1'(x): k there makes k^2 an interior
# Neumann eigenvalue of the unit ball.
NEUMANN_K = 2.7437072699922694


def _mode(modes, fam, l):
    return next(m for m in modes if m.family == fam and m.l == l)


# ---------------------------------------------------------------------------
# transmission eigenvalue determinants


def test_determinant_real_for_real_index():
    k = np.linspace(0.5, 4.0, 41)
    for fam in ("TE", "TM"):
        det = tev_determinant(BALL4, 2, fam, k)
        assert det.dtype == complex
        assert np.all(det.imag == 0.0)


def test_determinant_complex_for_absorbing_index():
    det = tev_determinant(MediumSpec.ball(1.0, 2.0 + 0.5j), 1, "TE", 2.0)
    assert abs(det.imag) > 1e-8


def test_determinant_vectorized_matches_scalar():
    # not bitwise equal: the recurrence start degree depends on the
    # largest argument of the batch
    k = np.array([0.7, 1.3, 2.9])
    vec = tev_determinant(BALL2, 3, "TM", k)
    for i, ki in enumerate(k):
        assert_allclose(vec[i], tev_determinant(BALL2, 3, "TM", float(ki)), rtol=1e-12)


def test_determinant_exact_zero_at_special_wavenumbers():
    # psi_1(pi) = 1, psi_1(2 pi) = -1 and the derivative terms cancel,
    # so k = pi (n = 4) and k = 2 pi (n = 1/4) are exact TE roots.
    assert abs(tev_determinant(BALL4, 1, "TE", np.pi)) < 1e-14
    assert abs(tev_determinant(BALL_QUARTER, 1, "TE", 2 * np.pi)) < 1e-14


def test_determinant_validation():
    with pytest.raises(ValueError):
        tev_determinant(BALL4, 1, "XX", 1.0)
    with pytest.raises(ValueError):
        tev_determinant(BALL4, 1, "TE", -1.0)
    with pytest.raises(ValueError):
        tev_determinant(VACUUM, 1, "TE", 1.0)
    layered = MediumSpec(layers=((0.5, 3.0 + 0.0j), (1.0, 2.0 + 0.0j)))
    with pytest.raises(ValueError):
        tev_determinant(layered, 1, "TE", 1.0)
    with pytest.raises(ValueError, match="family must be 'TE' or 'TM'"):
        tev_min_singular(BALL4, 1, "XX", 1.0)


# ---------------------------------------------------------------------------
# minimum singular value cross-check


def test_min_singular_small_at_root_large_away():
    assert tev_min_singular(BALL4, 1, "TE", np.pi) < 1e-10
    assert tev_min_singular(BALL4, 1, "TE", 2.0) > 0.05


def test_min_singular_of_an_underflowing_column_raises_naming_the_mode(monkeypatch):
    # Riccati values that underflow all the way to 0 leave a zero column, which
    # no scaling can normalize; psi_46(0.01) itself is small, not 0, and scales
    real = oracles.riccati_all
    assert tev_min_singular(BALL2, 46, "TE", 0.01) > 0
    monkeypatch.setattr(oracles, "riccati_all", lambda l, x: tuple(0.0 * t for t in real(l, x)))
    with pytest.raises(FloatingPointError, match="TE matching matrix of l = 46 at k = 0.01 "):
        tev_min_singular(BALL2, 46, "TE", 0.01)


def test_min_singular_normalizes_columns_whose_squares_underflow():
    # a TM root of the n = 100 ball at l = 191: the column entries are about
    # 1e-168, whose squares underflowed inside an unscaled norm
    assert tev_min_singular(MediumSpec.ball(1.0, 100.0), 191, "TM", 20.238636538434825) < 1e-9


def test_an_exact_grid_zero_is_a_root_only_where_it_cancels():
    grid = np.array([1.0, 2.0, 3.0, 4.0])
    vals = np.array([1.0, 0.0, 0.0, 1.0])
    assert oracles._roots_on_grid(None, grid, vals, grid < 2.5) == [2.0]
    # the products of the determinant are subnormal and equal at k = 0.01, l = 46
    assert tev_determinant(BALL2, 46, "TE", 0.01) == 0
    assert tev_roots(BALL2, 46, (0.01, 0.011), 0.001) == []


def test_min_singular_agrees_with_determinant_root():
    # Refine the same root through both routes: the determinant and the
    # signed smallest singular value of the column-normalized matching
    # matrix. The normalizations differ, the zeros must not.
    fam, l = "TM", 2
    det = lambda k: tev_determinant(BALL4, l, fam, k).real
    smin = lambda k: np.sign(det(k)) * tev_min_singular(BALL4, l, fam, k)
    k_det = brentq(det, 3.3, 3.6, xtol=1e-13)
    k_svd = brentq(smin, 3.3, 3.6, xtol=1e-13)
    assert abs(k_det - k_svd) < 1e-9
    assert abs(k_det - NEXT_TEV_N4[0][0]) < 1e-10


# ---------------------------------------------------------------------------
# grid root search


# each family changes sign at x = r, the centre of a seeded bracket
BRENT_FAMILIES = [
    lambda x, r, c: (x - r) * ((x - c) ** 2 + 0.1),
    lambda x, r, c: np.sin(x - r),
    lambda x, r, c: np.exp(c * x) - np.exp(c * r),
    lambda x, r, c: np.tanh(30 * (x - r)),
    lambda x, r, c: (x - r) ** 5 + 1e-3 * c * c * (x - r),
    lambda x, r, c: np.cbrt(x - r),
    lambda x, r, c: 1e-150 * np.arctan(c * c * (x - r)),
    lambda x, r, c: tev_determinant(BALL4, 1, "TE", x + np.pi - r).real,
]


def test_brentq_port_is_bit_identical_to_scipy():
    # smooth, flat, steep, non-smooth, tiny-valued and determinant
    # functions on brackets of width 0.02 to 3 around their sign change
    rng = np.random.default_rng(20260)
    for t in range(1200):
        fam = BRENT_FAMILIES[t % len(BRENT_FAMILIES)]
        r, c = rng.uniform(-2, 2, 2)
        c += np.copysign(0.1, c)
        a, b = r - rng.uniform(0.01, 1.5), r + rng.uniform(0.01, 1.5)
        xtol = (1e-12, 1e-10, 2e-12, 1e-6)[t % 4]
        f = lambda x, fam=fam, r=r, c=c: fam(x, r, c)
        assert _brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol), (t, a, b, xtol)


def test_brentq_port_error_paths():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: np.nan if x > 0 else -1.0, -1.0, 2.0, 1e-12)
    # a step function over a huge bracket needs far more than 100 halvings
    step = lambda x: 1.0 if x > 1e-200 else -1.0
    with pytest.raises(RuntimeError, match="100 iterations"):
        _brentq(step, -1e300, 1e300, 1e-300)


def test_brentq_without_its_module_is_an_import_error_naming_it(monkeypatch):
    # no file to load and none loaded: scipy.optimize is no fallback
    monkeypatch.delitem(sys.modules, _extension.BRENT, raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    with pytest.raises(ImportError, match=rf"{_extension.BRENT} has no extension file .* scipy >= 1\.17"):
        tev_roots(BALL4, 2, (0.5, 4.0))
    assert _extension.BRENT not in sys.modules


def test_tev_roots_n4_window():
    roots = tev_roots(BALL4, 2, (0.5, 4.0))
    ks = [r[0] for r in roots]
    assert ks == sorted(ks)
    assert abs(roots[0][0] - np.pi) < 1e-9
    assert roots[0][1:] == (1, "TE")
    expected = [(np.pi, 1, "TE")] + NEXT_TEV_N4
    assert len(roots) >= len(expected)
    for (k_ref, l_ref, fam_ref), (k_got, l_got, fam_got) in zip(expected, roots):
        assert abs(k_got - k_ref) < 1e-9
        assert (l_got, fam_got) == (l_ref, fam_ref)
    for k_got, l_got, fam_got in roots:
        assert tev_min_singular(BALL4, l_got, fam_got, k_got) < 1e-8


def test_tev_roots_persist_under_larger_l_max():
    small = tev_roots(BALL4, 2, (0.5, 4.0))
    big = tev_roots(BALL4, 4, (0.5, 4.0))
    for k_ref, l_ref, fam_ref in small:
        assert any(
            abs(k - k_ref) < 1e-10 and (l, fam) == (l_ref, fam_ref)
            for k, l, fam in big
        )
    assert len(big) >= len(small)


def _per_degree_tev_roots(medium, l_max, k_range):
    # the search before the shared tables: tev_determinant over the whole grid per (l, family)
    count = int(np.ceil((k_range[1] - k_range[0]) / 0.01)) + 1
    grid = np.linspace(k_range[0], k_range[1], count)
    out = []
    every = np.ones(grid.size, bool)
    for l in range(1, l_max + 1):
        for fam in ("TE", "TM"):
            fn = lambda k, l=l, fam=fam: np.real(tev_determinant(medium, l, fam, k))
            out += [(r, l, fam) for r in oracles._roots_on_grid(fn, grid, fn(grid), every)]
    return sorted(out)


@pytest.mark.parametrize("n,l_max,k_range", [
    (4.0, 20, (3.06, 3.2)), (4.0, 10, (0.05, 8.0)), (0.5, 10, (0.05, 12.0)),
    (2.0, 12, (0.05, 10.0)), (9.0, 15, (0.05, 6.0)),
])
def test_tev_roots_from_shared_tables_equal_the_per_degree_search(monkeypatch, n, l_max, k_range):
    medium = MediumSpec.ball(1.0, n)
    ref = _per_degree_tev_roots(medium, l_max, k_range)
    tables = []
    riccati_psi = oracles.riccati_psi

    def counting(l, x):
        tables.append((l, np.size(x)))
        return riccati_psi(l, x)

    monkeypatch.setattr(oracles, "riccati_psi", counting)
    roots = tev_roots(medium, l_max, k_range)
    assert roots == ref and roots
    grid_size = int(np.ceil((k_range[1] - k_range[0]) / 0.01)) + 1
    grid_tables = [t for t in tables if t[1] > 1]
    # one (x, y) table pair up to l_max per family, then one scalar pair per Brent evaluation
    assert grid_tables == [(l_max, grid_size)] * 4
    assert len(tables) % 2 == 0 and all(t[0] <= l_max for t in tables)


def test_determinant_rows_over_degrees_match_per_degree_calls():
    k = np.linspace(0.05, 8.0, 796)
    rows = tev_determinant(BALL4, np.arange(1, 11), "TM", k)
    assert rows.shape == (10, k.size)
    for l in range(1, 11):
        ref = tev_determinant(BALL4, l, "TM", k)
        assert np.max(np.abs(rows[l - 1] - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the shared table starts its recurrence above the largest degree, so rows
    # equal the per-degree values to roundoff, not bit for bit
    at_2 = tev_determinant(BALL4, np.array([1, 2]), "TE", 2.0)
    assert at_2.shape == (2,)
    assert_allclose(at_2, [tev_determinant(BALL4, l, "TE", 2.0) for l in (1, 2)], rtol=1e-12)


def test_tev_roots_step_is_clamped():
    # A coarse requested step still may not skip roots: the grid step is
    # capped internally.
    roots = tev_roots(BALL4, 1, (2.5, 4.0), step=0.7)
    assert any(abs(k - np.pi) < 1e-9 for k, _, _ in roots)


def test_tev_roots_validation():
    with pytest.raises(ValueError):
        tev_roots(MediumSpec.ball(1.0, 2.0 + 0.5j), 2, (0.5, 2.0))
    with pytest.raises(ValueError):
        tev_roots(BALL4, 2, (2.0, 1.0))
    with pytest.raises(ValueError):
        tev_roots(BALL4, 2, (-1.0, 1.0))
    for step in (0.0, -0.01, np.nan):
        with pytest.raises(ValueError, match="step must be positive"):
            tev_roots(BALL4, 2, (2.0, 4.0), step)


# ---------------------------------------------------------------------------
# first eigenvalue and the index bound


def test_first_tev_exact_cases():
    k1, l, fam = first_tev(BALL4)
    assert abs(k1 - np.pi) < 1e-10
    assert (l, fam) == (1, "TE")
    k1, l, fam = first_tev(BALL_QUARTER)
    assert abs(k1 - 2 * np.pi) < 1e-10
    assert (l, fam) == (1, "TE")


def test_first_tev_extends_search_window():
    # k_1 of the n = 2 ball sits past the initial window of width 4.
    k1, l, fam = first_tev(BALL2)
    assert abs(k1 - FIRST_TEV_N2) < 1e-9
    assert (l, fam) == (1, "TE")


def test_first_tev_monotone_in_contrast():
    k4 = first_tev(BALL4)[0]
    k3 = first_tev(BALL3)[0]
    assert abs(k3 - FIRST_TEV_N3) < 1e-9
    assert k4 < k3 < FIRST_TEV_N2


def test_first_tev_gives_up_at_k_max():
    with pytest.raises(BracketError):
        first_tev(BALL2, k_max=2.0)


def test_index_bound_round_trip_high_contrast():
    n_est = index_bound_from_tev(np.pi, 1.0, (3.0, 5.0))
    assert abs(n_est - 4.0) < 1e-4


def test_index_bound_round_trip_low_contrast():
    n_est = index_bound_from_tev(2 * np.pi, 1.0, (0.1, 0.8))
    assert abs(n_est - 0.25) < 1e-4


def test_index_bound_not_bracketed():
    with pytest.raises(BracketError):
        index_bound_from_tev(10.0, 1.0, (3.0, 5.0))


def test_index_bound_validation():
    with pytest.raises(ValueError):
        index_bound_from_tev(-1.0, 1.0, (3.0, 5.0))
    with pytest.raises(ValueError):
        index_bound_from_tev(np.pi, 1.0, (5.0, 3.0))
    with pytest.raises(ValueError):
        index_bound_from_tev(np.pi, 1.0, (0.5, 2.0))


# ---------------------------------------------------------------------------
# generalized Stekloff eigenvalues


def test_stekloff_ball_matches_reference():
    modes = stekloff_eigs_ball(BALL2, 1.0, 1.0, 5)
    assert all(m.family == "TE" for m in modes)
    mags = [abs(m.lam) for m in modes]
    assert mags == sorted(mags)
    for l, lam_ref in enumerate(STEKLOFF_N2_TE, start=1):
        assert_allclose(_mode(modes, "TE", l).lam, lam_ref, rtol=1e-10)


def test_stekloff_identity_vacuum_spectrum():
    modes = stekloff_eigs_ball(VACUUM, 1.0, 1.0, 4, s_kind="IDENTITY")
    assert len(modes) == 8
    for l in range(1, 5):
        lam_te = _mode(modes, "TE", l).lam
        lam_tm = _mode(modes, "TM", l).lam
        assert_allclose(lam_te, STEKLOFF_VAC_TE[l - 1], rtol=1e-10)
        assert_allclose(lam_tm, STEKLOFF_VAC_TM[l - 1], rtol=1e-10)
        # with no scatterer the two families pair up: lam_TE lam_TM = -k^2
        assert_allclose(lam_te * lam_tm, -1.0, rtol=1e-10)


def test_stekloff_absorbing_index():
    scene = MediumSpec.ball(1.0, 2.0 + 2.0j)
    modes = stekloff_eigs_ball(scene, 1.0, 1.0, 4)
    for l, lam_ref in enumerate(STEKLOFF_ABSORBING_TE, start=1):
        assert_allclose(_mode(modes, "TE", l).lam, lam_ref, rtol=1e-10)


def test_stekloff_vacuum_gap():
    scene = MediumSpec.ball(0.7, 2.0)
    modes = stekloff_eigs_ball(scene, 1.0, 1.0, 3)
    for l, lam_ref in enumerate(STEKLOFF_SHELL_TE, start=1):
        assert_allclose(_mode(modes, "TE", l).lam, lam_ref, rtol=1e-10)


def test_stekloff_reference_sphere_must_contain_scene():
    with pytest.raises(ValueError):
        stekloff_eigs_ball(BALL2, 0.5, 1.0, 3)


def test_stekloff_rejects_unknown_smoother():
    with pytest.raises(ValueError):
        stekloff_eigs_ball(BALL2, 1.0, 1.0, 3, s_kind="NONE")


def test_stekloff_boundary_residuals_small():
    cases = [
        stekloff_eigs_ball(BALL2, 1.0, 1.0, 4),
        stekloff_eigs_ball(VACUUM, 1.0, 1.0, 4, s_kind="IDENTITY"),
        stekloff_eigs_ball(MediumSpec.ball(1.0, 2.0 + 2.0j), 1.0, 1.0, 4),
        stekloff_eigs_ball(MediumSpec.ball(0.7, 2.0), 1.0, 1.0, 3),
    ]
    for modes in cases:
        for m in modes:
            assert m.boundary_residual() < 1e-8


def test_stekloff_residual_detects_wrong_eigenvalue():
    mode = stekloff_eigs_ball(BALL2, 1.0, 1.0, 2)[0]
    off = dataclasses.replace(mode, lam=mode.lam + 0.05)
    assert off.boundary_residual() > 1e-3


def test_stekloff_eigenvalues_march_with_degree():
    # |lam| grows without bound: for large l the TE eigenvalue behaves
    # like -(l + 1).
    modes = stekloff_eigs_ball(BALL2, 1.0, 1.0, 12)
    lams = [_mode(modes, "TE", l).lam.real for l in range(1, 13)]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert abs(lams[-1] / (-13.0) - 1.0) < 0.15


def test_stekloff_neumann_resonance_detected():
    with pytest.raises(NeumannResonanceError):
        stekloff_eigs_ball(VACUUM, 1.0, NEUMANN_K, 2)
    stekloff_eigs_ball(VACUUM, 1.0, 1.0, 2)


def test_profile_continuity_across_interface():
    scene = MediumSpec.ball(0.7, 2.0)
    mode = _mode(stekloff_eigs_ball(scene, 1.0, 1.0, 2), "TE", 1)
    eps = 1e-9
    z_in, dz_in, kap_in = mode.profile(np.array([0.7 - eps]))
    z_out, dz_out, kap_out = mode.profile(np.array([0.7 + eps]))
    # TE interface data: zeta / kappa and zeta' are continuous
    assert_allclose(z_in[0] / kap_in[0], z_out[0] / kap_out[0], rtol=1e-6)
    assert_allclose(dz_in[0], dz_out[0], rtol=1e-6)


def test_profile_consistent_with_eigenvalue():
    mode = _mode(stekloff_eigs_ball(BALL2, 1.0, 1.0, 3), "TE", 2)
    z, dz, kap = mode.profile(np.array([mode.R]))
    assert_allclose(-kap[0] * dz[0] / z[0], mode.lam, rtol=1e-12)


def test_te_volume_norm_closed_form():
    # For a single layer the TE volume integrand reduces to r^2 j_l(kappa r)^2,
    # with the closed antiderivative (R^3 / 2)(j_l^2 - j_{l-1} j_{l+1}) at kappa R.
    kappa = np.sqrt(2.0)
    for l in (1, 2):
        mode = _mode(stekloff_eigs_ball(BALL2, 1.0, 1.0, 3), "TE", l)
        x = kappa * 1.0
        jl = spherical_jn(l, x)
        exact = 0.5 * (jl**2 - spherical_jn(l - 1, x) * spherical_jn(l + 1, x))
        assert_allclose(mode.volume_norm2(), exact, rtol=1e-10)


# ---------------------------------------------------------------------------
# perturbation estimate


def test_shift_estimate_linear_in_perturbation():
    mode = stekloff_eigs_ball(BALL2, 1.0, 1.0, 2)[0]
    s1 = shift_estimate(mode, 0.01, 0.5)
    s2 = shift_estimate(mode, 0.02, 0.5)
    assert_allclose(s2, 2.0 * s1, rtol=1e-14)
    assert shift_estimate(mode, 0.0, 0.5) == 0.0
    s_im = shift_estimate(mode, 0.01j, 0.5)
    assert_allclose(s_im, 1j * s1, rtol=1e-14)


def test_shift_estimate_first_order_accurate():
    # Compare against the exact eigenvalue of the bumped two-layer ball.
    # Halving the bump should shrink the linearization error fourfold.
    r_c = 0.5
    mode = _mode(stekloff_eigs_ball(BALL2, 1.0, 1.0, 1), "TE", 1)

    def linearization_error(dn):
        bumped = MediumSpec(layers=((r_c, 2.0 + dn + 0.0j), (1.0, 2.0 + 0.0j)))
        lam_new = _mode(stekloff_eigs_ball(bumped, 1.0, 1.0, 1), "TE", 1).lam
        return abs((mode.lam - lam_new) - shift_estimate(mode, dn, r_c))

    e1 = linearization_error(0.01)
    e2 = linearization_error(0.005)
    assert e1 < 1e-5
    assert 3.3 < e1 / e2 < 4.7


def test_shift_estimate_rejects_kernel_modes():
    tm = _mode(stekloff_eigs_ball(VACUUM, 1.0, 1.0, 2, s_kind="IDENTITY"), "TM", 1)
    killed = dataclasses.replace(tm, s_kind="CURL_CURL")
    with pytest.raises(ValueError):
        shift_estimate(killed, 0.01, 0.5)


def test_shift_estimate_validates_radius():
    mode = stekloff_eigs_ball(BALL2, 1.0, 1.0, 2)[0]
    with pytest.raises(ValueError):
        shift_estimate(mode, 0.01, 0.0)
    with pytest.raises(ValueError):
        shift_estimate(mode, 0.01, 1.5)

