"""Tests for the Tikhonov solver and the eigenvalue scan detectors.

Detector assertions cross-check scan peaks against the analytic modal
oracles; solver assertions compare against direct dense linear algebra
on the weighted normal equations.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scatsig import (
    FarFieldMatrix,
    MediumSpec,
    TangentVectorField,
    TikhonovConfig,
    ZSampling,
    build_quadrature,
    find_peaks,
    stekloff_scan,
    tev_scan,
    tikhonov_solve,
)
from scatsig import scan
from scatsig.scan import ScanResult, result_to_csv, result_to_json
from scatsig.sphfun import riccati_all

BALL2 = MediumSpec.ball(1.0, 2.0)
BALL4 = MediumSpec.ball(1.0, 4.0)
STEKLOFF_N2 = [-1.5748945918925663, -2.7047154937500942, -3.7731288220972743]

QUAD8 = build_quadrature("PRODUCT_GAUSS", 8)
ZS4 = ZSampling(count=4, r_z=0.4, seed=7)


def _identity_operator(quad, noise_eps=0.0):
    n = 2 * quad.n_nodes
    return FarFieldMatrix(np.eye(n, dtype=complex), "CUSTOM", 1.0, quad,
                          noise_eps=noise_eps)


def _random_operator(quad, seed=0, scale=1.0):
    gen = np.random.Generator(np.random.Philox(key=seed))
    n = 2 * quad.n_nodes
    m = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return FarFieldMatrix(scale * m / np.sqrt(n), "CUSTOM", 1.0, quad)


def _random_field(quad, seed=1):
    gen = np.random.Generator(np.random.Philox(key=seed))
    c = gen.standard_normal((quad.n_nodes, 2)) + 1j * gen.standard_normal((quad.n_nodes, 2))
    return TangentVectorField(quad, c)


# ---------------------------------------------------------------------------
# regularized solver


def test_tikhonov_identity_closed_form():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _identity_operator(quad)
    b = _random_field(quad)
    g = tikhonov_solve(A, b, TikhonovConfig(alpha=0.5))
    assert_allclose(g.coeffs, b.coeffs / 1.5, rtol=1e-12)


def test_tikhonov_matches_direct_solve():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _random_operator(quad, seed=3)
    b = _random_field(quad, seed=4)
    alpha = 0.37
    w = np.repeat(quad.weights, 2)
    gram = A.matrix.conj().T @ (w[:, None] * A.matrix) + alpha * np.diag(w)
    g_ref = np.linalg.solve(gram, A.matrix.conj().T @ (w * b.flat()))
    g = tikhonov_solve(A, b, TikhonovConfig(alpha=alpha))
    assert_allclose(g.flat(), g_ref, rtol=1e-10)


def test_block_solve_matches_column_solves_and_dense_reference():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _random_operator(quad, seed=9)
    gen = np.random.Generator(np.random.Philox(key=10))
    shape = (2 * quad.n_nodes, 5)
    B = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    alpha = 0.05
    solver = scan._NormalSolver(A, alpha)
    G = solver.solve(B)
    assert G.shape == B.shape
    for j in range(B.shape[1]):
        assert_allclose(G[:, j], solver.solve(B[:, j]), rtol=1e-12)
    w = np.repeat(quad.weights, 2)
    gram = A.matrix.conj().T @ (w[:, None] * A.matrix) + alpha * np.diag(w)
    assert_allclose(G, np.linalg.solve(gram, A.matrix.conj().T @ (w[:, None] * B)), rtol=1e-10)


def test_block_solve_raises_when_refinement_is_exhausted(monkeypatch):
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    solver = scan._NormalSolver(_random_operator(quad, seed=11), 0.05)
    b = _random_field(quad, seed=12).flat()
    monkeypatch.setattr(scan, "_NORMAL_EQ_TOL", 0.0)
    with pytest.raises(RuntimeError, match="residual tolerance"):
        solver.solve(np.stack([b, 2 * b], axis=1))


def test_tikhonov_large_alpha_asymptote():
    # for alpha >> ||A||^2 the solution tends to W^-1 A^H W b / alpha
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _random_operator(quad, seed=5)
    b = _random_field(quad, seed=6)
    alpha = 1e8
    w = np.repeat(quad.weights, 2)
    approx = (A.matrix.conj().T @ (w * b.flat())) / (w * alpha)
    g = tikhonov_solve(A, b, TikhonovConfig(alpha=alpha))
    assert_allclose(g.flat(), approx, rtol=1e-4)


def test_tikhonov_norm_monotone_in_alpha():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _random_operator(quad, seed=7)
    b = _random_field(quad, seed=8)
    norms = [tikhonov_solve(A, b, TikhonovConfig(alpha=a)).norm()
             for a in np.logspace(-6, 1, 12)]
    assert all(after <= before * (1 + 1e-12) for before, after in zip(norms, norms[1:]))


def test_tikhonov_config_validation():
    with pytest.raises(ValueError):
        TikhonovConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TikhonovConfig(alpha=-1e-3)
    with pytest.raises(ValueError):
        TikhonovConfig(alpha="tiny")
    TikhonovConfig(alpha="auto")


def test_auto_alpha_rule():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    clean = _identity_operator(quad)
    assert_allclose(TikhonovConfig().resolve(clean), 1e-10, rtol=1e-6)
    noisy = _identity_operator(quad, noise_eps=0.1)
    assert_allclose(TikhonovConfig().resolve(noisy), 0.01, rtol=1e-6)
    assert TikhonovConfig(alpha=0.25).resolve(clean) == 0.25


# ---------------------------------------------------------------------------
# sample-point generator


def test_z_sampling_deterministic_and_inside():
    zs = ZSampling(count=50, r_z=0.3, center=(0.1, 0.0, -0.1), seed=11)
    p1 = zs.points()
    p2 = zs.points()
    assert np.array_equal(p1, p2)
    assert p1.shape == (50, 3)
    dist = np.linalg.norm(p1 - np.array([0.1, 0.0, -0.1]), axis=1)
    assert np.all(dist <= 0.3 + 1e-12)
    assert ZSampling(count=50, r_z=0.3, seed=12).points() is not None
    assert not np.array_equal(p1, ZSampling(count=50, r_z=0.3,
                                            center=(0.1, 0.0, -0.1), seed=12).points())


def test_z_sampling_validation():
    with pytest.raises(ValueError):
        ZSampling(count=0)
    with pytest.raises(ValueError):
        ZSampling(r_z=0.0)
    with pytest.raises(ValueError):
        ZSampling(r_z=0.5, center=(0.6, 0.0, 0.0)).validate_inside(1.0)
    ZSampling(r_z=0.5).validate_inside(1.0)


# ---------------------------------------------------------------------------
# transmission-eigenvalue scan


def test_tev_scan_peak_at_first_eigenvalue():
    # oracle k_1 = pi for the n = 4 unit ball
    res = tev_scan(BALL4, (3.04, 3.24, 0.02), QUAD8, zs=ZS4)
    assert res.kind == "tev"
    assert res.param.shape == res.indicator.shape == (11,)
    assert res.per_z.shape == (11, 4)
    i = int(np.argmax(res.indicator))
    assert abs(res.param[i] - 3.14) < 1e-12
    assert res.indicator[i] > 3 * np.median(res.indicator)
    peaks = find_peaks(res)
    assert len(peaks) == 1 and abs(peaks[0] - np.pi) <= 0.02


def test_tev_scan_flat_away_from_eigenvalues():
    res = tev_scan(BALL4, (2.0, 2.2, 0.02), QUAD8, zs=ZS4)
    assert res.indicator.max() / res.indicator.min() < 1.5
    assert find_peaks(res) == []


def test_tev_scan_herglotz_indicator_peaks_at_same_place():
    res = tev_scan(BALL4, (3.10, 3.18, 0.04), QUAD8,
                   zs=ZSampling(count=2, r_z=0.3, seed=7), herglotz=True)
    assert int(np.argmax(res.indicator)) == 1
    assert res.indicator[1] > 5 * res.indicator[0]
    assert res.metadata["herglotz"] is True


def test_alpha_halving_dichotomy():
    # halving alpha barely moves the indicator off-eigenvalue but keeps
    # feeding the spike at a detected peak grid point
    ks = np.array([3.14, 2.1])
    ind = {}
    for alpha in (1e-3, 5e-4):
        ind[alpha] = tev_scan(BALL4, ks, QUAD8, zs=ZS4,
                              cfg=TikhonovConfig(alpha)).indicator
    peak_ratio = ind[5e-4][0] / ind[1e-3][0]
    flat_ratio = ind[5e-4][1] / ind[1e-3][1]
    assert peak_ratio > 1.2
    assert 1.0 <= flat_ratio <= 1.2


def test_tev_scan_grid_and_scene_validation():
    with pytest.raises(ValueError):
        tev_scan(MediumSpec.ball(1.0, 2.0 + 0.5j), (3.0, 3.2, 0.1), QUAD8, zs=ZS4)
    with pytest.raises(ValueError):
        tev_scan(BALL4, (0.0, 1.0, 0.5), QUAD8, zs=ZS4)
    with pytest.raises(ValueError):
        tev_scan(BALL4, np.array([]), QUAD8, zs=ZS4)
    with pytest.raises(ValueError):
        tev_scan(BALL4, (3.0, 3.2, 0.1), QUAD8, zs=ZSampling(r_z=1.5))


def test_tev_scan_tuple_grid_is_inclusive():
    res = tev_scan(BALL4, (3.0, 3.2, 0.1), QUAD8, zs=ZSampling(count=1, r_z=0.2))
    assert_allclose(res.param, [3.0, 3.1, 3.2])


def test_scan_determinism_and_thread_independence(monkeypatch):
    kwargs = dict(zs=ZS4, noise_eps=0.01, noise_seed=5)
    a = tev_scan(BALL4, (3.0, 3.3, 0.05), QUAD8, **kwargs)
    b = tev_scan(BALL4, (3.0, 3.3, 0.05), QUAD8, **kwargs)
    assert np.array_equal(a.per_z, b.per_z)
    monkeypatch.setenv("SCATSIG_THREADS", "1")
    c = tev_scan(BALL4, (3.0, 3.3, 0.05), QUAD8, **kwargs)
    assert np.array_equal(a.per_z, c.per_z)
    monkeypatch.delenv("SCATSIG_THREADS")
    d = tev_scan(BALL4, (3.0, 3.3, 0.05), QUAD8, zs=ZS4, noise_eps=0.01, noise_seed=6)
    assert not np.array_equal(a.per_z, d.per_z)


def test_scan_noise_seeds_do_not_share_grid_points():
    # noise is keyed by (seed, grid index): point 1 at seed 1 is not point 0 at seed 2
    kwargs = dict(zs=ZSampling(count=1, r_z=0.2), noise_eps=0.05)
    pair = tev_scan(BALL4, np.array([3.0, 3.0]), QUAD8, noise_seed=1, **kwargs)
    single = tev_scan(BALL4, np.array([3.0]), QUAD8, noise_seed=2, **kwargs)
    assert not np.allclose(pair.per_z[1], single.per_z[0], rtol=1e-6)
    assert not np.array_equal(pair.per_z[0], pair.per_z[1])


# ---------------------------------------------------------------------------
# Stekloff scan


def test_stekloff_scan_detects_smallest_eigenvalues():
    grid = np.arange(-4.2, -1.2 + 1e-9, 0.05)
    res = stekloff_scan(BALL2, 1.0, 1.0, grid, QUAD8, zs=ZS4)
    assert res.kind == "stekloff"
    peaks = find_peaks(res, 1.5)
    # the two smallest-|lambda| oracle eigenvalues are found within one
    # grid step; every reported peak belongs to some oracle eigenvalue
    # (the indicator grows a horn on each side of a strong resonance,
    # which can contribute two nearby peaks)
    for lam_ref in STEKLOFF_N2[:2]:
        assert any(abs(p - lam_ref) <= 0.05 + 1e-9 for p in peaks)
    for p in peaks:
        assert any(abs(p - lam_ref) <= 0.08 for lam_ref in STEKLOFF_N2)


def test_stekloff_scan_noise_keeps_first_peak():
    grid = np.arange(-1.8, -1.29, 0.05)
    clean = stekloff_scan(BALL2, 1.0, 1.0, grid, QUAD8, zs=ZS4)
    noisy = stekloff_scan(BALL2, 1.0, 1.0, grid, QUAD8, zs=ZS4,
                          noise_eps=0.01, noise_seed=3)
    p_clean = find_peaks(clean)
    p_noisy = find_peaks(noisy)
    assert len(p_clean) == 1 and len(p_noisy) >= 1
    assert min(abs(p - p_clean[0]) for p in p_noisy) <= 2 * 0.05 + 1e-9


def test_stekloff_scan_resonant_lambda_is_nan_gap():
    # lambda = -xi_1'(k R) / xi_1(k R) * k makes the impedance ball
    # assembly singular; the scan records NaN instead of failing
    psi, dpsi, chi, dchi = riccati_all(1, np.array([1.0 + 0.0j]))
    lam_res = complex(-(dpsi[1, 0] + 1j * dchi[1, 0]) / (psi[1, 0] + 1j * chi[1, 0]))
    grid = np.array([lam_res - 0.3, lam_res, lam_res + 0.3])
    res = stekloff_scan(BALL2, 1.0, 1.0, grid, QUAD8, zs=ZS4)
    assert np.isfinite(res.indicator[0])
    assert np.isnan(res.indicator[1])
    assert np.isfinite(res.indicator[2])
    assert np.all(np.isnan(res.per_z[1]))


def test_stekloff_scan_complex_rectangle():
    re_ax = np.arange(-1.8, -1.29, 0.1)
    im_ax = np.arange(-0.2, 0.21, 0.1)
    rect = re_ax[None, :] + 1j * im_ax[:, None]
    res = stekloff_scan(BALL2, 1.0, 1.0, rect, QUAD8, zs=ZS4)
    assert res.param.shape == res.indicator.shape == rect.shape
    assert res.per_z.shape == rect.shape + (4,)
    peaks = find_peaks(res)
    assert len(peaks) >= 1
    assert min(abs(p - STEKLOFF_N2[0]) for p in peaks) < 0.15


def test_stekloff_scan_validation():
    with pytest.raises(ValueError):
        stekloff_scan(BALL2, 0.5, 1.0, np.array([-2.0]), QUAD8, zs=ZS4)
    with pytest.raises(ValueError):
        stekloff_scan(BALL2, 1.0, 1.0, np.zeros((2, 2, 2)), QUAD8, zs=ZS4)


def test_scan_metadata_records_inputs():
    res = tev_scan(BALL4, (3.0, 3.1, 0.1), QUAD8, zs=ZS4, noise_eps=0.02, noise_seed=9)
    meta = res.metadata
    assert meta["kind"] == "tev"
    assert meta["noise_eps"] == 0.02 and meta["noise_seed"] == 9
    assert meta["z_count"] == 4 and meta["z_seed"] == 7
    assert meta["quad"] == "PRODUCT_GAUSS:8"
    assert json.loads(meta["medium"])  # embeddable scene description


# ---------------------------------------------------------------------------
# peak finding on synthetic data


def _synthetic(param, indicator):
    param = np.asarray(param)
    ind = np.asarray(indicator, dtype=float)
    return ScanResult("tev", param, ind, ind[..., None], {})


def test_find_peaks_monotone_has_none():
    res = _synthetic(np.arange(5.0), [1.0, 2.0, 3.0, 4.0, 5.0])
    assert find_peaks(res) == []


def test_find_peaks_single_spike():
    res = _synthetic(np.arange(5.0), [1.0, 1.0, 9.0, 1.0, 1.0])
    assert find_peaks(res) == [2.0]


def test_find_peaks_respects_threshold():
    res = _synthetic(np.arange(5.0), [1.0, 1.0, 1.5, 1.0, 1.0])
    assert find_peaks(res, min_prominence=2.0) == []
    assert find_peaks(res, min_prominence=1.2) == [2.0]


def test_find_peaks_nan_neighbor_suppresses():
    res = _synthetic(np.arange(5.0), [1.0, np.nan, 9.0, 1.0, 1.0])
    assert find_peaks(res) == []
    assert find_peaks(_synthetic(np.arange(3.0), [np.nan] * 3)) == []


def test_find_peaks_complex_rectangle_dominance():
    re_ax = np.arange(4.0)
    im_ax = np.arange(3.0)
    param = re_ax[None, :] + 1j * im_ax[:, None]
    ind = np.ones((3, 4))
    ind[1, 2] = 7.0
    assert find_peaks(_synthetic(param, ind)) == [param[1, 2]]
    edge = np.ones((3, 4))
    edge[0, 1] = 7.0  # boundary cells have no full neighborhood
    assert find_peaks(_synthetic(param, edge)) == []


# ---------------------------------------------------------------------------
# result serialization


def test_result_csv_layout_and_round_trip():
    res = tev_scan(BALL4, (3.0, 3.2, 0.1), QUAD8, zs=ZSampling(count=2, r_z=0.2))
    text = result_to_csv(res)
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    assert json.loads(lines[0][2:]) == res.metadata
    assert lines[1] == "k,indicator_mean,indicator_z1,indicator_z2"
    assert len(lines) == 2 + res.param.size
    row = lines[2].split(",")
    assert_allclose(float(row[0]), res.param[0], rtol=1e-15)
    assert_allclose(float(row[1]), res.indicator[0], rtol=1e-15)
    assert_allclose([float(v) for v in row[2:]], res.per_z[0], rtol=1e-15)
    assert text.endswith("\n")


def test_result_csv_rejects_rectangles():
    rect = np.array([[1.0 + 0.0j, 2.0], [1.0 + 1.0j, 2.0 + 1.0j]])
    res = _synthetic(rect, np.ones((2, 2)))
    with pytest.raises(ValueError):
        result_to_csv(res)


def test_result_json_layout():
    re_ax = np.array([-2.0, -1.9, -1.8])
    im_ax = np.array([0.0, 0.1])
    param = re_ax[None, :] + 1j * im_ax[:, None]
    ind = np.array([[1.0, 10.0, 100.0], [np.nan, 1.0, 0.1]])
    res = ScanResult("stekloff", param, ind, ind[..., None], {"kind": "stekloff"})
    doc = json.loads(result_to_json(res))
    assert doc["re_axis"] == [-2.0, -1.9, -1.8]
    assert doc["im_axis"] == [0.0, 0.1]
    assert_allclose(doc["log10_indicator"][0], [0.0, 1.0, 2.0], atol=1e-14)
    assert doc["log10_indicator"][1][0] is None
    assert doc["metadata"] == {"kind": "stekloff"}


@settings(max_examples=40, deadline=None)
@given(
    re_ax=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
    im_ax=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
    data=st.data(),
)
def test_result_json_round_trip(re_ax, im_ax, data):
    # NaN, zero and infinite indicators come back as null; the axes and
    # every finite log10 value round-trip exactly
    cell = st.floats(1e-300, 1e300) | st.sampled_from([np.nan, 0.0, np.inf])
    size = len(re_ax) * len(im_ax)
    ind = np.array(data.draw(st.lists(cell, min_size=size, max_size=size)))
    ind = ind.reshape(len(im_ax), len(re_ax))
    param = np.array(re_ax)[None, :] + 1j * np.array(im_ax)[:, None]
    res = ScanResult("stekloff", param, ind, ind[..., None], {"k": 1.0})
    doc = json.loads(result_to_json(res))
    assert doc["re_axis"] == re_ax and doc["im_axis"] == im_ax
    with np.errstate(divide="ignore"):
        log10 = np.log10(ind)
    for got_row, want_row in zip(doc["log10_indicator"], log10):
        assert [None if not np.isfinite(v) else v for v in want_row] == got_row


def test_result_json_rejects_real_grids():
    res = _synthetic(np.arange(3.0), np.ones(3))
    with pytest.raises(ValueError):
        result_to_json(res)
