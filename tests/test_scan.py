"""Tests for the Tikhonov solver and the eigenvalue scan detectors.

Detector assertions cross-check scan peaks against the analytic modal
oracles; solver assertions compare against direct dense linear algebra
on the weighted normal equations.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scatsig import (
    FarFieldMatrix,
    ImpedanceBall,
    MediumSpec,
    TangentVectorField,
    ZSampling,
    build_quadrature,
    find_peaks,
    stekloff_scan,
    tev_scan,
)
from scatsig import cli, ffop, forward, scan
from scatsig.scan import ScanResult, result_to_csv, result_to_json
from scatsig.ffop import grid_points
from scatsig.sphfun import riccati_all

from field_oracle import tikhonov_solve

BALL2 = MediumSpec.ball(1.0, 2.0)
BALL4 = MediumSpec.ball(1.0, 4.0)
STEKLOFF_N2 = [-1.5748945918925663, -2.7047154937500942, -3.7731288220972743]

IMP = ImpedanceBall(R=1.0, lam=2.0, s_kind="CURL_CURL")

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
    g = tikhonov_solve(A, b, 0.5)
    assert_allclose(g.coeffs, b.coeffs / 1.5, rtol=1e-12)


def test_tikhonov_matches_direct_solve():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _random_operator(quad, seed=3)
    b = _random_field(quad, seed=4)
    alpha = 0.37
    w = np.repeat(quad.weights, 2)
    gram = A.matrix.conj().T @ (w[:, None] * A.matrix) + alpha * np.diag(w)
    g_ref = np.linalg.solve(gram, A.matrix.conj().T @ (w * b.flat()))
    g = tikhonov_solve(A, b, alpha)
    assert_allclose(g.flat(), g_ref, rtol=1e-10)


def test_block_solve_matches_column_solves_and_dense_reference():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _random_operator(quad, seed=9)
    gen = np.random.Generator(np.random.Philox(key=10))
    shape = (2 * quad.n_nodes, 5)
    B = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    alpha = 0.05
    solver = scan._NormalSolver(replace(A, matrix=A.matrix.copy()), alpha)
    G = solver.solve(B)
    assert G.shape == B.shape
    for j in range(B.shape[1]):
        assert_allclose(G[:, j], solver.solve(B[:, j]), rtol=1e-12)
    w = np.repeat(quad.weights, 2)
    gram = A.matrix.conj().T @ (w[:, None] * A.matrix) + alpha * np.diag(w)
    assert_allclose(G, np.linalg.solve(gram, A.matrix.conj().T @ (w[:, None] * B)), rtol=1e-10)


def test_dense_solver_weights_its_operator_in_place():
    # the solver takes A's buffer over for X = W^1/2 A, with the bits of the product
    A = ffop.add_noise(ffop.assemble("MAGNETIC", BALL4, 3.1, QUAD8), 0.01, 3)
    x = np.sqrt(A.weight_vector())[:, None] * A.matrix
    solver = scan._NormalSolver(A, "auto")
    assert solver.x is A.matrix
    assert A.matrix.tobytes() == x.tobytes()


def test_dense_residual_from_x_matches_the_shifted_gram():
    A = ffop.add_noise(ffop.assemble("MAGNETIC", BALL4, 3.1, QUAD8), 0.01, 4)
    w = A.weight_vector()
    gram = 0.02 * np.diag(w) + A.matrix.conj().T @ (w[:, None] * A.matrix)
    solver = scan._NormalSolver(A, 0.02)
    gen = np.random.Generator(np.random.Philox(key=5))
    g, rhs = (gen.standard_normal((A.matrix.shape[0], 3)) + 1j * gen.standard_normal((A.matrix.shape[0], 3))
              for _ in range(2))
    ref = gram @ g - rhs
    assert np.max(np.abs(solver._residual(g, rhs) - ref)) <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 200])
def test_transpose_in_place_equals_the_transpose(n):
    gen = np.random.Generator(np.random.Philox(key=n))
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    ref = a.T.copy()
    scan._transpose_in_place(a)
    assert a.tobytes() == ref.tobytes()


def test_noisy_tev_scan_point_holds_fewer_than_three_dense_arrays():
    # X = W^1/2 A in the noisy operator's buffer and the factor in zherk's; add_noise
    # holds the clean and noisy operators and draws through a buffer of a few rows
    quad = build_quadrature("PRODUCT_GAUSS", 12)

    def run():
        tev_scan(BALL4, [3.1], quad, zs=ZS4, noise_eps=0.01)

    run()  # warm-up: imports and the cached mode tables
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * (2 * quad.n_nodes) ** 2 * 16


def test_block_solve_raises_when_refinement_is_exhausted(monkeypatch):
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    solver = scan._NormalSolver(_random_operator(quad, seed=11), 0.05)
    b = _random_field(quad, seed=12).flat()
    monkeypatch.setattr(scan, "_NORMAL_EQ_TOL", 0.0)
    with pytest.raises(RuntimeError, match="residual tolerance"):
        solver.solve(np.stack([b, 2 * b], axis=1))


@pytest.mark.parametrize("order", [4, 12])
def test_dense_solver_matches_direct_solve_on_noisy_operators(order):
    # 64 rows read ||A|| by eigvalsh, 576 rows by Lanczos on the Gram triangle
    quad = build_quadrature("PRODUCT_GAUSS", order)
    A = ffop.add_noise(ffop.assemble("MAGNETIC", BALL4, 3.1, quad), 0.01, 5)
    w = A.weight_vector()
    sq = np.sqrt(w)
    norm = scipy.linalg.svdvals((sq[:, None] * A.matrix) / sq[None, :])[0]
    alpha = scan._auto_alpha(A.noise_eps, norm)
    ah = A.matrix.conj().T
    rhs = scan._dipole_rhs(quad, ZS4.points(), 3.1, magnetic=True)
    ref = np.linalg.solve(alpha * np.diag(w) + ah @ (w[:, None] * A.matrix),
                          ah @ (w[:, None] * rhs))
    g = scan._NormalSolver(A, "auto").solve(rhs)
    err = np.linalg.norm(g - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert np.max(err) <= 1e-9


def test_block_solver_matches_dense_solver():
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    A = ffop.assemble("MODIFIED", (BALL2, IMP), 1.5, quad)
    B = ffop.assemble_blocks("MODIFIED", (BALL2, IMP), 1.5, quad)
    gen = np.random.Generator(np.random.Philox(key=13))
    rhs = gen.standard_normal((A.matrix.shape[0], 3)) + 1j * gen.standard_normal((A.matrix.shape[0], 3))
    dense = scan._NormalSolver(A, 1e-2).solve(rhs)
    assert_allclose(scan._NormalSolver(B, 1e-2).solve(rhs), dense, rtol=1e-10)
    g = scan._NormalSolver(B, 1e-2).solve(rhs[:, 0])
    assert g.shape == (A.matrix.shape[0],)


def test_block_solve_raises_when_refinement_is_exhausted_on_blocks(monkeypatch):
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    solver = scan._NormalSolver(ffop.assemble_blocks("MAGNETIC", BALL2, 1.5, quad), 1e-3)
    b = _random_field(quad, seed=12).flat()
    monkeypatch.setattr(scan, "_NORMAL_EQ_TOL", 0.0)
    with pytest.raises(RuntimeError, match="residual tolerance"):
        solver.solve(np.stack([b, 2 * b], axis=1))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _hpd_stack(n_blocks, m, seed):
    gen = np.random.Generator(np.random.Philox(key=seed))
    x = gen.standard_normal((n_blocks, m, m)) + 1j * gen.standard_normal((n_blocks, m, m))
    return x.conj().transpose(0, 2, 1) @ x + m * np.eye(m)


@pytest.mark.parametrize("size", [20, 24])
@pytest.mark.parametrize("cols", [1, 10])
def test_block_factor_and_solve_equal_scipy_batched_cholesky_bit_for_bit(size, cols):
    gram = _hpd_stack(size, size, seed=size + cols)
    gen = np.random.Generator(np.random.Philox(key=cols))
    rhs = gen.standard_normal((size, size, cols)) + 1j * gen.standard_normal((size, size, cols))
    ref = scipy.linalg.cho_factor(gram, lower=False)
    factors = scan._block_factor(gram, lower=0)
    np.testing.assert_array_equal(_bits(np.stack(factors)), _bits(ref[0]))
    x = scan.cho_solve(factors, rhs, lower=0)
    np.testing.assert_array_equal(_bits(x), _bits(scipy.linalg.cho_solve(ref, rhs)))


def test_dense_factor_and_solve_equal_scipy_lower_cholesky_bit_for_bit():
    # the dense Gram is a stack of one, factored on the lower triangle of gram_lower
    A = ffop.add_noise(ffop.assemble("MAGNETIC", BALL4, 3.1, QUAD8), 0.01, 1)
    w = A.weight_vector()
    gram = ffop.gram_lower(np.sqrt(w)[:, None] * A.matrix)
    gram[np.diag_indices(w.size)] += scan._auto_alpha(A.noise_eps, ffop.gram_norm(gram, w)) * w
    solver = scan._NormalSolver(replace(A, matrix=A.matrix.copy()), "auto")
    assert solver.lower == 1 and len(solver.factor) == 1
    ref = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    np.testing.assert_array_equal(_bits(solver.factor[0]), _bits(ref[0]))
    rhs = solver._rhs(scan._dipole_rhs(QUAD8, ZSampling(count=3).points(), 3.1, magnetic=True))
    x = scan.cho_solve(solver.factor, rhs, lower=1)
    np.testing.assert_array_equal(_bits(x), _bits(scipy.linalg.cho_solve(ref, rhs)))
    # scipy's layout too: the weighted column norms of the scans sum in a layout-dependent order
    assert x.flags.f_contiguous


def test_block_factor_names_the_indefinite_block():
    gram = _hpd_stack(8, 6, seed=3)
    gram[5] = -gram[5]
    with pytest.raises(scipy.linalg.LinAlgError, match="block 5 "):
        scan._block_factor(gram, lower=0)


def test_non_finite_gram_is_a_numeric_failure_naming_its_block():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    B = ffop.assemble_blocks("MAGNETIC", BALL2, 1.5, quad)
    B.matrix[3, 2, 1] = np.nan
    with pytest.raises(FloatingPointError, match="Gram in block 3 "):
        scan._NormalSolver(B, "auto")
    A = ffop.assemble("MAGNETIC", BALL2, 1.5, quad)
    A.matrix[7, 2] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite Gram of"):
        scan._NormalSolver(A, 1e-3)
    # the CLI reports an ArithmeticError as a numeric failure (exit 3)
    assert issubclass(FloatingPointError, cli._NUMERIC_ERRORS)


@pytest.mark.parametrize("blocks", [False, True])
def test_non_finite_right_hand_side_is_a_numeric_failure(blocks):
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    build = ffop.assemble_blocks if blocks else ffop.assemble
    solver = scan._NormalSolver(build("MAGNETIC", BALL2, 1.5, quad), 1e-3)
    b = np.stack([_random_field(quad, seed=12).flat()] * 2, axis=1)
    b[5, 1] = np.nan
    match = "right-hand side in block 0 " if blocks else "non-finite right-hand side of"
    with pytest.raises(FloatingPointError, match=match):
        solver.solve(b)


def test_stekloff_rectangle_evaluates_the_boundary_tables_once(monkeypatch):
    k = 1.0
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    rect = np.linspace(-3.4, -0.6, 9)[None, :] + 1j * np.linspace(-0.1, 0.6, 9)[:, None]
    coefs = forward.mie_coefficients(BALL2, k)  # the magnetic operator's own tables
    monkeypatch.setattr(ffop, "mie_coefficients", lambda medium, k: coefs)
    forward._boundary_tables.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return riccati_all(*args)

    monkeypatch.setattr(forward, "riccati_all", counted)
    for s_kind in ("CURL_CURL", "IDENTITY"):
        stekloff_scan(BALL2, 1.0, k, rect, quad, zs=ZS4, s_kind=s_kind)
    assert len(calls) == 1
    L = forward.truncation_degree(k, 1.0)
    psi, dpsi, chi, dchi = riccati_all(L, k * 1.0 + 0j)
    xi, dxi = psi + 1j * chi, dpsi + 1j * dchi
    for lam in rect.ravel():
        want_alpha = -(k * dpsi + lam * psi) / (k * dxi + lam * xi)
        want = {"CURL_CURL": -psi / xi,
                "IDENTITY": -(k * psi - lam * dpsi) / (k * xi - lam * dxi)}
        for s_kind, want_beta in want.items():
            c = forward.impedance_coefficients(ImpedanceBall(1.0, lam, s_kind), k)
            for got, ref in ((c.alpha, want_alpha), (c.beta, want_beta)):
                assert not got.flags.writeable
                assert got[0] == 0
                np.testing.assert_array_equal(_bits(got[1:]), _bits(ref[1:]))
    assert len(calls) == 1
    assert not any(t.flags.writeable for t in forward._boundary_tables(L, k * 1.0))
    # a TM resonance of the IDENTITY branch still raises with the tables cached
    with pytest.raises(forward.ResonantParameterError, match="TM"):
        forward.impedance_coefficients(ImpedanceBall(1.0, k * xi[2] / dxi[2], "IDENTITY"), k)


def test_tikhonov_large_alpha_asymptote():
    # for alpha >> ||A||^2 the solution tends to W^-1 A^H W b / alpha
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _random_operator(quad, seed=5)
    b = _random_field(quad, seed=6)
    alpha = 1e8
    w = np.repeat(quad.weights, 2)
    approx = (A.matrix.conj().T @ (w * b.flat())) / (w * alpha)
    g = tikhonov_solve(A, b, alpha)
    assert_allclose(g.flat(), approx, rtol=1e-4)


def test_tikhonov_norm_monotone_in_alpha():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = _random_operator(quad, seed=7)
    b = _random_field(quad, seed=8)
    norms = [tikhonov_solve(A, b, a).norm() for a in np.logspace(-6, 1, 12)]
    assert all(after <= before * (1 + 1e-12) for before, after in zip(norms, norms[1:]))


@pytest.mark.parametrize("alpha", [0.0, -1e-3, "tiny", np.nan, np.inf])
def test_alpha_validation(alpha):
    # inf used to give an all-zero solution
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = ffop.add_noise(ffop.assemble("MAGNETIC", BALL4, 3.1, quad), 0.01, 2)
    before = A.matrix.tobytes()
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        tikhonov_solve(A, _random_field(quad), alpha)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        scan._NormalSolver(A, alpha)
    assert A.matrix.tobytes() == before  # rejected before the solver weights A in place
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        tev_scan(BALL4, [3.1], quad, zs=ZSampling(count=1, r_z=0.2), alpha=alpha)


def test_auto_alpha_rule():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    for A, alpha in ((_identity_operator(quad), 1e-10),
                     (_identity_operator(quad, noise_eps=0.1), 0.01)):
        assert_allclose(scan._auto_alpha(A.noise_eps, A.operator_norm()), alpha, rtol=1e-6)


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
    # non-finite values used to pass validate_inside and fail later in the solve
    for r_z in (np.nan, np.inf):
        with pytest.raises(ValueError, match="r_z"):
            ZSampling(r_z=r_z)
    for center in ((np.nan, 0.0, 0.0), (0.0, 0.0, -np.inf)):
        with pytest.raises(ValueError, match="center"):
            ZSampling(r_z=0.5, center=center)


# ---------------------------------------------------------------------------
# transmission-eigenvalue scan


def test_tev_scan_peak_at_first_eigenvalue():
    # oracle k_1 = pi for the n = 4 unit ball
    res = tev_scan(BALL4, grid_points(3.04, 3.24, 0.02), QUAD8, zs=ZS4)
    assert res.kind == "tev"
    assert res.param.shape == res.indicator.shape == (11,)
    assert res.per_z.shape == (11, 4)
    i = int(np.argmax(res.indicator))
    assert abs(res.param[i] - 3.14) < 1e-12
    assert res.indicator[i] > 3 * np.median(res.indicator)
    peaks = find_peaks(res)
    assert len(peaks) == 1 and abs(peaks[0] - np.pi) <= 0.02


def test_tev_scan_flat_away_from_eigenvalues():
    res = tev_scan(BALL4, grid_points(2.0, 2.2, 0.02), QUAD8, zs=ZS4)
    assert res.indicator.max() / res.indicator.min() < 1.5
    assert find_peaks(res) == []


def test_tev_scan_herglotz_indicator_peaks_at_same_place():
    res = tev_scan(BALL4, grid_points(3.10, 3.18, 0.04), QUAD8,
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
                              alpha=alpha).indicator
    peak_ratio = ind[5e-4][0] / ind[1e-3][0]
    flat_ratio = ind[5e-4][1] / ind[1e-3][1]
    assert peak_ratio > 1.2
    assert 1.0 <= flat_ratio <= 1.2


def test_tev_scan_grid_and_scene_validation():
    with pytest.raises(ValueError):
        tev_scan(MediumSpec.ball(1.0, 2.0 + 0.5j), grid_points(3.0, 3.2, 0.1), QUAD8, zs=ZS4)
    with pytest.raises(ValueError):
        tev_scan(BALL4, grid_points(0.0, 1.0, 0.5), QUAD8, zs=ZS4)
    with pytest.raises(ValueError):
        tev_scan(BALL4, np.array([]), QUAD8, zs=ZS4)
    for ks in ([np.inf], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="k grid must be finite"):
            tev_scan(BALL4, ks, QUAD8, zs=ZS4)
    with pytest.raises(ValueError):
        tev_scan(BALL4, grid_points(3.0, 3.2, 0.1), QUAD8, zs=ZSampling(r_z=1.5))


def test_tev_scan_tuple_grid_is_inclusive():
    res = tev_scan(BALL4, grid_points(3.0, 3.2, 0.1), QUAD8, zs=ZSampling(count=1, r_z=0.2))
    assert_allclose(res.param, [3.0, 3.1, 3.2])


def test_tev_scan_scans_the_k_values_of_a_3_tuple():
    # a 3-tuple is three k values, not a (lo, hi, step) grid
    res = tev_scan(BALL4, (3.0, 3.1, 3.2), QUAD8, zs=ZSampling(count=1, r_z=0.2))
    assert res.per_z.shape == (3, 1)
    assert list(res.param) == [3.0, 3.1, 3.2]


def test_scan_determinism_and_thread_independence(monkeypatch):
    kwargs = dict(zs=ZS4, noise_eps=0.01, noise_seed=5)
    a = tev_scan(BALL4, grid_points(3.0, 3.3, 0.05), QUAD8, **kwargs)
    b = tev_scan(BALL4, grid_points(3.0, 3.3, 0.05), QUAD8, **kwargs)
    assert np.array_equal(a.per_z, b.per_z)
    monkeypatch.setenv("SCATSIG_THREADS", "1")
    c = tev_scan(BALL4, grid_points(3.0, 3.3, 0.05), QUAD8, **kwargs)
    assert np.array_equal(a.per_z, c.per_z)
    monkeypatch.delenv("SCATSIG_THREADS")
    d = tev_scan(BALL4, grid_points(3.0, 3.3, 0.05), QUAD8, zs=ZS4, noise_eps=0.01, noise_seed=6)
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


@pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
def test_scans_reject_a_bad_noise_level_before_any_assembly(monkeypatch, eps):
    # -0.1 and nan failed eps > 0, so both scans took the clean path and
    # wrote the bad level into their metadata
    def no_assembly(*args):
        raise AssertionError("assembled before checking the noise level")

    monkeypatch.setattr(ffop, "assemble", no_assembly)
    monkeypatch.setattr(ffop, "assemble_blocks", no_assembly)
    with pytest.raises(ValueError, match="noise level eps must be finite and >= 0"):
        tev_scan(BALL4, [3.1], QUAD8, zs=ZS4, noise_eps=eps)
    with pytest.raises(ValueError, match="noise level eps must be finite and >= 0"):
        stekloff_scan(BALL2, 1.0, 1.0, [-1.5], QUAD8, zs=ZS4, noise_eps=eps)
    with pytest.raises(ValueError, match="noise level eps must be finite and >= 0"):
        ffop.far_field_operator("MAGNETIC", BALL4, 3.1, QUAD8, noise_eps=eps)


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
    # an empty grid used to die in np.stack with "need at least one array to stack"
    for empty in ([], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="nonempty 1-D list or 2-D rectangle"):
            stekloff_scan(BALL2, 1.0, 1.0, empty, QUAD8, zs=ZS4)


def test_scan_metadata_records_inputs():
    res = tev_scan(BALL4, grid_points(3.0, 3.1, 0.1), QUAD8, zs=ZS4, noise_eps=0.02, noise_seed=9)
    meta = res.metadata
    assert meta["kind"] == "tev"
    assert meta["noise_eps"] == 0.02 and meta["noise_seed"] == 9
    assert meta["z_count"] == 4 and meta["z_seed"] == 7
    assert meta["quad"] == "PRODUCT_GAUSS:8"
    assert json.loads(meta["medium"])  # embeddable scene description


# ---------------------------------------------------------------------------
# block path against the dense path


def _dense_norms(A, rhs, herglotz_radius=None):
    """Per-column indicator of the dense solve the noisy path runs."""
    g = scan._NormalSolver(A, "auto").solve(rhs)
    if herglotz_radius is None:
        return np.sqrt(A.weight_vector() @ np.abs(g) ** 2)
    return np.array([forward.herglotz_ball_norm(TangentVectorField.from_flat(A.quad, col), A.k,
                                                herglotz_radius, magnetic=True) for col in g.T])


def _assert_matches_dense(res, per_z):
    assert np.max(np.abs(res.per_z - per_z) / per_z) <= 1e-7
    dense = ScanResult(res.kind, res.param, per_z.mean(axis=-1), per_z)
    for prominence in (2.0, 1.5):
        assert find_peaks(res, prominence) == find_peaks(dense, prominence)


@pytest.mark.parametrize("order,herglotz", [(6, False), (8, False), (8, True)])
def test_clean_tev_scan_block_path_matches_dense_path(order, herglotz):
    # at 6x12 the modes alias in the azimuth (L > t)
    quad = build_quadrature("PRODUCT_GAUSS", order)
    zs = ZSampling(count=2, r_z=0.3, seed=7) if herglotz else ZS4
    grid = grid_points(3.10, 3.18, 0.04) if herglotz else grid_points(3.0, 3.3, 0.02)
    res = tev_scan(BALL4, grid, quad, zs=zs, herglotz=herglotz)
    per_z = np.array([
        _dense_norms(ffop.assemble("MAGNETIC", BALL4, float(k), quad),
                     scan._dipole_rhs(quad, zs.points(), float(k), magnetic=True),
                     1.0 if herglotz else None)
        for k in res.param])
    _assert_matches_dense(res, per_z)


def test_clean_stekloff_rectangle_block_path_matches_dense_path():
    # the benchmark's stekloff_rect scene and window at 10x20
    quad = build_quadrature("PRODUCT_GAUSS", 10)
    absorbing = MediumSpec.ball(1.0, 2.0 + 2.0j)
    zs = ZSampling(count=10, seed=23)
    rect = np.linspace(-3.42, -0.54, 9)[None, :] + 1j * np.linspace(-0.11, 0.61, 9)[:, None]
    res = stekloff_scan(absorbing, 1.0, 1.0, rect, quad, zs=zs)
    F_m = ffop.assemble("MAGNETIC", absorbing, 1.0, quad)
    rhs = scan._dipole_rhs(quad, zs.points(), 1.0, magnetic=False)
    per_z = np.array([
        _dense_norms(FarFieldMatrix(F_m.matrix - ffop.assemble(
            "IMPEDANCE", ImpedanceBall(R=1.0, lam=complex(lam)), 1.0, quad).matrix,
            "MODIFIED", 1.0, quad), rhs)
        for lam in rect.ravel()]).reshape(rect.shape + (10,))
    _assert_matches_dense(res, per_z)
    assert find_peaks(res)


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


def _find_peaks_two_loops(result, min_prominence=2.0):
    """The grid loop and the rectangle loop find_peaks ran before its one rule."""
    ind = result.indicator
    finite = np.isfinite(ind)
    if not np.any(finite):
        return []
    thresh = min_prominence * float(np.median(ind[finite]))
    peaks = []
    if ind.ndim == 1:
        for i in range(1, ind.size - 1):
            trio = ind[i - 1 : i + 2]
            if np.all(np.isfinite(trio)) and ind[i] > trio[0] and ind[i] > trio[2] \
                    and ind[i] >= thresh:
                peaks.append(result.param[i])
    else:
        ny, nx = ind.shape
        for i in range(1, ny - 1):
            for j in range(1, nx - 1):
                block = ind[i - 1 : i + 2, j - 1 : j + 2]
                if not np.all(np.isfinite(block)):
                    continue
                c = ind[i, j]
                if c >= thresh and np.sum(block >= c) == 1:
                    peaks.append(result.param[i, j])
    return peaks


@settings(max_examples=300, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(0, 12)),
                       st.tuples(st.integers(0, 6), st.integers(0, 6))),
       data=st.data())
def test_find_peaks_equals_two_loop_reference(shape, data):
    # few distinct values, so ties and NaN neighbours are common
    values = st.sampled_from([np.nan, 0.5, 1.0, 1.0, 2.0, 2.5, 4.0, 9.0])
    ind = np.array(data.draw(st.lists(values, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape)))), dtype=float)
    ind = ind.reshape(shape)
    if len(shape) == 1:
        param = 1.0 + 0.1 * np.arange(shape[0])
    else:
        param = np.arange(shape[1])[None, :] + 1j * np.arange(shape[0])[:, None]
    res = _synthetic(param, ind)
    for prominence in (2.0, 1.2):
        assert find_peaks(res, prominence) == _find_peaks_two_loops(res, prominence)


# ---------------------------------------------------------------------------
# result serialization


def test_result_csv_layout_and_round_trip():
    res = tev_scan(BALL4, grid_points(3.0, 3.2, 0.1), QUAD8, zs=ZSampling(count=2, r_z=0.2))
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
