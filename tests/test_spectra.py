"""Eigenvalue diagnostics: circle laws, energy identity, phase tracking."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from scatsig import ffop, forward
from scatsig.ffop import (
    SphereQuadrature,
    TangentVectorField,
    add_noise,
    assemble,
    assemble_blocks,
    build_quadrature,
    grid_points,
)
from scatsig.forward import ImpedanceBall, MediumSpec, mie_coefficients
from scatsig.spectra import (
    EigenSet,
    circle_center_radius,
    circle_residual,
    eig,
    phase_track,
    phase_track_to_csv,
    worker_count,
)

from field_oracle import energy_identity_residual, lidski_positivity


BALL2 = MediumSpec.ball(1.0, 2.0)
BALL4 = MediumSpec.ball(1.0, 4.0)
ABSORB = MediumSpec.ball(1.0, 2.0 + 2.0j)
LOSSY = MediumSpec.ball(1.0, 2.0 + 0.5j)
IMP = ImpedanceBall(R=1.0, lam=2.0, s_kind="CURL_CURL")


# --------------------------------------------------------------------------
# eigendecomposition
# --------------------------------------------------------------------------


def test_eig_diagonal():
    es = eig(np.diag([1.0, 2.0j, -3.0]))
    assert_allclose(es.values, [-3.0, 2.0j, 1.0], atol=1e-14)
    assert es.kind == "GENERIC" and es.k == 0.0


def test_eig_rotation_block():
    es = eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert_allclose(sorted(es.values, key=lambda z: z.imag), [-1j, 1j], atol=1e-14)


def test_eig_dense_random_residuals():
    rng = np.random.default_rng(12)
    mat = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    es = eig(mat)
    # values agree with the raw LAPACK multiset
    ref = np.sort_complex(np.linalg.eigvals(mat))
    assert_allclose(np.sort_complex(es.values), ref, rtol=1e-10)
    # a scaled orthogonal matrix of 300 rows has every |lambda| = 2
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((300, 300)))[0]
    assert_allclose(np.abs(eig(2.0 * q).values), 2.0, rtol=1e-12)


def test_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        eig(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_eig_takes_one_plain_matrix():
    # only a FarFieldBlocks is a stack; a 3-D array is not batched
    with pytest.raises(ValueError, match="square matrix"):
        eig(np.zeros((2, 3, 3)))


def test_eig_ordering_deterministic():
    rng = np.random.default_rng(8)
    mat = rng.normal(size=(20, 20))
    v1 = eig(mat).values
    v2 = eig(mat).values
    assert np.array_equal(v1, v2)
    assert np.all(np.diff(np.abs(v1)) <= 1e-12)


# --------------------------------------------------------------------------
# circle laws
# --------------------------------------------------------------------------


def test_circle_definitions():
    c, r = circle_center_radius("ELECTRIC", 2.0)
    assert c == -2 * np.pi and r == 2 * np.pi
    c, r = circle_center_radius("MAGNETIC", 2.0)
    assert c == 1j * np.pi and r == np.pi
    with pytest.raises(ValueError):
        circle_center_radius("IMPEDANCE", 2.0)


def test_circle_residual_trivial_points():
    # lambda = 0 sits on both circles; lambda = -4 pi on the electric one
    assert circle_residual(EigenSet(np.array([0.0j, -4 * np.pi]), "ELECTRIC", 1.0)).max() < 1e-14
    assert circle_residual(EigenSet(np.array([0.0j, 4j * np.pi]), "MAGNETIC", 1.0)).max() < 1e-14
    assert_allclose(circle_residual(EigenSet(np.array([2.0 + 0j]), "ELECTRIC", 1.0))[0], 2.0,
                    rtol=1e-14)


def test_electric_spectrum_on_circle():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    es = eig(assemble("ELECTRIC", BALL2, 1.0, quad))
    # the well-resolved (large) eigenvalues satisfy the circle law to
    # machine precision; tiny trailing ones are pure discretization noise
    big = np.abs(es.values) > 1e-8 * np.abs(es.values[0])
    assert np.max(circle_residual(es)[big]) < 1e-10


def test_magnetic_spectrum_on_circle():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    es = eig(assemble("MAGNETIC", BALL2, 1.3, quad))
    big = np.abs(es.values) > 1e-8 * np.abs(es.values[0])
    assert np.max(circle_residual(es)[big]) < 1e-10


def test_absorbing_spectrum_inside_circle():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    es = eig(assemble("ELECTRIC", ABSORB, 1.0, quad))
    c, r = circle_center_radius("ELECTRIC", 1.0)
    big = np.abs(es.values) > 1e-8 * np.abs(es.values[0])
    assert np.all(np.abs(es.values[big] - c) <= r + 1e-10)
    # strictly inside for the dominant mode
    assert np.abs(es.values[0] - c) < r - 1e-3


def test_frame_rotation_leaves_spectrum_invariant():
    # rotating every tangent frame is a unitary change of basis, so the
    # assembled matrix spectrum cannot move
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    gamma = 0.83
    e1 = np.cos(gamma) * quad.e1 + np.sin(gamma) * quad.e2
    e2 = -np.sin(gamma) * quad.e1 + np.cos(gamma) * quad.e2
    quad_rot = SphereQuadrature(kind=quad.kind, order=quad.order, nodes=quad.nodes,
                                weights=quad.weights, e1=e1, e2=e2, t=quad.t)
    v1 = eig(assemble("ELECTRIC", BALL2, 1.2, quad)).values
    v2 = eig(assemble("ELECTRIC", BALL2, 1.2, quad_rot)).values
    keep = np.abs(v1) > 1e-10 * np.abs(v1[0])
    assert np.max(np.abs(v1[keep] - v2[keep])) < 1e-10 * np.abs(v1[0])


def test_noisy_eigenvalues_track_clean_ones():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    A = assemble("ELECTRIC", BALL2, 1.0, quad)
    eps = 1e-3
    An = add_noise(A, eps, seed=3)
    clean = eig(A).values[:5]
    noisy = eig(An).values[:5]
    bound = 5 * eps * A.operator_norm()
    assert np.max(np.abs(clean - noisy)) < bound


# --------------------------------------------------------------------------
# energy identity and positivity
# --------------------------------------------------------------------------


def _random_fields(quad, seed):
    rng = np.random.default_rng(seed)
    g = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2))
                           + 1j * rng.normal(size=(quad.n_nodes, 2)))
    h = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2))
                           + 1j * rng.normal(size=(quad.n_nodes, 2)))
    return g, h


def test_energy_identity_real_index():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    A = assemble("ELECTRIC", BALL2, 1.0, quad)
    g, h = _random_fields(quad, 0)
    res = energy_identity_residual(A, g, h, BALL2)
    assert abs(res) < 1e-10


def test_energy_identity_absorbing():
    # full-pipeline consistency: far field quadratic form against the
    # independent interior radial integrals, complex index
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    A = assemble("ELECTRIC", ABSORB, 1.0, quad)
    g, h = _random_fields(quad, 1)
    res = energy_identity_residual(A, g, h, ABSORB)
    assert abs(res) < 1e-9


def test_energy_identity_absorbing_layered():
    med = MediumSpec(((0.5, 3.0 + 1.0j), (1.0, 2.0 + 0.5j)))
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    A = assemble("ELECTRIC", med, 1.1, quad)
    g, h = _random_fields(quad, 2)
    res = energy_identity_residual(A, g, h, med)
    assert abs(res) < 1e-9


def test_energy_identity_diagonal_choice():
    # g = h reduces the right side to -4 pi Re(Ag, g) - ||Ag||^2, which is
    # (2 pi)^2 - |2 pi + lambda-weighted sum|^2 style positivity
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    A = assemble("ELECTRIC", ABSORB, 1.0, quad)
    g, _ = _random_fields(quad, 3)
    r1 = energy_identity_residual(A, g, g, ABSORB)
    assert abs(r1) < 1e-9


def test_lidski_positivity_real_and_absorbing():
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    for med in (BALL2, ABSORB):
        A = assemble("ELECTRIC", med, 1.0, quad)
        worst = lidski_positivity(A, samples=24, seed=2)
        assert worst > -1e-12
    # determinism of the sampled minimum
    A = assemble("ELECTRIC", BALL2, 1.0, quad)
    assert lidski_positivity(A, samples=8, seed=5) == lidski_positivity(A, samples=8, seed=5)


# --------------------------------------------------------------------------
# phase tracking
# --------------------------------------------------------------------------


def test_phase_track_flags_transmission_eigenvalue():
    # for the n = 4 ball the smallest transmission eigenvalue is exactly pi;
    # the -1 phase cluster indicator must dip there and only there
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    track = phase_track(BALL4, grid_points(3.06, 3.22, 0.04), quad)
    assert track.ks.size == 5
    i_mid = 2  # k = 3.14
    assert track.dip_minus[i_mid] < 0.01
    assert track.dip_minus[i_mid] == track.dip_minus.min()
    assert track.dip_minus[0] > 5 * track.dip_minus[i_mid]
    assert track.dip_minus[-1] > 5 * track.dip_minus[i_mid]
    # for n > 1 the small-mode phases pile up at +1, so dip_plus stays flat
    assert np.max(track.dip_plus) < 1e-3


def test_phase_track_other_branch_low_contrast():
    # for n = 1/4 the first transmission eigenvalue is exactly 2 pi and the
    # phases accumulate at -1 instead, so the +1 indicator is the live one.
    # The dip is one sided: the responsible eigenvalue walks into +1 as
    # k goes up to 2 pi, vanishes there (dropping below the floor), and
    # re-emerges on the far side of the origin.
    quad = build_quadrature("PRODUCT_GAUSS", 14)
    med = MediumSpec.ball(1.0, 0.25)
    k0 = 2 * np.pi
    track = phase_track(med, grid_points(k0 - 0.03, k0 + 0.03, 0.01), quad)
    left = track.dip_plus[:3]  # strictly below 2 pi
    assert left.min() <= 0.01
    assert np.all(np.diff(left) < 0)  # closing in on +1 as k -> 2 pi
    assert track.dip_plus[0] > 2 * left.min()
    assert np.max(track.dip_minus) < 1e-3


def _kept(vals, floor=1e-6):
    return vals[np.abs(vals) >= floor * np.abs(vals).max()]


def _assert_same_multiset(a, b, tol):
    # clusters split where sorted moduli jump by more than tol; inside each,
    # an assignment pairs the two sets and every pair must lie within tol
    vals = np.concatenate([a, b])
    side = np.repeat([0, 1], [a.size, b.size])
    order = np.argsort(np.abs(vals))
    cuts = np.flatnonzero(np.diff(np.abs(vals[order])) > tol) + 1
    for idx in np.split(order, cuts):
        ca, cb = vals[idx][side[idx] == 0], vals[idx][side[idx] == 1]
        assert ca.size == cb.size
        rows, cols = linear_sum_assignment(np.abs(ca[:, None] - cb[None, :]))
        assert np.max(np.abs(ca[rows] - cb[cols])) <= tol


@pytest.mark.parametrize("rule,order", [("PRODUCT_GAUSS", 6), ("PRODUCT_GAUSS", 10),
                                        ("PRODUCT_GAUSS", 12)])
@pytest.mark.parametrize("kind,scene", [("ELECTRIC", LOSSY), ("MAGNETIC", LOSSY),
                                        ("IMPEDANCE", IMP), ("MODIFIED", (LOSSY, IMP))])
def test_block_eig_matches_dense_eig(rule, order, kind, scene):
    # 6x12 aliases: the truncation degree L = 14 exceeds the rule's exactness t = 11
    quad = build_quadrature(rule, order)
    A = assemble(kind, scene, 2.5, quad)
    es = eig(assemble_blocks(kind, scene, 2.5, quad))
    dense = eig(A)
    assert es.kind == kind and es.k == 2.5 and es.values.size == dense.values.size == A.matrix.shape[0]
    _assert_same_multiset(es.values, dense.values, 1e-12 * np.abs(A.matrix).max())


def _by_magnitude(vals):
    """Indices of eig's order: decreasing |lambda|, ties by (re, im)."""
    return np.lexsort((vals.imag, vals.real, -np.abs(vals)))


@pytest.mark.parametrize("order,scene,k", [(12, BALL4, 3.12), (10, ABSORB, 1.0)],
                         ids=["n4-12x24", "absorbing-10x20"])
@pytest.mark.parametrize("kind", ["ELECTRIC", "MAGNETIC"])
def test_eig_of_the_unique_blocks_equals_eig_of_every_block(order, scene, k, kind):
    # eig solves blocks 0..n_phi/2 and copies the mirror blocks' values; zgeev
    # gives S B S the same values as B
    B = assemble_blocks(kind, scene, k, build_quadrature("PRODUCT_GAUSS", order))
    every = scipy.linalg.eigvals(B.matrix).ravel()
    assert eig(B).values.tobytes() == every[_by_magnitude(every)].tobytes()


def test_eig_rejects_blocks_that_are_not_mirrors():
    # eig reads the mirror blocks off their twins, so a hand-made stack that is
    # not mirror-symmetric would give a wrong spectrum; one changed entry raises
    B = assemble_blocks("MAGNETIC", BALL2, 1.0, build_quadrature("PRODUCT_GAUSS", 4))
    bent = replace(B, matrix=B.matrix.copy())
    bent.matrix[7, 0, 1] *= 1.0 + 1e-15
    with pytest.raises(ValueError, match="not mirror-symmetric"):
        eig(bent)
    assert eig(B).values.size == 64  # 2N on the 4x8 rule


def test_eig_of_the_default_ffop_eigs_operator_holds_no_dense_array():
    # the clean 16x32 electric operator of the CLI's default scene: eig holds the
    # values of its 17 unique blocks, not a (2N)^2 array of node-space vectors
    B = assemble_blocks("ELECTRIC", BALL2, 1.0, build_quadrature("PRODUCT_GAUSS", 16))
    tracemalloc.start()
    try:
        eig(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_noisy_dense_eig_is_scipy_eigvals_in_eig_order():
    A = add_noise(assemble("MAGNETIC", LOSSY, 1.5, build_quadrature("PRODUCT_GAUSS", 6)), 0.01, 2)
    ref = scipy.linalg.eigvals(A.matrix)
    es = eig(A)
    assert es.values.tobytes() == ref[_by_magnitude(ref)].tobytes()
    assert (es.kind, es.k) == ("MAGNETIC", 1.5)


# the scene of tools/artifact_hashes.py with three absorbing layers
THREE_LAYER = MediumSpec(((0.4, 3.0 + 1.0j), (0.7, 1.5 + 0.2j), (1.0, 2.0 + 0.5j)))


@pytest.mark.parametrize("scene,k,count", [(BALL2, 1.0, 39), (BALL4, 3.1, 143), (THREE_LAYER, 1.0, 39)],
                         ids=["n2", "n4", "three_layer"])
@pytest.mark.parametrize("kind", ["ELECTRIC", "MAGNETIC"])
def test_spectrum_at_12x24_is_the_exact_modal_spectrum(scene, k, count, kind):
    # the operator is diagonal in the harmonics (docs section 6): 4 pi alpha_l and
    # 4 pi beta_l for ELECTRIC, -(4 pi i/k) times them for MAGNETIC, each 2l + 1 times
    coefs = mie_coefficients(scene, k)
    scale = 4.0 * np.pi if kind == "ELECTRIC" else -4.0j * np.pi / k
    copies = np.tile(2 * np.arange(coefs.L + 1) + 1, 2)
    modal = np.repeat(scale * np.concatenate([coefs.alpha, coefs.beta]), copies)
    vals = eig(assemble_blocks(kind, scene, k, build_quadrature("PRODUCT_GAUSS", 12))).values
    peak = np.abs(vals).max()
    got, want = vals[np.abs(vals) > 1e-6 * peak], modal[np.abs(modal) > 1e-6 * peak]
    assert got.size == want.size == count
    rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert np.max(np.abs(got[rows] - want[cols])) <= 1e-12 * peak


def test_phase_track_matches_dense_eigensolve():
    quad = build_quadrature("PRODUCT_GAUSS", 12)
    track = phase_track(BALL4, grid_points(3.12, 3.16, 0.01), quad)
    for i, k in enumerate(track.ks):
        kept = _kept(eig(assemble("MAGNETIC", BALL4, float(k), quad)).values)
        assert track.phases[i].size == kept.size
        dip = np.min(np.abs(kept / np.abs(kept) + 1.0))
        assert abs(track.dip_minus[i] - dip) <= 1e-10 * dip


def test_a_phase_track_sweep_solves_once_per_ladder_step_and_tabulates_once(monkeypatch):
    # five points over the degree step 30 -> 31, where k = 14.2 and 14.25 climb the Mie
    # ladder 30 -> 50 together: two solves of two tables each (interior, boundary), not
    # two per k, and one mode table, at degree 50
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    ks = grid_points(14.1, 14.3, 0.05)
    calls, builds = [], []
    riccati, vsh_tables = forward.riccati_all, ffop.vsh_tables
    monkeypatch.setattr(forward, "riccati_all", lambda *a: calls.append(a) or riccati(*a))
    monkeypatch.setattr(ffop, "vsh_tables", lambda *a: builds.append(a[0]) or vsh_tables(*a))
    ffop._mode_matrices.cache_clear()
    track = phase_track(BALL4, ks, quad)
    assert len(calls) == 4 and builds == [50]
    for k, phases in zip(ks, track.phases):
        vals = eig(ffop.far_field_operator("MAGNETIC", BALL4, float(k), quad)).values
        assert phases.tobytes() == (vals / np.abs(vals)).tobytes()


def test_phase_track_grid_and_floor():
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    for ks in ([], [0.0, 1.0], [1.0, -0.5], [np.inf], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="k grid must be finite, positive and nonempty"):
            phase_track(BALL2, ks, quad)
    for floor in (float("nan"), -0.5, 2.0):  # above 1 or NaN, no eigenvalue would be kept
        with pytest.raises(ValueError, match="floor"):
            phase_track(BALL2, grid_points(1.0, 1.1, 0.05), quad, floor=floor)
    track = phase_track(BALL2, grid_points(1.0, 1.1, 0.05), quad, floor=1e-3)
    loose = phase_track(BALL2, grid_points(1.0, 1.1, 0.05), quad, floor=1e-9)
    assert all(a.size <= b.size for a, b in zip(track.phases, loose.phases))
    assert np.all(np.abs(np.abs(np.concatenate(track.phases)) - 1.0) < 1e-12)


def test_phase_track_drops_zero_eigenvalues():
    # 0/0 phases used to make every dip nan: the vacuum's eigenvalues are all 0,
    # so the default floor's cut is 0 too
    vacuum = phase_track(MediumSpec.ball(1.0, 1.0), grid_points(3.1, 3.15, 0.05),
                         build_quadrature("PRODUCT_GAUSS", 4))
    assert [p.size for p in vacuum.phases] == [0, 0]
    assert np.all(vacuum.dip_minus == np.inf) and np.all(vacuum.dip_plus == np.inf)
    # at k = 3.1 the n = 4 ball truncates at degree 15 < 16, so block 16 of the
    # 16x32 rule holds 32 zero eigenvalues, which floor 0 used to keep
    quad = build_quadrature("PRODUCT_GAUSS", 16)
    track = phase_track(BALL4, [3.1], quad, floor=0.0)
    vals = eig(assemble_blocks("MAGNETIC", BALL4, 3.1, quad)).values
    assert np.count_nonzero(vals == 0) == 32
    assert track.phases[0].size == vals.size - 32
    assert np.isfinite(track.dip_minus[0]) and np.isfinite(track.dip_plus[0])
    assert np.all(np.abs(np.abs(track.phases[0]) - 1.0) < 1e-12)


def test_grid_points_rejections():
    # an infinite step used to give an empty grid, an infinite hi or a finite grid
    # of too many points an OverflowError
    inf = np.inf
    for lo, hi, step, cause in ((1.0, 1.0, 0.1, "lo < hi"), (2.0, 1.0, 0.1, "lo < hi"),
                                (0.0, 1.0, 0.0, "step must be positive"),
                                (0.0, 1.0, -0.1, "step must be positive"),
                                (0.0, 1.0, inf, "finite"), (0.0, inf, 1.0, "finite"),
                                (-inf, 1.0, 1.0, "finite"), (np.nan, 1.0, 0.1, "finite"),
                                (0.0, np.nan, 0.1, "finite"), (0.0, 1.0, np.nan, "finite"),
                                (0.0, 1e300, 1e-300, "inf points"),
                                (-1e308, 1e308, 1.0, "inf points"),
                                (0.0, 1.0, 1e-8, "1e\\+08 points")):
        with pytest.raises(ValueError, match=f"grid.*{cause}"):
            grid_points(lo, hi, step)
    assert_allclose(grid_points(0.0, 1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SCATSIG_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.setenv("SCATSIG_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.delenv("SCATSIG_THREADS")
    assert 1 <= worker_count() <= 4


# --------------------------------------------------------------------------
# exports
# --------------------------------------------------------------------------


def test_phase_track_csv():
    quad = build_quadrature("PRODUCT_GAUSS", 5)
    track = phase_track(BALL2, grid_points(1.0, 1.05, 0.05), quad)
    lines = phase_track_to_csv(track).splitlines()
    assert lines[0] == "k,dip_minus,dip_plus,n_kept"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 1.0 and int(row[3]) == track.phases[0].size
