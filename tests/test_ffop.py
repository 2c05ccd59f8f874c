"""Quadrature rules, tangential fields, operator assembly and serialization."""

import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scatsig import ffop
from scatsig.ffop import (
    _EIGVALSH_MAX_ROWS,
    KINDS,
    _block_gather,
    _candidate_blocks,
    FarFieldBlocks,
    FarFieldMatrix,
    SphereQuadrature,
    TangentVectorField,
    add_noise,
    assemble,
    assemble_blocks,
    build_quadrature,
    csv_text,
    gram_lower,
    gram_norm,
    inner_product,
    load_ffop,
    save_ffop,
)
from scatsig.forward import ConvergenceError, ImpedanceBall, MediumSpec
from scatsig.sphfun import mode_list, vsh_tables

from block_oracle import azimuthal_blocks, full_node_modal_sum, gather_expansion
from field_oracle import (
    electric_far_field,
    from_vectors,
    impedance_far_field_kernel,
    magnetic_far_field_kernel,
)

BALL2 = MediumSpec.ball(1.0, 2.0)
IMP = ImpedanceBall(R=1.0, lam=2.0, s_kind="CURL_CURL")


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------


def test_product_gauss_basic():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    assert quad.n_nodes == 8 * 16
    assert quad.t == 15
    assert_allclose(quad.weights.sum(), 4 * np.pi, rtol=1e-14)
    assert_allclose(np.linalg.norm(quad.nodes, axis=1), 1.0, rtol=1e-14)


def test_product_gauss_harmonic_exactness():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    Y, _, _ = vsh_tables(quad.t, quad.nodes)
    integrals = Y @ quad.weights
    # all l >= 1 harmonics integrate to zero at degree <= t
    assert np.max(np.abs(integrals)) < 1e-13
    # and pairwise products (degree sum <= t) reproduce orthonormality
    Y7, _, _ = vsh_tables(7, quad.nodes)
    gram = (Y7 * quad.weights) @ Y7.conj().T
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_equal_area_basic():
    quad = build_quadrature("EQUAL_AREA", 6)
    assert quad.n_nodes == 6 * 12
    assert quad.t == 1
    assert_allclose(quad.weights.sum(), 4 * np.pi, rtol=1e-14)
    # every node in a band gets the same weight
    assert len(np.unique(np.round(quad.weights, 14))) == 1
    # linear exactness in z
    assert abs(np.sum(quad.weights * quad.nodes[:, 2])) < 1e-13


def test_frames_orthonormal_tangent():
    for kind in ("PRODUCT_GAUSS", "EQUAL_AREA"):
        quad = build_quadrature(kind, 5)
        assert np.max(np.abs(np.einsum("jc,jc->j", quad.e1, quad.e2))) < 1e-13
        assert_allclose(np.linalg.norm(quad.e1, axis=1), 1.0, rtol=1e-13)
        assert_allclose(np.linalg.norm(quad.e2, axis=1), 1.0, rtol=1e-13)
        assert np.max(np.abs(np.einsum("jc,jc->j", quad.e1, quad.nodes))) < 1e-13
        assert np.max(np.abs(np.einsum("jc,jc->j", quad.e2, quad.nodes))) < 1e-13


def test_quadrature_validation():
    with pytest.raises(ValueError):
        build_quadrature("PRODUCT_GAUSS", 3)
    with pytest.raises(ValueError):
        build_quadrature("LEBEDEV", 8)


# --------------------------------------------------------------------------
# tangential fields
# --------------------------------------------------------------------------


def test_field_round_trips():
    quad = build_quadrature("PRODUCT_GAUSS", 5)
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(quad.n_nodes, 2)) + 1j * rng.normal(size=(quad.n_nodes, 2))
    g = TangentVectorField(quad, coeffs)
    back = from_vectors(quad, g.vectors())
    assert_allclose(back.coeffs, coeffs, rtol=1e-14)
    assert_allclose(TangentVectorField.from_flat(quad, g.flat()).coeffs, coeffs, rtol=0)
    assert g.flat()[2 * 3 + 1] == coeffs[3, 1]


def test_norm_matches_inner_product():
    quad = build_quadrature("PRODUCT_GAUSS", 5)
    rng = np.random.default_rng(1)
    g = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2)) + 0j)
    ip = inner_product(g, g)
    assert_allclose(g.norm() ** 2, ip.real, rtol=1e-13)
    assert abs(ip.imag) < 1e-15 * abs(ip.real)


def test_field_shape_validation():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    with pytest.raises(ValueError):
        TangentVectorField(quad, np.zeros((3, 2)))


# --------------------------------------------------------------------------
# assembly against the pointwise far field kernels
# --------------------------------------------------------------------------


def _column_reference(kernel_fn, quad, col):
    j, t = divmod(col, 2)
    d = quad.nodes[j]
    p = (quad.e1 if t == 0 else quad.e2)[j]
    ff = kernel_fn(d, p, quad.nodes)  # (N, 3)
    return quad.weights[j] * quad.frame_components(ff).reshape(-1)


@pytest.mark.parametrize("kind", KINDS)
def test_assembly_matches_pointwise_kernel(kind):
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    k = 1.5
    scene = {
        "ELECTRIC": BALL2,
        "MAGNETIC": BALL2,
        "IMPEDANCE": IMP,
        "MODIFIED": (BALL2, IMP),
    }[kind]
    A = assemble(kind, scene, k, quad)
    if kind == "ELECTRIC":
        kfn = lambda d, p, xh: electric_far_field(BALL2, k, d, p, xh)
    elif kind == "MAGNETIC":
        kfn = lambda d, p, xh: magnetic_far_field_kernel(BALL2, k, d, p, xh)
    elif kind == "IMPEDANCE":
        kfn = lambda d, p, xh: impedance_far_field_kernel(IMP, k, d, p, xh)
    else:
        kfn = lambda d, p, xh: (
            magnetic_far_field_kernel(BALL2, k, d, p, xh)
            - impedance_far_field_kernel(IMP, k, d, p, xh)
        )
    rng = np.random.default_rng(7)
    cols = rng.choice(A.matrix.shape[0], size=6, replace=False)
    scale = np.abs(A.matrix).max()
    for col in cols:
        ref = _column_reference(kfn, quad, int(col))
        assert np.max(np.abs(A.matrix[:, col] - ref)) < 1e-12 * scale


def test_apply_matches_quadrature_sum():
    quad = build_quadrature("PRODUCT_GAUSS", 5)
    k = 1.2
    A = assemble("ELECTRIC", BALL2, k, quad)
    rng = np.random.default_rng(3)
    g = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2))
                           + 1j * rng.normal(size=(quad.n_nodes, 2)))
    vecs = g.vectors()
    direct = np.zeros((quad.n_nodes, 3), dtype=complex)
    for j in range(quad.n_nodes):
        direct += quad.weights[j] * electric_far_field(BALL2, k, quad.nodes[j], vecs[j], quad.nodes)
    got = A.apply(g)
    assert_allclose(got.coeffs, quad.frame_components(direct), rtol=0,
                    atol=1e-12 * np.abs(direct).max())


def test_electric_eigenvalues_are_modal():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    k = 1.0
    A = assemble("ELECTRIC", BALL2, k, quad)
    from scatsig.forward import mie_coefficients

    coefs = mie_coefficients(BALL2, k)
    expected = []
    for l in range(1, 7):  # well-resolved modes at this rule
        expected += [4 * np.pi * coefs.alpha[l]] * (2 * l + 1)
        expected += [4 * np.pi * coefs.beta[l]] * (2 * l + 1)
    expected = np.array(sorted(expected, key=lambda z: -abs(z)))
    eigs = np.linalg.eigvals(A.matrix)
    eigs = eigs[np.argsort(-np.abs(eigs))][: expected.size]
    # match as multisets
    eigs = np.array(sorted(eigs, key=lambda z: (-abs(z), z.real, z.imag)))
    expected = np.array(sorted(expected, key=lambda z: (-abs(z), z.real, z.imag)))
    assert np.max(np.abs(eigs - expected)) < 1e-10 * abs(expected[0])


def test_modified_is_difference():
    quad = build_quadrature("PRODUCT_GAUSS", 5)
    k = 1.5
    am = assemble("MAGNETIC", BALL2, k, quad)
    ai = assemble("IMPEDANCE", IMP, k, quad)
    amod = assemble("MODIFIED", (BALL2, IMP), k, quad)
    assert_allclose(amod.matrix, am.matrix - ai.matrix, rtol=0, atol=1e-14)


@pytest.mark.parametrize("rule,order", [("PRODUCT_GAUSS", 6), ("EQUAL_AREA", 8)])
def test_far_field_operator_equals_the_assembly_idioms_byte_for_byte(rule, order):
    # clean data are the blocks of assemble_blocks, noisy data add_noise of the dense assemble
    quad = build_quadrature(rule, order)
    for kind, scene in (("MAGNETIC", BALL2), ("MODIFIED", (BALL2, IMP))):
        clean = ffop.far_field_operator(kind, scene, 1.5, quad)
        assert isinstance(clean, FarFieldBlocks) and clean.kind == kind
        assert clean.matrix.tobytes() == assemble_blocks(kind, scene, 1.5, quad).matrix.tobytes()
        for stream in (0, 3):
            noisy = ffop.far_field_operator(kind, scene, 1.5, quad, 0.01, 5, stream)
            ref = add_noise(assemble(kind, scene, 1.5, quad), 0.01, 5, stream)
            assert isinstance(noisy, FarFieldMatrix)
            assert noisy.matrix.tobytes() == ref.matrix.tobytes()
            assert (noisy.kind, noisy.noise_eps, noisy.seed) == (kind, 0.01, 5)


@pytest.mark.parametrize("s_kind", ["IDENTITY", "CURL_CURL"])
def test_modified_operator_subtracts_the_impedance_operator_in_the_form_of_its_input(s_kind):
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    ball = ImpedanceBall(R=1.2, lam=-1.5 + 0.3j, s_kind=s_kind)
    magnetic = assemble_blocks("MAGNETIC", BALL2, 1.5, quad)
    out = ffop.modified_operator(magnetic, ball)
    ref = magnetic.matrix - assemble_blocks("IMPEDANCE", ball, 1.5, quad).matrix
    assert isinstance(out, FarFieldBlocks) and (out.kind, out.k) == ("MODIFIED", 1.5)
    assert out.matrix.tobytes() == ref.tobytes()
    # a noisy dense F_m keeps its noise level, seed and medium, and its own matrix
    noisy = add_noise(assemble("MAGNETIC", BALL2, 1.5, quad), 0.01, 5, 3)
    before = noisy.matrix.copy()
    out = ffop.modified_operator(noisy, ball)
    ref = noisy.matrix - assemble("IMPEDANCE", ball, 1.5, quad).matrix
    assert isinstance(out, FarFieldMatrix) and out.matrix.tobytes() == ref.tobytes()
    assert (out.kind, out.noise_eps, out.seed) == ("MODIFIED", 0.01, 5) and out.medium is BALL2
    assert np.array_equal(noisy.matrix, before)


def test_assemble_scene_type_errors():
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    with pytest.raises(TypeError):
        assemble("ELECTRIC", IMP, 1.0, quad)
    with pytest.raises(TypeError):
        assemble("IMPEDANCE", BALL2, 1.0, quad)
    with pytest.raises(TypeError):
        assemble("MODIFIED", (IMP, BALL2), 1.0, quad)
    with pytest.raises(ValueError):
        assemble("ACOUSTIC", BALL2, 1.0, quad)


def test_dense_only_calls_reject_block_operators(tmp_path):
    B = assemble_blocks("MAGNETIC", BALL2, 1.5, build_quadrature("PRODUCT_GAUSS", 4))
    path = tmp_path / "op.ffop"
    for call in (lambda: add_noise(B, 0.01, 1), lambda: save_ffop(B, path)):
        with pytest.raises(TypeError, match="dense FarFieldMatrix, made with ffop.assemble"):
            call()
    assert not path.exists()


# --------------------------------------------------------------------------
# noise model
# --------------------------------------------------------------------------


def test_noise_statistics():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    A = assemble("ELECTRIC", BALL2, 1.0, quad)
    eps = 0.01
    An = add_noise(A, eps, seed=11)
    nz = np.abs(A.matrix) > 0
    dev = np.abs(An.matrix[nz] / A.matrix[nz] - 1.0)
    # |zeta + i mu|/sqrt(2) for independent U[-1,1] has mean ~ 0.54118
    assert abs(dev.mean() / eps - 0.54118) < 0.02
    assert dev.max() <= eps * (1 + 1e-12)
    assert An.noise_eps == eps and An.seed == 11


def test_noise_deterministic_and_zero_copy():
    quad = build_quadrature("PRODUCT_GAUSS", 5)
    A = assemble("MAGNETIC", BALL2, 1.3, quad)
    n1 = add_noise(A, 0.05, seed=4)
    n2 = add_noise(A, 0.05, seed=4)
    assert np.array_equal(n1.matrix, n2.matrix)
    n3 = add_noise(A, 0.05, seed=5)
    assert not np.array_equal(n1.matrix, n3.matrix)
    # stream 0 is the plain key; (4, 1) and (5, 0) are distinct keys
    assert np.array_equal(add_noise(A, 0.05, seed=4, stream=0).matrix, n1.matrix)
    n4 = add_noise(A, 0.05, seed=4, stream=1)
    assert not np.array_equal(n4.matrix, n1.matrix)
    assert not np.array_equal(n4.matrix, n3.matrix)
    z = add_noise(A, 0.0, seed=4)
    assert np.array_equal(z.matrix, A.matrix) and z.matrix is not A.matrix
    for eps in (-0.1, np.nan, np.inf):  # nan and inf used to give an all-NaN operator
        with pytest.raises(ValueError, match="noise level eps"):
            add_noise(A, eps, seed=0)
    for seed, stream in ((-1, 0), (1, -1), (2**64, 0)):
        with pytest.raises(ValueError, match="noise seed"):
            add_noise(A, 0.05, seed=seed, stream=stream)


def test_add_noise_matches_the_complex_expression_bit_for_bit():
    # add_noise builds its factor in place; the bits are those of
    # A * (1 + eps (zeta + i mu) / sqrt(2)) in numpy's complex arithmetic
    quad = build_quadrature("PRODUCT_GAUSS", 4)
    gen = np.random.Generator(np.random.Philox(key=17))
    block = ffop._NOISE_ROWS
    row_counts = (block - 1, block, block + 1, 2 * block + 3)
    for draw in range(120 + len(row_counts)):
        seed, stream = (int(v) for v in gen.integers(0, 2**64, size=2, dtype=np.uint64))
        if draw < 2:
            seed, stream = (0, 0) if draw == 0 else (2**64 - 1, 2**64 - 1)
        eps = float(gen.choice([0.01, 1.0, 3.0])) if draw % 3 == 0 else float(gen.uniform(1e-4, 0.5))
        shape = tuple(int(v) for v in gen.integers(1, 40, size=2))
        if draw >= 120:
            # around the draw buffer's row block: one short, full, one over, two and a part
            shape = (row_counts[draw - 120], shape[1])
        mat = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        out = add_noise(FarFieldMatrix(mat, "CUSTOM", 1.0, quad), eps, seed, stream).matrix
        ref_gen = np.random.Generator(np.random.Philox(key=[seed, stream]))
        zeta = ref_gen.uniform(-1.0, 1.0, size=shape)
        mu = ref_gen.uniform(-1.0, 1.0, size=shape)
        ref = mat * (1.0 + eps * (zeta + 1j * mu) / np.sqrt(2.0))
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64)), (seed, stream, eps, shape)


# --------------------------------------------------------------------------
# azimuthal blocks
# --------------------------------------------------------------------------


def test_azimuthal_blocks_guard(tmp_path):
    quad = build_quadrature("PRODUCT_GAUSS", 5)
    A = assemble("MAGNETIC", BALL2, 1.5, quad)
    assert azimuthal_blocks(A).shape == (10, 10, 10)
    with pytest.raises(RuntimeError, match="MAGNETIC operator at k = 1.5"):
        azimuthal_blocks(add_noise(A, 0.01, 1))
    mat = A.matrix.copy()
    mat[7, 40] += 1e-10 * np.abs(mat).max()
    with pytest.raises(RuntimeError, match="block-circulant"):
        azimuthal_blocks(FarFieldMatrix(mat, A.kind, A.k, quad))
    path = tmp_path / "op.ffop"
    save_ffop(A, path)
    with pytest.raises(ValueError, match="product rule"):
        azimuthal_blocks(load_ffop(path))
    with pytest.raises(ValueError, match="does not fit"):
        azimuthal_blocks(FarFieldMatrix(A.matrix[:-2, :-2], A.kind, A.k, quad))
    with pytest.raises(ValueError, match="product rule"):
        assemble_blocks("MAGNETIC", BALL2, 1.5, load_ffop(path).quad)
    with pytest.raises(TypeError, match="MediumSpec"):
        assemble_blocks("MAGNETIC", IMP, 1.5, quad)


LOSSY = MediumSpec.ball(1.0, 2.0 + 0.5j)


ORACLE_RULES = pytest.mark.parametrize("rule,order", [("PRODUCT_GAUSS", 6), ("PRODUCT_GAUSS", 10),
                                                      ("PRODUCT_GAUSS", 12), ("EQUAL_AREA", 8)])
ORACLE_KINDS = pytest.mark.parametrize("kind,scene", [("ELECTRIC", LOSSY), ("MAGNETIC", LOSSY),
                                                      ("IMPEDANCE", IMP), ("MODIFIED", (LOSSY, IMP))])


@ORACLE_RULES
@ORACLE_KINDS
def test_assemble_matches_full_node_modal_sum(rule, order, kind, scene):
    # the dense matrix is the circulant expansion of the blocks; the oracle
    # sums the modes over every node without the rotation symmetry
    quad = build_quadrature(rule, order)
    ref = full_node_modal_sum(kind, scene, 2.5, quad)
    A = assemble(kind, scene, 2.5, quad)
    assert A.matrix.shape == ref.shape
    assert np.max(np.abs(A.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))


@ORACLE_RULES
@ORACLE_KINDS
def test_assemble_blocks_match_split_dense_matrix(rule, order, kind, scene):
    # at 6x12 the truncation degree L = 14 reaches |m| >= n_phi / 2 = 6, so
    # several m alias into one block; block q is the dense split's block -q
    quad = build_quadrature(rule, order)
    A = FarFieldMatrix(full_node_modal_sum(kind, scene, 2.5, quad), kind, 2.5, quad)
    B = assemble_blocks(kind, scene, 2.5, quad)
    n_phi = 2 * order
    assert B.matrix.shape == (n_phi, 2 * order, 2 * order)
    ref = azimuthal_blocks(A)[-np.arange(n_phi) % n_phi]
    assert np.max(np.abs(B.matrix - ref)) <= 1e-13 * np.max(np.abs(A.matrix))
    # the DFT pair carries node-space columns into the blocks and back
    x = np.random.default_rng(order).standard_normal((A.matrix.shape[0], 3)) + 0j
    y = B.to_nodes(B.matrix @ B.to_blocks(x))
    assert_allclose(y, A.matrix @ x, rtol=0, atol=1e-13 * np.abs(A.matrix @ x).max())


@pytest.mark.parametrize("rule,order", [("PRODUCT_GAUSS", 6), ("PRODUCT_GAUSS", 12),
                                        ("EQUAL_AREA", 8)])
@ORACLE_KINDS
def test_strided_expansion_equals_the_index_gather_byte_for_byte(rule, order, kind, scene):
    quad = build_quadrature(rule, order)
    ref = gather_expansion(assemble_blocks(kind, scene, 2.5, quad).matrix, quad)
    assert assemble(kind, scene, 2.5, quad).matrix.tobytes() == ref.tobytes()


def test_dense_assemble_peaks_below_1_2_dense_arrays():
    # the strided expansion writes the output once; the gather it replaced
    # held the (p, p', ...) array and its transposed copy, 2.08 arrays
    quad = build_quadrature("PRODUCT_GAUSS", 12)
    scene = MediumSpec.ball(1.0, 4.0)
    assemble("MAGNETIC", scene, 3.1, quad)  # warm-up: the cached mode tables
    tracemalloc.start()
    try:
        assemble("MAGNETIC", scene, 3.1, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (2 * quad.n_nodes) ** 2 * 16


@pytest.mark.parametrize("L,n_phi", [(5, 12), (14, 12), (15, 24)])
def test_block_gather_places_every_mode_once_in_its_block(L, n_phi):
    deg, idx, valid = _block_gather(L, n_phi)
    assert _block_gather(L, n_phi)[1] is idx
    assert not any(a.flags.writeable for a in (deg, idx, valid))
    ell, m = mode_list(L)
    assert sorted(idx[valid].tolist()) == list(range(ell.size))
    q, _ = np.nonzero(valid)
    assert np.array_equal(m[idx[valid]] % n_phi, q)
    assert np.array_equal(ell[idx[valid]], deg[valid])


def test_assembly_rejects_a_frame_that_breaks_the_rotation_layout(tmp_path):
    # a rule labelled PRODUCT_GAUSS whose frames do not rotate with the
    # node would expand into a wrong dense matrix; both kernels refuse it
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    gamma = np.linspace(0.0, 1e-6, quad.n_nodes)[:, None]
    e1 = np.cos(gamma) * quad.e1 + np.sin(gamma) * quad.e2
    e2 = -np.sin(gamma) * quad.e1 + np.cos(gamma) * quad.e2
    bent = SphereQuadrature(kind=quad.kind, order=quad.order, nodes=quad.nodes,
                            weights=quad.weights, e1=e1, e2=e2, t=quad.t)
    for build in (assemble, assemble_blocks):
        with pytest.raises(ValueError, match="PRODUCT_GAUSS quadrature of order 6 is not its "
                                             "azimuth-0 meridian rotated"):
            build("MAGNETIC", BALL2, 1.5, bent)
    short = SphereQuadrature(kind=quad.kind, order=quad.order, nodes=quad.nodes[:-1],
                             weights=quad.weights[:-1], e1=quad.e1[:-1], e2=quad.e2[:-1], t=quad.t)
    with pytest.raises(ValueError, match="has 71 nodes, its 6x12 layout needs 72"):
        assemble("MAGNETIC", BALL2, 1.5, short)
    # an operator file keeps its geometry as a CUSTOM rule, which has no layout to expand
    save_ffop(assemble("MAGNETIC", BALL2, 1.5, quad), tmp_path / "op.ffop")
    with pytest.raises(ValueError, match="product rule, got a CUSTOM quadrature"):
        assemble("MAGNETIC", BALL2, 1.5, load_ffop(tmp_path / "op.ffop").quad)


# --------------------------------------------------------------------------
# weighted geometry
# --------------------------------------------------------------------------


def test_noisy_operator_norm_matches_svdvals():
    # a noisy 12x24 operator has no block form, and its top singular values
    # are split clusters that a capped power iteration does not resolve
    quad = build_quadrature("PRODUCT_GAUSS", 12)
    A = add_noise(assemble("MAGNETIC", MediumSpec.ball(1.0, 4.0), 3.1, quad), 0.01, 3)
    sq = np.sqrt(A.weight_vector())
    ref = scipy.linalg.svdvals((sq[:, None] * A.matrix) / sq[None, :])[0]
    assert abs(A.operator_norm() - ref) <= 1e-12 * ref


@pytest.mark.parametrize("order", [4, 12])
def test_gram_norm_reads_only_the_lower_triangle(order):
    # 64 rows take the eigvalsh branch, 576 rows the Lanczos one
    quad = build_quadrature("PRODUCT_GAUSS", order)
    A = add_noise(assemble("MAGNETIC", MediumSpec.ball(1.0, 4.0), 3.1, quad), 0.01, 3)
    w = A.weight_vector()
    full = A.matrix.conj().T @ (w[:, None] * A.matrix)
    lower = gram_lower(np.sqrt(w)[:, None] * A.matrix)
    assert_allclose(np.tril(lower), np.tril(full), rtol=0, atol=1e-13 * np.abs(full).max())
    assert np.all(np.triu(lower, 1) == 0)
    lower[np.triu_indices(w.size, 1)] = np.nan
    ref = gram_norm(full, w)
    assert abs(gram_norm(lower, w) - ref) <= 1e-13 * ref
    assert gram_norm(lower[None], w) == gram_norm(lower, w)


def test_block_gram_norm_matches_dense_svdvals():
    quad = build_quadrature("PRODUCT_GAUSS", 8)
    A = assemble("MODIFIED", (LOSSY, IMP), 1.5, quad)
    sq = np.sqrt(A.weight_vector())
    ref = scipy.linalg.svdvals((sq[:, None] * A.matrix) / sq[None, :])[0]
    B = assemble_blocks("MODIFIED", (LOSSY, IMP), 1.5, quad)
    w = B.weight_vector()
    gram = B.matrix.conj().transpose(0, 2, 1) @ (w[:, None] * B.matrix)
    assert abs(gram_norm(gram, w) - ref) <= 1e-12 * ref


def _full_stack_norm(grams, w):
    # the batched eigvalsh over every block that gram_norm's candidate pruning replaces
    s = 1.0 / np.sqrt(w)
    top = np.linalg.eigvalsh(grams * s[:, None] * s[None, :])[:, -1].max()
    return np.float64(np.sqrt(max(top, 0.0)))


def _psd_stack(gen, n_blocks, m, scales):
    x = gen.standard_normal((n_blocks, m, m)) + 1j * gen.standard_normal((n_blocks, m, m))
    return (x.conj().transpose(0, 2, 1) @ x) * np.asarray(scales)[:, None, None]


def _norm_cases():
    gen = np.random.Generator(np.random.Philox(key=41))
    w = gen.uniform(0.05, 1.0, 12)
    spread = _psd_stack(gen, 20, 12, 10.0 ** gen.uniform(-8, 0, 20))
    tied = np.repeat(_psd_stack(gen, 1, 12, [1.0]), 6, axis=0)
    tied = np.concatenate([tied, _psd_stack(gen, 6, 12, np.full(6, 1e-3))])
    # with unit weights, block 5 is diag(lb, 0, ...): its Frobenius norm equals
    # the largest diagonal entry of the stack
    diagonal = _psd_stack(gen, 8, 12, np.full(8, 1e-4))
    diagonal[5] = 0.0
    diagonal[5, 3, 3] = 7.0
    diagonal[2] = np.diag(gen.uniform(0.0, 7.0, 12))
    nan_upper = _psd_stack(gen, 16, 12, 10.0 ** gen.uniform(-3, 0, 16))
    nan_upper[(slice(None),) + np.triu_indices(12, 1)] = np.nan
    return {
        "spread": (spread, w),
        "tied": (tied, w),
        "diagonal": (diagonal, np.ones(12)),
        "zero": (np.zeros((6, 12, 12), dtype=complex), w),
        "one": (_psd_stack(gen, 1, 12, [1.0]), w),
        "nan_upper": (nan_upper, w),
        "spread_unit_weights": (spread, np.ones(12)),
    }


@pytest.mark.parametrize("case", sorted(_norm_cases()))
def test_candidate_block_norm_equals_full_stack_eigvalsh_bit_for_bit(case):
    grams, w = _norm_cases()[case]
    got = np.float64(gram_norm(grams, w))
    ref = _full_stack_norm(grams, w)
    assert got.view(np.uint64) == ref.view(np.uint64), (case, got, ref)
    if case == "diagonal":
        assert ref == np.sqrt(7.0)
        assert _candidate_blocks(grams, w)[5]
    if case == "zero":
        assert ref == 0.0 and _candidate_blocks(grams, w).all()
    if case == "nan_upper":
        # the bounds read the lower triangles only, so NaN above them prunes as a full Gram would
        full = np.tril(grams) + np.conj(np.tril(grams, -1)).transpose(0, 2, 1)
        keep = _candidate_blocks(grams, w)
        assert 0 < keep.sum() < len(grams)
        np.testing.assert_array_equal(keep, _candidate_blocks(full, w))


@pytest.mark.parametrize("scene,blocks", [("stekloff_cell", 3), ("magnetic_12x24", 7)])
def test_clean_block_norm_runs_eigvalsh_on_the_candidate_blocks_only(monkeypatch, scene, blocks):
    if scene == "stekloff_cell":
        # one cell of the benchmark's Stekloff rectangle, formed as stekloff_scan does
        quad = build_quadrature("PRODUCT_GAUSS", 10)
        F_m = assemble_blocks("MAGNETIC", MediumSpec(layers=((1.0, 2.0 + 2.0j),)), 1.0, quad)
        F_s = assemble_blocks("IMPEDANCE", ImpedanceBall(R=1.0, lam=-1.6 + 0.45j), 1.0, quad)
        A = replace(F_m, matrix=F_m.matrix - F_s.matrix, kind="MODIFIED")
    else:
        quad = build_quadrature("PRODUCT_GAUSS", 12)
        A = assemble_blocks("MAGNETIC", MediumSpec.ball(1.0, 4.0), 3.1, quad)
    w = A.weight_vector()
    gram = A.matrix.conj().transpose(0, 2, 1) @ (w[:, None] * A.matrix)
    ref = _full_stack_norm(gram, w)
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    got = np.float64(gram_norm(gram, w))
    assert sizes == [blocks] and len(gram) == 2 * quad.order
    assert got.view(np.uint64) == ref.view(np.uint64)


@pytest.mark.parametrize("rule,order", [("PRODUCT_GAUSS", 6), ("PRODUCT_GAUSS", 8),
                                        ("EQUAL_AREA", 8)])
@pytest.mark.parametrize("kind,scene", [("ELECTRIC", BALL2), ("MAGNETIC", BALL2),
                                        ("IMPEDANCE", IMP), ("MODIFIED", (BALL2, IMP))])
def test_clean_dense_operator_norm_matches_svdvals(rule, order, kind, scene):
    # above _EIGVALSH_MAX_ROWS rows the dense norm runs Lanczos; a start vector
    # constant over azimuth lies in the frequency-0 block of a clean operator,
    # and from one of ones ELECTRIC at k = 5 on 8x16 did not converge at all
    quad = build_quadrature(rule, order)
    assert 2 * quad.n_nodes > _EIGVALSH_MAX_ROWS
    for k in (1.4, 3.1, 5.0):
        A = assemble(kind, scene, k, quad)
        sq = np.sqrt(A.weight_vector())
        ref = scipy.linalg.svdvals((sq[:, None] * A.matrix) / sq[None, :])[0]
        assert abs(A.operator_norm() - ref) <= 1e-12 * ref, k


class _RecordingArpack:
    """scipy's ARPACK extension with a hook on each dsaupd call of the Lanczos loop.

    It records every ido ARPACK returns, and each start vector the loop
    hands back after an ido 4.
    """

    def __init__(self, before=None):
        self.lib = ffop._arpacklib()
        self.before = before
        self.idos = []
        self.restarts = []
        self.dseupd_wrap = self.lib.dseupd_wrap

    def dsaupd_wrap(self, state, resid, *args):
        if self.before is not None:
            self.before(state)
        if self.idos and self.idos[-1] == 4:
            self.restarts.append(resid.copy())
        self.lib.dsaupd_wrap(state, resid, *args)
        self.idos.append(state["ido"])


def test_lanczos_non_convergence_is_a_convergence_error_naming_the_block(monkeypatch):
    # the second block's loop enters ARPACK with a budget of one restart
    entries = []

    def second_gets_one_iteration(state):
        if state["ido"] == 0:
            entries.append(1)
            if len(entries) == 2:
                state["maxiter"] = 1

    recording = _RecordingArpack(second_gets_one_iteration)
    monkeypatch.setattr(ffop, "_arpacklib", lambda: recording)
    gen = np.random.Generator(np.random.Philox(key=5))
    grams = _psd_stack(gen, 2, _EIGVALSH_MAX_ROWS + 2, [1.0, 1.0])
    with pytest.raises(ConvergenceError, match="block 1 "):
        gram_norm(grams, np.ones(_EIGVALSH_MAX_ROWS + 2))
    assert len(entries) == 2


def _dense_gram(A):
    w = A.weight_vector()
    return gram_lower(np.sqrt(w)[:, None] * A.matrix), w


@pytest.mark.parametrize("case", ["noisy_6x12", "noisy_12x24", "electric_8x16"])
def test_lanczos_loop_equals_eigsh_bit_for_bit(monkeypatch, case):
    # on Grams whose Lanczos run never restarts from a random vector (ido 4),
    # eigsh draws nothing unseeded, and the loop makes its calls on its arrays
    if case == "electric_8x16":
        A = assemble("ELECTRIC", BALL2, 5.0, build_quadrature("PRODUCT_GAUSS", 8))
    else:
        quad = build_quadrature("PRODUCT_GAUSS", 6 if case == "noisy_6x12" else 12)
        A = add_noise(assemble("MAGNETIC", MediumSpec.ball(1.0, 4.0), 3.1, quad), 0.01, seed=1)
    gram, w = _dense_gram(A)
    assert w.size > _EIGVALSH_MAX_ROWS
    recording = _RecordingArpack()
    monkeypatch.setattr(ffop, "_arpacklib", lambda: recording)
    got = np.float64(gram_norm(gram, w))
    assert recording.idos[-1] == 99 and 4 not in recording.idos
    monkeypatch.setattr(ffop, "_arpacklib", lambda: None)  # a scipy without _arpacklib
    ref = np.float64(gram_norm(gram, w))
    assert got.view(np.uint64) == ref.view(np.uint64)


def test_lanczos_hands_dseupd_a_1x1_eigenvector_array(monkeypatch):
    # ARPACK never reads z without eigenvectors; an (n, ncv) one cost 0.37 MB per norm at 12x24
    A = add_noise(assemble("MAGNETIC", MediumSpec.ball(1.0, 4.0), 3.1,
                           build_quadrature("PRODUCT_GAUSS", 6)), 0.01, seed=1)
    recording = _RecordingArpack()
    shapes = []

    def dseupd_wrap(*args):
        shapes.append(args[5].shape)
        return recording.lib.dseupd_wrap(*args)

    recording.dseupd_wrap = dseupd_wrap
    monkeypatch.setattr(ffop, "_arpacklib", lambda: recording)
    assert gram_norm(*_dense_gram(A)) > 0
    assert shapes == [(1, 1)]


def test_lanczos_restart_vectors_are_fixed_draws(monkeypatch):
    # a clean dense 10x20 cell of the benchmark's Stekloff window whose Lanczos
    # run asks for a fresh start vector, which eigsh draws unseeded
    quad = build_quadrature("PRODUCT_GAUSS", 10)
    F_m = assemble("MAGNETIC", MediumSpec.ball(1.0, 2.0 + 2.0j), 1.0, quad)
    F_s = assemble("IMPEDANCE", ImpedanceBall(R=1.0, lam=-1.98 - 0.02j), 1.0, quad)
    A = FarFieldMatrix(F_m.matrix - F_s.matrix, "MODIFIED", 1.0, quad)
    gram, w = _dense_gram(A)
    recording = _RecordingArpack()
    monkeypatch.setattr(ffop, "_arpacklib", lambda: recording)
    first = np.float64(gram_norm(gram, w))
    assert recording.idos.count(4) == 1
    # the restart is the draw after the start vector in the Philox stream of seed 0
    draws = np.random.Generator(np.random.Philox(0)).uniform(-1.0, 1.0, (2, 2 * w.size))
    assert np.array_equal(recording.restarts[0], draws[1])
    second = np.float64(gram_norm(gram, w))
    assert first.view(np.uint64) == second.view(np.uint64)
    sq = np.sqrt(w)
    ref = scipy.linalg.svdvals((sq[:, None] * A.matrix) / sq[None, :])[0]
    assert abs(first - ref) <= 1e-12 * ref


def test_arpack_module_loaded_by_file_is_the_one_scipy_sparse_imports():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from scatsig import ffop\n"
        "m = ffop._EIGVALSH_MAX_ROWS + 2\n"
        "x = np.random.Generator(np.random.Philox(3)).standard_normal((m, m)) + 0j\n"
        "assert ffop.gram_norm(x.T @ x, np.ones(m)) > 0\n"
        "loaded = sys.modules[ffop._ARPACKLIB]\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "import scipy.sparse.linalg\n"
        "from scipy.sparse.linalg._eigen.arpack import arpack\n"
        "assert arpack._arpacklib is loaded\n"
        "assert ffop._arpacklib() is loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_operator_norm_matches_svd():
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    A = assemble("ELECTRIC", BALL2, 1.4, quad)
    w = A.weight_vector()
    sq = np.sqrt(w)
    B = (sq[:, None] * A.matrix) / sq[None, :]
    ref = np.linalg.svd(B, compute_uv=False)[0]
    assert_allclose(A.operator_norm(), ref, rtol=1e-10)
    # norm dominates the weighted Rayleigh quotient of any field
    rng = np.random.default_rng(9)
    g = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2)) + 0j)
    assert A.apply(g).norm() <= A.operator_norm() * g.norm() * (1 + 1e-12)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    quad = build_quadrature("PRODUCT_GAUSS", 5)
    A = add_noise(assemble("MODIFIED", (BALL2, IMP), 1.5, quad), 0.01, seed=42)
    path = tmp_path / "op.ffop"
    save_ffop(A, path)
    B = load_ffop(path)
    assert np.array_equal(B.matrix, A.matrix)
    assert B.kind == "MODIFIED"
    assert B.k == A.k and B.noise_eps == 0.01 and B.seed == 42
    assert np.array_equal(B.quad.nodes, quad.nodes)
    assert np.array_equal(B.quad.weights, quad.weights)
    assert np.array_equal(B.quad.e1, quad.e1)
    assert np.array_equal(B.quad.e2, quad.e2)
    assert B.quad.t == quad.t
    assert B.medium is None
    # operators reloaded from disk still act correctly
    rng = np.random.default_rng(2)
    g = TangentVectorField(B.quad, rng.normal(size=(quad.n_nodes, 2)) + 0j)
    assert_allclose(B.apply(g).coeffs, A.apply(g).coeffs, rtol=0, atol=1e-15)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.ffop"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_ffop(path)
    path.write_bytes(struct.pack("<4sIBddQII", b"FFOP", 1, len(KINDS), 1.0, 0.0, 0, 0, 0))
    with pytest.raises(ValueError, match="kind code"):
        load_ffop(path)
    # header numbers no operator can have; eps = inf used to give an all-zero Tikhonov solution
    for k, eps in ((np.nan, 0.0), (-1.0, 0.0), (1.0, np.inf), (1.0, -0.5)):
        path.write_bytes(struct.pack("<4sIBddQII", b"FFOP", 1, 0, k, eps, 0, 0, 0))
        with pytest.raises(ValueError, match=f"holds k = {k} and noise level {eps}: k must be"):
            load_ffop(path)
    # a valid header for no nodes used to load as a 0x0 operator
    path.write_bytes(struct.pack("<4sIBddQII", b"FFOP", 1, 0, 1.0, 0.0, 0, 0, 0))
    with pytest.raises(ValueError, match="0 quadrature nodes"):
        load_ffop(path)


def _ffop_file_4x8():
    """The bytes of a save_ffop file of a noisy magnetic operator on the 4x8 rule."""
    A = add_noise(assemble("MAGNETIC", BALL2, 1.5, build_quadrature("PRODUCT_GAUSS", 4)), 0.01, 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "op.ffop")
        save_ffop(A, path)
        with open(path, "rb") as fh:
            return fh.read()


_FFOP_4X8 = _ffop_file_4x8()
_HEADER_SIZE = struct.calcsize("<4sIBddQII")


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(_FFOP_4X8)),
       pos=st.integers(min_value=0, max_value=_HEADER_SIZE - 1),
       byte=st.integers(min_value=0, max_value=255))
@example(cut=len(_FFOP_4X8), pos=12, byte=0x7F)  # k's top byte: k becomes huge or NaN
@example(cut=len(_FFOP_4X8), pos=36, byte=0xFF)  # N_q's top byte: 2^32 nodes at most
def test_a_damaged_operator_file_loads_or_raises_value_error(cut, pos, byte):
    # a truncated file, or one with any header byte replaced, either loads or
    # raises ValueError naming the cause: never struct.error, IndexError,
    # OverflowError or MemoryError
    damaged = bytearray(_FFOP_4X8)
    damaged[pos] = byte
    with tempfile.TemporaryDirectory() as tmp:
        for raw in (_FFOP_4X8[:cut], bytes(damaged)):
            path = os.path.join(tmp, "op.ffop")
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                A = load_ffop(path)
            except ValueError:
                continue
            assert A.matrix.shape == (64, 64) and A.kind in KINDS
            assert 0 < A.k < np.inf and 0 <= A.noise_eps < np.inf


@settings(max_examples=25, deadline=None)
@given(
    n_q=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(KINDS),
    k=st.floats(min_value=0.1, max_value=50.0),
    eps=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    tail=st.binary(min_size=1, max_size=64),
)
def test_file_round_trip_and_length_checks(n_q, kind, k, eps, seed, data_seed, tail):
    rng = np.random.default_rng(data_seed)
    quad = SphereQuadrature(
        kind="CUSTOM", order=0, nodes=rng.normal(size=(n_q, 3)),
        weights=rng.uniform(0.1, 1.0, n_q), e1=rng.normal(size=(n_q, 3)),
        e2=rng.normal(size=(n_q, 3)), t=int(rng.integers(0, 100)),
    )
    mat = rng.normal(size=(2 * n_q, 2 * n_q)) + 1j * rng.normal(size=(2 * n_q, 2 * n_q))
    A = FarFieldMatrix(mat, kind, k, quad, noise_eps=eps, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "op.ffop")
        save_ffop(A, path)
        B = load_ffop(path)
        assert np.array_equal(B.matrix, A.matrix)
        assert (B.kind, B.k, B.noise_eps, B.seed, B.quad.t) == (kind, k, eps, seed, quad.t)
        for name in ("nodes", "weights", "e1", "e2"):
            assert np.array_equal(getattr(B.quad, name), getattr(quad, name))
        with open(path, "rb") as fh:
            raw = fh.read()
        for cut in range(len(raw)):
            with open(path, "wb") as fh:
                fh.write(raw[:cut])
            with pytest.raises(ValueError, match="truncated"):
                load_ffop(path)
        with open(path, "wb") as fh:
            fh.write(raw + tail)
        with pytest.raises(ValueError, match="trailing bytes"):
            load_ffop(path)


def test_file_header_layout(tmp_path):
    import struct

    quad = build_quadrature("PRODUCT_GAUSS", 4)
    A = assemble("ELECTRIC", BALL2, 2.25, quad)
    path = tmp_path / "op.ffop"
    save_ffop(A, path)
    raw = path.read_bytes()
    magic, version, kind, k, eps, seed, n_q, t = struct.unpack_from("<4sIBddQII", raw)
    assert magic == b"FFOP" and version == 1
    assert kind == 0 and k == 2.25 and eps == 0.0 and seed == 0
    assert n_q == quad.n_nodes and t == quad.t
    hdr = struct.calcsize("<4sIBddQII")
    assert len(raw) == hdr + 8 * (n_q * (3 + 1 + 3 + 3) + 2 * (2 * n_q) ** 2)


# --------------------------------------------------------------------------
# CSV writer
# --------------------------------------------------------------------------


def _bits(v):
    return struct.pack("<d", v)


@settings(max_examples=60, deadline=None)
@given(
    reals=st.lists(st.floats(allow_nan=False), min_size=1, max_size=6),
    ints=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=3),
    z=st.complex_numbers(allow_nan=False),
)
@example(reals=[0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf], ints=[0, -1], z=complex(-0.0, 5e-324))
def test_csv_text_round_trip(reals, ints, z):
    # float cells read back bit-identical with float, int cells stay ints,
    # a complex cell parses back with complex
    row = [np.float64(reals[0])] + reals[1:] + [np.int64(ints[0])] + ints[1:] + [z]
    lines = csv_text(["c"] * len(row), [row], ["# note"]).split("\n")
    assert lines[0] == "# note" and lines[-1] == ""
    cells = lines[2].split(",")
    assert len(cells) == len(row)
    for cell, v in zip(cells[: len(reals)], reals):
        assert _bits(float(cell)) == _bits(v)
    for cell, v in zip(cells[len(reals): -1], ints):
        assert cell == str(v) and int(cell) == v
    assert complex(cells[-1]) == z
