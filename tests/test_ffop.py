"""Quadrature rules, tangential fields, operator assembly and serialization."""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scatsig.ffop import (
    KINDS,
    FarFieldMatrix,
    SphereQuadrature,
    TangentVectorField,
    add_noise,
    adjoint,
    assemble,
    build_quadrature,
    csv_text,
    inner_product,
    load_ffop,
    save_ffop,
)
from scatsig.forward import (
    ImpedanceBall,
    MediumSpec,
    electric_far_field,
    impedance_far_field_kernel,
    magnetic_far_field_kernel,
)
from scatsig.sphfun import mode_list, vsh_tables

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
    _, Y, _, _ = vsh_tables(quad.t, quad.nodes)
    integrals = Y @ quad.weights
    # all l >= 1 harmonics integrate to zero at degree <= t
    assert np.max(np.abs(integrals)) < 1e-13
    # and pairwise products (degree sum <= t) reproduce orthonormality
    _, Y7, _, _ = vsh_tables(7, quad.nodes)
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
    back = TangentVectorField.from_vectors(quad, g.vectors())
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
    cols = rng.choice(A.dim, size=6, replace=False)
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
    with pytest.raises(ValueError):
        add_noise(A, -0.1, seed=0)
    for seed, stream in ((-1, 0), (1, -1), (2**64, 0)):
        with pytest.raises(ValueError, match="noise seed"):
            add_noise(A, 0.05, seed=seed, stream=stream)


# --------------------------------------------------------------------------
# weighted geometry
# --------------------------------------------------------------------------


def test_adjoint_identity():
    quad = build_quadrature("PRODUCT_GAUSS", 6)
    A = assemble("MODIFIED", (BALL2, IMP), 1.5, quad)
    As = adjoint(A)
    rng = np.random.default_rng(5)
    u = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2))
                           + 1j * rng.normal(size=(quad.n_nodes, 2)))
    v = TangentVectorField(quad, rng.normal(size=(quad.n_nodes, 2))
                           + 1j * rng.normal(size=(quad.n_nodes, 2)))
    lhs = inner_product(A.apply(u), v)
    rhs = inner_product(u, As.apply(v))
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1e-30)
    assert_allclose(adjoint(As).matrix, A.matrix, rtol=0, atol=1e-13 * np.abs(A.matrix).max())


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
    assert B.medium is None and B.ball is None
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
