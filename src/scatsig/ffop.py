"""Unit-sphere quadrature, tangential fields, and dense far field operators.

The discretization convention: a tangential field g is stored by its two
components in per-node orthonormal tangent frames, and an operator F
becomes the 2N x 2N matrix

    A[(i,s),(j,t)] = w_j * e^s_i . FF(xh_i; d = xh_j, p = e^t_j),

so that A applied to coefficient vectors approximates (F g)(xh_i) in the
frame components. Quadrature weights are folded into the matrix, which
makes matrix eigenvalues direct approximations of operator eigenvalues;
the price is that the L2 adjoint is the weight-conjugated transpose
W^-1 A^H W rather than the plain conjugate transpose (docs section 11).

Assembly never loops over matrix entries. Every operator kind is a sum
of rank-one mode products over the harmonics, and every scene is a ball
on a rule that is one meridian rotated about z, so the matrix is
block-circulant in the azimuth. One kernel, ``assemble_blocks``, sums
its azimuthal DFT blocks from mode tables on the azimuth-0 meridian;
the dense matrix of ``assemble`` is their circulant expansion (docs
section 12), which ``far_field_operator`` builds only for noisy data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
# numpy 2 loads these on first use; imported here, they load with the
# package rather than inside the first grid point of a timed call
import numpy.fft  # noqa: F401
import numpy.polynomial  # noqa: F401
import numpy.random  # noqa: F401

from . import _extension, forward
from .forward import ImpedanceBall, MediumSpec, impedance_coefficients, mie_coefficients
from .sphfun import mode_list, vsh_tables

KINDS = ("ELECTRIC", "MAGNETIC", "IMPEDANCE", "MODIFIED")
_KIND_CODE = {name: i for i, name in enumerate(KINDS)}

_FFOP_MAGIC = b"FFOP"
_FFOP_VERSION = 1
_FFOP_HEADER = "<4sIBddQII"

# the package's BLAS routines (scan takes zgemm), which scipy.linalg.blas
# exports: loaded by file, its compiled module spares every command without
# an eigensolve the scipy.linalg import
_fblas = _extension.load("scipy.linalg._fblas")
if _fblas is None:  # a scipy without the extension file
    from scipy.linalg import blas as _fblas
zgemm, zherk, zhemv = _fblas.zgemm, _fblas.zherk, _fblas.zhemv


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes, weights and tangent frames of a quadrature rule on S^2.

    ``t`` is the polynomial exactness degree: spherical harmonics with
    l <= t integrate to their exact values. Frames (e1, e2) are the unit
    theta / phi directions; product rules place no node at the poles, so
    the frames are well defined everywhere.
    """

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    t: int

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def frame_components(self, vectors):
        """Project ambient 3-vectors at the nodes onto (e1, e2)."""
        vectors = np.asarray(vectors)
        return np.stack([np.einsum("jc,jc->j", vectors, self.e1),
                         np.einsum("jc,jc->j", vectors, self.e2)], axis=1)


def build_quadrature(kind, order):
    """Construct a sphere rule: PRODUCT_GAUSS or EQUAL_AREA.

    PRODUCT_GAUSS uses ``order`` Gauss-Legendre points in cos(theta) and
    2*order uniform azimuth points; exactness degree t = 2*order - 1.
    EQUAL_AREA uses ``order`` bands of equal height, each carrying
    2*order equally weighted nodes at the band midline; t = 1 (midpoint
    exactness on linear functions of cos(theta)).
    """
    if order < 4:
        raise ValueError("quadrature order must be >= 4")
    if kind == "PRODUCT_GAUSS":
        mu, wmu = np.polynomial.legendre.leggauss(order)
        n_phi = 2 * order
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        w_phi = 2.0 * np.pi / n_phi
        MU, PHI = np.meshgrid(mu, phi, indexing="ij")
        W = np.repeat(wmu, n_phi) * w_phi
        t = 2 * order - 1
    elif kind == "EQUAL_AREA":
        n_bands = order
        edges = np.linspace(1.0, -1.0, n_bands + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        band_area = 2.0 * np.pi * (edges[:-1] - edges[1:])
        n_phi = 2 * order
        phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        MU, PHI = np.meshgrid(mids, phi, indexing="ij")
        W = np.repeat(band_area / n_phi, n_phi)
        t = 1
    else:
        raise ValueError(f"unknown quadrature kind {kind!r}")
    mu_f = MU.ravel()
    phi_f = PHI.ravel()
    s = np.sqrt(1.0 - mu_f**2)
    nodes = np.stack([s * np.cos(phi_f), s * np.sin(phi_f), mu_f], axis=1)
    e1 = np.stack([mu_f * np.cos(phi_f), mu_f * np.sin(phi_f), -s], axis=1)
    e2 = np.stack([-np.sin(phi_f), np.cos(phi_f), np.zeros_like(phi_f)], axis=1)
    return SphereQuadrature(kind=kind, order=order, nodes=nodes, weights=W, e1=e1, e2=e2, t=t)


@dataclass(eq=False)
class TangentVectorField:
    """Tangential field sampled on a quadrature: coefficients (N, 2)."""

    quad: SphereQuadrature
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.quad.n_nodes, 2):
            raise ValueError(f"coefficients must have shape (N, 2), got {c.shape}")
        self.coeffs = c

    def vectors(self):
        """Ambient 3-vector values at the nodes."""
        return self.coeffs[:, 0, None] * self.quad.e1 + self.coeffs[:, 1, None] * self.quad.e2

    def flat(self):
        """Stacked coefficient vector of length 2N, row index 2j + s."""
        return self.coeffs.reshape(-1)

    @staticmethod
    def from_flat(quad, vec):
        return TangentVectorField(quad, np.asarray(vec, complex).reshape(-1, 2))

    def norm(self):
        """Discrete L2 norm sqrt(sum_j w_j |g_j|^2)."""
        return float(np.sqrt(np.sum(self.quad.weights[:, None] * np.abs(self.coeffs) ** 2)))


@dataclass(eq=False)
class FarFieldMatrix:
    """Dense discretized far field operator with its provenance."""

    matrix: np.ndarray
    kind: str
    k: float
    quad: SphereQuadrature
    medium: MediumSpec | None = None
    noise_eps: float = 0.0
    seed: int = 0

    def weight_vector(self):
        """Per-row quadrature weights (length 2N)."""
        return np.repeat(self.quad.weights, 2)

    def apply(self, g):
        """Operator action on a TangentVectorField."""
        return TangentVectorField.from_flat(self.quad, self.matrix @ g.flat())

    def operator_norm(self):
        """Discrete L2(S^2) operator norm (weighted), from the weighted Gram.

        Equals the largest singular value of W^(1/2) A W^(-1/2).
        """
        w = self.weight_vector()
        return gram_norm(gram_lower(np.sqrt(w)[:, None] * self.matrix), w)


@dataclass(eq=False)
class FarFieldBlocks:
    """Azimuthal DFT blocks of a clean ball operator on a product rule.

    ``matrix`` has shape (n_phi, 2 n_theta, 2 n_theta). Block q maps the
    azimuthal frequency q of a field (its DFT over the azimuth index,
    ``to_blocks``) to the same frequency of the image; docs section 12.
    """

    matrix: np.ndarray
    kind: str
    k: float
    quad: SphereQuadrature
    noise_eps = 0.0  # noise breaks the block structure, so blocks are always clean

    def weight_vector(self):
        """Latitude weights of the rows of one block (length 2 n_theta)."""
        return np.repeat(self.quad.weights[:: 2 * self.quad.order], 2)

    def to_blocks(self, x):
        """DFT over azimuth of node-space columns (2N, m): shape (n_phi, 2 n_theta, m)."""
        n_theta = self.quad.order
        xh = np.fft.fft(x.reshape(n_theta, 2 * n_theta, 2, -1), axis=1)
        return xh.transpose(1, 0, 2, 3).reshape(2 * n_theta, 2 * n_theta, -1)

    def to_nodes(self, xh):
        """Inverse of ``to_blocks``: node-space columns of shape (2N, m)."""
        n_theta = self.quad.order
        x = np.fft.ifft(xh.reshape(2 * n_theta, n_theta, 2, -1), axis=0)
        return x.transpose(1, 0, 2, 3).reshape(4 * n_theta**2, -1)


# Gram blocks up to this many rows get dense eigvalsh, larger ones Lanczos
_EIGVALSH_MAX_ROWS = 128

# the keys of the state dict that _arpacklib's reverse-communication calls read and write
_ARPACK_STATE = (
    "tol", "getv0_rnorm0", "aitr_betaj", "aitr_rnorm1", "aitr_wnorm", "aup2_rnorm", "ido",
    "which", "bmat", "info", "iter", "maxiter", "mode", "n", "nconv", "ncv", "nev", "np",
    "shift", "getv0_first", "getv0_iter", "getv0_itry", "getv0_orth", "aitr_iter", "aitr_j",
    "aitr_orth1", "aitr_orth2", "aitr_restart", "aitr_step3", "aitr_step4", "aitr_ierr",
    "aup2_initv", "aup2_iter", "aup2_getv0", "aup2_cnorm", "aup2_kplusp", "aup2_nev",
    "aup2_nev0", "aup2_np0", "aup2_numcnv", "aup2_update", "aup2_ushift",
)


def gram_lower(x):
    """Lower triangle of the Gram X^H X in C order, by one Hermitian rank-k update.

    zherk reads the Fortran view ``x.T`` of a C-ordered ``x`` without a
    copy and writes the upper triangle of conj(X^H X) = (X^H X)^T in
    Fortran order; its transpose is the lower triangle of X^H X, and the
    strict upper triangle is zero. With X = W^1/2 A this is the weighted
    Gram A^H W A at half the flops of a full product (docs section 11).
    """
    return zherk(1.0, x.T, trans=0, lower=0).T


def _candidate_blocks(grams, w):
    """Mask of the blocks of a Gram stack whose H_q = W^-1/2 G_q W^-1/2 may hold max eig.

    For Hermitian H, max_i H_ii <= lambda_max(H) <= ||H||_F. Every block
    whose Frobenius norm lies below the largest diagonal entry of the
    stack by more than the margin 1e-12, far above eigvalsh's roundoff,
    cannot hold the computed maximum (docs section 11). Both bounds come
    from the lower triangles of the unscaled Grams. A NaN bound keeps
    its block.
    """
    inv_w = 1.0 / w
    d = grams.diagonal(axis1=1, axis2=2).real * inv_w
    low = np.tril(grams, -1)
    off2 = ((low.real ** 2 + low.imag ** 2) @ inv_w) @ inv_w
    fro = np.sqrt(np.sum(d * d, axis=1) + 2.0 * off2)
    return ~(fro < d.max() * (1.0 - 1e-12))


_ARPACKLIB = "scipy.sparse.linalg._eigen.arpack._arpacklib"


def _arpacklib():
    """scipy's ARPACK extension module, loaded by file, or None for a scipy that has none."""
    return _extension.load(_ARPACKLIB)


def _lanczos_top(matvec, n, lib):
    """Largest eigenvalue of a real symmetric n x n operator, by ARPACK's dsaupd and dseupd.

    This is scipy 1.17's eigsh(k=1, which="LA", return_eigenvectors=False)
    in mode 1: ncv = min(20, n), maxiter = 10 n, tol 0, and the same
    ARPACK calls on the same arrays, so the same bits. The start vector
    and every restart vector ARPACK asks for (ido 4) come from one fixed
    Philox stream, where eigsh draws the restarts from an unseeded
    generator. Returns None when ARPACK stops without converging (docs
    section 11).
    """
    gen = np.random.Generator(np.random.Philox(0))
    # a start vector of ones is constant over azimuth, so on a clean dense
    # operator it lies in the frequency-0 block alone; one fixed draw does not
    resid = gen.uniform(-1.0, 1.0, n)
    ncv = min(20, n)
    state = dict.fromkeys(_ARPACK_STATE, 0)
    state.update(tol=0.0, which=6, info=1, maxiter=10 * n, mode=1, n=n, ncv=ncv, nev=1, shift=1)
    v = np.zeros((n, ncv))
    ipntr = np.zeros(11, dtype=np.int32)
    workd = np.zeros(3 * n)
    workl = np.zeros(ncv * (ncv + 8))
    while True:
        lib.dsaupd_wrap(state, resid, v, ipntr, workd, workl)
        if state["ido"] in (1, 5):  # both ask for y = OP x
            workd[ipntr[1]:ipntr[1] + n] = matvec(workd[ipntr[0]:ipntr[0] + n])
        elif state["ido"] == 4:
            resid[:] = gen.uniform(-1.0, 1.0, n)
        elif state["ido"] == 99:
            break
        else:
            raise RuntimeError(f"ARPACK asked for step ido = {state['ido']}, which mode 1 never takes")
    if state["info"] == 1:
        return None
    if state["info"] != 0:
        raise RuntimeError(f"ARPACK dsaupd failed with info = {state['info']}")
    state["info"] = 0
    d = np.zeros(1)
    # without eigenvectors ARPACK never reads z, so a 1 x 1 one does (LDZ >= 1)
    lib.dseupd_wrap(state, False, 0, np.zeros(ncv, dtype=np.int32), d,
                    np.zeros((1, 1), order="F"), 0, resid, v, ipntr, workd, workl)
    if state["info"] != 0:
        raise RuntimeError(f"ARPACK dseupd failed with info = {state['info']}")
    return d[0]


def _eigsh_top(matvec, n):
    """``_lanczos_top`` by eigsh, for a scipy without ``_arpacklib``: the restarts (ido 4) are unseeded."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    v0 = np.random.Generator(np.random.Philox(0)).uniform(-1.0, 1.0, n)
    try:
        return eigsh(LinearOperator((n, n), matvec=matvec, dtype=float), k=1, which="LA",
                     v0=v0, return_eigenvectors=False)[0]
    except ArpackNoConvergence:
        return None


def gram_norm(gram, w):
    """Weighted operator norm sqrt(max eig W^-1/2 G W^-1/2) from a Gram G = A^H W A.

    ``gram`` is one (m, m) Gram or a stack (n_blocks, m, m) of them,
    taken before any regularization shift; ``w`` holds the m row
    weights. Only the lower triangle of each Gram is read, so the
    triangle of ``gram_lower`` serves as well as a full Gram. Blocks of
    up to _EIGVALSH_MAX_ROWS rows go to one batched eigvalsh, which a
    stack runs only on the blocks that ``_candidate_blocks`` keeps; the
    maximum keeps its bits, because each block gets the same zheevd
    either way. A larger block gets symmetric Lanczos (``_lanczos_top``)
    on the real form [[Re H, -Im H], [Im H, Re H]] of
    H = W^-1/2 G W^-1/2, which repeats each eigenvalue of H, from fixed
    Philox draws, so the result is a pure function of the input (see
    ``_eigsh_top`` for a scipy without ARPACK's module). The real form
    is applied as H to x[:m] + i x[m:] without being built, by one zhemv
    on the triangle; it runs several times faster than complex Lanczos,
    most of all under a multithreaded BLAS. A block on which ARPACK does
    not converge raises forward.ConvergenceError naming it.
    """
    s = 1.0 / np.sqrt(w)
    grams = gram.reshape(-1, w.size, w.size)
    if w.size <= _EIGVALSH_MAX_ROWS:
        if len(grams) > 1:
            grams = grams[_candidate_blocks(grams, w)]
        top = np.linalg.eigvalsh(grams * s[:, None] * s[None, :])[:, -1].max()
    else:
        lib = _arpacklib()

        def top_eig(q, g):
            # the Fortran view g.T holds conj(G) in its upper triangle, so
            # conj(H z) = s conj(G) (s conj(z)), with conj(z) = x[:m] - i x[m:]
            def matvec(x):
                y = s * zhemv(1.0, g.T, s * (x[: w.size] - 1j * x[w.size:]), lower=0)
                return np.concatenate([y.real, -y.imag])

            if lib is None:
                top = _eigsh_top(matvec, 2 * w.size)
            else:
                top = _lanczos_top(matvec, 2 * w.size, lib)
            if top is None:
                raise forward.ConvergenceError(f"Lanczos norm of Gram block {q} ({w.size} rows) "
                                               f"did not converge in {20 * w.size} iterations")
            return top

        # a zero block leaves Lanczos no start vector in its range; its norm is 0
        top = max((top_eig(q, g) for q, g in enumerate(grams) if np.any(g)), default=0.0)
    return float(np.sqrt(max(top, 0.0)))


def _check_rotation_layout(quad):
    """Raise ValueError unless ``quad`` is its azimuth-0 meridian rotated about z.

    The block assembly reads the mode tables on the meridian only and
    expands the rest by rotation (docs section 12). That holds when
    every node, weight and frame (i, p) is the one at (i, 0) rotated by
    2 pi p / n_phi, to 1e-12; the node-space arrays of the rule carry
    their latitude-major (n_theta, n_phi) layout.
    """
    if quad.kind not in ("PRODUCT_GAUSS", "EQUAL_AREA"):
        raise ValueError(f"azimuthal blocks need a product rule, got a {quad.kind} quadrature")
    n_theta, n_phi = quad.order, 2 * quad.order
    if quad.n_nodes != n_theta * n_phi:
        raise ValueError(f"{quad.kind} quadrature of order {quad.order} has "
                         f"{quad.n_nodes} nodes, its {n_theta}x{n_phi} layout needs {n_theta * n_phi}")
    turn = np.exp(2j * np.pi * np.arange(n_phi) / n_phi)  # rotation about z acting on x + iy
    dev = 0.0
    for vec in (quad.nodes, quad.e1, quad.e2):
        v = vec.reshape(n_theta, n_phi, 3)
        xy = v[..., 0] + 1j * v[..., 1]
        dev = max(dev, np.max(np.abs(xy - xy[:, :1] * turn)), np.max(np.abs(v[..., 2] - v[:, :1, 2])))
    w = quad.weights.reshape(n_theta, n_phi)
    dev_w = np.max(np.abs(w - w[:, :1])) / np.max(np.abs(w))
    if not (dev <= 1e-12 and dev_w <= 1e-12):
        raise ValueError(f"{quad.kind} quadrature of order {quad.order} is not its azimuth-0 "
                         f"meridian rotated about z: node/frame deviation {dev:.3e}, "
                         f"relative weight deviation {dev_w:.3e} (tolerance 1e-12)")


@lru_cache(maxsize=32)
def _mode_matrices(quad, L):
    """Frame-projected harmonic tables Phi_U, Phi_V on the azimuth-0 meridian: (2 n_theta, M).

    Row 2 i + s holds frame component s at node (i, 0); the other
    azimuths follow by rotation, which ``_check_rotation_layout``
    verifies first. Cached per (quadrature object, degree): wavenumber
    sweeps reuse the same tables for every k that truncates at the same
    L. Callers must not write into the returned arrays.
    """
    _check_rotation_layout(quad)
    n_phi = 2 * quad.order
    _, U, V = vsh_tables(L, quad.nodes[::n_phi])
    frames = np.stack([quad.e1[::n_phi], quad.e2[::n_phi]], axis=1)  # (n_theta, 2, 3)
    phi_u = np.einsum("jsc,mjc->jsm", frames, U).reshape(2 * quad.order, -1)
    phi_v = np.einsum("jsc,mjc->jsm", frames, V).reshape(2 * quad.order, -1)
    phi_u.setflags(write=False)
    phi_v.setflags(write=False)
    return phi_u, phi_v


@lru_cache(maxsize=32)
def _block_gather(L, n_phi):
    """Degrees, mode indices and validity mask of the per-block mode gather.

    Row q of each (n_phi, slots) array lists the modes (l, m) of
    ``mode_list(L)`` with m mod n_phi = q, padded with zero-weight
    copies of mode 0 up to the largest block's count. It depends only on
    (L, n_phi), so a scan builds it once. The arrays are read-only.
    """
    ells, m = mode_list(L)
    q = m % n_phi
    counts = np.bincount(q, minlength=n_phi)
    starts = np.cumsum(counts) - counts
    slot = np.arange(counts.max())
    valid = slot[None, :] < counts[:, None]
    idx = np.argsort(q, kind="stable")[np.where(valid, starts[:, None] + slot, 0)]
    gather = (ells[idx], idx, valid)
    for a in gather:
        a.setflags(write=False)
    return gather


def _mode_product(phi_a, phi_b, coef_a, coef_b, L, quad):
    """DFT blocks (n_phi, 2 n_theta, 2 n_theta) of one coefficient set's mode products.

    phi_a carries the alpha coefficients (V modes for ELECTRIC, U modes
    for the dual kinds), phi_b the beta ones, both as azimuth-0 tables
    of degree L; coef_a and coef_b are indexed by degree. Mode (l, m)
    lands in block q = m mod n_phi, and the columns are scaled by n_phi
    and the latitude weights (docs section 12).
    """
    n_phi = 2 * quad.order
    deg, idx, valid = _block_gather(L, n_phi)
    out = 0.0
    for phi, coef in ((phi_a, coef_a), (phi_b, coef_b)):
        g = phi[:, idx].transpose(1, 0, 2)  # (n_phi, 2 n_theta, slots)
        out = out + (g * np.where(valid, coef[deg], 0.0)[:, None, :]) @ g.conj().transpose(0, 2, 1)
    return out * (n_phi * np.repeat(quad.weights[::n_phi], 2))


def _scene_parts(kind, scene):
    """(medium, ball) of a scene after checking it fits the operator kind.

    ``scene`` is a MediumSpec for ELECTRIC and MAGNETIC, an ImpedanceBall
    for IMPEDANCE, and a (MediumSpec, ImpedanceBall) pair for MODIFIED.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    if kind in ("ELECTRIC", "MAGNETIC"):
        if not isinstance(scene, MediumSpec):
            raise TypeError(f"{kind} assembly needs a MediumSpec scene")
        return scene, None
    if kind == "IMPEDANCE":
        if not isinstance(scene, ImpedanceBall):
            raise TypeError("IMPEDANCE assembly needs an ImpedanceBall scene")
        return None, scene
    medium, ball = scene
    if not isinstance(medium, MediumSpec) or not isinstance(ball, ImpedanceBall):
        raise TypeError("MODIFIED assembly needs a (MediumSpec, ImpedanceBall) pair")
    return medium, ball


def assemble_blocks(kind, scene, k, quad):
    """Azimuthal DFT blocks of the kind's far field operator (docs section 12).

    ``scene`` is a MediumSpec for ELECTRIC and MAGNETIC, an ImpedanceBall
    for IMPEDANCE, and a (MediumSpec, ImpedanceBall) pair for MODIFIED,
    whose blocks are ``modified_operator`` of the magnetic ones. Every
    other kind is one coefficient set's scaled ``_mode_product``. Modes
    with |m| >= n_phi / 2 alias into shared blocks, the same sum the
    dense matrix holds. A quadrature that is not its azimuth-0 meridian
    rotated about z raises ValueError.
    """
    medium, ball = _scene_parts(kind, scene)
    if kind == "MODIFIED":
        return modified_operator(assemble_blocks("MAGNETIC", medium, k, quad), ball)
    if kind == "ELECTRIC":
        scale, coefs = 4.0 * np.pi, mie_coefficients(medium, k)
    else:
        coefs = mie_coefficients(medium, k) if kind == "MAGNETIC" else impedance_coefficients(ball, k)
        scale = -4.0j * np.pi / k
    phi_u, phi_v = _mode_matrices(quad, coefs.L)
    pair = (phi_v, phi_u) if kind == "ELECTRIC" else (phi_u, phi_v)
    blocks = scale * _mode_product(*pair, coefs.alpha, coefs.beta, coefs.L, quad)
    return FarFieldBlocks(blocks, kind, float(k), quad)


def assemble(kind, scene, k, quad):
    """Dense discretized far field operator: the circulant expansion of ``assemble_blocks``.

    With c_d the inverse DFT of the blocks over the block axis, the
    entry coupling node (i, p) to node (j, p') in frame components
    (s, t) is c_{(p - p') mod n_phi}[(i, s), (j, t)] (docs section 12).
    Needs a rotation-symmetric product rule, as ``assemble_blocks``.
    """
    medium, _ = _scene_parts(kind, scene)
    blocks = assemble_blocks(kind, scene, k, quad).matrix
    n_theta, n_phi = quad.order, 2 * quad.order
    c = np.fft.ifft(blocks, axis=0).reshape(n_phi, n_theta, 2, n_theta, 2)
    # c[(p - p') mod n_phi] is c2[n_phi + p - p'] of the doubled stack, so the
    # expansion is a read-only view that steps back one block per column azimuth
    c2 = np.concatenate([c, c])
    s_d, s_i, s_s, s_j, s_t = c2.strides
    full = np.lib.stride_tricks.as_strided(
        c2[n_phi:], shape=(n_theta, n_phi, 2, n_theta, n_phi, 2),
        strides=(s_i, s_d, s_s, s_j, -s_d, s_t), writeable=False)  # (i, p, s, j, p', t)
    mat = np.empty((2 * quad.n_nodes, 2 * quad.n_nodes), dtype=complex)
    mat.reshape(full.shape)[...] = full
    return FarFieldMatrix(mat, kind, float(k), quad, medium=medium)


def modified_operator(F_m, ball):
    """F_M = F_m - F_s as a kind="MODIFIED" copy of F_m: the Stekloff scan's cell operator.

    The impedance operator F_s of ``ball`` is assembled at F_m's k and
    rule in F_m's own form, blocks or dense; the difference is a new
    array, so one F_m serves every ball.
    """
    build = assemble_blocks if isinstance(F_m, FarFieldBlocks) else assemble
    return replace(F_m, matrix=F_m.matrix - build("IMPEDANCE", ball, F_m.k, F_m.quad).matrix,
                   kind="MODIFIED")


def _require_dense(A, name):
    """Raise TypeError unless A is a dense FarFieldMatrix; ``name`` is the caller."""
    if not isinstance(A, FarFieldMatrix):
        raise TypeError(f"{name} needs a dense FarFieldMatrix, made with ffop.assemble, "
                        f"not a {type(A).__name__}")


def _require_noise_level(eps):
    """Raise ValueError unless the noise level eps is finite and >= 0."""
    if not 0 <= eps < np.inf:
        raise ValueError(f"noise level eps must be finite and >= 0, got {eps}")


# add_noise draws its uniforms through a buffer of this many rows
_NOISE_ROWS = 16


def add_noise(A, eps, seed, stream=0):
    """Multiplicative noise: every entry times 1 + eps (zeta + i mu)/sqrt(2).

    zeta, mu are independent uniform on [-1, 1] drawn from a counter-based
    Philox generator keyed by the two key words (seed, stream), so the
    perturbation is a pure function of (seed, stream, shape). Stream 0 is
    the plain key ``seed``; scans use the grid index as the stream, so
    distinct seeds never share a draw.
    """
    _require_dense(A, "add_noise")
    _require_noise_level(eps)
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ValueError(f"noise seed and stream must lie in [0, 2**64), got {seed}, {stream}")
    if eps == 0:
        return FarFieldMatrix(A.matrix.copy(), A.kind, A.k, A.quad, medium=A.medium,
                              noise_eps=0.0, seed=int(seed))
    gen = np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))
    # 1 + eps (zeta + i mu) / sqrt(2) built in place: numpy divides a complex
    # by the real sqrt(2) as a product with 1 / sqrt(2), so these are its bits
    inv = 1.0 / np.sqrt(2.0)
    factor = np.empty(A.matrix.shape, dtype=complex)
    u = np.empty((_NOISE_ROWS,) + factor.shape[1:])
    for part in (factor.real, factor.imag):
        # all of zeta, then all of mu, through one buffer of a few rows: the
        # Philox stream runs in row-major order, as one full-size draw would;
        # uniform(-1, 1) is -1 + 2 u of the same draws
        for r in range(0, len(part), len(u)):
            rows = part[r:r + len(u)]
            block = u[:len(rows)]
            gen.random(out=block)
            block *= 2.0
            block -= 1.0
            np.multiply(block, eps, out=rows)
            rows *= inv
    factor.real += 1.0
    # A * factor in this operand order: numpy's complex product is not
    # bit-commutative, its SIMD loop rounds one of the two cross terms first
    np.multiply(A.matrix, factor, out=factor)
    return FarFieldMatrix(factor, A.kind, A.k, A.quad, medium=A.medium,
                          noise_eps=float(eps), seed=int(seed))


def far_field_operator(kind, scene, k, quad, noise_eps=0.0, seed=0, stream=0):
    """The kind's operator: ``assemble_blocks`` for clean data, else the noisy dense matrix.

    Noise breaks the block structure, so noisy data are ``add_noise`` of
    ``assemble`` keyed by (seed, stream); the noise level is checked
    before any assembly.
    """
    _require_noise_level(noise_eps)
    if noise_eps == 0:
        return assemble_blocks(kind, scene, k, quad)
    return add_noise(assemble(kind, scene, k, quad), noise_eps, seed, stream)


def inner_product(u, v):
    """Discrete L2 inner product sum_j w_j u_j . conj(v_j), with the weights of u's rule."""
    if u.quad.n_nodes != v.quad.n_nodes:
        raise ValueError("fields live on different quadratures")
    return complex(np.sum(u.quad.weights[:, None] * u.coeffs * v.coeffs.conj()))


def save_ffop(A, path):
    """Write the binary far field operator file (little-endian).

    Layout: magic "FFOP", version u32, kind u8, k f64, eps f64, seed u64,
    N_q u32, t u32, then nodes, weights, e1, e2 as f64 arrays, then the
    matrix entries row-major with interleaved (re, im) f64 pairs.
    """
    _require_dense(A, "save_ffop")
    header = struct.pack(
        _FFOP_HEADER,
        _FFOP_MAGIC,
        _FFOP_VERSION,
        _KIND_CODE[A.kind],
        float(A.k),
        float(A.noise_eps),
        int(A.seed),
        A.quad.n_nodes,
        int(A.quad.t),
    )
    mat = np.empty(A.matrix.shape + (2,), dtype="<f8")
    mat[..., 0] = A.matrix.real
    mat[..., 1] = A.matrix.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(A.quad.nodes.astype("<f8").tobytes())
        fh.write(A.quad.weights.astype("<f8").tobytes())
        fh.write(A.quad.e1.astype("<f8").tobytes())
        fh.write(A.quad.e2.astype("<f8").tobytes())
        fh.write(mat.tobytes())


def load_ffop(path):
    """Read a far field operator file written by save_ffop.

    Scene metadata is not part of the format, so medium comes back as
    None; the quadrature is reconstructed from the stored geometry.
    A file that is truncated, carries trailing bytes, or holds an
    unknown magic, version or kind, a k or noise level no operator
    can have, or no nodes, raises ValueError naming the cause.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    hdr_size = struct.calcsize(_FFOP_HEADER)
    if len(raw) < hdr_size:
        raise ValueError(f"truncated far field operator file: {len(raw)} bytes, "
                         f"the header alone needs {hdr_size}")
    magic, version, kind_code, k, eps, seed, n_q, t = struct.unpack_from(_FFOP_HEADER, raw)
    if magic != _FFOP_MAGIC:
        raise ValueError(f"not a far field operator file: bad magic {magic!r}")
    if version != _FFOP_VERSION:
        raise ValueError(f"unsupported file version {version}")
    if kind_code >= len(KINDS):
        raise ValueError(f"unknown operator kind code {kind_code}")
    if not (0 < k < np.inf and 0 <= eps < np.inf):
        raise ValueError(f"far field operator file holds k = {k} and noise level {eps}: k must "
                         f"be finite and positive, the noise level finite and at least 0")
    if n_q == 0:
        raise ValueError("far field operator file holds 0 quadrature nodes")
    # nodes, weights, e1, e2 (10 values per node), then the complex matrix
    size = hdr_size + 8 * (10 * n_q + 2 * (2 * n_q) ** 2)
    if len(raw) != size:
        cause = "truncated" if len(raw) < size else "trailing bytes in"
        raise ValueError(f"{cause} far field operator file: {len(raw)} bytes, "
                         f"the header for {n_q} nodes implies {size}")
    off = hdr_size
    def take(count):
        nonlocal off
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        off += count * 8
        return arr
    nodes = take(3 * n_q).reshape(n_q, 3).copy()
    weights = take(n_q).copy()
    e1 = take(3 * n_q).reshape(n_q, 3).copy()
    e2 = take(3 * n_q).reshape(n_q, 3).copy()
    flat = take(2 * (2 * n_q) ** 2)
    mat = (flat[0::2] + 1j * flat[1::2]).reshape(2 * n_q, 2 * n_q)
    quad = SphereQuadrature(kind="CUSTOM", order=0, nodes=nodes, weights=weights, e1=e1, e2=e2, t=t)
    return FarFieldMatrix(mat, KINDS[kind_code], k, quad, noise_eps=eps, seed=seed)


# a grid of more points than this is an input error, not a scan (each point costs a solve)
_MAX_GRID_POINTS = 10**7


def grid_points(lo, hi, step):
    """Points lo, lo + step, ... up to hi inclusive (to 1e-12 max(1, |hi|))."""
    if not np.all(np.isfinite((lo, hi, step))):
        raise ValueError(f"grid needs a finite lo, hi and step, got {lo}, {hi} and {step}")
    if not lo < hi:
        raise ValueError(f"grid needs lo < hi, got {lo} and {hi}")
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step}")
    span = (hi - lo) / step  # inf when it overflows
    if not span < _MAX_GRID_POINTS:
        raise ValueError(f"grid {lo}:{hi}:{step} would hold {span:.3g} points, "
                         f"more than {_MAX_GRID_POINTS}")
    count = int(round(span)) + 1
    pts = lo + step * np.arange(count)
    return pts[pts <= hi + 1e-12 * max(1.0, abs(hi))]


def wavenumbers(k_grid):
    """The wavenumbers of ``k_grid`` as a float array; they must be finite, positive and nonempty."""
    ks = np.asarray(k_grid, dtype=float)
    if ks.size == 0 or not np.all((ks > 0) & (ks < np.inf)):
        raise ValueError("k grid must be finite, positive and nonempty")
    return ks


def csv_text(header, rows, comments=()):
    """CSV text: comment lines, a header row, then one line per row.

    Strings pass through, integers print as integers, and every other
    cell is formatted with ``.16e`` (17 significant digits, which
    round-trips float64 exactly; a complex cell keeps both parts rather
    than being cast to float). Lines end in LF.
    """
    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{v:.16e}"

    lines = list(comments) + [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
