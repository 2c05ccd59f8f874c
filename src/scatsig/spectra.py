"""Eigenvalue diagnostics for discretized far field operators.

Covers the eigendecomposition, the circle laws for the electric and
magnetic operators, the absorption energy identity, positivity of
Im((-ik F_e) g, g), and phase tracking of the magnetic spectrum across a
wavenumber sweep. The phase indicators min_j |phase_j + 1| and min_j
|phase_j - 1| dip near interior transmission eigenvalues, which is the
operator-side detector the oracle roots are checked against.

This is the one module that imports scipy.linalg, about half of a CLI
start; the package serves its names on first use, and the CLI imports
it only for ``ffop-eigs`` and ``phase-track``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import ffop, forward
from .ffop import FarFieldBlocks, FarFieldMatrix, TangentVectorField, inner_product
# nothing here calls riccati_all or vsh_tables: bench/spans.py wraps them in this module by name
from .sphfun import riccati_all, vsh_tables  # noqa: F401

@dataclass(eq=False)
class EigenSet:
    """Eigenvalues sorted by decreasing magnitude, with residuals."""

    values: np.ndarray
    vectors: np.ndarray | None
    residuals: np.ndarray
    kind: str
    k: float


@dataclass(eq=False)
class PhaseTrack:
    """Unit-circle phases of retained magnetic eigenvalues along a k sweep."""

    ks: np.ndarray
    phases: list
    dip_minus: np.ndarray
    dip_plus: np.ndarray


def _sort_order(vals):
    # primary key decreasing |lambda|, ties broken by (re, im) for determinism
    return np.lexsort((vals.imag, vals.real, -np.abs(vals)))


def eig(A, compute_vectors=True):
    """Eigendecomposition of an operator, on its azimuthal blocks when it comes as blocks.

    A FarFieldBlocks is a stack of n_phi blocks, a FarFieldMatrix or a
    square array a stack of one, and the stack goes to one scipy eig
    (eigvals without vectors). A block eigenvector comes back in node
    space, as ``to_nodes`` of it placed in its own block, at unit norm.
    Residuals are ||A v - lambda v|| / ||A|| per block, with the spectral
    norm from ``ffop.gram_norm`` on the ``ffop.gram_lower`` stack (zero
    without vectors); the DFT similarity is unitary, so both are the
    dense ones (docs section 12). LAPACK failure surfaces as LinAlgError.
    """
    blocks = isinstance(A, FarFieldBlocks)
    operator = blocks or isinstance(A, FarFieldMatrix)
    mat = A.matrix if operator else np.asarray(A, complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if not blocks and mat.ndim != 2:
        raise ValueError(f"eig needs a square matrix, got shape {mat.shape}")
    stack = mat if blocks else mat[None]
    vecs, res = None, np.zeros(stack.shape[:2])
    if compute_vectors:
        grams = np.stack([ffop.gram_lower(b) for b in stack])
        norm_a = ffop.gram_norm(grams, np.ones(stack.shape[-1]))
        vals, vecs = scipy.linalg.eig(stack)
        if norm_a != 0.0:
            res = np.linalg.norm(stack @ vecs - vecs * vals[:, None, :], axis=1)
            res /= norm_a * np.linalg.norm(vecs, axis=1)
        if blocks:
            n, m = vecs.shape[:2]
            placed = np.zeros((n, m, n, m), dtype=complex)
            placed[np.arange(n), :, np.arange(n), :] = vecs
            vecs = A.to_nodes(placed.reshape(n, m, n * m))
            vecs /= np.linalg.norm(vecs, axis=0)
    else:
        vals = scipy.linalg.eigvals(stack)
    order = _sort_order(vals.ravel())
    if vecs is not None:
        vecs = vecs.reshape(order.size, order.size)[:, order]
    kind, k = (A.kind, A.k) if operator else ("GENERIC", 0.0)
    return EigenSet(vals.ravel()[order], vecs, res.ravel()[order], kind, k)


def circle_center_radius(kind, k):
    if kind == "ELECTRIC":
        return -2.0 * np.pi + 0.0j, 2.0 * np.pi
    if kind == "MAGNETIC":
        return 2.0j * np.pi / k, 2.0 * np.pi / k
    raise ValueError(f"no circle law for operator kind {kind!r}")


def circle_residual(eigset, kind=None, k=None):
    """Per-eigenvalue distance from the kind's eigenvalue circle.

    Electric eigenvalues lie on |lambda + 2 pi| = 2 pi for real index;
    magnetic ones on |lambda - 2 pi i/k| = 2 pi/k. Returns the array of
    | |lambda - center| - radius | values.
    """
    kind = kind if kind is not None else eigset.kind
    k = k if k is not None else eigset.k
    c, r = circle_center_radius(kind, k)
    vals = eigset.values if isinstance(eigset, EigenSet) else np.asarray(eigset, complex)
    return np.abs(np.abs(vals - c) - r)


def energy_identity_residual(A, g, h, medium=None):
    """LHS minus RHS of the absorption energy identity at the operator's k.

    RHS = -2 pi (Ag, h) - 2 pi (g, Ah) - (Ag, Ah) in the discrete inner
    product. LHS = k * sum_layers Im(n) int |interior field cross term|,
    evaluated mode by mode with the exact radial profiles (48-point
    Gauss per layer); it vanishes when the index is real. ``medium``
    defaults to A.medium. Returns the complex difference.
    """
    quad, k = A.quad, A.k
    medium = medium if medium is not None else A.medium
    ag = A.apply(g)
    ah = A.apply(h)
    rhs = (
        -2.0 * np.pi * inner_product(ag, h)
        - 2.0 * np.pi * inner_product(g, ah)
        - inner_product(ag, ah)
    )
    if all(abs(n.imag) == 0.0 for _, n in medium.layers):
        lhs = 0.0 + 0.0j
    else:
        coefs, layers = forward.interior_solutions(medium, k)
        L = coefs.L
        # the Herglotz kernels g, h are plane-wave sums over the quadrature nodes
        w = quad.weights[:, None]
        ells, a_g, b_g = forward._modal_weights(k, L, quad.nodes, w * g.vectors())
        _, a_h, b_h = forward._modal_weights(k, L, quad.nodes, w * h.vectors())
        lhs = 0.0 + 0.0j
        for lay, (_, n_layer) in zip(layers, medium.layers):
            if n_layer.imag == 0.0:
                continue
            i_te, i_tm = forward.radial_energy(lay, L, 48)
            lhs += k * n_layer.imag * np.sum(
                a_g * a_h.conj() * i_te[0, ells] + b_g * b_h.conj() * i_tm[1, ells]
            )
    return complex(lhs - rhs)


def lidski_positivity(A, samples=32, seed=0):
    """Minimum of Im((-ik A) g, g) over random unit kernels g.

    The scaled electric operator -ik F_e has nonnegative imaginary part
    whenever Im n >= 0, which is what puts its eigenvalues in the closed
    upper half plane (trace-class positivity argument). Sampling uses a
    seeded Philox stream, so the same call returns the same minimum.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    quad = A.quad
    worst = np.inf
    for _ in range(samples):
        c = gen.standard_normal((quad.n_nodes, 2)) + 1j * gen.standard_normal((quad.n_nodes, 2))
        g = TangentVectorField(quad, c)
        nrm = g.norm()
        if nrm == 0.0:
            continue
        g = TangentVectorField(quad, c / nrm)
        val = (-1j * A.k) * inner_product(A.apply(g), g)
        worst = min(worst, val.imag)
    return float(worst)


def worker_count():
    """Pool width SCATSIG_THREADS asks for (default min(4, cpu count)).

    Scans and phase tracking run their grid points serially, so no
    package code uses it; the benchmark records it with each run.
    """
    env = os.environ.get("SCATSIG_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def phase_track(medium, k_values, quad, floor=1e-6):
    """Magnetic-operator phases lambda/|lambda| along a wavenumber sweep.

    At each k of ``k_values`` the magnetic operator is assembled and the
    nonzero eigenvalues with |lambda| >= floor * max|lambda| are kept, for
    a floor in [0, 1]; a zero eigenvalue has no phase. Reported per k: the
    retained phases and the dip indicators min_j |phase_j + 1|,
    min_j |phase_j - 1|, both inf when none is kept. The eigenvalues
    come from ``eig`` without vectors on the clean operator's azimuthal
    DFT blocks (``ffop.far_field_operator``), one batched eigvals per k,
    in eig's order; grid points run serially, in grid order.
    """
    ks = ffop.wavenumbers(k_values)
    if not 0 <= floor <= 1:  # NaN included: a floor above 1 keeps no eigenvalue
        raise ValueError(f"floor must lie in [0, 1], got {floor}")

    def one(k):
        vals = eig(ffop.far_field_operator("MAGNETIC", medium, float(k), quad),
                   compute_vectors=False).values
        cut = floor * np.abs(vals[0]) if vals.size else 0.0
        kept = vals[(np.abs(vals) >= cut) & (vals != 0)]
        return kept / np.abs(kept)

    phase_lists = [one(k) for k in ks]
    dip_minus = np.array([np.min(np.abs(p + 1.0)) if p.size else np.inf for p in phase_lists])
    dip_plus = np.array([np.min(np.abs(p - 1.0)) if p.size else np.inf for p in phase_lists])
    return PhaseTrack(ks=ks, phases=phase_lists, dip_minus=dip_minus, dip_plus=dip_plus)


def phase_track_to_csv(track):
    """CSV text with columns k, dip_minus, dip_plus, n_kept."""
    rows = zip(track.ks, track.dip_minus, track.dip_plus, (ph.size for ph in track.phases))
    return ffop.csv_text(["k", "dip_minus", "dip_plus", "n_kept"], rows)
