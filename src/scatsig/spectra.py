"""Eigenvalue diagnostics for discretized far field operators.

Covers the dense eigendecomposition, the circle laws for the electric
and magnetic operators, the absorption energy identity, positivity of
Im((-ik F_e) g, g), and phase tracking of the magnetic spectrum across
a wavenumber sweep. The phase indicators min_j |phase_j + 1| and
min_j |phase_j - 1| dip near interior transmission eigenvalues, which
is the operator-side detector the oracle roots are checked against.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import ffop, forward
from .ffop import FarFieldMatrix, TangentVectorField, inner_product
# riccati_all stays importable here: bench/spans.py wraps it in this module by name
from .sphfun import mode_list, riccati_all, vsh_tables  # noqa: F401

@dataclass(eq=False)
class EigenSet:
    """Eigenvalues sorted by decreasing magnitude, with residuals."""

    values: np.ndarray
    vectors: np.ndarray | None
    residuals: np.ndarray
    kind: str
    k: float

    @property
    def count(self):
        return self.values.size

    def top(self, n):
        return self.values[:n]


@dataclass(eq=False)
class PhaseTrack:
    """Unit-circle phases of retained magnetic eigenvalues along a k sweep."""

    ks: np.ndarray
    phases: list
    dip_minus: np.ndarray
    dip_plus: np.ndarray
    floor: float


def _sort_order(vals):
    # primary key decreasing |lambda|, ties broken by (re, im) for determinism
    return np.lexsort((vals.imag, vals.real, -np.abs(vals)))


def eig(A, compute_vectors=True):
    """Dense eigendecomposition of the operator matrix.

    Residuals are ||A v - lambda v|| / ||A|| with unit eigenvectors and
    the spectral matrix norm (zero without vectors); LAPACK failure
    surfaces as LinAlgError.
    """
    mat = A.matrix if isinstance(A, FarFieldMatrix) else np.asarray(A, complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if compute_vectors:
        norm_a = ffop.spectral_norm(mat)
        vals, vecs = scipy.linalg.eig(mat)
        order = _sort_order(vals)
        vals = vals[order]
        vecs = vecs[:, order]
        if norm_a == 0.0:
            res = np.zeros(vals.size)
        else:
            res = np.linalg.norm(mat @ vecs - vecs * vals[None, :], axis=0)
            res /= norm_a * np.linalg.norm(vecs, axis=0)
    else:
        vals = scipy.linalg.eigvals(mat)
        order = _sort_order(vals)
        vals = vals[order]
        vecs = None
        res = np.zeros(vals.size)
    kind = A.kind if isinstance(A, FarFieldMatrix) else "GENERIC"
    k = A.k if isinstance(A, FarFieldMatrix) else 0.0
    return EigenSet(values=vals, vectors=vecs, residuals=res, kind=kind, k=k)


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


def _modal_projections(g, quad, L):
    """Herglotz-kernel modal weights: ahat on V modes, bhat on U modes."""
    _, _, U, V = vsh_tables(L, quad.nodes)
    gv = g.vectors()
    wgt = quad.weights[:, None] * gv
    inner_v = np.einsum("jc,mjc->m", wgt, V.conj())
    inner_u = np.einsum("jc,mjc->m", wgt, U.conj())
    ells = np.array([m.l for m in mode_list(L)])
    return ells, inner_v, inner_u


def energy_identity_residual(A, g, h, quad=None, medium=None, k=None, n_radial=48):
    """LHS minus RHS of the absorption energy identity.

    RHS = -2 pi (Ag, h) - 2 pi (g, Ah) - (Ag, Ah) in the discrete inner
    product. LHS = k * sum_layers Im(n) int |interior field cross term|,
    evaluated mode by mode with the exact radial profiles; it vanishes
    when the index is real. Returns the complex difference.
    """
    quad = quad or A.quad
    medium = medium if medium is not None else A.medium
    k = k if k is not None else A.k
    ag = A.apply(g)
    ah = A.apply(h)
    rhs = (
        -2.0 * np.pi * inner_product(ag, h, quad)
        - 2.0 * np.pi * inner_product(g, ah, quad)
        - inner_product(ag, ah, quad)
    )
    if all(abs(n.imag) == 0.0 for _, n in medium.layers):
        lhs = 0.0 + 0.0j
    else:
        coefs, layers = forward.interior_solutions(medium, k)
        L = coefs.L
        ells, gv, gu = _modal_projections(g, quad, L)
        _, hv, hu = _modal_projections(h, quad, L)
        # incident modal weights 4 pi i^(l+1) k <g, V> and 4 pi i^(l+2) k <g, U>
        pref = 4.0 * np.pi * k
        a_g = pref * 1j ** (ells + 1) * gv
        b_g = pref * 1j ** (ells + 2) * gu
        a_h = pref * 1j ** (ells + 1) * hv
        b_h = pref * 1j ** (ells + 2) * hu
        lhs = 0.0 + 0.0j
        for lay, (_, n_layer) in zip(layers, medium.layers):
            if n_layer.imag == 0.0:
                continue
            i_te, i_tm = forward.radial_energy(lay, L, n_radial)
            lhs += k * n_layer.imag * np.sum(
                a_g * a_h.conj() * i_te[0, ells] + b_g * b_h.conj() * i_tm[1, ells]
            )
    return complex(lhs - rhs)


def lidski_positivity(A, k=None, samples=32, seed=0):
    """Minimum of Im((-ik A) g, g) over random unit kernels g.

    The scaled electric operator -ik F_e has nonnegative imaginary part
    whenever Im n >= 0, which is what puts its eigenvalues in the closed
    upper half plane (trace-class positivity argument). Sampling uses a
    seeded Philox stream, so the same call returns the same minimum.
    """
    k = k if k is not None else A.k
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
        val = (-1j * k) * inner_product(A.apply(g), g, quad)
        worst = min(worst, val.imag)
    return float(worst)


def grid_points(lo, hi, step):
    """Points lo, lo + step, ... up to hi inclusive (to 1e-12 max(1, |hi|))."""
    if not lo < hi:
        raise ValueError(f"grid needs lo < hi, got {lo} and {hi}")
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step}")
    count = int(round((hi - lo) / step)) + 1
    pts = lo + step * np.arange(count)
    return pts[pts <= hi + 1e-12 * max(1.0, abs(hi))]


def worker_count():
    env = os.environ.get("SCATSIG_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def phase_track(medium, k_range, quad, floor=1e-6):
    """Magnetic-operator phases lambda/|lambda| along a wavenumber sweep.

    At each k the magnetic operator is assembled and eigenvalues with
    |lambda| >= floor * max|lambda| are kept. Reported per k: the retained
    phases and the dip indicators min_j |phase_j + 1|, min_j |phase_j - 1|.
    Grid points are processed on a thread pool (SCATSIG_THREADS caps the
    width); results are merged in grid order, so output is deterministic.
    """
    k_lo, k_hi, step = k_range
    if not k_lo > 0:
        raise ValueError("need 0 < k_lo < k_hi")
    ks = grid_points(k_lo, k_hi, step)

    def one(k):
        A = ffop.assemble("MAGNETIC", medium, float(k), quad)
        vals = scipy.linalg.eigvals(A.matrix)
        vals = vals[_sort_order(vals)]
        cut = floor * np.abs(vals[0]) if vals.size else 0.0
        kept = vals[np.abs(vals) >= cut]
        phases = kept / np.abs(kept)
        return phases

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        phase_lists = list(pool.map(one, ks))
    dip_minus = np.array([np.min(np.abs(p + 1.0)) if p.size else np.inf for p in phase_lists])
    dip_plus = np.array([np.min(np.abs(p - 1.0)) if p.size else np.inf for p in phase_lists])
    return PhaseTrack(ks=ks, phases=phase_lists, dip_minus=dip_minus,
                      dip_plus=dip_plus, floor=float(floor))


def phase_track_to_csv(track):
    """CSV text with columns k, dip_minus, dip_plus, n_kept."""
    rows = zip(track.ks, track.dip_minus, track.dip_plus, (ph.size for ph in track.phases))
    return ffop.csv_text(["k", "dip_minus", "dip_plus", "n_kept"], rows)
