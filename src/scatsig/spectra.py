"""Eigenvalue diagnostics for discretized far field operators.

Covers the eigenvalues, the circle laws for the electric and
magnetic operators, and phase tracking of the magnetic spectrum across
a wavenumber sweep. The phase indicators min_j |phase_j + 1| and min_j
|phase_j - 1| dip near interior transmission eigenvalues, which is the
operator-side detector the oracle roots are checked against. The
absorption energy identity and the positivity of Im((-ik F_e) g, g) are
theorems about the operator that the tests check (acceptance criteria
04 and 05), with helpers in tests/field_oracle.py.

This is the one module that imports scipy.linalg, about half of a CLI
start; the package serves its names on first use, and the CLI imports
it only for ``ffop-eigs`` and ``phase-track``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import ffop
from .ffop import FarFieldBlocks, FarFieldMatrix
# nothing here calls riccati_all or vsh_tables: bench/spans.py wraps them in this module by name
from .sphfun import riccati_all, vsh_tables  # noqa: F401

@dataclass(eq=False)
class EigenSet:
    """Eigenvalues sorted by decreasing magnitude, with the operator's kind and k.

    ``values`` holds every eigenvalue of the operator, or, from ``eig``
    with a floor, those of the blocks it solved: each block's values
    repeated for its mirror, and every value at or above the floor among
    them.
    """

    values: np.ndarray
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


def _require_floor(floor):
    if not 0 <= floor <= 1:  # NaN included: a floor above 1 keeps no eigenvalue
        raise ValueError(f"floor must lie in [0, 1], got {floor}")


def _blocks_over_floor(blocks, floor):
    """Mask of the blocks that can hold an eigenvalue with |lambda| >= floor * max|lambda|.

    Every eigenvalue of block q has |lambda| <= ||B_q||_F, and max|lambda|
    >= |tr B_q| / m for every q (m rows), so block q is skipped when
    ||B_q||_F (1 + 1e-10) < floor * max_q |tr B_q| / m; docs section 12.
    The block of the largest trace is always kept, and so is every block
    at floor 0 or of an all-zero stack.
    """
    m = blocks.shape[-1]
    bound = floor * np.max(np.abs(np.trace(blocks, axis1=1, axis2=2))) / m
    return ~(np.linalg.norm(blocks, axis=(1, 2)) * (1.0 + 1e-10) < bound)


def eig(A, floor=0.0):
    """Eigenvalues of an operator, on its azimuthal blocks when it comes as blocks.

    A FarFieldBlocks is a stack of n_phi blocks, a FarFieldMatrix or a
    square array a stack of one, and the stack goes to one scipy
    eigvals. Of a FarFieldBlocks only its first ``n_unique`` blocks are
    solved: block n_phi - q is S B_q S, so it shares the values of block
    q; a stack that breaks this symmetry raises ValueError. The DFT
    similarity is unitary, so the values are the dense ones (docs
    section 12). With ``floor`` in (0, 1], a FarFieldBlocks solves only
    the unique blocks that can hold an eigenvalue with |lambda| >= floor
    * max|lambda| (``_blocks_over_floor``): the values are then those
    blocks' eigenvalues, mirrors repeated, and hold every eigenvalue at
    or above the floor with the bits of the full solve. A single matrix
    is solved whole at any floor. LAPACK failure surfaces as LinAlgError.
    """
    _require_floor(floor)
    blocks = isinstance(A, FarFieldBlocks)
    operator = blocks or isinstance(A, FarFieldMatrix)
    mat = A.matrix if operator else np.asarray(A, complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if not blocks and mat.ndim != 2:
        raise ValueError(f"eig needs a square matrix, got shape {mat.shape}")
    if blocks:
        if not np.array_equal(mat[A.n_unique:], ffop.mirror(mat[A.n_unique - 2:0:-1])):
            raise ValueError("FarFieldBlocks are not mirror-symmetric: block n_phi - q must be "
                             "ffop.mirror of block q, as ffop.far_field_operator makes them")
        solve = _blocks_over_floor(mat[:A.n_unique], floor)
        vals = scipy.linalg.eigvals(mat[:A.n_unique][solve], check_finite=False)
        n = len(mat)
        q = np.minimum(np.arange(n), n - np.arange(n))  # block p is block q = min(p, n - p)
        q = q[solve[q]]  # the stack's blocks whose twin was solved, in stack order
        vals = vals[np.cumsum(solve)[q] - 1]  # the twin's row of the solved stack
    else:
        vals = scipy.linalg.eigvals(mat, check_finite=False)
    vals = vals.ravel()
    kind, k = (A.kind, A.k) if operator else ("GENERIC", 0.0)
    return EigenSet(vals[_sort_order(vals)], kind, k)


def circle_center_radius(kind, k):
    if kind == "ELECTRIC":
        return -2.0 * np.pi + 0.0j, 2.0 * np.pi
    if kind == "MAGNETIC":
        return 2.0j * np.pi / k, 2.0 * np.pi / k
    raise ValueError(f"no circle law for operator kind {kind!r}")


def circle_residual(eigset):
    """Per-eigenvalue distance from the kind's eigenvalue circle.

    Electric eigenvalues lie on |lambda + 2 pi| = 2 pi for real index;
    magnetic ones on |lambda - 2 pi i/k| = 2 pi/k. Returns the array of
    | |lambda - center| - radius | values of the EigenSet's eigenvalues.
    """
    c, r = circle_center_radius(eigset.kind, eigset.k)
    return np.abs(np.abs(eigset.values - c) - r)


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
    come from ``eig`` at this floor on the clean operator's azimuthal DFT
    blocks, one batched eigvals per k over the blocks that can hold a kept
    value, in eig's order. The blocks
    come from one ``ffop.operator_sweep`` over the grid, so one Mie solve
    and one mode table serve all of it; grid points run serially, in
    grid order.
    """
    ks = ffop.wavenumbers(k_values)
    _require_floor(floor)

    def phases(A):
        vals = eig(A, floor).values
        cut = floor * np.abs(vals[0]) if vals.size else 0.0
        kept = vals[(np.abs(vals) >= cut) & (vals != 0)]
        return kept / np.abs(kept)

    phase_lists = [phases(A) for A in ffop.operator_sweep("MAGNETIC", medium, ks, quad)]
    dip_minus = np.array([np.min(np.abs(p + 1.0)) if p.size else np.inf for p in phase_lists])
    dip_plus = np.array([np.min(np.abs(p - 1.0)) if p.size else np.inf for p in phase_lists])
    return PhaseTrack(ks=ks, phases=phase_lists, dip_minus=dip_minus, dip_plus=dip_plus)


def phase_track_to_csv(track):
    """CSV text with columns k, dip_minus, dip_plus, n_kept."""
    rows = zip(track.ks, track.dip_minus, track.dip_plus, (ph.size for ph in track.phases))
    return ffop.csv_text(["k", "dip_minus", "dip_plus", "n_kept"], rows)
