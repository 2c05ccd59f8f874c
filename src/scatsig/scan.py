"""Indicator-function scans built on the regularized far field equation.

Both detectors share one mechanism: a far field operator A and a
family of dipole right-hand sides b_z for sample points z inside the
scatterer, solved in Tikhonov-regularized least squares. Away from an
eigenvalue the solutions stay moderate; at a transmission eigenvalue
(k-scan of the magnetic operator) or a generalized Stekloff eigenvalue
(lambda-scan of the modified operator) the averaged solution norm spikes.

Both take their operators from ``ffop.operator_sweep``: a clean
operator is block-circulant in the azimuth (docs section 12), so clean
scans solve n_phi small systems per grid point on its DFT blocks, and
noisy operators take the dense path. Grid points run serially, in grid
order, so repeated runs with the same seeds are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _extension, ffop, forward
from .ffop import FarFieldBlocks, TangentVectorField, wavenumbers, zgemm
from .forward import ConvergenceError, DipoleSource, ImpedanceBall, ResonantParameterError

# the routines scipy.linalg.lapack exports, from its compiled module by file as ffop's BLAS
_flapack = _extension.load(_extension.LAPACK)
zpotrf, zpotrs = _flapack.zpotrf, _flapack.zpotrs

_NORMAL_EQ_TOL = 1e-10


def _auto_alpha(noise_eps, norm):
    return max(noise_eps**2 * norm**2, 1e-10 * norm**2)


@dataclass(frozen=True)
class ZSampling:
    """Sample points z for the right-hand sides, uniform in a ball."""

    count: int = 10
    r_z: float = 0.5
    center: tuple = (0.0, 0.0, 0.0)
    seed: int = 7

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("need at least one sample point")
        if not 0 < self.r_z < np.inf:
            raise ValueError(f"sample ball radius r_z must be positive and finite, got {self.r_z}")
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"sample ball center must be finite, got {self.center}")
        if not 0 <= self.seed < 2**128:  # the range of a Philox key
            raise ValueError(f"z seed must lie in [0, 2**128), got {self.seed}")

    def validate_inside(self, a):
        if self.r_z + float(np.linalg.norm(self.center)) >= a:
            raise ValueError("sample ball must lie strictly inside the scatterer")

    def points(self):
        gen = np.random.Generator(np.random.Philox(key=int(self.seed)))
        v = gen.standard_normal((self.count, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        r = self.r_z * gen.uniform(0.0, 1.0, self.count) ** (1.0 / 3.0)
        return np.asarray(self.center, dtype=float)[None, :] + v * r[:, None]


@dataclass(eq=False)
class ScanResult:
    """Indicator values over a parameter grid.

    ``param`` is a real 1-D grid (k or lambda) or a complex 2-D
    rectangle; ``indicator`` is the z-averaged solution norm on the same
    shape, ``per_z`` carries the per-sample norms with a trailing z
    axis. Resonant grid points hold NaN (recorded gaps, not failures).
    """

    kind: str
    param: np.ndarray
    indicator: np.ndarray
    per_z: np.ndarray
    metadata: dict = field(default_factory=dict)


def _require_finite(x, stage):
    """Raise FloatingPointError naming ``stage`` unless x is finite.

    A block stack (n_blocks, m, k) also names its first non-finite block.
    """
    if np.isfinite(x).all():
        return
    where = ""
    if x.ndim == 3:
        bad = ~np.isfinite(x.reshape(x.shape[0], -1)).all(axis=1)
        where = f" in block {int(np.flatnonzero(bad)[0])}"
    raise FloatingPointError(f"non-finite {stage}{where} of the normal equations")


def _block_factor(gram, lower):
    """Cholesky factors of a Hermitian stack (n_blocks, m, m), one zpotrf per block.

    ``lower`` picks the triangle that is read and factored. These are
    the LAPACK calls scipy's cho_factor makes, without its per-slice
    Python wrapper and finite checks. A Fortran-ordered block is
    factored in its own buffer; f2py copies any other block first.
    """
    factors = []
    for q, g in enumerate(gram):
        c, info = zpotrf(g, lower=lower, clean=0, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"block {q} of the normal equations is not positive definite "
                f"(leading minor {info})")
        factors.append(c)
    return factors


_TILE = 64


def _transpose_in_place(a):
    """Transpose the square array ``a`` in its own buffer, one tile pair at a time.

    ``a[...] = a.T`` would first copy all of ``a``; here the temporaries
    are _TILE x _TILE tiles.
    """
    n = a.shape[0]
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(i + _TILE, n, _TILE):
            cols = slice(j, j + _TILE)
            tile = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = tile.T


def cho_solve(factors, rhs, lower):
    """Solve the factored normal equations for ``rhs``, one zpotrs per block.

    ``factors`` are those of ``_block_factor``, and rhs has shape
    (n_blocks, m, k), or (m, k) for a single factor. Finite checks are
    the caller's.
    """
    stack = rhs.reshape((len(factors),) + rhs.shape[-2:])
    # Fortran-ordered slices as zpotrs returns them: dense column norms depend on the layout
    out = np.empty((len(factors), rhs.shape[-1], rhs.shape[-2]), dtype=complex).transpose(0, 2, 1)
    for q, c in enumerate(factors):
        out[q] = zpotrs(c, stack[q], lower=lower)[0]
    return out.reshape(rhs.shape)


class _NormalSolver:
    """Factorized weighted normal equations (alpha W + A^H W A) G = A^H W B.

    A dense FarFieldMatrix is one system with the node weights. The
    solver takes over its matrix: X = W^1/2 A is formed in A's own
    buffer, so A.matrix holds X afterwards and no second copy is kept.
    The Gram is the lower triangle of X^H X in zherk's buffer, which is
    then transposed in place so that zpotrf factors it without a copy;
    a point holds two dense arrays, X and the factor. Gram, norm,
    factor, right-hand sides and residuals, the last formed from X,
    all run in scipy's BLAS and LAPACK, so a grid point never switches
    between numpy's and scipy's OpenBLAS thread pools (docs section
    11). A FarFieldBlocks stack is n_phi blocks with the latitude
    weights, and right-hand sides are DFT'd over azimuth into it; Gram
    and products are batched numpy calls. Each block, or the one dense
    system, is factored and solved by its own zpotrf and zpotrs. A
    non-finite Gram or right-hand side raises FloatingPointError,
    checked once per stack. ``alpha`` is positive and finite, or "auto"
    for alpha = max(eps^2, 1e-10) ||A||^2 with A's noise level eps and
    ||A|| read off this Gram before the alpha shift (docs section 11);
    any other value raises ValueError before A is touched.
    """

    def __init__(self, A, alpha):
        if not (alpha == "auto" if isinstance(alpha, str) else 0 < alpha < np.inf):
            raise ValueError(f"alpha must be positive and finite, or 'auto', got {alpha!r}")
        self.w = A.weight_vector()
        self.dense = not isinstance(A, FarFieldBlocks)
        if self.dense:
            self.sw = np.sqrt(self.w)
            self.x = np.multiply(self.sw[:, None], A.matrix, out=A.matrix)
            gram = ffop.gram_lower(self.x)
        else:
            self._split, self._merge = A.to_blocks, A.to_nodes
            ah = A.matrix.conj().transpose(0, 2, 1)
            self.ah_w = ah * self.w
            gram = self.gram = ah @ (self.w[:, None] * A.matrix)
        _require_finite(gram, "Gram")
        if isinstance(alpha, str):
            alpha = _auto_alpha(A.noise_eps, ffop.gram_norm(gram, self.w))
        self.alpha_w = float(alpha) * self.w
        diag = np.arange(self.w.size)
        gram[..., diag, diag] += self.alpha_w
        self.lower = int(self.dense)  # gram_lower fills only the dense Gram's lower triangle
        if self.dense:
            # the Fortran view of the transposed buffer holds the lower triangle
            # f2py's copy of the C-ordered triangle would hold
            _transpose_in_place(gram)
            gram = [gram.T]
        self.factor = _block_factor(gram, self.lower)

    def _norms(self, x):
        # per-column weighted norm summed over blocks: by Parseval the node-space
        # norm times sqrt(n_phi), which cancels in the relative residual
        return np.sqrt(np.sum(np.abs(x) ** 2 / self.w[:, None], axis=tuple(range(x.ndim - 1))))

    def _rhs(self, b):
        if self.dense:
            # (X^H (W^1/2 B))^T = (W^1/2 B)^T conj(X), on the Fortran views
            return zgemm(1.0, (self.sw[:, None] * b).T, self.x.T, trans_b=2).T
        return self.ah_w @ self._split(b)

    def _residual(self, g, rhs):
        if self.dense:
            # X^H (X g) + alpha W g - rhs, the Gram being gone: zgemm reads X and
            # X^T off the Fortran view x.T, and X^H v = conj(X^T conj(v))
            xg = zgemm(1.0, self.x.T, g, trans_a=1)
            return zgemm(1.0, self.x.T, xg.conj()).conj() + self.alpha_w[:, None] * g - rhs
        return self.gram @ g - rhs

    def solve(self, b):
        """Node-space solution for a (2N,) right-hand side or a (2N, m) block of them.

        One cho_solve serves the block; columns whose weighted residual
        misses _NORMAL_EQ_TOL get up to three refinement rounds, after
        which ConvergenceError is raised.
        """
        rhs = self._rhs(b.reshape(b.shape[0], -1))
        _require_finite(rhs, "right-hand side")
        g = cho_solve(self.factor, rhs, self.lower)
        scale = self._norms(rhs)
        for _ in range(3):
            res = self._residual(g, rhs)
            bad = self._norms(res) > _NORMAL_EQ_TOL * np.maximum(scale, 1e-300)
            if not bad.any():
                return (g if self.dense else self._merge(g)).reshape(b.shape)
            g[..., bad] -= cho_solve(self.factor, res[..., bad], self.lower)
        raise ConvergenceError("normal equations did not reach the residual tolerance")


def _column_norms(quad, g):
    """Weighted L2 norms sqrt(sum_j w_j |g_j|^2) of the (2N, m) solution columns."""
    return np.sqrt(np.repeat(quad.weights, 2) @ np.abs(g) ** 2)


def _dipole_rhs(quad, z_pts, k, magnetic):
    """(2N, nz) dipole right-hand sides, one column per sample point z.

    The moment is p = (1,0,0); the pattern is H_inf if ``magnetic``, else E_inf.
    """
    pol = np.array([1.0, 0.0, 0.0])
    cols = (forward.dipole_far_fields(DipoleSource(z=z, q=pol, k=k), quad.nodes)[int(magnetic)]
            for z in z_pts)
    return np.stack([quad.frame_components(c).reshape(-1) for c in cols], axis=1)


def _scan_metadata(kind, medium, quad, zs, alpha, noise_eps, noise_seed, **extra):
    """Provenance shared by both scans, plus the scan's own keys."""
    return {
        "kind": kind,
        "medium": medium.to_json(),
        "quad": f"{quad.kind}:{quad.order}",
        "alpha": alpha if isinstance(alpha, str) else float(alpha),
        "noise_eps": float(noise_eps),
        "noise_seed": int(noise_seed),
        "z_count": zs.count,
        "z_radius": zs.r_z,
        "z_center": list(zs.center),
        "z_seed": zs.seed,
        **extra,
    }


def tev_scan(medium, k_grid, quad, zs=ZSampling(), alpha="auto",
             noise_eps=0.0, noise_seed=1, herglotz=False):
    """Transmission-eigenvalue scan of the magnetic far field equation.

    The magnetic operators come from one ``ffop.operator_sweep`` over
    ``k_grid`` (one Mie solve and one mode table for the grid), the noise
    of each keyed by (noise_seed, grid index). At each k,
    F_m g = H_{e,inf}(.; z, p), with fixed polarization
    p = (1,0,0), is solved for all sample points z in one block solve.
    The indicator is the z-averaged norm of g; with ``herglotz=True`` it
    is the averaged L2 norm of the magnetic Herglotz field of g over the
    scatterer ball (the theorem-side quantity; slower).
    """
    if any(n.imag != 0 for _, n in medium.layers):
        raise ValueError("transmission-eigenvalue scans require a real index")
    zs.validate_inside(medium.radius)
    ks = wavenumbers(k_grid)
    z_pts = zs.points()

    def one(k, A):
        k = float(k)
        g = _NormalSolver(A, alpha).solve(_dipole_rhs(quad, z_pts, k, magnetic=True))
        if herglotz:
            fields = [TangentVectorField.from_flat(quad, col) for col in g.T]
            return forward.herglotz_ball_norm(fields, k, medium.radius, magnetic=True)
        return _column_norms(quad, g)

    ops = ffop.operator_sweep("MAGNETIC", medium, ks, quad, noise_eps, noise_seed)
    rows = [one(k, next(ops)) for k in ks]  # no name holds an operator past its point
    per_z = np.vstack(rows)
    meta = _scan_metadata("tev", medium, quad, zs, alpha, noise_eps, noise_seed,
                          herglotz=bool(herglotz))
    return ScanResult("tev", ks, per_z.mean(axis=1), per_z, meta)


def stekloff_scan(scene, R, k, lam_grid, quad, zs=ZSampling(), alpha="auto",
                  s_kind="CURL_CURL", noise_eps=0.0, noise_seed=1):
    """Stekloff-eigenvalue scan of the modified far field equation.

    The magnetic operator of the scene comes once from
    ``ffop.far_field_operator`` (it does not depend on lambda); per grid
    value ``ffop.modified_operator`` subtracts the impedance-ball operator
    for (R, lambda) in its form, blocks or dense, and
    F_M g = E_{e,inf}(.; z, q) is solved for all z in one block solve.
    lam_grid may be a real 1-D grid or a complex 2-D rectangle; resonant
    lambda values (impedance ball has no unique solution) are recorded
    as NaN gaps.
    """
    ffop._require_reference_ball(R, scene)
    zs.validate_inside(scene.radius)
    lam = np.asarray(lam_grid)
    if lam.ndim not in (1, 2) or lam.size == 0:
        raise ValueError(f"lambda grid must be a nonempty 1-D list or 2-D rectangle, "
                         f"got shape {lam.shape}")
    k = float(k)
    F_m = ffop.far_field_operator("MAGNETIC", scene, k, quad, noise_eps, noise_seed)
    rhs = _dipole_rhs(quad, zs.points(), k, magnetic=False)

    def one(lam_val):
        try:
            A = ffop.modified_operator(F_m, ImpedanceBall(R=R, lam=complex(lam_val), s_kind=s_kind))
        except ResonantParameterError:
            return np.full(rhs.shape[1], np.nan)
        return _column_norms(quad, _NormalSolver(A, alpha).solve(rhs))

    rows = [one(lam_val) for lam_val in lam.reshape(-1)]
    per_z = np.stack(rows).reshape(lam.shape + (rhs.shape[1],))
    meta = _scan_metadata("stekloff", scene, quad, zs, alpha, noise_eps, noise_seed,
                          B=float(R), k=k, s_kind=s_kind)
    return ScanResult("stekloff", lam, per_z.mean(axis=-1), per_z, meta)


def find_peaks(result, min_prominence=2.0):
    """Local indicator maxima exceeding min_prominence times the median.

    A peak strictly dominates its 3-wide (grid) or 3x3 (rectangle)
    neighbourhood, all finite, so NaN gaps never produce peaks. Returns
    the peaks' parameter values in grid order, row-major on a rectangle.
    The default threshold is calibrated so the reference scans detect
    their oracle eigenvalues without flagging background wiggles; pass a
    higher value for noisy data.
    """
    ind = result.indicator
    finite = np.isfinite(ind)
    if not np.any(finite):
        return []
    thresh = min_prominence * float(np.median(ind[finite]))
    peaks = []
    for corner in np.ndindex(*(max(n - 2, 0) for n in ind.shape)):
        block = ind[tuple(slice(i, i + 3) for i in corner)]
        centre = tuple(i + 1 for i in corner)
        c = ind[centre]
        if np.all(np.isfinite(block)) and c >= thresh and np.sum(block >= c) == 1:
            peaks.append(result.param[centre])
    return peaks


def result_to_csv(result):
    """CSV text for real grids: metadata comment, then one row per point."""
    if result.param.ndim != 1:
        raise ValueError("CSV export is for real (1-D) grids; use JSON for rectangles")
    nz = result.per_z.shape[-1]
    name = "k" if result.kind == "tev" else "lambda"
    header = [name, "indicator_mean"] + [f"indicator_z{j+1}" for j in range(nz)]
    rows = ([p, m, *z] for p, m, z in zip(result.param, result.indicator, result.per_z))
    return ffop.csv_text(header, rows, ["# " + json.dumps(result.metadata, sort_keys=True)])


def result_to_json(result, config=None):
    """JSON text for complex rectangles: axes plus row-major log10 indicator.

    A ``config`` dict is written under the key "config".
    """
    if result.param.ndim != 2:
        raise ValueError("JSON export is for complex rectangles; use CSV for real grids")
    re_axis = result.param.real[0, :].tolist()
    im_axis = result.param.imag[:, 0].tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        log10 = np.log10(result.indicator)
    rows = [[None if not np.isfinite(v) else v for v in row] for row in log10.tolist()]
    doc = {
        "metadata": result.metadata,
        "re_axis": re_axis,
        "im_axis": im_axis,
        "log10_indicator": rows,
    }
    if config is not None:
        doc["config"] = config
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
