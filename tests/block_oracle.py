"""Dense reference for the azimuthal DFT blocks of a ball operator.

``azimuthal_blocks`` splits an assembled dense matrix, after checking
its block-circulant structure, so the tests can compare the package's
direct block assembly (``ffop.assemble_blocks``) against the dense one.
"""

import numpy as np


def azimuthal_blocks(A):
    """DFT blocks of a block-circulant operator matrix: shape (n_phi, 2n_theta, 2n_theta).

    Both product rules put n_phi = 2*order equally spaced azimuths on
    each of their n_theta = order latitudes (node j = i_theta*n_phi + a)
    with frames that rotate with the node, so the matrix of any ball
    scene couples azimuths a and b only through b - a. Block m is
    sum_d C_d exp(-2 pi i d m / n_phi) (docs section 12), which is
    ``assemble_blocks`` block -m mod n_phi. A matrix that deviates from
    that structure by more than 1e-12 max|A| raises RuntimeError; a rule
    that is not a product rule, or a matrix whose shape does not fit the
    rule, raises ValueError.
    """
    quad = A.quad
    if quad.kind not in ("PRODUCT_GAUSS", "EQUAL_AREA"):
        raise ValueError(f"azimuthal blocks need a product rule, got a {quad.kind} quadrature")
    n_theta, n_phi = quad.order, 2 * quad.order
    dim = 2 * n_theta * n_phi
    if A.matrix.shape != (dim, dim):
        raise ValueError(f"matrix shape {A.matrix.shape} does not fit the "
                         f"{n_theta}x{n_phi} {quad.kind} rule ({dim}, {dim})")
    M = A.matrix.reshape(n_theta, n_phi, 2, n_theta, n_phi, 2)
    C = M[:, 0]
    tol = 1e-12 * np.max(np.abs(A.matrix))
    dev = max(np.max(np.abs(np.roll(M[:, a], -a, axis=3) - C)) for a in range(1, n_phi))
    if not dev <= tol:
        raise RuntimeError(f"{A.kind} operator at k = {A.k} is not block-circulant in "
                           f"the azimuth: deviation {dev:.3e} > {tol:.3e}")
    blocks = np.fft.fft(C, axis=3)  # (i_theta, s, j_theta, m, t)
    return blocks.transpose(3, 0, 1, 2, 4).reshape(n_phi, 2 * n_theta, 2 * n_theta)
