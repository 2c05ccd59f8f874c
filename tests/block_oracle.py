"""Dense references for the far field operators of a ball.

``full_node_modal_sum`` assembles the dense matrix the direct way, with
mode tables on every quadrature node and no use of the rotation
symmetry, and ``azimuthal_blocks`` splits a dense matrix, after checking
its block-circulant structure. Together they let the tests compare the
package's block kernel (``ffop.assemble_blocks``) and its circulant
expansion (``ffop.assemble``) against code that shares neither.
"""

import numpy as np

from scatsig.forward import impedance_coefficients, mie_coefficients
from scatsig.sphfun import mode_list, vsh_tables


def full_node_modal_sum(kind, scene, k, quad):
    """Dense 2N x 2N operator matrix as the modal sum over every node (docs section 6).

    A[(i,s),(j,t)] = sum_lm d_lm P_lm(i,s) conj(P_lm(j,t)) w_j with P_lm
    the frame components of the vector harmonic at node i. ELECTRIC
    weighs V modes by 4 pi alpha_l and U modes by 4 pi beta_l; the dual
    kinds weigh U by -(4 pi i / k) alpha_l and V by -(4 pi i / k) beta_l;
    MODIFIED is MAGNETIC minus IMPEDANCE.
    """
    dual = -4.0j * np.pi / k
    if kind == "ELECTRIC":
        sets = [(4.0 * np.pi, mie_coefficients(scene, k))]
    elif kind == "MAGNETIC":
        sets = [(dual, mie_coefficients(scene, k))]
    elif kind == "IMPEDANCE":
        sets = [(dual, impedance_coefficients(scene, k))]
    else:
        sets = [(dual, mie_coefficients(scene[0], k)), (-dual, impedance_coefficients(scene[1], k))]
    frames = np.stack([quad.e1, quad.e2], axis=1)  # (N, 2, 3)
    col_w = np.repeat(quad.weights, 2)
    total = 0.0
    for scale, coefs in sets:
        _, U, V = vsh_tables(coefs.L, quad.nodes)
        ells, _ = mode_list(coefs.L)
        phi_u = np.einsum("jsc,mjc->jsm", frames, U).reshape(2 * quad.n_nodes, -1)
        phi_v = np.einsum("jsc,mjc->jsm", frames, V).reshape(2 * quad.n_nodes, -1)
        phi_a, phi_b = (phi_v, phi_u) if kind == "ELECTRIC" else (phi_u, phi_v)
        mat = ((phi_a * coefs.alpha[ells]) @ phi_a.conj().T
               + (phi_b * coefs.beta[ells]) @ phi_b.conj().T)
        total = total + scale * mat * col_w[None, :]
    return total


def azimuthal_blocks(A):
    """DFT blocks of a block-circulant operator matrix: shape (n_phi, 2n_theta, 2n_theta).

    The product rule puts n_phi = 2*order equally spaced azimuths, the
    first at 0, on each of its n_theta = order latitudes (node
    j = i_theta*n_phi + a) with frames that rotate with the node, so the
    matrix of any ball scene couples azimuths a and b only through
    b - a. Block m is sum_d C_d exp(-2 pi i d m / n_phi) (docs section
    12), which is ``assemble_blocks`` block -m mod n_phi. A matrix that
    deviates from that structure by more than 1e-12 max|A| raises
    RuntimeError; a rule that is not a product rule, or a matrix whose
    shape does not fit the rule, raises ValueError.
    """
    quad = A.quad
    if quad.kind != "PRODUCT_GAUSS":
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


def gather_expansion(blocks, quad):
    """Dense matrix of a DFT block stack by an index gather over azimuth pairs (docs section 12).

    With c_d the inverse DFT of ``blocks`` over the block axis, entry
    ((i, p, s), (j, p', t)) is c_{(p - p') mod n_phi}[(i, s), (j, t)]: the
    gather builds the full (p, p', ...) array and one transpose-reshape
    puts it in node order. This was ``ffop.assemble``'s expansion before
    it became a strided view.
    """
    n_theta, n_phi = quad.order, 2 * quad.order
    c = np.fft.ifft(blocks, axis=0).reshape(n_phi, n_theta, 2, n_theta, 2)
    p = np.arange(n_phi)
    full = c[(p[:, None] - p[None, :]) % n_phi]  # (p, p', i, s, j, t)
    return full.transpose(2, 0, 3, 4, 1, 5).reshape(2 * quad.n_nodes, 2 * quad.n_nodes)
