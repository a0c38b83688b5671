"""Feshbach-Schur back-transport against the diagonal of a sparse Hamiltonian.

Given H = T + W, with T the diagonal of H in the working basis, and a soft
partition chi^2 + chibar^2 = 1 that is diagonal there too, the Feshbach map
decimates H to the band and stays isospectral at 0.  Its back-transport
Q = chi - chibar H_chibar^{-1} chibar W chi, with the off-band block
H_chibar = T + chibar W chibar, carries the band's kernel into ker H.  The
program reads Q on one vector only, so it solves the off-band block once,
sparse, and never forms the decimated operator or Q itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# smallest singular value the off-band block may have on supp(chibar)
_MIN_MARGIN = 1e-12


class DecimationError(RuntimeError):
    """The off-band block is not invertible where chibar is supported."""


def back_transport(H, chi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q v for the sparse H and the soft partition chi (one entry per row).

    Returns chi v - chibar x, where x solves the off-band block on
    supp(chibar) against chibar W chi v with one sparse LU factor.  Raises
    DecimationError when the factor is singular or the block's smallest
    singular value, taken from the same factor, is below _MIN_MARGIN.
    ARPACK needs the block to have at least three rows; a fiber
    Hamiltonian's has, since its whole upper level is off-band.
    """
    H = sp.csr_matrix(H, dtype=complex)
    T = H.diagonal()
    W = H - sp.diags(T)
    chibar = np.sqrt(np.clip(1.0 - chi ** 2, 0.0, 1.0))
    supp = np.flatnonzero(chibar > 1e-14)
    cb = sp.diags(chibar)
    block = (sp.diags(T) + cb @ W @ cb).tocsr()[supp][:, supp].tocsc()
    try:
        # a fiber Hamiltonian is Hermitian, so its block is structurally
        # symmetric: ordering on A^T + A keeps the fill a twelfth of COLAMD's
        lu = spla.splu(block, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:         # SuperLU: "Factor is exactly singular"
        raise DecimationError(f"off-band block is singular: {exc}") from None
    # 1 / the largest singular value of the inverse; svds hands ARPACK
    # tol**2 = 1e-12 on its square, so the margin holds about 12 digits
    inverse = spla.LinearOperator(block.shape, dtype=complex, matvec=lu.solve,
                                  rmatvec=lambda y: lu.solve(y, trans="H"))
    top = spla.svds(inverse, k=1, tol=1e-6, v0=np.ones(len(supp), dtype=complex),
                    return_singular_vectors=False)
    margin = 1.0 / float(top[0])
    if margin < _MIN_MARGIN:
        raise DecimationError(
            f"off-band block margin {margin:.3e} below {_MIN_MARGIN:.3e}")
    cv = chi * v
    x = np.zeros(len(cv), dtype=complex)
    x[supp] = lu.solve((chibar * (W @ cv))[supp])
    return cv - chibar * x
