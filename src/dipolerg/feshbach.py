"""Smooth block decimation of a Hamiltonian against a reference operator.

Given H = T + W and a soft partition chi^2 + chibar^2 = 1 commuting with T,
the decimated operator acts on the near-band subspace while remaining
isospectral at 0: chi maps ker H into ker F and the Q operator maps back.
Everything here works on explicit matrices (diagonal soft partitions) and
is exercised by the planted-kernel validation suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg as sla

from .model import ConfigError

# smallest singular value the off-band block may have on supp(chibar)
_MIN_MARGIN = 1e-12


class DecimationError(RuntimeError):
    """The off-band block is not invertible where chibar is supported."""


@dataclasses.dataclass
class DecimationResult:
    F: np.ndarray            # decimated operator
    Q: np.ndarray            # right isospectral factor (ker F -> ker H)
    margin: float            # smallest singular value of the inverted block


def _as_diag(chi_d, n: int) -> np.ndarray:
    d = np.asarray(chi_d, dtype=float).ravel()
    if d.shape != (n,):
        raise ConfigError("soft partition must be a diagonal vector of matching size")
    if np.any(d < -1e-12) or np.any(d > 1.0 + 1e-12):
        raise ConfigError("soft partition values must lie in [0, 1]")
    return np.clip(d, 0.0, 1.0)


def _offband_factor(T, W, chibar):
    """(supp chibar, LU, smallest singular value) of T + chibar W chibar there."""
    supp = chibar > 1e-14
    A_ss = (T + chibar[:, None] * W * chibar[None, :])[np.ix_(supp, supp)]
    sv = np.linalg.svd(A_ss, compute_uv=False)
    margin = float(sv.min()) if sv.size else np.inf
    if margin < _MIN_MARGIN:
        raise DecimationError(
            f"off-band block margin {margin:.3e} below {_MIN_MARGIN:.3e}")
    return supp, sla.lu_factor(A_ss), margin


def feshbach_map(H: np.ndarray, T: np.ndarray, chi_d) -> DecimationResult:
    """Decimate H = T + W with the soft partition chi (diagonal vector).

    T is diagonal in the working basis, so that it commutes with the
    partition, and is passed as its diagonal vector.  Raises
    DecimationError when the off-band block is numerically singular on
    supp(chibar).
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    if H.shape != (n, n):
        raise ConfigError("H must be square")
    T = np.asarray(T, dtype=complex)
    if T.shape != (n,):
        raise ConfigError("T must be the diagonal of the reference, one entry per row of H")
    T = np.diag(T)
    chi = _as_diag(chi_d, n)
    chibar = np.sqrt(np.clip(1.0 - chi ** 2, 0.0, 1.0))
    W = H - T
    H_chi = T + chi[:, None] * W * chi[None, :]
    WC = W * chi[None, :]                      # W chi
    supp, lu, margin = _offband_factor(T, W, chibar)
    # B = H_chibar^{-1} chibar W chi  (supported on supp chibar)
    B = np.zeros((n, n), dtype=complex)
    B[supp] = sla.lu_solve(lu, (chibar[:, None] * WC)[supp])
    F = H_chi - (chi[:, None] * W) @ (chibar[:, None] * B)
    Q = np.diag(chi).astype(complex) - chibar[:, None] * B
    return DecimationResult(F=F, Q=Q, margin=margin)
