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

from .model import ConfigError

# smallest singular value the off-band block may have on supp(chibar)
_MIN_MARGIN = 1e-12


class DecimationError(RuntimeError):
    """The off-band block is not invertible where chibar is supported."""


@dataclasses.dataclass
class DecimationResult:
    F: np.ndarray            # decimated operator
    Q: np.ndarray            # right isospectral factor (ker F -> ker H)
    Q_sharp: np.ndarray      # left factor
    H_chi: np.ndarray
    margin: float            # smallest singular value of the inverted block


def _as_diag(chi_d, n: int) -> np.ndarray:
    d = np.asarray(chi_d, dtype=float).ravel()
    if d.shape != (n,):
        raise ConfigError("soft partition must be a diagonal vector of matching size")
    if np.any(d < -1e-12) or np.any(d > 1.0 + 1e-12):
        raise ConfigError("soft partition values must lie in [0, 1]")
    return np.clip(d, 0.0, 1.0)


def _offband_solve(T, W, chibar, rhs):
    """Solve (T + chibar W chibar) y = rhs on the support of chibar."""
    n = T.shape[0]
    supp = chibar > 1e-14
    A = np.diag(np.asarray(np.diag(T), dtype=complex)) if T.ndim == 1 else np.asarray(T, dtype=complex).copy()
    A = A + chibar[:, None] * W * chibar[None, :]
    A_ss = A[np.ix_(supp, supp)]
    sv = np.linalg.svd(A_ss, compute_uv=False)
    margin = float(sv.min()) if sv.size else np.inf
    if margin < _MIN_MARGIN:
        raise DecimationError(
            f"off-band block margin {margin:.3e} below {_MIN_MARGIN:.3e}")
    y = np.zeros_like(rhs)
    y[supp] = np.linalg.solve(A_ss, rhs[supp])
    return y, margin


def feshbach_map(H: np.ndarray, T: np.ndarray, chi_d) -> DecimationResult:
    """Decimate H = T + W with the soft partition chi (diagonal vector).

    T must be diagonal in the working basis (passed as a matrix or vector)
    so that it commutes with the partition.  Raises DecimationError when
    the off-band block is numerically singular on supp(chibar).
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    if H.shape != (n, n):
        raise ConfigError("H must be square")
    T = np.asarray(T, dtype=complex)
    if T.ndim == 1:
        T = np.diag(T)
    if T.shape != (n, n):
        raise ConfigError("T must match H")
    if np.max(np.abs(T - np.diag(np.diag(T)))) > 1e-12:
        raise ConfigError("T must be diagonal in the working basis")
    chi = _as_diag(chi_d, n)
    chibar = np.sqrt(np.clip(1.0 - chi ** 2, 0.0, 1.0))
    W = H - T
    H_chi = T + chi[:, None] * W * chi[None, :]
    WC = W * chi[None, :]                      # W chi
    B, margin = _offband_solve(T, W, chibar, chibar[:, None] * WC)
    # B = H_chibar^{-1} chibar W chi  (supported on supp chibar)
    F = H_chi - (chi[:, None] * W) @ (chibar[:, None] * B)
    Q = np.diag(chi).astype(complex) - chibar[:, None] * B
    Y, _ = _offband_solve(T, W, chibar, np.diag(chibar).astype(complex))
    Q_sharp = np.diag(chi).astype(complex) - (chi[:, None] * W) @ (chibar[:, None] * Y)
    return DecimationResult(F=F, Q=Q, Q_sharp=Q_sharp, H_chi=H_chi, margin=margin)


def isospectral_test(H: np.ndarray, T: np.ndarray, chi_d) -> dict:
    """Residuals of the isospectrality identities for one instance.

    Returns kernel-transport residuals in both directions (via the smallest
    singular vectors of H and F) and, when H is invertible, the resolvent
    splitting residual |H^{-1} - chibar Hcb^{-1} chibar - Q F^{-1} Q#|.
    """
    res = feshbach_map(H, T, chi_d)
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    chi = _as_diag(chi_d, n)
    chibar = np.sqrt(np.clip(1.0 - chi ** 2, 0.0, 1.0))
    out = {"margin": res.margin}

    # kernel transport is only meaningful when a kernel is actually present
    u, s, vh = np.linalg.svd(H)
    psi = vh[-1].conj()
    out["sigma_min_H"] = float(s[-1])
    uf, sf, vfh = np.linalg.svd(res.F)
    phi = vfh[-1].conj()
    out["sigma_min_F"] = float(sf[-1])
    if s[-1] < 1e-8:
        fwd = res.F @ (chi * psi)
        scale = max(np.linalg.norm(res.F), 1.0)
        out["forward_residual"] = float(np.linalg.norm(fwd)
                                        / max(np.linalg.norm(chi * psi) * scale, 1e-300))
    if sf[-1] < 1e-8:
        back = H @ (res.Q @ phi)
        out["backward_residual"] = float(np.linalg.norm(back)
                                         / max(np.linalg.norm(res.Q @ phi)
                                               * max(np.linalg.norm(H), 1.0), 1e-300))
    # resolvent splitting, only meaningful away from the kernel
    if s[-1] > 1e-8 and sf[-1] > 1e-8:
        T_ = np.asarray(T, dtype=complex)
        if T_.ndim == 1:
            T_ = np.diag(T_)
        W = H - T_
        Hcb = T_ + chibar[:, None] * W * chibar[None, :]
        supp = chibar > 1e-14
        inv_cb = np.zeros_like(H)
        inv_cb[np.ix_(supp, supp)] = np.linalg.inv(Hcb[np.ix_(supp, supp)])
        lhs = np.linalg.inv(H)
        rhs = (chibar[:, None] * inv_cb * chibar[None, :]
               + res.Q @ np.linalg.inv(res.F) @ res.Q_sharp)
        out["resolvent_residual"] = float(np.max(np.abs(lhs - rhs))
                                          / max(np.max(np.abs(lhs)), 1e-300))
    return out


def planted_instance(n: int, rng: np.random.Generator, *,
                     plant_kernel: bool = True):
    """Random (H, T, chi) with a known vector planted in ker H.

    T is a positive diagonal, the partition tracks which T-entries are
    small, and H = A (1 - P_psi) for a well-conditioned random A, so psi
    spans ker H exactly.
    """
    t = np.sort(rng.uniform(0.05, 2.0, size=n))
    chi = np.clip(1.5 - 2.0 * t, 0.0, 1.0)      # soft: band = small t
    if chi.max() <= 0.0:
        chi[0] = 1.0
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = A + n * np.eye(n)                        # keep A invertible
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi = psi / np.linalg.norm(psi)
    H = A.copy()
    if plant_kernel:
        H = A @ (np.eye(n) - np.outer(psi, psi.conj()))
    return H, t, chi, psi
