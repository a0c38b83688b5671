"""Fixtures and references only the tests use: the dense Feshbach map (the
independent reference for feshbach.back_transport), planted Feshbach
instances, isospectrality residuals, the Fock-space dilation (the reference
for kernels.scale_transform), the effective mass of a sweep, the
half-weighted kernel norm, the kernel dump reader and the polarization frame
solver that the d=3 frame table of build_modes is checked against.  Import
as `from helpers import`."""

import json
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from dipolerg.model import ConfigError
from dipolerg.kernels import (Kernel, KernelFamily, KernelGrid, _grid_json,
                              _masked_sup, _photon_factor)
from dipolerg.feshbach import DecimationError, _MIN_MARGIN
from dipolerg.fockspace import FockBasis, shift_index


class DenseDecimation(NamedTuple):
    F: np.ndarray            # decimated operator
    Q: np.ndarray            # right isospectral factor (ker F -> ker H)
    margin: float            # smallest singular value of the inverted block


def feshbach_map(H: np.ndarray, T: np.ndarray, chi: np.ndarray) -> DenseDecimation:
    """Dense Feshbach map of H = T + W with the soft partition chi.

    T is diagonal in the working basis, so that it commutes with the
    partition; both arrive as diagonal vectors.  Every n x n block is
    formed and the off-band margin is a full SVD, under the same
    _MIN_MARGIN guard as feshbach.back_transport.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    chibar = np.sqrt(np.clip(1.0 - chi ** 2, 0.0, 1.0))
    T = np.diag(np.asarray(T, dtype=complex))
    W = H - T
    supp = chibar > 1e-14
    A_ss = (T + chibar[:, None] * W * chibar[None, :])[np.ix_(supp, supp)]
    sv = np.linalg.svd(A_ss, compute_uv=False)
    margin = float(sv.min()) if sv.size else np.inf
    if margin < _MIN_MARGIN:
        raise DecimationError(
            f"off-band block margin {margin:.3e} below {_MIN_MARGIN:.3e}")
    # B = H_chibar^{-1} chibar W chi  (supported on supp chibar)
    B = np.zeros((n, n), dtype=complex)
    B[supp] = np.linalg.solve(A_ss, (chibar[:, None] * W * chi[None, :])[supp])
    F = T + chi[:, None] * W * chi[None, :] - (chi[:, None] * W) @ (chibar[:, None] * B)
    Q = np.diag(chi).astype(complex) - chibar[:, None] * B
    return DenseDecimation(F=F, Q=Q, margin=margin)


def dilation(basis: FockBasis, steps: int = 1) -> sp.csr_matrix:
    """Grid-exact dilation: shifts every photon's radial index down by `steps`.

    Scales H_f by rho^steps under conjugation.  Partial isometry: states
    containing a j < steps photon map to 0; every other state keeps its
    photon count, so its image is in the basis.  Refuses bases whose grid
    is not closed under the shift.
    """
    modes = basis.modes
    down = shift_index(modes, -steps)
    if np.any((np.array([m.j for m in modes]) >= steps) & (down < 0)):
        raise ConfigError("mode grid is not geometric: dilation refused")
    # a photon of mode i moves to mode down[i], with the same occupation
    moved = np.where((down >= 0)[:, None], basis.key_weights[down], 0)
    col = np.flatnonzero(~np.any(basis.occ[:, down < 0] > 0, axis=1))
    row = basis.lookup(basis.occ[col].astype(np.int64) @ moved)
    return sp.csr_matrix((np.ones(len(col)), (row, col)),
                         shape=(len(basis), len(basis)), dtype=complex)


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


def isospectral_test(H: np.ndarray, T: np.ndarray, chi: np.ndarray) -> dict:
    """Residuals of the isospectrality identities for one instance.

    Returns kernel-transport residuals in both directions (via the smallest
    singular vectors of H and F) and, when H is invertible, the resolvent
    splitting residual |H^{-1} - chibar Hcb^{-1} chibar - Q F^{-1} Q#|.
    """
    res = feshbach_map(H, T, chi)
    H = np.asarray(H, dtype=complex)
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
        T_ = np.diag(np.asarray(T, dtype=complex))
        W = H - T_
        Hcb = T_ + chibar[:, None] * W * chibar[None, :]
        supp = chibar > 1e-14
        inv_cb = np.zeros_like(H)
        inv_cb[np.ix_(supp, supp)] = np.linalg.inv(Hcb[np.ix_(supp, supp)])
        cb_inv_cb = chibar[:, None] * inv_cb * chibar[None, :]
        # left factor Q# = chi - chi W chibar Hcb^{-1} chibar
        Q_sharp = np.diag(chi).astype(complex) - (chi[:, None] * W) @ cb_inv_cb
        lhs = np.linalg.inv(H)
        rhs = cb_inv_cb + res.Q @ np.linalg.inv(res.F) @ Q_sharp
        out["resolvent_residual"] = float(np.max(np.abs(lhs - rhs))
                                          / max(np.max(np.abs(lhs)), 1e-300))
    return out


def effective_mass(p_values, e_values, m: float) -> dict:
    """Two independent curvature estimates of the dispersion at p = 0.

    The sweep must be symmetric about 0.  Returns the second-difference
    estimate, an even-polynomial fit estimate, and the fit residual.
    """
    p = np.asarray(p_values, dtype=float)
    e = np.asarray(e_values, dtype=float)
    order = np.argsort(p)
    p, e = p[order], e[order]
    if not np.allclose(p + p[::-1], 0.0, atol=1e-12):
        raise ConfigError("effective mass needs a sweep symmetric about 0")
    i0 = int(np.argmin(np.abs(p)))
    if abs(p[i0]) > 1e-12:
        raise ConfigError("sweep must contain p = 0")
    h = p[i0 + 1] - p[i0]
    curv_diff = (e[i0 + 1] - 2.0 * e[i0] + e[i0 - 1]) / h ** 2
    # even polynomial in p, degree 6
    A = np.stack([p ** 0, p ** 2, p ** 4, p ** 6], axis=1)
    coef, *_ = np.linalg.lstsq(A, e, rcond=None)
    fit = A @ coef
    resid = float(np.max(np.abs(fit - e)))
    curv_fit = 2.0 * coef[1]
    return {
        "curvature_diff": float(curv_diff),
        "curvature_fit": float(curv_fit),
        "fit_residual": resid,
        "energy_range": float(e.max() - e.min()),
        "m_eff_diff": 1.0 / (1.0 / m + curv_diff),
        "m_eff_fit": 1.0 / (1.0 / m + curv_fit),
    }


def norm_half(kernel: Kernel) -> float:
    """sup over the base set of |w| * prod |k_i|^{-1/2} (m+n >= 1)."""
    if kernel.m + kernel.n < 1:
        raise ConfigError("norm_half needs m+n >= 1")
    return _masked_sup(kernel, kernel.values * _photon_factor(kernel))


def sequence_from_json(text: str, grid: KernelGrid) -> KernelFamily:
    """The family of one that sequence_to_json dumped, on the grid it was
    dumped from: JSON float repr round-trips, so the grid block must match
    `grid` exactly."""
    payload = json.loads(text)
    if payload.get("version") != 1:
        raise ConfigError("unknown kernel dump version")
    if payload.get("grid") != _grid_json(grid):
        raise ConfigError("kernel dump was taken on another grid")
    kernels = {}
    for item in payload["kernels"]:
        m, n = item["m"], item["n"]
        # photon axes run over a prefix of the grid's modes
        if item["mode_ids"] != list(range(len(item["mode_ids"]))):
            raise ConfigError("kernel dump mode_ids must be 0..n-1")
        shape = grid.base_shape + (len(item["mode_ids"]),) * (m + n)
        vals = (np.asarray(item["re"]) + 1j * np.asarray(item["im"])).reshape(shape)
        kernels[(m, n)] = vals[None]
    z = complex(payload["z"][0], payload["z"][1])
    return KernelFamily(grid, kernels, payload["p"], [z], [payload.get("meta", {})])


# fixed fallback frame for k parallel to e_z (declared tie-break)
_FALLBACK_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def polarization(k: np.ndarray, lam: int) -> np.ndarray:
    """Transverse unit polarization vector eps_lam(k), lam in {1, 2}.

    The frame is built from e_z x k; directions parallel to e_z fall back
    to (e_x, e_y).
    """
    if lam not in (1, 2):
        raise ConfigError("polarization index must be 1 or 2")
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise ConfigError("polarization needs a 3-vector")
    kn = np.linalg.norm(k)
    if kn == 0.0:
        raise ConfigError("polarization undefined at k = 0")
    khat = k / kn
    e_z = np.array([0.0, 0.0, 1.0])
    cross = np.cross(e_z, khat)
    cn = np.linalg.norm(cross)
    if cn < 1e-12:
        return _FALLBACK_FRAME[lam - 1].copy()
    e1 = cross / cn
    if lam == 1:
        return e1
    e2 = np.cross(khat, e1)
    return e2 / np.linalg.norm(e2)
