"""Direct diagonalization reference on the truncated spin-Fock space.

Builds the fiber Hamiltonian at conserved momentum p on the same discrete
mode grid the kernel engine uses, finds its ground energy by sparse (or
small-dense) eigensolvers, and provides the second-order perturbative
energy in closed form.  This route shares only the mode grid with the
renormalization flow; the two are compared, never mixed.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import ModelParams, ConfigError
from .fockspace import FockBasis, build_modes, ladder

_DENSE_DIM = 2000


def build_fiber_hamiltonian(params: ModelParams, basis: FockBasis | None = None,
                            z: complex = 0.0):
    """Sparse H(p) - z on spin (x) Fock; kinetic zero point p^2/2m removed.

    Spin index is the slow axis (block 0 = down level).  Returns (H, basis).
    """
    if basis is None:
        basis = FockBasis(build_modes(params), params.N_max)
    nf = len(basis)
    p = params.p
    m = params.m
    kin = np.einsum("sd,sd->s", basis.l, basis.l) / (2.0 * m) \
        - (basis.l @ p) / m + basis.r
    diag = np.concatenate([kin, kin + params.omega0]) - z
    H = sp.diags(diag.astype(complex)).tocsr()
    if params.lam0 != 0.0:
        for mode in basis.modes:
            c = 1j * params.lam0 * math.sqrt(mode.weight * mode.k_abs)
            b = ladder(basis, mode.index).mat
            term = sp.kron(sp.csr_matrix(mode.coupling), b, format="csr")
            H = H + c * term + (c * term).conj().T
    return H, basis


def ground_energy(params: ModelParams, basis: FockBasis | None = None,
                  seed: int = 7, return_vector: bool = False):
    """Lowest eigenvalue of the truncated fiber Hamiltonian.

    Dense below _DENSE_DIM, else Lanczos with a deterministic start vector.
    """
    H, basis = build_fiber_hamiltonian(params, basis)
    dim = H.shape[0]
    if dim < _DENSE_DIM:
        w, v = np.linalg.eigh(H.toarray())
        e0 = float(w[0])
        vec = v[:, 0]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.normal(size=dim)
        v0 /= np.linalg.norm(v0)
        w, v = spla.eigsh(H, k=1, which="SA", v0=v0)
        e0 = float(w[0])
        vec = v[:, 0]
    if return_vector:
        return e0, vec, basis
    return e0


def pt2_energy(params: ModelParams) -> float:
    """Closed-form second-order energy of the discretized model.

    Sums over one-photon intermediate states (both dipole levels), using
    the same quadrature weights as the Hamiltonian, so it matches the
    oracle to O(lam0^4) exactly.
    """
    modes = build_modes(params)
    g_vac = 0  # lower level column
    total = 0.0
    p = params.p
    m = params.m
    for mode in modes:
        kin = float(mode.k @ mode.k) / (2.0 * m) - float(mode.k @ p) / m
        for s in (0, 1):
            amp = abs(mode.coupling[s, g_vac]) ** 2
            if amp == 0.0:
                continue
            denom = mode.k_abs + kin + (params.omega0 if s == 1 else 0.0)
            if denom <= 0.0:
                raise ConfigError("second-order denominator not positive")
            total += mode.weight * mode.k_abs * amp / denom
    return -params.lam0 ** 2 * total


@dataclasses.dataclass
class DispersionRecord:
    p: float
    energy: float
    method: str


def dispersion_sweep(params: ModelParams, p_values, method: str = "oracle",
                     flow_fn=None) -> list[DispersionRecord]:
    """Ground energy across momenta; `flow_fn(params) -> E` selects the flow."""
    records = []
    for pv in p_values:
        pp = params.with_updates(p=pv)
        if method == "oracle":
            e = ground_energy(pp)
        elif method == "pt2":
            e = pt2_energy(pp)
        elif method == "flow":
            if flow_fn is None:
                raise ConfigError("flow_fn required for method='flow'")
            e = flow_fn(pp)
        else:
            raise ConfigError(f"unknown dispersion method {method!r}")
        records.append(DispersionRecord(p=float(np.atleast_1d(pv)[0]),
                                        energy=float(np.real(e)), method=method))
    return records


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


def sweep_to_csv(records: list[DispersionRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["p", "energy", "method"])
    for r in records:
        w.writerow([repr(r.p), repr(r.energy), r.method])
    return buf.getvalue()
