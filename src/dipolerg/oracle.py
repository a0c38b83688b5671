"""Direct diagonalization reference on the truncated spin-Fock space.

Builds the fiber Hamiltonian at conserved momentum p on the same discrete
mode grid the kernel engine uses, finds its ground energy by Lanczos from
the free ground state, and provides the second-order perturbative energy
in closed form.  This route shares only the mode grid with the
renormalization flow; the two are compared, never mixed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import ModelParams, ConfigError
from .fockspace import FockBasis, build_modes, ladder


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
        for i, mode in enumerate(basis.modes):
            c = 1j * params.lam0 * math.sqrt(mode.weight * mode.k_abs)
            b = ladder(basis, i)
            term = sp.kron(sp.csr_matrix(mode.coupling), b, format="csr")
            H = H + c * term + (c * term).conj().T
    return H, basis


def ground_energy(params: ModelParams, basis: FockBasis | None = None,
                  return_vector: bool = False):
    """Lowest eigenvalue of the truncated fiber Hamiltonian.

    Lanczos from the free ground state (lower level, no photons): its
    Krylov space, what the coupling reaches from the vacuum, holds the
    dressed ground state but not the near-degenerate soft-photon levels
    just above it.  At lam0 == 0, H is diagonal, the vacuum is an exact
    eigenvector (Lanczos from it stops with ARPACK error -9) and the
    lowest level is read off the diagonal.
    """
    H, basis = build_fiber_hamiltonian(params, basis)
    vec = np.zeros(H.shape[0], dtype=complex)
    if params.lam0 == 0.0:
        vec[int(np.argmin(H.diagonal().real))] = 1.0
    else:
        vec[basis.vacuum_index] = 1.0
        vec = spla.eigsh(H, k=1, which="SA", v0=vec)[1][:, 0]
    # Rayleigh quotient: the Ritz value's last digits follow the Krylov path
    e0 = float(np.vdot(vec, H @ vec).real)
    return (e0, vec, basis) if return_vector else e0


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


def sweep_to_csv(p_values, energies, method: str) -> str:
    """CSV table of a dispersion sweep: one row (p, energy, method) per
    momentum, p being the first component."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["p", "energy", "method"])
    for pv, e in zip(p_values, energies):
        w.writerow([repr(float(np.atleast_1d(pv)[0])), repr(float(np.real(e))), method])
    return buf.getvalue()
