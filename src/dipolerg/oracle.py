"""Direct diagonalization reference on the truncated spin-Fock space.

Builds the fiber Hamiltonian at conserved momentum p on the same discrete
mode grid the kernel engine uses, finds its ground energy by Lanczos from
the free ground state, and provides the second-order perturbative energy
in closed form.  This route shares only the mode grid with the
renormalization flow; the two are compared, never mixed.

Lanczos runs on G = P^dag H P + s I.  The shift s = ||H||_inf puts the
Ritz value near ||H||, so ARPACK's relative stopping test sits at the
rounding floor eps ||H|| instead of eps |E|, 1e4-1e5 times below it.  The
gauge P = diag(i^N) makes G real for a real spin coupling, so ARPACK runs
its real symmetric solver.
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

# i^N for N % 4, exact: the gauge phases of ground_energy
_PHASES = np.array([1, 1j, -1, -1j])


def build_fiber_hamiltonian(params: ModelParams, basis: FockBasis | None = None,
                            z: complex = 0.0):
    """Sparse H(p) - z on spin (x) Fock; kinetic zero point p^2/2m removed.

    Spin index is the slow axis (block 0 = down level).  Assembled in one
    pass from (row, col, value) triples: the diagonal, then per mode and
    spin block (s, t) the triples of fockspace.ladder, moved into the block
    and scaled to c g[s, t] val, and their adjoints.  No two triples share
    a position, and zero diagonal entries are dropped.  Returns (H, basis).
    """
    if basis is None:
        basis = FockBasis(build_modes(params), params.N_max)
    nf = len(basis)
    p = params.p
    m = params.m
    kin = np.einsum("sd,sd->s", basis.l, basis.l) / (2.0 * m) \
        - (basis.l @ p) / m + basis.r
    diag = (np.concatenate([kin, kin + params.omega0]) - z).astype(complex)
    at = np.flatnonzero(diag)
    rows, cols, vals = [at], [at], [diag[at]]
    if params.lam0 != 0.0:
        for i, mode in enumerate(basis.modes):
            c = 1j * params.lam0 * math.sqrt(mode.weight * mode.k_abs)
            row, col, val = ladder(basis, i)
            for s, t in zip(*np.nonzero(mode.coupling)):
                v = c * (mode.coupling[s, t] * val)
                rows += [s * nf + row, t * nf + col]
                cols += [t * nf + col, s * nf + row]
                vals += [v, v.conj()]
    H = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(2 * nf, 2 * nf))
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

    Lanczos runs on G = P^dag H P + s I, not on H:
    - the shift s = ||H||_inf bounds the spectral radius.  ARPACK stops
      once a Ritz residual is below eps |theta|, and theta ~ E ~ -3e-5
      would ask for a residual far below the rounding floor eps ||H||;
      with theta = E + s ~ ||H|| it stops where rounding does.  The
      Krylov space, and so the Ritz vector, does not depend on s.
    - the gauge P = diag(i^N), N the photon count of a state, cancels the
      i of the coupling: for a real spin coupling G is real, and ARPACK
      runs its real symmetric solver.  A complex coupling (d=3, sigma_y)
      keeps G complex.
    The vector is returned as P v, in the physical gauge, and the energy
    as its Rayleigh quotient with H.
    """
    H, basis = build_fiber_hamiltonian(params, basis)
    if params.lam0 == 0.0:
        vec = np.zeros(H.shape[0], dtype=complex)
        vec[int(np.argmin(H.diagonal().real))] = 1.0
    else:
        n_ph = np.tile(basis.occ.sum(axis=1).astype(np.int64), 2)
        rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
        G = sp.csr_matrix((H.data * _PHASES[(n_ph[H.indices] - n_ph[rows]) % 4],
                           H.indices, H.indptr), shape=H.shape)
        if not np.any(G.data.imag):
            G = G.real
        shift = spla.norm(H, np.inf)
        G = G + shift * sp.identity(H.shape[0], dtype=G.dtype, format="csr")
        v0 = np.zeros(H.shape[0], dtype=G.dtype)
        v0[basis.vacuum_index] = 1.0       # phase i^0 = 1
        vec = _PHASES[n_ph % 4] * spla.eigsh(G, k=1, which="SA", v0=v0)[1][:, 0]
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
