"""Truncated, momentum-discretized bosonic Fock space.

Modes live on a rho-geometric radial grid (times angular nodes) so that the
dilation that implements the scale transformation is exact on the grid.
Discrete modes are unit-normalized: the CCR is an exact Kronecker delta and
all quadrature weights are applied in integrals, never in the ladder
operators.  The radial measure is r^2 dr in d=1 desk mode as well, so the
scaling dimensions of every operator match the d=3 theory and weights scale
exactly by rho^3 under one grid shift.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from .model import ModelParams, ConfigError, polarization


@dataclasses.dataclass(frozen=True, eq=False)
class Mode:
    index: int
    j: int                  # radial index; |k| = rho^j * r_max
    k: np.ndarray           # momentum vector, length dim
    k_abs: float
    weight: float           # quadrature weight of the cell
    coupling: np.ndarray    # 2x2 spin matrix replacing eps(k).sigma
    pol: int                # polarization index (0 in d=1)


def build_modes(params: ModelParams) -> list[Mode]:
    """Geometric mode grid shared by the oracle and the kernel engine."""
    rho = params.rho
    r_max = params.uv_cutoff
    modes = []
    cell = (1.0 - rho ** 3) / 3.0
    if params.dim == 1:
        w_ang = 2.0 * math.pi
        for j in range(params.j_max + 1):
            for s in (+1.0, -1.0):
                k_abs = (rho ** j) * r_max
                modes.append(Mode(
                    index=len(modes), j=j,
                    k=np.array([s * k_abs]), k_abs=k_abs,
                    weight=cell * (r_max ** 3) * (rho ** (3 * j)) * w_ang,
                    coupling=params.spin_coupling.copy(), pol=0,
                ))
    else:
        dirs = [np.array(v, dtype=float) for v in
                [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]
        w_ang = 4.0 * math.pi / len(dirs)
        sigma = [np.array([[0, 1], [1, 0]], dtype=complex),
                 np.array([[0, -1j], [1j, 0]], dtype=complex),
                 np.array([[-1, 0], [0, 1]], dtype=complex)]
        for j in range(params.j_max + 1):
            for d in dirs:
                k_abs = (rho ** j) * r_max
                kvec = k_abs * d
                for lam in (1, 2):
                    eps = polarization(kvec, lam)
                    g = sum(eps[a] * sigma[a] for a in range(3))
                    modes.append(Mode(
                        index=len(modes), j=j, k=kvec, k_abs=k_abs,
                        weight=cell * (r_max ** 3) * (rho ** (3 * j)) * w_ang,
                        coupling=g, pol=lam,
                    ))
    return modes


def shifted_mode_index(modes: list[Mode], i: int, steps: int) -> int | None:
    """Index of the mode with the same direction and radial index j+steps."""
    src = modes[i]
    j_new = src.j + steps
    for m in modes:
        if m.j == j_new and m.pol == src.pol and _same_dir(m, src):
            return m.index
    return None


def _same_dir(a: Mode, b: Mode) -> bool:
    na = a.k / max(a.k_abs, 1e-300)
    nb = b.k / max(b.k_abs, 1e-300)
    return bool(np.allclose(na, nb, atol=1e-12))


class FockBasis:
    """Occupation-number states over the discrete modes.

    States are tuples of occupation numbers with total photons <= n_max.
    """

    def __init__(self, modes: list[Mode], n_max: int):
        self.modes = modes
        self.n_max = n_max
        self.dim_space = modes[0].k.shape[0]
        self.states: list[tuple[int, ...]] = []
        self._enumerate()
        self.index = {s: i for i, s in enumerate(self.states)}
        n_modes = len(modes)
        occ = np.array([list(s) for s in self.states], dtype=float).reshape(len(self.states), n_modes)
        k_abs = np.array([m.k_abs for m in modes])
        kvecs = np.array([m.k for m in modes])  # (n_modes, d)
        self.r = occ @ k_abs                       # total field energy per state
        self.l = occ @ kvecs                       # total field momentum per state
        self.occ = occ

    def _enumerate(self):
        n_modes = len(self.modes)

        def rec(mode_i, remaining, current):
            if mode_i == n_modes:
                self.states.append(tuple(current))
                return
            for occ in range(remaining + 1):
                current.append(occ)
                rec(mode_i + 1, remaining - occ, current)
                current.pop()

        rec(0, self.n_max, [])
        # vacuum first, then by (photon count, energy) for reproducibility
        self.states.sort(key=lambda s: (sum(s), sum(n * self.modes[i].k_abs for i, n in enumerate(s)), s))

    def __len__(self):
        return len(self.states)

    @property
    def vacuum_index(self) -> int:
        return self.index[tuple([0] * len(self.modes))]


@dataclasses.dataclass(eq=False)
class FockOperator:
    mat: object            # ndarray or scipy sparse matrix
    basis: FockBasis

    def dense(self) -> np.ndarray:
        if sp.issparse(self.mat):
            return self.mat.toarray()
        return np.asarray(self.mat)


def ladder(basis: FockBasis, mode_index: int) -> FockOperator:
    """Unit-normalized discrete annihilator on the truncated basis.

    Maps |..n..> to sqrt(n)|..n-1..>; its adjoint is the creator.  Matrix
    elements leaving the truncated basis are dropped.
    """
    if not (0 <= mode_index < len(basis.modes)):
        raise ConfigError(f"unknown mode index {mode_index}")
    rows, cols, vals = [], [], []
    for i, s in enumerate(basis.states):
        n = s[mode_index]
        if n == 0:
            continue
        t = list(s)
        t[mode_index] = n - 1
        jt = basis.index.get(tuple(t))
        if jt is None:
            continue
        # <t| b |s> = sqrt(n)
        rows.append(jt)
        cols.append(i)
        vals.append(math.sqrt(n))
    a = sp.csr_matrix((vals, (rows, cols)), shape=(len(basis), len(basis)), dtype=complex)
    return FockOperator(a, basis)


def functional_calculus(f, basis: FockBasis) -> FockOperator:
    """Diagonal operator f(H_f, P_f): entry f(sum |k_i|, sum k_i) per state."""
    vals = np.asarray(f(basis.r, basis.l), dtype=complex)
    if vals.shape != (len(basis),):
        raise ConfigError("functional_calculus: f must map (r, l) arrays to scalars")
    if not np.all(np.isfinite(vals)):
        raise ConfigError("functional_calculus: non-finite value")
    return FockOperator(sp.diags(vals).tocsr(), basis)


def number_projection(basis: FockBasis, cap: float) -> FockOperator:
    """Projection onto total field energy <= cap."""
    d = (basis.r <= cap + 1e-12).astype(complex)
    return FockOperator(sp.diags(d).tocsr(), basis)


def dilation(basis: FockBasis, steps: int = 1) -> FockOperator:
    """Grid-exact dilation: shifts every photon's radial index down by `steps`.

    Scales H_f by rho^steps under conjugation.  Partial isometry: states
    containing a j < steps photon, or whose image leaves the basis, map to 0.
    Refuses bases whose grid is not closed under the shift.
    """
    modes = basis.modes
    shift_map = {}
    for m in modes:
        if m.j >= steps:
            tgt = shifted_mode_index(modes, m.index, -steps)
            if tgt is None:
                raise ConfigError("mode grid is not geometric: dilation refused")
            shift_map[m.index] = tgt
    rows, cols, vals = [], [], []
    for i, s in enumerate(basis.states):
        ok = True
        t = [0] * len(modes)
        for mi, n in enumerate(s):
            if n == 0:
                continue
            if mi not in shift_map:
                ok = False
                break
            t[shift_map[mi]] += n
        if not ok:
            continue
        jt = basis.index.get(tuple(t))
        if jt is None:
            continue
        rows.append(jt)
        cols.append(i)
        vals.append(1.0)
    g = sp.csr_matrix((vals, (rows, cols)), shape=(len(basis), len(basis)), dtype=complex)
    return FockOperator(g, basis)
