"""Truncated, momentum-discretized bosonic Fock space.

Modes live on a rho-geometric radial grid (times angular nodes) so that the
scale transformation is a shift of radial indices (shift_index), exact on
the grid: the program applies it to sampled kernels, and the tests check
that against the Fock-space dilation.
Discrete modes are unit-normalized: the CCR is an exact Kronecker delta and
all quadrature weights are applied in integrals, never in the ladder
operators.  The radial measure is r^2 dr in d=1 desk mode as well, so the
scaling dimensions of every operator match the d=3 theory and weights scale
exactly by rho^3 under one grid shift.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import scipy.sparse as sp

from .model import ModelParams, ConfigError, SIGMA_X, SIGMA_Y, SIGMA_Z

# the d=3 shell: each axis direction k with its transverse frame (eps_1, eps_2),
# eps_1 = e_z x k/|k| and eps_2 = k/|k| x eps_1, or (e_x, e_y) along +-e_z
_FRAMES_D3 = [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
              ((0, 1, 0), (-1, 0, 0), (0, 0, 1)), ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
              ((0, 0, 1), (1, 0, 0), (0, 1, 0)), ((0, 0, -1), (1, 0, 0), (0, 1, 0))]


@dataclasses.dataclass(frozen=True, eq=False)
class Mode:
    j: int                  # radial index; |k| = rho^j * r_max
    k: np.ndarray           # momentum vector, length dim
    k_abs: float
    weight: float           # quadrature weight of the cell
    coupling: np.ndarray    # 2x2 spin matrix replacing eps(k).sigma
    pol: int                # polarization index (0 in d=1)


def build_modes(params: ModelParams) -> list[Mode]:
    """Geometric mode grid shared by the oracle and the kernel engine.

    The modes are laid out shell by shell, in increasing j, each shell in
    the same order of direction and polarization; a mode is identified by
    its position in the list.
    """
    rho = params.rho
    r_max = params.uv_cutoff
    cell = (1.0 - rho ** 3) / 3.0
    # one shell: (unit direction, polarization, spin coupling) of each mode
    if params.dim == 1:
        w_ang = 2.0 * math.pi
        shell = [(np.array([s]), 0, params.spin_coupling) for s in (+1.0, -1.0)]
    else:
        w_ang = 4.0 * math.pi / len(_FRAMES_D3)
        shell = [(np.array(d, dtype=float), lam,
                  sum(e * s for e, s in zip(eps, (SIGMA_X, SIGMA_Y, SIGMA_Z))))
                 for d, *frame in _FRAMES_D3 for lam, eps in enumerate(frame, start=1)]
    modes = []
    for j in range(params.j_max + 1):
        k_abs = (rho ** j) * r_max
        weight = cell * (r_max ** 3) * (rho ** (3 * j)) * w_ang
        modes += [Mode(j=j, k=k_abs * d, k_abs=k_abs, weight=weight, coupling=g.copy(), pol=pol)
                  for d, pol, g in shell]
    return modes


def shift_index(modes: list[Mode], steps: int) -> np.ndarray:
    """Position of the mode with the same direction and polarization at
    radial index j + steps, for every mode; -1 where there is none.

    On a grid laid out as build_modes does, that mode sits `steps` shells
    further along the list; a list laid out otherwise finds no target there.
    """
    j = np.array([m.j for m in modes])
    pol = np.array([m.pol for m in modes])
    k_abs = np.array([m.k_abs for m in modes])
    unit = np.array([m.k for m in modes]) / np.maximum(k_abs, 1e-300)[:, None]
    idx = np.arange(len(modes)) + steps * int(np.count_nonzero(j == j[0]))
    tgt = idx % len(modes)
    # the directions agree as np.allclose(atol=1e-12) would say, per mode
    same_dir = np.all(np.abs(unit[tgt] - unit) <= 1e-12 + 1e-5 * np.abs(unit), axis=1)
    ok = (idx == tgt) & (j[tgt] == j + steps) & (pol[tgt] == pol) & same_dir
    return np.where(ok, idx, -1)


class FockBasis:
    """Occupation-number states over the discrete modes.

    States are tuples of occupation numbers with total photons <= n_max.
    Every state has an exact integer key, linear in its occupations: mode i
    is a digit of base n_max + 1, and the digits fill as many int64 words
    as they need, so a key never wraps.  Moving a photon into or out of
    mode i adds or subtracts key_weights[i], and lookup finds a key's basis
    position.  A key is exact only while every digit lies in 0..n_max, so
    callers reject rows outside that range before the lookup.
    """

    def __init__(self, modes: list[Mode], n_max: int):
        self.modes = modes
        self.n_max = n_max
        n_modes = len(modes)
        # every multiset of at most n_max modes; vacuum first, then by
        # (photon count, energy) for reproducibility
        self.states: list[tuple[int, ...]] = sorted(
            (tuple(np.bincount(c, minlength=n_modes).tolist()) for k in range(n_max + 1)
             for c in itertools.combinations_with_replacement(range(n_modes), k)),
            key=lambda s: (sum(s), sum(n * modes[i].k_abs for i, n in enumerate(s)), s))
        occ = np.array(self.states, dtype=np.int64).reshape(len(self.states), n_modes)
        k_abs = np.array([m.k_abs for m in modes])
        kvecs = np.array([m.k for m in modes])  # (n_modes, d)
        self.occ = occ.astype(float)
        self.r = self.occ @ k_abs                  # total field energy per state
        self.l = self.occ @ kvecs                  # total field momentum per state
        base, digits = n_max + 1, 1
        while digits < 63 and base ** (digits + 1) <= 2 ** 63:
            digits += 1
        i = np.arange(n_modes)
        self.key_weights = np.zeros((n_modes, n_modes // digits + 1), dtype=np.int64)
        self.key_weights[i, i // digits] = base ** (i % digits)
        self.keys = occ @ self.key_weights
        self._key_dtype = np.dtype([(f"w{w}", np.int64) for w in range(self.keys.shape[1])])
        self._order = np.argsort(self._packed(self.keys))
        self._sorted = self._packed(self.keys)[self._order]

    def _packed(self, keys) -> np.ndarray:
        # key rows (..., words) as one sortable record each, compared word by word
        return np.ascontiguousarray(keys, dtype=np.int64).view(self._key_dtype)[..., 0]

    def lookup(self, keys) -> np.ndarray:
        """Basis position of every key row (..., words); -1 where none."""
        q = self._packed(keys)
        pos = np.minimum(np.searchsorted(self._sorted, q), len(self) - 1)
        return np.where(self._sorted[pos] == q, self._order[pos], -1)

    def __len__(self):
        return len(self.states)

    @property
    def vacuum_index(self) -> int:
        return int(self.lookup(np.zeros(self.keys.shape[1], dtype=np.int64)))


def ladder(basis: FockBasis, mode_index: int) -> sp.csr_matrix:
    """Unit-normalized discrete annihilator on the truncated basis.

    Maps |..n..> to sqrt(n)|..n-1..>; its adjoint is the creator.  Matrix
    elements leaving the truncated basis are dropped.
    """
    if not (0 <= mode_index < len(basis.modes)):
        raise ConfigError(f"unknown mode index {mode_index}")
    col = np.flatnonzero(basis.occ[:, mode_index])
    row = basis.lookup(basis.keys[col] - basis.key_weights[mode_index])
    # <t| b |s> = sqrt(n)
    return sp.csr_matrix((np.sqrt(basis.occ[col, mode_index]), (row, col)),
                         shape=(len(basis), len(basis)), dtype=complex)


def functional_calculus(f, basis: FockBasis) -> sp.csr_matrix:
    """Diagonal operator f(H_f, P_f): entry f(sum |k_i|, sum k_i) per state."""
    vals = np.asarray(f(basis.r, basis.l), dtype=complex)
    if vals.shape != (len(basis),):
        raise ConfigError("functional_calculus: f must map (r, l) arrays to scalars")
    if not np.all(np.isfinite(vals)):
        raise ConfigError("functional_calculus: non-finite value")
    return sp.diags(vals).tocsr()


def number_projection(basis: FockBasis, cap: float) -> sp.csr_matrix:
    """Projection onto total field energy <= cap."""
    d = (basis.r <= cap + 1e-12).astype(complex)
    return sp.diags(d).tocsr()
