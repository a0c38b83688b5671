"""Operator-level identity check of the contraction machinery.

Builds a two-mode toy system where a chain of monomial operators and
diagonal factors can be multiplied out explicitly, and compares the result
against the monomials reassembled through the contraction engine.  The
modes are chosen so the unit energy cap limits intermediate states to two
photons (a three-photon truncated basis is then lossless) and every
reachable field configuration sits exactly on the sample grid, so the two
routes must agree to rounding.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import ModelParams, SIGMA_X, chi
from .fockspace import Mode, FockBasis, functional_calculus
from .kernels import Kernel, KernelGrid, KernelSequence, assemble_operator, _l_sums
from . import wick


def _toy_grid(params: ModelParams):
    """Two modes at energy 0.45, opposite directions, unequal weights."""
    modes = [
        Mode(index=0, j=1, k=np.array([0.45]), k_abs=0.45, weight=0.3,
             coupling=SIGMA_X.copy(), pol=0),
        Mode(index=1, j=1, k=np.array([-0.45]), k_abs=0.45, weight=0.7,
             coupling=SIGMA_X.copy(), pol=0),
    ]
    # sampled exactly on the reachable field configurations
    layout = ([0.0, 0.45, 0.9, 1.0], [[-1.0, -0.9, -0.45, 0.0, 0.45, 0.9, 1.0]])
    return KernelGrid(params, modes=modes, layout=layout)


def _toy_kernels(grid, rng):
    """Deterministic smooth vertex kernels, symmetric in the photon blocks,
    sampled on the toy grid (mode ids 0 and 1)."""
    k_signed = grid.k_vec[:, 0]
    r = grid.r_nodes.reshape((-1,) + (1,) * len(grid.l_axes))
    out = {}
    for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        base = np.full(grid.base_shape, c[0], dtype=complex) + c[1] * r
        base = base + _l_sums(grid.l_axes, [c[2]] * len(grid.l_axes))[1]
        vals = np.zeros(grid.base_shape + (2,) * (m + n), dtype=complex)
        for tup in itertools.product(range(2), repeat=m + n):
            phot = sum(c[3] + c[4] * k_signed[g] for g in tup[:m])
            phot = phot + sum(np.conj(c[3] + c[4] * k_signed[g]) for g in tup[m:])
            vals[(Ellipsis,) + tup] = base + phot
        out[(m, n)] = Kernel(m, n, grid, vals, [0, 1])
    return out


def _f_factor(rq, lqs):
    """Diagonal chain factor, analytic below the cap and zero above."""
    shape = (len(rq),) + tuple(len(q) for q in lqs)
    r = np.asarray(rq).reshape((-1,) + (1,) * len(lqs))
    l2, _ = _l_sums(lqs)
    vals = 1.0 / (0.7 + r + 0.2 * l2)
    inside = (r <= 1.0 + 1e-12)
    return np.where(inside, vals, 0.0) + np.zeros(shape)


def wick_reassembly_defect(params: ModelParams | None = None,
                           n_max: int = 3, L_max: int = 3) -> float:
    """Max entrywise defect between the product and reassembly routes."""
    params = params or ModelParams()
    rng = np.random.default_rng(11)
    grid = _toy_grid(params)
    basis = FockBasis(grid.modes, n_max)
    zero00 = Kernel(0, 0, grid, np.zeros(grid.base_shape, dtype=complex))
    vertices = _toy_kernels(grid, rng)
    seq_in = KernelSequence(grid, {**vertices, (0, 0): zero00}, p=params.p, z=0.0)
    W = assemble_operator(seq_in, basis).dense()
    F = functional_calculus(
        lambda r, l: np.array([_f_factor(np.array([rv]), [np.array([lv[0]])])[0, 0]
                               for rv, lv in zip(r, l)]), basis).dense()
    chi_d = functional_calculus(lambda r, l: chi(r, 1.0) + 0.0 * r, basis).dense()
    lhs = np.zeros_like(W)
    term = W.copy()
    for L in range(1, L_max + 1):
        lhs = lhs + ((-1.0) ** (L - 1)) * term
        term = term @ F @ W
    lhs = chi_d @ lhs @ chi_d

    ctx = wick.WickContext(grid=grid, vertices=vertices, L_max=L_max, scale=1.0,
                           ext_shift_steps=0, F_eval=_f_factor)

    out_kernels = {(0, 0): zero00}
    max_ext = 2 * min(L_max, 3)
    for total in range(0, max_ext + 1):
        for m in range(total + 1):
            n = total - m
            vals, _ = wick.assemble_target(m, n, ctx, ext_mode_ids=[0, 1])
            if total == 0:
                out_kernels[(0, 0)] = Kernel(0, 0, grid, vals)
            elif np.any(vals):
                out_kernels[(m, n)] = Kernel(m, n, grid, vals, [0, 1])
    seq_out = KernelSequence(grid, out_kernels, p=params.p, z=0.0)
    rhs = assemble_operator(seq_out, basis).dense()
    return float(np.max(np.abs(lhs - rhs)))
