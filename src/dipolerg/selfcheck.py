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


def _closures(grid, rng):
    """Deterministic smooth vertex kernels, symmetric in the photon blocks."""
    coefs = {}
    for mn in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        coefs[mn] = rng.normal(size=5) + 1j * rng.normal(size=5)

    k_signed = grid.k_vec[:, 0]

    def make(mn):
        c = coefs[mn]

        def f(create_ids, annih_ids, rq, lqs):
            shape = (len(rq),) + tuple(len(q) for q in lqs)
            r = np.asarray(rq).reshape((-1,) + (1,) * len(lqs))
            out = np.full(shape, c[0], dtype=complex)
            out = out + c[1] * r
            out = out + _l_sums(lqs, [c[2]] * len(lqs))[1]
            phot = sum(c[3] + c[4] * k_signed[g] for g in create_ids)
            phot = phot + sum(np.conj(c[3] + c[4] * k_signed[g])
                              for g in annih_ids)
            return out + phot
        return f

    return {mn: make(mn) for mn in coefs}


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
    closures = _closures(grid, rng)
    basis = FockBasis(grid.modes, n_max)

    def sample(mn):
        f = closures[mn]
        m, n = mn
        shape = grid.base_shape + (2,) * (m + n)
        vals = np.zeros(shape, dtype=complex)
        for tup in itertools.product(range(2), repeat=m + n):
            vals[(Ellipsis,) + tup] = f(list(tup[:m]), list(tup[m:]),
                                        grid.r_nodes, grid.l_axes)
        return Kernel(m, n, grid, vals, [0, 1])

    zero00 = Kernel(0, 0, grid, np.zeros(grid.base_shape, dtype=complex))
    kin = {mn: sample(mn) for mn in closures}
    kin[(0, 0)] = zero00
    seq_in = KernelSequence(grid, kin, p=params.p, z=0.0)
    W = assemble_operator(seq_in, basis, energy_cap=1.0).dense()
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

    def kernel_eval(a, b, create_ids, annih_ids, rq, lqs):
        shape = (len(rq),) + tuple(len(q) for q in lqs)
        if any(g < 0 for g in list(create_ids) + list(annih_ids)):
            return np.zeros(shape, dtype=complex)
        return closures[(a, b)](create_ids, annih_ids, rq, lqs)

    ctx = wick.WickContext(
        grid=grid, available=set(closures), L_max=L_max, scale=1.0,
        ext_shift_steps=0, kernel_eval=kernel_eval, F_eval=_f_factor,
        kernel_max=lambda a, b: 10.0, F_max=2.0, spin_dim=1, prune=0.0)

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
    rhs = assemble_operator(seq_out, basis, energy_cap=1.0).dense()
    return float(np.max(np.abs(lhs - rhs)))
