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
from .fockspace import Mode, FockBasis
from .kernels import Kernel, KernelFamily, KernelGrid, assemble_operator, rl_frame
from . import wick


def _toy_grid(params: ModelParams):
    """Two modes at energy 0.45, opposite directions, unequal weights."""
    modes = [
        Mode(j=1, k=np.array([0.45]), k_abs=0.45, weight=0.3,
             coupling=SIGMA_X.copy(), pol=0),
        Mode(j=1, k=np.array([-0.45]), k_abs=0.45, weight=0.7,
             coupling=SIGMA_X.copy(), pol=0),
    ]
    # sampled exactly on the reachable field configurations; both modes
    # carry the pair kernels, whatever the caller's j_max_pair
    layout = ([0.0, 0.45, 0.9, 1.0], [[-1.0, -0.9, -0.45, 0.0, 0.45, 0.9, 1.0]])
    return KernelGrid(params.with_updates(j_max_pair=modes[-1].j), modes=modes,
                      layout=layout)


def _toy_kernels(grid, rng):
    """Deterministic smooth vertex kernels, symmetric in the photon blocks,
    sampled on the toy grid (modes 0 and 1), each a family of one."""
    k_signed = grid.k_vec[:, 0]
    out = {}
    for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        r, _, pl = rl_frame(grid.r_nodes, grid.l_axes, [c[2]] * len(grid.l_axes))
        base = np.full(grid.base_shape, c[0], dtype=complex) + c[1] * r + pl
        vals = np.zeros(grid.base_shape + (2,) * (m + n), dtype=complex)
        for tup in itertools.product(range(2), repeat=m + n):
            phot = sum(c[3] + c[4] * k_signed[g] for g in tup[:m])
            phot = phot + sum(np.conj(c[3] + c[4] * k_signed[g]) for g in tup[m:])
            vals[(Ellipsis,) + tup] = base + phot
        out[(m, n)] = Kernel(m, n, grid, vals[None])
    return out


def _f_factor(rq, lqs, run=slice(None), levels=(0,)):
    """Diagonal chain factor, analytic below the cap and zero above.

    rq has shape (rows, n_r), every l-query (rows, n_l); the result is one
    spin level of a family of one, (rows, 1, n_r, n_l), whatever the
    members in run."""
    r, l2, _ = rl_frame(rq, lqs, family=True)
    vals = 1.0 / (0.7 + r + 0.2 * l2)
    inside = (r <= 1.0 + 1e-12)
    return (np.where(inside, vals, 0.0),)


def wick_reassembly_defect(params: ModelParams | None = None) -> float:
    """Max entrywise defect between the product and reassembly routes, for
    chains up to the configured depth params.L_max."""
    params = params or ModelParams()
    rng = np.random.default_rng(11)
    grid = _toy_grid(params)
    basis = FockBasis(grid.modes, 3)        # lossless on the toy space (see above)
    zero00 = np.zeros((1,) + grid.base_shape, dtype=complex)
    vertices = _toy_kernels(grid, rng)
    seq_in = KernelFamily(grid, {(0, 0): zero00, **{mn: v.values for mn, v in vertices.items()}},
                          params.p, [0.0], [{}])
    W = assemble_operator(seq_in, basis).toarray()
    # one row per basis state, each querying its own (r, l)
    F = np.diag(_f_factor(basis.r[:, None], [basis.l[:, :1]])[0][:, 0, 0, 0].astype(complex))
    chi_d = np.diag(chi(basis.r, 1.0).astype(complex))
    lhs = np.zeros_like(W)
    term = W.copy()
    for L in range(1, params.L_max + 1):
        lhs = lhs + ((-1.0) ** (L - 1)) * term
        term = term @ F @ W
    lhs = chi_d @ lhs @ chi_d

    ctx = wick.WickContext(grid=grid, vertices=vertices, L_max=params.L_max, scale=1.0,
                           F_eval=_f_factor)
    stacks, _ = wick._assemble_kernels(ctx, 2 * min(params.L_max, 3), zero00)
    seq_out = KernelFamily(grid, stacks, params.p, [0.0], [{}])
    rhs = assemble_operator(seq_out, basis).toarray()
    return float(np.max(np.abs(lhs - rhs)))
