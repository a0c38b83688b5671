"""Sampled interaction kernels: the state of the renormalization flow.

A kernel w_{m,n} is a complex function of (r, l, K) where (r, l) ranges over
the base set {|l| <= r <= 1} and K over m+n photon momenta.  Kernels are
sampled on a product grid: a radial r-grid containing the geometric nodes
(so that the scale transformation is exact on the marginal content), an
l-grid per component, and the discrete mode grid for photon arguments.
Off-grid (r, l) evaluations use multilinear interpolation; photon arguments
are always grid modes, so they index, never interpolate.  Kernels are
stored photon-major: each photon tuple's (r, l) samples are one block.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math

import numpy as np
import scipy.sparse as sp

from .model import ModelParams, ConfigError
from . import fockspace
from .fockspace import FockBasis


# ---------------------------------------------------------------------------
# multilinear interpolation on product grids

def _axis_weights(nodes: np.ndarray, q: np.ndarray):
    q = np.asarray(q, dtype=float)
    lo = np.searchsorted(nodes[1:-1], q)        # q's cell, the end cells reaching outward
    x0, x1 = nodes[lo], nodes[lo + 1]
    # the bound first, as np.clip does: maximum(0.0, -0.0) keeps the -0.0
    frac = np.minimum(np.maximum(0.0, (q - x0) / (x1 - x0)), 1.0)
    inside = (q >= nodes[0] - 1e-12) & (q <= nodes[-1] + 1e-12)
    # complex, as every sampled kernel is: no cast in each product with a block
    w1 = np.where(inside, frac, 0j)
    w0 = np.where(inside, 1.0 - frac, 0j)
    return lo, w0, w1


def interp_rows(values: np.ndarray, nodes_list, queries_list, lead=None) -> np.ndarray:
    """Interpolate the last (grid) axes of `values` at per-row query vectors.

    queries_list[a] (rows, n_a) holds each row's query vector on axis a.
    `lead` indexes the axes in front of the grid: arrays broadcasting to
    (rows, *mid, 1), by default row i reading values[i].  The first axis is
    gathered with the lead, one gather per corner, the later ones in place:
    the result is C-ordered (rows, *mid, n_0, n_1, ...).  Points outside a
    grid range evaluate to 0 (kernel support convention).
    """
    rows = len(queries_list[0])
    lead = (np.arange(rows)[:, None],) if lead is None else lead
    ax = max(map(np.ndim, lead)) - 1         # the first grid axis in the result
    for a, (nodes, q) in enumerate(zip(nodes_list, queries_list)):
        i0, w0, w1 = _axis_weights(np.asarray(nodes, dtype=float), q)
        if not a:
            i0 = i0.reshape((rows,) + (1,) * (ax - 1) + i0.shape[1:])
            c0, c1 = values[lead + (i0,)], values[lead + (i0 + 1,)]
        else:
            # each row's lines along the axis, merged, read its nodes in one take
            ax += 1
            front, n, back = out.shape[:ax], out.shape[ax], out.shape[ax + 1:]
            lines = math.prod(front[1:])
            i0 = (np.arange(rows * lines) * n).reshape(rows, lines, 1) + i0[:, None]
            flat = out.reshape(rows * lines * n, math.prod(back))
            c0 = np.take(flat, i0, axis=0).reshape(front + (q.shape[1],) + back)
            c1 = np.take(flat, i0 + 1, axis=0).reshape(c0.shape)
        shape = (rows,) + (1,) * (ax - 1) + w0.shape[1:] + (1,) * (c0.ndim - ax - 1)
        # in place: the corners are fresh copies, and a large temporary costs page faults
        c0 *= w0.reshape(shape)
        out = np.add(c0, np.multiply(c1, w1.reshape(shape), out=c1), out=c0)
    return out


# ---------------------------------------------------------------------------
# grids

def rl_frame(rq, lqs, vec=None, family: bool = False):
    """(r, |l|^2, vec.l) on the (r, l) product grid of query vectors.

    rq has shape (..., n_r) and each l-axis vector (..., n_a), the same
    leading row axes in front.  r comes as (..., n_r, 1, ..., 1) and the
    l-sums as (..., 1, n_0, ..., n_{d-1}), with a length-1 family axis after
    the row axes when family is set; vec.l is 0.0 when vec is None.
    """
    rq = np.asarray(rq)
    lead = rq.shape[:-1] + (1,) * family
    r = rq.reshape(lead + rq.shape[-1:] + (1,) * len(lqs))
    l2 = pl = 0.0
    for a, q in enumerate(lqs):
        q = np.asarray(q)
        s = [1] * (1 + len(lqs))
        s[1 + a] = q.shape[-1]
        q = q.reshape(q.shape[:-1] + (1,) * family + tuple(s))
        l2 = l2 + np.square(q)
        if vec is not None:
            pl = pl + vec[a] * q
    return r, l2, pl


def _default_layout(params: ModelParams):
    """r-grid and l-axes: geometric nodes plus uniform fill."""
    rho = params.rho
    geo = [rho ** j for j in range(params.j_max + 1)]
    uni = list(np.linspace(0.0, 1.0, params.n_r_uniform + 1)[1:])
    r_nodes = np.unique(np.concatenate([[0.0], geo, uni]))
    if params.dim == 1:
        pos = sorted(set(geo) | set(np.linspace(0, 1, params.n_l_uniform + 1)[1:]))
        return r_nodes, [np.array([-x for x in reversed(pos)] + [0.0] + pos)]
    ax = np.linspace(-1.0, 1.0, params.n_l_axis_d3)
    return r_nodes, [ax, ax, ax]


class KernelGrid:
    """Bundles the discrete mode grid with the (r, l) sample grid.

    The modes must come in order of their radial index j, as build_modes
    lays them out: a kernel's photon axes then run over a prefix of the
    grid, the first n_pair modes for the pair kernels, and the dilation by
    one shell is the position array shift_up (-1 below the grid floor).
    `layout` = (r_nodes, l_axes) replaces the default sample grid; both the
    r-grid and every l-axis must contain 0.
    """

    def __init__(self, params: ModelParams, modes=None, layout=None):
        self.params = params
        self.rho = params.rho
        self.modes = modes if modes is not None else fockspace.build_modes(params)
        js = [m.j for m in self.modes]
        if js != sorted(js):
            raise ConfigError("grid modes must come in order of their radial index j")
        self.n_pair = sum(j <= params.j_max_pair for j in js)
        self.k_abs = np.array([m.k_abs for m in self.modes])
        self.k_vec = np.array([m.k for m in self.modes])         # (n, dim)
        self.weight = np.array([m.weight for m in self.modes])
        self.coupling = np.array([m.coupling for m in self.modes])  # (n, 2, 2)
        self.shift_up = fockspace.shift_index(self.modes, +1)

        r_nodes, l_axes = layout if layout is not None else _default_layout(params)
        self.r_nodes = np.asarray(r_nodes, dtype=float)
        self.l_axes = [np.asarray(ax, dtype=float) for ax in l_axes]
        self.l0_idx = tuple(int(np.argmin(np.abs(ax))) for ax in self.l_axes)
        self.r0_idx = int(np.argmin(self.r_nodes))
        if self.r_nodes[self.r0_idx] != 0.0:
            raise ConfigError("r-grid must contain 0")
        for ax, i0 in zip(self.l_axes, self.l0_idx):
            if ax[i0] != 0.0:
                raise ConfigError("every l-axis must contain 0")
        # base set |l| <= r
        r, l2, _ = rl_frame(self.r_nodes, self.l_axes)
        self.mask = np.sqrt(l2) <= r + 1e-12

    @property
    def base_shape(self):
        return (len(self.r_nodes),) + tuple(len(ax) for ax in self.l_axes)

    @property
    def base_axes(self):
        return [self.r_nodes] + list(self.l_axes)


# ---------------------------------------------------------------------------
# kernels

class Kernel:
    """One sampled kernel w_{m,n}, or its stack over a family.

    values has shape (n_loc, ..., n_loc, n_r, *l_shape): m+n photon axes
    over the first n_loc modes of the grid, then the grid axes; photon
    arguments beyond them evaluate to 0.  A stack puts a family axis in
    front, and each method serves every member in one pass.  Only a stack
    is a chain vertex (eval_product): a lone kernel enters as a family of one.
    """

    def __init__(self, m: int, n: int, grid: KernelGrid, values: np.ndarray):
        self.m = m
        self.n = n
        self.grid = grid
        values = np.asarray(values, dtype=complex)
        self.stacked = values.ndim == m + n + len(grid.base_shape) + 1
        n_loc = values.shape[self.stacked] if m + n else 0
        expect = (n_loc,) * (m + n) + grid.base_shape
        if values.shape[self.stacked:] != expect or n_loc > len(grid.modes):
            raise ConfigError(f"kernel array shape {values.shape}: expected {expect}, "
                              f"over at most {len(grid.modes)} modes")
        if not np.all(np.isfinite(values)):
            raise ConfigError("kernel contains non-finite values")
        self.values = values

    @property
    def n_base_axes(self) -> int:
        return 1 + len(self.grid.l_axes)

    @property
    def n_modes(self) -> int:
        """Number of grid modes the photon axes run over (every mode for a
        kernel without photon axes)."""
        return self.values.shape[self.stacked] if self.m + self.n else len(self.grid.modes)

    def eval_product(self, ids, rq, l_queries, run=slice(None)) -> np.ndarray:
        """Values of the stack's members in run on each row's (r, l) query grid.

        ids has shape (rows, m + n), rq (rows, n_r) and every l-query
        (rows, n_l); the result has shape (rows, n_f, n_r, n_l, ..., 1, 1),
        the scalar kernel's 1x1 spin block, in C order.  A row with a photon
        argument beyond the first n_modes modes evaluates to 0.  One gather
        per corner reads each member's photon slice at a row's ids and
        r-corner, a contiguous block of the l-grid.
        """
        values = self.values[run]
        ids = np.asarray(ids, dtype=int)
        beyond = (ids >= self.n_modes).any(axis=1)       # read at mode 0, then zeroed
        lead = ((np.arange(len(values)).reshape(1, -1, 1),)
                + tuple(np.where(beyond, 0, ids.T)[:, :, None, None]))
        vals = interp_rows(values, self.grid.base_axes, [rq, *l_queries], lead)
        vals[beyond] = 0.0
        return vals[..., None, None]

    def __getitem__(self, k) -> "Kernel":
        """Member k of a stack, or the stack of a slice: a view, unchecked."""
        ker = copy.copy(self)
        ker.values, ker.stacked = self.values[k], isinstance(k, slice)
        return ker

    def max_abs(self):
        """Largest |value|; an array over the members of a stack."""
        return np.max(np.abs(self.values), axis=tuple(range(self.stacked, self.values.ndim)))

    def live_modes(self) -> np.ndarray:
        """Modes on which some member's photon slice is not identically zero."""
        # the photon tuples with a non-zero sample, and every mode in one
        nz = np.any(self.values != 0, axis=tuple(range(self.stacked)) + tuple(
            range(self.values.ndim - self.n_base_axes, self.values.ndim)))
        return np.unique(np.argwhere(nz))

    def spin_pattern(self) -> np.ndarray:
        """A scalar kernel is a 1x1 spin block."""
        return np.ones((1, 1), dtype=bool)


def symmetrize(values: np.ndarray, m: int, n: int) -> np.ndarray:
    """Average a stack over permutations of its m creation and n
    annihilation axes, the axes after the family axis."""
    if m <= 1 and n <= 1:
        return values
    base = tuple(range(1 + m + n, values.ndim))
    perms = [(0,) + pm + pn + base for pm in itertools.permutations(range(1, 1 + m))
             for pn in itertools.permutations(range(1 + m, 1 + m + n))]
    acc = np.zeros(values.shape, dtype=values.dtype)
    for perm in perms:
        acc += np.transpose(values, perm)
    acc /= len(perms)
    return acc


@dataclasses.dataclass
class NormLedger:
    gamma: float
    delta: float
    eps: float
    sharp_norms: dict
    dropped_mass: float = 0.0

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "delta": self.delta,
            "eps": self.eps,
            "dropped_mass": self.dropped_mass,
            "sharp_norms": {f"{m},{n}": v for (m, n), v in self.sharp_norms.items()},
        }


class KernelFamily:
    """Kernel sequences at the spectral nodes zs, stored kernel by kernel.

    stacks[(m, n)] is kernel (m, n) of every member as one stacked Kernel,
    (n_z, photons, *base), zero where a member lacks it; member k has
    spectral parameter zs[k] and record metas[k], and all share the
    momentum p.  family[k] is member k as a family of one, its stacks
    views of row k; one kernel sequence is a family of one.
    """

    def __init__(self, grid: KernelGrid, stacks: dict, p, zs, metas):
        if (0, 0) not in stacks:
            raise ConfigError("kernel family must contain a (0,0) entry")
        self.grid = grid
        self.stacks = {mn: Kernel(mn[0], mn[1], grid, v) for mn, v in stacks.items()}
        self.p = np.atleast_1d(np.asarray(p, dtype=float))
        self.zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        self.metas = list(metas)

    def __len__(self) -> int:
        return len(self.zs)

    def __getitem__(self, k: int) -> "KernelFamily":
        """Member k as a family of one: views of row k, unchecked."""
        k = range(len(self))[k]
        member = copy.copy(self)
        member.stacks = {mn: s[k:k + 1] for mn, s in self.stacks.items()}
        member.zs, member.metas = self.zs[k:k + 1], self.metas[k:k + 1]
        return member

    def w00_origins(self) -> np.ndarray:
        """w00 at the base-set origin, one entry per member."""
        g = self.grid
        return self.stacks[(0, 0)].values[(slice(None), g.r0_idx) + g.l0_idx]


# ---------------------------------------------------------------------------
# norms

def _photon_factor(kernel: Kernel) -> np.ndarray:
    """Broadcastable product of |k_i|^{-1/2} over the photon axes."""
    fac = np.ones(())
    for _ in range(kernel.m + kernel.n):
        fac = np.multiply.outer(fac, kernel.grid.k_abs[:kernel.n_modes] ** -0.5)
    return fac.reshape(fac.shape + (1,) * kernel.n_base_axes)


def _masked_sup(kernel: Kernel, arr: np.ndarray) -> float:
    return float(np.max(np.where(kernel.grid.mask, np.abs(arr), 0.0)))


def base_gradients(kernel: Kernel):
    """Second-order derivatives of a kernel along r and each l axis."""
    return [np.gradient(kernel.values, nodes, axis=a - kernel.n_base_axes, edge_order=2)
            for a, nodes in enumerate(kernel.grid.base_axes)]


def norm_sharp(kernel: Kernel) -> float:
    """Value-plus-derivative norm with second-order discrete derivatives."""
    if len(kernel.grid.r_nodes) < 3:
        raise ConfigError("r-grid too coarse for the derivative stencil")
    g = kernel.grid
    fac = _photon_factor(kernel)
    # w00 counts its value at the origin, a kernel with photons its sup
    total = (float(abs(kernel.values[(g.r0_idx,) + g.l0_idx])) if kernel.m + kernel.n == 0
             else _masked_sup(kernel, kernel.values * fac))
    for d in base_gradients(kernel):
        total += _masked_sup(kernel, d * fac)
    return total


def polydisc_measure(family: KernelFamily) -> NormLedger:
    """Distance of a family of one from the marginal manifold (gamma, delta,
    eps): eps is the xi-weighted sum of the sharp norms with m+n >= 1, and
    dropped_mass estimates the tail beyond the top m+n from the last two."""
    g = family.grid
    (z,), (origin,) = family.zs, family.w00_origins()
    r, _, pl = rl_frame(g.r_nodes, g.l_axes, family.p / g.params.m)
    marginal = r - pl
    gamma = norm_sharp(Kernel(0, 0, g, family.stacks[(0, 0)].values[0] - origin - marginal))
    sharps = {mn: norm_sharp(s[0]) for mn, s in sorted(family.stacks.items())}
    blocks = {}
    for (m, n), s in sharps.items():
        if m + n:
            blocks[m + n] = blocks.get(m + n, 0.0) + s * g.params.xi ** (-(m + n))
    top = max(blocks, default=0)
    dropped = 0.0
    if top >= 2 and blocks.get(top - 1, 0.0) > 0.0:
        q = min(blocks[top] / blocks[top - 1], 0.9)
        dropped = blocks[top] * q / (1.0 - q)
    return NormLedger(gamma=gamma, delta=abs(complex(origin + z)), eps=sum(blocks.values()),
                      sharp_norms=sharps, dropped_mass=dropped)


# ---------------------------------------------------------------------------
# scale transformation on sampled kernels

def scale_transform(stack: Kernel) -> np.ndarray:
    """s_rho(w)_{m,n}(r,l,K) = rho^{3(m+n)/2-1} w(rho r, rho l, rho K) for
    every member of a kernel stack: shape (n_f, photons, *base).

    rho is the grid's geometric ratio.  Photon arguments shift one
    geometric step; the image on the infrared floor shell has no pre-image
    and is zero.
    """
    g = stack.grid
    rho = g.rho
    # every member's photon tuple is a row querying the same rescaled (r, l) grid
    blocks = stack.values.reshape((-1,) + g.base_shape)
    queries = [np.broadcast_to(rho * ax, (len(blocks), len(ax))) for ax in g.base_axes]
    vals = interp_rows(blocks, g.base_axes, queries).reshape(stack.values.shape)
    # photon axis a of the image reads the source one shell further out
    loc = g.shift_up[:stack.n_modes]
    valid = (loc >= 0) & (loc < stack.n_modes)
    for ax in range(1, 1 + stack.m + stack.n):
        keep = valid.reshape((-1,) + (1,) * (vals.ndim - ax - 1))
        vals = np.where(keep, np.take(vals, np.where(valid, loc, 0), axis=ax), 0.0)
    # rho^(3(m+n)/2) / rho, not rho^(3(m+n)/2 - 1): the (0,0) image is then
    # exactly the interpolated symbol divided by rho
    return vals * rho ** (1.5 * (stack.m + stack.n)) / rho


# ---------------------------------------------------------------------------
# assembly into a Fock operator

def assemble_operator(family: KernelFamily, basis: FockBasis) -> sp.csr_matrix:
    """Sum of Wick monomials W_{m,n}(w) of a family of one on the truncated basis.

    For each (m, n) and ordered mode tuple, an intermediate state u maps
    the state u + annihilators to the state u + creators, with the kernel's
    value at u's (r, l), the sqrt(n) leg factors and the quadrature weights;
    only entries whose two states lie under total field energy 1 are kept.
    The terms are multiplied and summed in the order of the product chain
    creation block x diagonal x annihilation block, kernel by kernel
    (sorted) and tuple by tuple.
    """
    g = family.grid
    if not np.array_equal([m.k for m in basis.modes], g.k_vec):
        raise ConfigError("basis and kernel grid use different modes")
    nstates = len(basis)
    # one row per state, querying one point per axis: its own (r, l)
    points = [basis.r[:, None]] + [basis.l[:, a, None] for a in range(len(g.l_axes))]
    # under the energy cap; position -1 (no such state) reads the False appended
    capped = np.append(basis.r <= 1.0 + 1e-12, False)
    photons = basis.occ.sum(axis=1)
    entries, terms = [], []
    for (m, n), stack in sorted(family.stacks.items()):
        ker = stack[0]
        k = m + n
        # (T, k) photon tuples, in itertools.product order
        tups = np.indices((ker.n_modes,) * k).reshape(k, ker.n_modes ** k).T
        # intermediate states with room for max(m, n) more photons: no key
        # digit passes n_max
        u = np.flatnonzero(photons + max(m, n) <= basis.n_max)
        steps = basis.key_weights[tups]
        row = basis.lookup(basis.keys[u, None] + steps[:, :m].sum(axis=1))
        col = basis.lookup(basis.keys[u, None] + steps[:, m:].sum(axis=1))
        t, i = np.nonzero((capped[row] & capped[col]).T)
        # every state u reads each tuple's block at its own (r, l)
        val = interp_rows(ker.values.reshape((-1,) + g.base_shape), g.base_axes,
                          [q[u] for q in points], (np.arange(len(tups))[None, :, None],)
                          ).reshape(len(u), len(tups))[i, t]
        # sqrt(n) of each leg as the chain meets it: annihilators join u first
        # to last, then creators last to first; n counts the legs so far
        tt = tups[t]
        occ = basis.occ[u[i, None], tt]
        for legs in (np.arange(m, k), np.arange(m)[::-1]):
            for j in legs:
                occ[:, legs] += tt[:, legs] == tt[:, j, None]
                val = val * np.sqrt(occ[:, j])
        terms.append(np.sqrt(np.prod(g.weight[tups], axis=1))[t] * val)
        entries.append(row[i, t] * nstates + col[i, t])
    # duplicate entries summed in term order
    entries, inv = np.unique(np.concatenate(entries), return_inverse=True)
    total = np.zeros(len(entries), dtype=complex)
    np.add.at(total, inv, np.concatenate(terms))
    return sp.csr_matrix((total, np.divmod(entries, nstates)), shape=(nstates, nstates))


# ---------------------------------------------------------------------------
# serialization

def _grid_json(grid: KernelGrid) -> dict:
    return {"r_nodes": grid.r_nodes.tolist(), "l_axes": [ax.tolist() for ax in grid.l_axes],
            "mode_k_abs": grid.k_abs.tolist(), "mode_weight": grid.weight.tolist()}


def sequence_to_json(family: KernelFamily) -> str:
    """JSON dump of a family of one, each kernel's values photon-last in C order."""
    (z,), (meta,) = family.zs, family.metas
    payload = {
        "version": 1,
        "p": [float(x) for x in family.p],
        "z": [z.real, z.imag],
        "meta": {k: v for k, v in meta.items() if isinstance(v, (int, float, str))},
        "grid": _grid_json(family.grid),
        "kernels": [
            {
                "m": m, "n": n,
                "mode_ids": list(range(ker.n_modes)),
                "re": vals.real.ravel().tolist(),
                "im": vals.imag.ravel().tolist(),
            }
            for (m, n), ker in sorted(family.stacks.items())
            for vals in [np.moveaxis(ker.values[0], range(m + n), range(-(m + n), 0))]
        ],
    }
    return json.dumps(payload, sort_keys=True)
