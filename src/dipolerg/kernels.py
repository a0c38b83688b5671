"""Sampled interaction kernels: the state of the renormalization flow.

A kernel w_{m,n} is a complex function of (r, l, K) where (r, l) ranges over
the base set {|l| <= r <= 1} and K over m+n photon momenta.  Kernels are
sampled on a product grid: a radial r-grid containing the geometric nodes
(so that the scale transformation is exact on the marginal content), an
l-grid per component, and the discrete mode grid for photon arguments.
Off-grid (r, l) evaluations use multilinear interpolation; photon arguments
are always grid modes, so they index, never interpolate.
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
from .fockspace import FockBasis, ladder, number_projection


# ---------------------------------------------------------------------------
# multilinear interpolation on product grids

def _axis_weights(nodes: np.ndarray, q: np.ndarray):
    q = np.asarray(q, dtype=float)
    n = len(nodes)
    idx = np.clip(np.searchsorted(nodes, q), 1, n - 1)
    x0 = nodes[idx - 1]
    x1 = nodes[idx]
    frac = np.clip((q - x0) / (x1 - x0), 0.0, 1.0)
    inside = (q >= nodes[0] - 1e-12) & (q <= nodes[-1] + 1e-12)
    w1 = np.where(inside, frac, 0.0)
    w0 = np.where(inside, 1.0 - frac, 0.0)
    return idx - 1, idx, w0, w1


def interp_rows(values: np.ndarray, nodes_list, queries_list) -> np.ndarray:
    """Interpolate axes 1, 2, ... of `values` at per-row query vectors.

    Row i of the result interpolates values[i] (a length-1 leading axis is
    shared by every row) at queries_list[a][i] on axis a + 1, so the query
    arrays have shape (rows, n_a) and the result (rows, n_0, n_1, ..., rest);
    points outside a grid range evaluate to 0 (kernel support convention).
    """
    out = values
    for ax, (nodes, q) in enumerate(zip(nodes_list, queries_list), start=1):
        i0, i1, w0, w1 = _axis_weights(np.asarray(nodes, dtype=float), q)
        # row r reads row r of out, or the one row every row shares
        r = np.arange(len(i0))[:, None] if len(out) > 1 else np.zeros((1, 1), dtype=int)
        pre = (slice(None),) * (ax - 1)
        # weights cast once, not buffer by buffer in each product with the block
        shape, dtype = i0.shape + (1,) * (out.ndim - 2), np.promote_types(out.dtype, w0.dtype)
        w0, w1 = w0.astype(dtype).reshape(shape), w1.astype(dtype).reshape(shape)
        # the two index arrays' (rows, n) axes come first, then axes 1..ax-1
        out = np.moveaxis(out[(r,) + pre + (i0,)] * w0 + out[(r,) + pre + (i1,)] * w1, 1, ax)
    return out


def interp_product(values: np.ndarray, nodes_list, queries_list) -> np.ndarray:
    """Interpolate leading axes of `values` at per-axis query vectors.

    Returns an array whose leading axes have the query lengths; points
    outside a grid range evaluate to 0 (kernel support convention).
    """
    queries = [np.asarray(q, dtype=float)[None] for q in queries_list]
    return interp_rows(values[None], nodes_list, queries)[0]


# ---------------------------------------------------------------------------
# grids

def _l_sums(lqs, vec=None):
    """|l|^2 and vec.l over the product grid of the l-axis vectors `lqs`.

    Each vector may carry leading row axes, shape (..., n_a); the results
    have shape (..., 1, n_0, ..., n_{d-1}), the 1 standing for the r-axis,
    so they broadcast against the (r, l) base grid.  The dot product is 0.0
    when vec is None.
    """
    l2 = pl = 0.0
    for a, q in enumerate(lqs):
        q = np.asarray(q)
        s = [1] * (1 + len(lqs))
        s[1 + a] = q.shape[-1]
        q = q.reshape(q.shape[:-1] + tuple(s))
        l2 = l2 + np.square(q)
        if vec is not None:
            pl = pl + vec[a] * q
    return l2, pl


def _default_layout(params: ModelParams):
    """r-grid and l-axes: geometric nodes plus uniform fill."""
    rho = params.rho
    geo = [rho ** j for j in range(params.j_max + 1)]
    uni = list(np.linspace(0.0, 1.0, params.n_r_uniform + 1)[1:])
    r_nodes = np.unique(np.concatenate([[0.0], geo, uni]))
    if params.dim == 1:
        pos = sorted(set(geo) | set(np.linspace(0, 1, params.n_l_uniform + 1)[1:]))
        return r_nodes, [np.array([-x for x in reversed(pos)] + [0.0] + pos)]
    na = max(3, params.n_l_axis_d3)
    if na % 2 == 0:
        na += 1
    ax = np.linspace(-1.0, 1.0, na)
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
        self.dim = params.dim
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
        l2, _ = _l_sums(self.l_axes)
        r = self.r_nodes.reshape((-1,) + (1,) * len(self.l_axes))
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

    values has shape (n_r, *l_shape, n_loc, ..., n_loc) with m+n trailing
    photon axes over the first n_loc modes of the grid; photon arguments
    beyond them evaluate to 0.  A stack puts a family axis in front, and
    each method serves every member in one pass.  Only a stack is a chain
    vertex (eval_product): a lone kernel enters as a family of one.
    """

    def __init__(self, m: int, n: int, grid: KernelGrid, values: np.ndarray):
        self.m = m
        self.n = n
        self.grid = grid
        values = np.asarray(values, dtype=complex)
        n_loc = values.shape[-1] if m + n else 0
        expect = grid.base_shape + (n_loc,) * (m + n)
        self.stacked = values.ndim == len(expect) + 1
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
        return self.values.shape[-1] if self.m + self.n else len(self.grid.modes)

    def eval_product(self, ids, rq, l_queries) -> np.ndarray:
        """Values of a stack on each row's (r, l) product grid of query vectors.

        ids has shape (rows, m + n), rq (rows, n_r) and every l-query
        (rows, n_l); the result has shape (rows, n_f, n_r, n_l, ...).  A row
        with a photon argument beyond the first n_modes modes evaluates to 0.
        """
        rq = np.asarray(rq, dtype=float)
        ids = np.asarray(ids, dtype=int)
        ok = np.all(ids < self.n_modes, axis=1)
        # (rows, members, base...) blocks at each row's photon arguments; a kernel
        # without photon axes shares its one block with every row
        blocks = np.moveaxis(self.values[(Ellipsis,) + tuple(ids[ok].T)], -1, 0) \
            if self.m + self.n else self.values[None]
        queries = [q[ok] for q in [rq] + [np.asarray(q, dtype=float) for q in l_queries]]
        # members ride behind the interpolated axes, then come back in C
        # order, which the chain's products and row sums run fastest on
        vals = interp_rows(np.moveaxis(blocks, 1, -1), self.grid.base_axes, queries)
        vals = np.ascontiguousarray(np.moveaxis(vals, -1, 1))
        if np.all(ok):
            return vals
        out = np.zeros((len(rq),) + vals.shape[1:], dtype=complex)
        out[ok] = vals
        return out

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
        nz = np.any(self.values != 0, axis=tuple(range(self.stacked + self.n_base_axes)))
        live = np.zeros(self.n_modes, dtype=bool)
        for a in range(nz.ndim):
            live |= np.any(nz, axis=tuple(b for b in range(nz.ndim) if b != a))
        return np.flatnonzero(live)

    def spin_pattern(self) -> np.ndarray:
        """A scalar kernel is a 1x1 spin block."""
        return np.ones((1, 1), dtype=bool)


def symmetrize(values: np.ndarray, m: int, n: int, n_base_axes: int) -> np.ndarray:
    """Average over permutations of the m creation and n annihilation axes."""
    if m <= 1 and n <= 1:
        return values
    nb = n_base_axes
    perms = [tuple(range(nb)) + pm + pn for pm in itertools.permutations(range(nb, nb + m))
             for pn in itertools.permutations(range(nb + m, nb + m + n))]
    acc = np.zeros_like(values)
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
    (n_z, *base, photons), zero where a member lacks it; member k has
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
    k_abs_loc = kernel.grid.k_abs[:kernel.n_modes]
    nb = kernel.n_base_axes
    total = kernel.m + kernel.n
    fac = np.ones((1,) * nb + (1,) * total)
    for a in range(total):
        shape = [1] * (nb + total)
        shape[nb + a] = len(k_abs_loc)
        fac = fac * (k_abs_loc ** -0.5).reshape(shape)
    return fac


def _masked_sup(kernel: Kernel, arr: np.ndarray) -> float:
    mask = kernel.grid.mask.reshape(kernel.grid.base_shape + (1,) * (kernel.m + kernel.n))
    return float(np.max(np.where(mask, np.abs(arr), 0.0)))


def norm_half(kernel: Kernel) -> float:
    """sup over the base set of |w| * prod |k_i|^{-1/2} (m+n >= 1)."""
    if kernel.m + kernel.n < 1:
        raise ConfigError("norm_half needs m+n >= 1")
    return _masked_sup(kernel, kernel.values * _photon_factor(kernel))


def _base_gradients(kernel: Kernel):
    g = kernel.grid
    vals = kernel.values
    grads = [np.gradient(vals, g.r_nodes, axis=0, edge_order=2)]
    for a, ax in enumerate(g.l_axes):
        grads.append(np.gradient(vals, ax, axis=1 + a, edge_order=2))
    return grads


def norm_sharp(kernel: Kernel) -> float:
    """Value-plus-derivative norm with second-order discrete derivatives."""
    if len(kernel.grid.r_nodes) < 3:
        raise ConfigError("r-grid too coarse for the derivative stencil")
    grads = _base_gradients(kernel)
    if kernel.m + kernel.n == 0:
        g = kernel.grid
        origin = abs(kernel.values[(g.r0_idx,) + g.l0_idx])
        total = float(origin)
        for d in grads:
            total += _masked_sup(kernel, d)
        return total
    fac = _photon_factor(kernel)
    total = _masked_sup(kernel, kernel.values * fac)
    for d in grads:
        total += _masked_sup(kernel, d * fac)
    return total


def polydisc_measure(family: KernelFamily) -> NormLedger:
    """Distance of a family of one from the marginal manifold (gamma, delta,
    eps): eps is the xi-weighted sum of the sharp norms with m+n >= 1, and
    dropped_mass estimates the tail beyond the top m+n from the last two."""
    g = family.grid
    (z,), (origin,) = family.zs, family.w00_origins()
    _, pl = _l_sums(g.l_axes, family.p / g.params.m)
    marginal = g.r_nodes.reshape((-1,) + (1,) * len(g.l_axes)).astype(complex) - pl
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

def scale_transform(family: KernelFamily) -> KernelFamily:
    """s_rho(w)_{m,n}(r,l,K) = rho^{3(m+n)/2-1} w(rho r, rho l, rho K).

    rho is the grid's geometric ratio; the family is a family of one.
    Photon arguments shift one geometric step; content at the infrared
    floor node has no pre-image and is dropped (reported in meta).
    """
    g = family.grid
    rho = g.rho
    new = {}
    dropped = 0.0
    for (m, n), stack in family.stacks.items():
        ker = stack[0]
        queries = [rho * g.r_nodes] + [rho * ax for ax in g.l_axes]
        base = interp_product(ker.values, g.base_axes, queries)
        nb = ker.n_base_axes
        # photon axis a of the image reads the source one shell further out
        loc = g.shift_up[:ker.n_modes]
        valid = (loc >= 0) & (loc < ker.n_modes)
        for a in range(m + n):
            ax = nb + a
            if not np.all(valid):
                sel = np.take(np.abs(base), np.where(~valid)[0], axis=ax)
                dropped = max(dropped, float(sel.max(initial=0.0)))
            base = np.take(base, np.where(valid, loc, 0), axis=ax)
            if not np.all(valid):
                shape = [1] * base.ndim
                shape[ax] = len(loc)
                base = base * valid.astype(float).reshape(shape)
        pref = rho ** (1.5 * (m + n) - 1.0)
        new[(m, n)] = pref * base[None]
    (meta,) = family.metas
    return KernelFamily(g, new, family.p, family.zs, [{**meta, "scale_dropped_floor": dropped}])


# ---------------------------------------------------------------------------
# assembly into a Fock operator

def assemble_operator(family: KernelFamily, basis: FockBasis) -> sp.csr_matrix:
    """Sum of Wick monomials W_{m,n}(w) of a family of one on the truncated basis.

    For each (m, n) and each ordered mode tuple, creation block x diagonal
    functional calculus x annihilation block, weighted by the quadrature
    weights, projected to total field energy <= 1 on both sides.
    """
    g = family.grid
    if not np.array_equal([m.k for m in basis.modes], g.k_vec):
        raise ConfigError("basis and kernel grid use different modes")
    nstates = len(basis)
    # one row per state, querying one point per axis: its own (r, l)
    points = [basis.r[:, None]] + [basis.l[:, a, None] for a in range(len(g.l_axes))]
    total = sp.csr_matrix((nstates, nstates), dtype=complex)
    b_ops = [ladder(basis, i) for i in range(len(g.modes))]
    b_adj = [b.conj().T for b in b_ops]
    for (m, n), stack in sorted(family.stacks.items()):
        ker = stack[0]
        flat = ker.values.reshape(ker.values.shape[:ker.n_base_axes] + (-1,))
        for k, tup in enumerate(itertools.product(range(ker.n_modes), repeat=m + n)):
            # (states, n_loc): the diagonals of the tuples that differ from this
            # one in their last mode only (one call for every tuple would carry
            # each state's whole l-grid block through the r-axis)
            if k % ker.n_modes == 0:
                diags = interp_rows(flat[None, ..., k:k + ker.n_modes], g.base_axes,
                                    points).reshape(nstates, -1)
            diag = diags[:, k % ker.n_modes]
            if not np.any(diag):
                continue
            w = math.sqrt(float(np.prod(g.weight[list(tup)]))) if tup else 1.0
            op = sp.diags(diag).tocsr()
            for i in tup[m:]:
                op = op @ b_ops[i]
            for i in reversed(tup[:m]):
                op = b_adj[i] @ op
            total = total + w * op
    proj = number_projection(basis, 1.0)
    return proj @ total @ proj


# ---------------------------------------------------------------------------
# serialization

def sequence_to_json(family: KernelFamily) -> str:
    """JSON dump of a family of one."""
    (z,), (meta,) = family.zs, family.metas
    payload = {
        "version": 1,
        "p": [float(x) for x in family.p],
        "z": [z.real, z.imag],
        "meta": {k: v for k, v in meta.items() if isinstance(v, (int, float, str))},
        "grid": {
            "r_nodes": [float(x) for x in family.grid.r_nodes],
            "l_axes": [[float(x) for x in ax] for ax in family.grid.l_axes],
            "mode_k_abs": [float(x) for x in family.grid.k_abs],
            "mode_weight": [float(x) for x in family.grid.weight],
        },
        "kernels": [
            {
                "m": m, "n": n,
                "mode_ids": list(range(ker.n_modes)),
                "re": ker.values.real.ravel().tolist(),
                "im": ker.values.imag.ravel().tolist(),
            }
            for (m, n), ker in sorted(family.stacks.items())
        ],
    }
    return json.dumps(payload, sort_keys=True)


def sequence_from_json(text: str, grid: KernelGrid) -> KernelFamily:
    """The family of one that sequence_to_json dumped."""
    payload = json.loads(text)
    if payload.get("version") != 1:
        raise ConfigError("unknown kernel dump version")
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
