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

import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import scipy.sparse as sp

from .model import ModelParams, ConfigError
from . import fockspace
from .fockspace import FockBasis, FockOperator, ladder, number_projection


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


@functools.lru_cache(maxsize=512)
def _product_weights(nodes: bytes, q: bytes):
    """_axis_weights keyed by the bytes of float64 node and query vectors.

    Chain assembly asks for a few dozen distinct query vectors thousands of
    times, so the weights are computed once and shared read-only.
    """
    out = _axis_weights(np.frombuffer(nodes), np.frombuffer(q))
    for arr in out:
        arr.flags.writeable = False
    return out


def interp_product(values: np.ndarray, nodes_list, queries_list) -> np.ndarray:
    """Interpolate leading axes of `values` at per-axis query vectors.

    Returns an array whose leading axes have the query lengths; points
    outside a grid range evaluate to 0 (kernel support convention).
    """
    out = values
    for ax, (nodes, q) in enumerate(zip(nodes_list, queries_list)):
        q = np.asarray(q, dtype=float)
        i0, i1, w0, w1 = _product_weights(
            np.asarray(nodes, dtype=float).tobytes(), q.tobytes())
        a = np.take(out, i0, axis=ax)
        b = np.take(out, i1, axis=ax)
        shape = [1] * out.ndim
        shape[ax] = len(i0)
        out = a * w0.reshape(shape) + b * w1.reshape(shape)
    return out


def interp_scatter(values: np.ndarray, nodes_list, points_list) -> np.ndarray:
    """Interpolate at scattered points (one coordinate array per axis)."""
    naxes = len(nodes_list)
    pts = [np.asarray(p, dtype=float) for p in points_list]
    per_axis = [_axis_weights(np.asarray(nodes_list[a]), pts[a]) for a in range(naxes)]
    out = np.zeros(pts[0].shape, dtype=values.dtype)
    for corner in itertools.product((0, 1), repeat=naxes):
        idx = tuple(per_axis[a][corner[a]] for a in range(naxes))
        w = np.ones(pts[0].shape)
        for a in range(naxes):
            w = w * per_axis[a][2 + corner[a]]
        out = out + values[idx] * w
    return out


# ---------------------------------------------------------------------------
# grids

def _l_sums(lqs, vec=None):
    """|l|^2 and vec.l over the product grid of the l-axis vectors `lqs`.

    Both have the l-grid shape; the dot product is 0.0 when vec is None.
    """
    l2 = pl = 0.0
    for a, q in enumerate(lqs):
        s = [1] * len(lqs)
        s[a] = len(q)
        q = np.asarray(q).reshape(s)
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

    `layout` = (r_nodes, l_axes) replaces the default sample grid; both the
    r-grid and every l-axis must contain 0.
    """

    def __init__(self, params: ModelParams, modes=None, layout=None):
        self.params = params
        self.rho = params.rho
        self.dim = params.dim
        self.modes = modes if modes is not None else fockspace.build_modes(params)
        n = len(self.modes)
        self.k_abs = np.array([m.k_abs for m in self.modes])
        self.k_vec = np.array([m.k for m in self.modes])         # (n, dim)
        self.weight = np.array([m.weight for m in self.modes])
        self.coupling = np.array([m.coupling for m in self.modes])  # (n, 2, 2)
        self.shift_up = np.array(
            [self._find_shift(i, +1) for i in range(n)], dtype=int)

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

    def _find_shift(self, i: int, steps: int) -> int:
        t = fockspace.shifted_mode_index(self.modes, i, steps)
        return -1 if t is None else t

    @property
    def base_shape(self):
        return (len(self.r_nodes),) + tuple(len(ax) for ax in self.l_axes)

    @property
    def base_axes(self):
        return [self.r_nodes] + list(self.l_axes)

    def pair_mode_ids(self) -> list[int]:
        return [m.index for m in self.modes if m.j <= self.params.j_max_pair]

    def mode_ids(self) -> list[int]:
        return list(range(len(self.modes)))


# ---------------------------------------------------------------------------
# kernels

class Kernel:
    """One sampled kernel w_{m,n}.

    values has shape (n_r, *l_shape, n_loc, ..., n_loc) with m+n trailing
    photon axes indexed by `mode_ids` (a sub-list of the global modes; photon
    arguments outside it evaluate to 0).
    """

    def __init__(self, m: int, n: int, grid: KernelGrid, values: np.ndarray,
                 mode_ids=None):
        self.m = m
        self.n = n
        self.grid = grid
        self.mode_ids = list(mode_ids) if mode_ids is not None else grid.mode_ids()
        self._local = {g: a for a, g in enumerate(self.mode_ids)}
        expect = grid.base_shape + (len(self.mode_ids),) * (m + n)
        values = np.asarray(values, dtype=complex)
        if values.shape != expect:
            raise ConfigError(f"kernel array shape {values.shape} != {expect}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("kernel contains non-finite values")
        self.values = values

    @property
    def n_base_axes(self) -> int:
        return 1 + len(self.grid.l_axes)

    def local_tuple(self, global_ids) -> tuple | None:
        loc = []
        for g in global_ids:
            a = self._local.get(int(g))
            if a is None:
                return None
            loc.append(a)
        return tuple(loc)

    def slice_values(self, global_ids) -> np.ndarray | None:
        """(r, l...) block at fixed photon arguments; None if unsupported."""
        loc = self.local_tuple(global_ids)
        if loc is None:
            return None
        idx = (slice(None),) * self.n_base_axes + loc
        return self.values[idx]

    def eval_product(self, global_ids, rq, l_queries) -> np.ndarray:
        block = self.slice_values(global_ids)
        shape = tuple(len(np.atleast_1d(q)) for q in [rq] + list(l_queries))
        if block is None:
            return np.zeros(shape, dtype=complex)
        return interp_product(block, self.grid.base_axes, [rq] + list(l_queries))

    def eval_points(self, global_ids, r_pts, l_pts) -> np.ndarray:
        """Scattered evaluation; l_pts has shape (npts, dim)."""
        block = self.slice_values(global_ids)
        if block is None:
            return np.zeros(np.shape(r_pts), dtype=complex)
        pts = [r_pts] + [l_pts[:, a] for a in range(len(self.grid.l_axes))]
        return interp_scatter(block, self.grid.base_axes, pts)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def symmetrize(values: np.ndarray, m: int, n: int, n_base_axes: int) -> np.ndarray:
    """Average over permutations of the m creation and n annihilation axes."""
    if m <= 1 and n <= 1:
        return values
    axes_m = list(range(n_base_axes, n_base_axes + m))
    axes_n = list(range(n_base_axes + m, n_base_axes + m + n))
    acc = np.zeros_like(values)
    count = 0
    for pm in itertools.permutations(axes_m):
        for pn in itertools.permutations(axes_n):
            perm = list(range(values.ndim))
            for src, dst in zip(axes_m, pm):
                perm[src] = dst
            for src, dst in zip(axes_n, pn):
                perm[src] = dst
            acc += np.transpose(values, perm)
            count += 1
    return acc / count


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


class KernelSequence:
    """Map (m, n) -> Kernel, with the (p, z) it was built at."""

    def __init__(self, grid: KernelGrid, kernels: dict, p, z, meta=None):
        if (0, 0) not in kernels:
            raise ConfigError("kernel sequence must contain a (0,0) entry")
        self.grid = grid
        self.kernels = dict(kernels)
        self.p = np.atleast_1d(np.asarray(p, dtype=float))
        self.z = complex(z)
        self.meta = dict(meta or {})

    def kernel(self, m: int, n: int) -> Kernel | None:
        return self.kernels.get((m, n))

    @property
    def w00(self) -> Kernel:
        return self.kernels[(0, 0)]

    def w00_origin(self) -> complex:
        g = self.grid
        return complex(self.w00.values[(g.r0_idx,) + g.l0_idx])

    def indices(self):
        return sorted(self.kernels.keys())

    def perturbative_indices(self):
        return [mn for mn in self.indices() if sum(mn) >= 1]


# ---------------------------------------------------------------------------
# norms

def _photon_factor(kernel: Kernel) -> np.ndarray:
    """Broadcastable product of |k_i|^{-1/2} over the photon axes."""
    k_abs_loc = kernel.grid.k_abs[kernel.mode_ids]
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


def norm_xi(seq: KernelSequence, xi: float | None = None) -> tuple[float, float]:
    """Weighted sharp-norm sum over m+n >= 1 and a dropped-tail estimate."""
    xi = xi if xi is not None else seq.grid.params.xi
    blocks = {}
    for (m, n) in seq.perturbative_indices():
        s = norm_sharp(seq.kernel(m, n)) * xi ** (-(m + n))
        blocks[m + n] = blocks.get(m + n, 0.0) + s
    total = sum(blocks.values())
    top = max(blocks) if blocks else 0
    dropped = 0.0
    if top >= 2 and blocks.get(top - 1, 0.0) > 0.0:
        q = min(blocks[top] / blocks[top - 1], 0.9)
        dropped = blocks[top] * q / (1.0 - q)
    return total, dropped


def polydisc_measure(seq: KernelSequence) -> NormLedger:
    """Distance of the sequence from the marginal manifold (gamma, delta, eps)."""
    g = seq.grid
    w00 = seq.w00.values
    _, pl = _l_sums(g.l_axes, seq.p / g.params.m)
    marginal = g.r_nodes.reshape((-1,) + (1,) * len(g.l_axes)).astype(complex) - pl
    diff = w00 - seq.w00_origin() - marginal
    gamma = norm_sharp(Kernel(0, 0, g, diff))
    delta = abs(seq.w00_origin() + seq.z)
    eps, dropped = norm_xi(seq)
    sharps = {mn: norm_sharp(seq.kernel(*mn)) for mn in seq.indices()}
    return NormLedger(gamma=gamma, delta=delta, eps=eps,
                      sharp_norms=sharps, dropped_mass=dropped)


# ---------------------------------------------------------------------------
# scale transformation on sampled kernels

def scale_transform(seq: KernelSequence) -> KernelSequence:
    """s_rho(w)_{m,n}(r,l,K) = rho^{3(m+n)/2-1} w(rho r, rho l, rho K).

    rho is the grid's geometric ratio.  Photon arguments shift one geometric
    step; content at the infrared floor node has no pre-image and is dropped
    (reported in meta).
    """
    g = seq.grid
    rho = g.rho
    new = {}
    dropped = 0.0
    for (m, n), ker in seq.kernels.items():
        queries = [rho * g.r_nodes] + [rho * ax for ax in g.l_axes]
        base = interp_product(ker.values, g.base_axes, queries)
        nb = ker.n_base_axes
        for a in range(m + n):
            ax = nb + a
            tgt = np.array([g.shift_up[gid] for gid in ker.mode_ids])
            loc = np.array([ker._local.get(int(t), -1) if t >= 0 else -1 for t in tgt])
            valid = loc >= 0
            if not np.all(valid):
                sel = np.take(np.abs(base), np.where(~valid)[0], axis=ax)
                dropped = max(dropped, float(sel.max(initial=0.0)))
            base = np.take(base, np.clip(loc, 0, len(ker.mode_ids) - 1), axis=ax)
            if not np.all(valid):
                shape = [1] * base.ndim
                shape[ax] = len(loc)
                base = base * valid.astype(float).reshape(shape)
        pref = rho ** (1.5 * (m + n) - 1.0)
        new[(m, n)] = Kernel(m, n, g, pref * base, ker.mode_ids)
    meta = dict(seq.meta)
    meta["scale_dropped_floor"] = dropped
    return KernelSequence(g, new, seq.p, seq.z, meta)


# ---------------------------------------------------------------------------
# assembly into a Fock operator

def assemble_operator(seq: KernelSequence, basis: FockBasis) -> FockOperator:
    """Sum of Wick monomials W_{m,n}(w) on the truncated basis.

    For each (m, n) and each ordered mode tuple, creation block x diagonal
    functional calculus x annihilation block, weighted by the quadrature
    weights, projected to total field energy <= 1 on both sides.
    """
    g = seq.grid
    if [m.index for m in basis.modes] != [m.index for m in g.modes]:
        raise ConfigError("basis and kernel grid use different modes")
    nstates = len(basis)
    r_pts = basis.r
    l_pts = basis.l
    total = sp.csr_matrix((nstates, nstates), dtype=complex)
    b_ops = [ladder(basis, i).mat for i in range(len(g.modes))]
    for (m, n), ker in sorted(seq.kernels.items()):
        ids = ker.mode_ids
        for tup in itertools.product(ids, repeat=m + n):
            create, annih = tup[:m], tup[m:]
            diag = ker.eval_points(tup, r_pts, l_pts)
            if not np.any(diag):
                continue
            w = math.sqrt(float(np.prod(g.weight[list(tup)]))) if tup else 1.0
            op = sp.diags(diag).tocsr()
            for i in annih:
                op = op @ b_ops[i]
            for i in reversed(create):
                op = b_ops[i].conj().T @ op
            total = total + w * op
    proj = number_projection(basis, 1.0).mat
    return FockOperator(proj @ total @ proj, basis)


# ---------------------------------------------------------------------------
# serialization

def sequence_to_json(seq: KernelSequence) -> str:
    payload = {
        "version": 1,
        "p": [float(x) for x in seq.p],
        "z": [seq.z.real, seq.z.imag],
        "meta": {k: v for k, v in seq.meta.items() if isinstance(v, (int, float, str))},
        "grid": {
            "r_nodes": [float(x) for x in seq.grid.r_nodes],
            "l_axes": [[float(x) for x in ax] for ax in seq.grid.l_axes],
            "mode_k_abs": [float(x) for x in seq.grid.k_abs],
            "mode_weight": [float(x) for x in seq.grid.weight],
        },
        "kernels": [
            {
                "m": m, "n": n,
                "mode_ids": ker.mode_ids,
                "re": ker.values.real.ravel().tolist(),
                "im": ker.values.imag.ravel().tolist(),
            }
            for (m, n), ker in sorted(seq.kernels.items())
        ],
    }
    return json.dumps(payload, sort_keys=True)


def sequence_from_json(text: str, grid: KernelGrid) -> KernelSequence:
    payload = json.loads(text)
    if payload.get("version") != 1:
        raise ConfigError("unknown kernel dump version")
    kernels = {}
    for item in payload["kernels"]:
        m, n = item["m"], item["n"]
        shape = grid.base_shape + (len(item["mode_ids"]),) * (m + n)
        vals = (np.asarray(item["re"]) + 1j * np.asarray(item["im"])).reshape(shape)
        kernels[(m, n)] = Kernel(m, n, grid, vals, item["mode_ids"])
    z = complex(payload["z"][0], payload["z"][1])
    return KernelSequence(grid, kernels, payload["p"], z, payload.get("meta"))
