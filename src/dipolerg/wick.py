"""Contraction combinatorics and assembly of the renormalization recursion.

A chain of Wick monomials interleaved with diagonal resolvent factors is
rewritten as a sum of normal-ordered monomials.  This module enumerates the
term shapes (how many external/internal legs each chain vertex carries),
the internal pairings allowed in a vacuum expectation, the pull-through
argument shifts, the combinatorial weights, and finally assembles the
resulting kernels by quadrature over the internal momenta, vectorized over
the (r, l) sample grid.

The same assembler serves three callers: the RG step (scale rho, scalar
kernels), the first decimation (scale rho0, 2x2 spin-matrix vertices), and
the small-Fock-space operator-identity test suite.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .model import ConfigError, chi
from .kernels import KernelGrid


# ---------------------------------------------------------------------------
# term shapes

@dataclasses.dataclass(frozen=True)
class TermSpec:
    """One chain shape: per-vertex external (m, n) and internal (p, q) legs."""
    m: tuple
    p: tuple
    n: tuple
    q: tuple

    def __post_init__(self):
        ln = len(self.m)
        if not (len(self.p) == len(self.n) == len(self.q) == ln):
            raise ConfigError("spec vectors must share a length")
        if any(v < 0 for vec in (self.m, self.p, self.n, self.q) for v in vec):
            raise ConfigError("spec entries must be >= 0")
        if any(self.m[i] + self.n[i] + self.p[i] + self.q[i] < 1 for i in range(ln)):
            raise ConfigError("every vertex needs at least one leg")

    @property
    def L(self) -> int:
        return len(self.m)

    @property
    def M(self) -> int:
        return sum(self.m)

    @property
    def N(self) -> int:
        return sum(self.n)

    def vertex_kernel(self, i: int) -> tuple:
        return (self.m[i] + self.p[i], self.n[i] + self.q[i])


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_term_specs(M: int, N: int, L_max: int, available,
                         single_leg: bool = False) -> list[TermSpec]:
    """All chain shapes producing an (M, N) monomial from the given kernels.

    `available` is the set of kernel indices (a, b) usable at a vertex; the
    vertex splits a = m_i + p_i external/internal creators (b likewise).
    The passthrough L=1 shape for (M, N) = (0, 0) is excluded: it is the
    diagonal part, not a chain term.
    """
    avail = sorted((a, b) for (a, b) in available if a + b >= 1)
    specs = []
    for L in range(1, L_max + 1):
        if M + N == 0 and L == 1:
            continue
        for mvec in _compositions(M, L):
            for nvec in _compositions(N, L):
                choices = []
                ok = True
                for i in range(L):
                    ci = [(a, b) for (a, b) in avail
                          if a >= mvec[i] and b >= nvec[i]
                          and (not single_leg or a + b == 1)]
                    if not ci:
                        ok = False
                        break
                    choices.append(ci)
                if not ok:
                    continue
                for combo in itertools.product(*choices):
                    p = tuple(a - mvec[i] for i, (a, b) in enumerate(combo))
                    q = tuple(b - nvec[i] for i, (a, b) in enumerate(combo))
                    if sum(p) != sum(q):
                        continue
                    specs.append(TermSpec(mvec, p, nvec, q))
    return specs


def combinatorial_weight(spec: TermSpec) -> int:
    """Number of leg splittings giving the same operator: a binomial product."""
    w = 1
    for i in range(spec.L):
        w *= math.comb(spec.m[i] + spec.p[i], spec.p[i])
        w *= math.comb(spec.n[i] + spec.q[i], spec.q[i])
    return w


def internal_pairings(spec: TermSpec) -> list[tuple]:
    """Pairings of internal legs: each annihilator pairs a later creator.

    Returned as tuples of lines (annih_vertex, create_vertex, creator_slot);
    distinct creator slots count as distinct pairings.
    """
    ann_slots = [i for i in range(spec.L) for _ in range(spec.q[i])]
    cre_slots = [(j, s) for j in range(spec.L) for s in range(spec.p[j])]
    out = []

    def rec(k, used, acc):
        if k == len(ann_slots):
            out.append(tuple(acc))
            return
        i = ann_slots[k]
        for idx, (j, s) in enumerate(cre_slots):
            if idx in used or j <= i:
                continue
            acc.append((i, j, idx))
            rec(k + 1, used | {idx}, acc)
            acc.pop()

    rec(0, frozenset(), [])
    return out


# ---------------------------------------------------------------------------
# pull-through shifts

@dataclasses.dataclass
class ShiftRecord:
    """Partial sums of external photon energies/momenta along the chain.

    r[v] shifts the kernel argument of vertex v (0-based); rt[t], t = 0..L,
    shifts the resolvent between vertices t-1 and t (ends are the boundary
    cutoff arguments).  l/lt are the matching momentum-vector sums.
    """
    r: np.ndarray
    l: np.ndarray
    rt: np.ndarray
    lt: np.ndarray


def pull_shifts(spec: TermSpec, create_ids, annih_ids, k_abs, k_vec) -> ShiftRecord:
    """Exact shift sums for one assignment of external momenta to vertices.

    create_ids / annih_ids: per-vertex lists of mode indices, multiplicities
    matching spec.m / spec.n.
    """
    L = spec.L
    dim = k_vec.shape[1]
    if [len(c) for c in create_ids] != list(spec.m):
        raise ConfigError("creation assignment does not match spec.m")
    if [len(c) for c in annih_ids] != list(spec.n):
        raise ConfigError("annihilation assignment does not match spec.n")
    ce = np.array([sum(k_abs[i] for i in ids) for ids in create_ids])
    ae = np.array([sum(k_abs[i] for i in ids) for ids in annih_ids])
    cv = np.array([sum((k_vec[i] for i in ids), start=np.zeros(dim)) for ids in create_ids])
    av = np.array([sum((k_vec[i] for i in ids), start=np.zeros(dim)) for ids in annih_ids])
    r = np.zeros(L)
    l = np.zeros((L, dim))
    for v in range(L):
        r[v] = ae[:v].sum() + ce[v + 1:].sum()
        l[v] = av[:v].sum(axis=0) + cv[v + 1:].sum(axis=0)
    rt = np.zeros(L + 1)
    lt = np.zeros((L + 1, dim))
    for t in range(L + 1):
        rt[t] = ae[:t].sum() + ce[t:].sum()
        lt[t] = av[:t].sum(axis=0) + cv[t:].sum(axis=0)
    return ShiftRecord(r=r, l=l, rt=rt, lt=lt)


# ---------------------------------------------------------------------------
# chain assembly

@dataclasses.dataclass
class WickContext:
    """Everything the assembler needs about one chain family.

    kernel_eval(a, b, create_ids, annih_ids, rq, lqs) evaluates the vertex
    kernel on the (r, l) product grid defined by the query vectors; ids are
    global mode indices, -1 meaning "below the grid" (evaluates to 0).
    Scalar chains return arrays of base-grid shape; spin chains append
    (s, s) axes.  F_eval(rq, lqs) returns the diagonal resolvent factor
    (base shape, or base shape + (s,)), already masked to its domain.
    """
    grid: KernelGrid
    available: set
    L_max: int
    scale: float
    ext_shift_steps: int
    kernel_eval: object
    F_eval: object
    kernel_max: object
    F_max: float
    spin_dim: int = 1
    single_leg: bool = False
    prune: float = 0.0

    def __post_init__(self):
        steps = self.ext_shift_steps
        shift = np.arange(len(self.grid.modes))
        up = self.grid.shift_up
        for _ in range(steps):
            shift = np.array([up[s] if s >= 0 else -1 for s in shift])
        self.scaled_ids = shift

    def scaled(self, gid: int) -> int:
        return int(self.scaled_ids[gid])


def _chain_value(ctx: WickContext, spec: TermSpec, shifts: ShiftRecord,
                 create_ids, annih_ids, lines, line_modes):
    """Value of one fully-assigned chain over the (r, l) product grid."""
    g = ctx.grid
    R = g.r_nodes
    laxes = g.l_axes
    dim = len(laxes)
    L = spec.L
    span_r = np.zeros(L)
    span_l = np.zeros((L, dim))
    gap_r = np.zeros(max(L - 1, 0))
    gap_l = np.zeros((max(L - 1, 0), dim))
    for (ia, jc, _slot), x in zip(lines, line_modes):
        for v in range(ia + 1, jc):
            span_r[v] += g.k_abs[x]
            span_l[v] += g.k_vec[x]
        for t in range(ia, jc):
            gap_r[t] += g.k_abs[x]
            gap_l[t] += g.k_vec[x]
    # per-vertex internal photon arguments
    int_cre = [[] for _ in range(L)]
    int_ann = [[] for _ in range(L)]
    for (ia, jc, _slot), x in zip(lines, line_modes):
        int_cre[jc].append(x)
        int_ann[ia].append(x)

    chain = None
    for v in range(L):
        a, b = spec.vertex_kernel(v)
        rq = ctx.scale * (R + shifts.r[v]) + span_r[v]
        lqs = [ctx.scale * (laxes[ax] + shifts.l[v][ax]) + span_l[v][ax]
               for ax in range(dim)]
        val = ctx.kernel_eval(a, b, list(create_ids[v]) + int_cre[v],
                              list(annih_ids[v]) + int_ann[v], rq, lqs)
        if chain is None:
            chain = val
        else:
            chain = chain @ val if ctx.spin_dim > 1 else chain * val
        if not np.any(chain):
            return None
        if v < L - 1:
            rqg = ctx.scale * (R + shifts.rt[v + 1]) + gap_r[v]
            lqgs = [ctx.scale * (laxes[ax] + shifts.lt[v + 1][ax]) + gap_l[v][ax]
                    for ax in range(dim)]
            f = ctx.F_eval(rqg, lqgs)
            if ctx.spin_dim > 1:
                chain = chain * f[..., None, :]
            else:
                chain = chain * f
            if not np.any(chain):
                return None
    if ctx.spin_dim > 1:
        chain = chain[..., 0, 0]
    return chain


def assemble_target(M: int, N: int, ctx: WickContext, ext_mode_ids=None):
    """Sum of all chain contributions to the (M, N) output kernel.

    Returns (values, per_L) where values has base-grid shape plus M+N
    photon axes over ext_mode_ids, and per_L maps chain length to the max
    magnitude contributed (the series-decay monitor).  The result is NOT
    yet symmetrized over the photon axes.
    """
    g = ctx.grid
    ids = list(ext_mode_ids) if ext_mode_ids is not None else g.mode_ids()
    nE = len(ids)
    out = np.zeros(g.base_shape + (nE,) * (M + N), dtype=complex)
    per_L: dict[int, float] = {}
    ldim = len(g.l_axes)
    r_col = g.r_nodes.reshape((-1,) + (1,) * ldim)
    specs = enumerate_term_specs(M, N, ctx.L_max, ctx.available, ctx.single_leg)
    for spec in specs:
        has_internal = sum(spec.p) > 0
        pairings = internal_pairings(spec) if has_internal else [()]
        if has_internal and not pairings:
            continue
        if ctx.prune > 0.0:
            bound = (combinatorial_weight(spec) * (ctx.F_max ** (spec.L - 1))
                     * ctx.scale ** (1.5 * (M + N) - 1.0))
            for v in range(spec.L):
                bound *= ctx.kernel_max(*spec.vertex_kernel(v))
            n_lines = sum(spec.p)
            bound *= (float(np.sum(g.weight)) ** n_lines) * len(pairings)
            if bound < ctx.prune:
                continue
        sign = (-1.0) ** (spec.L - 1)
        pref = sign * combinatorial_weight(spec) * ctx.scale ** (1.5 * (M + N) - 1.0)
        # split points of the external tuple into per-vertex blocks
        m_off = np.cumsum((0,) + spec.m)
        n_off = np.cumsum((0,) + spec.n)
        n_lines = sum(spec.p)
        for tup in itertools.product(range(nE), repeat=M + N):
            cre = [ids[t] for t in tup[:M]]
            ann = [ids[t] for t in tup[M:]]
            create_ids = [cre[m_off[v]:m_off[v + 1]] for v in range(spec.L)]
            annih_ids = [ann[n_off[v]:n_off[v + 1]] for v in range(spec.L)]
            shifts = pull_shifts(spec, create_ids, annih_ids, g.k_abs, g.k_vec)
            boundary = (chi(r_col + shifts.rt[0], 1.0)
                        * chi(r_col + shifts.rt[spec.L], 1.0))
            if not np.any(boundary):
                continue
            cre_scaled = [[ctx.scaled(i) for i in idsv] for idsv in create_ids]
            ann_scaled = [[ctx.scaled(i) for i in idsv] for idsv in annih_ids]
            # a rescaled external mode below the grid floor kills the term
            if any(s < 0 for idsv in cre_scaled + ann_scaled for s in idsv):
                continue
            acc = None
            for pairing in pairings:
                for line_modes in itertools.product(range(len(g.modes)),
                                                    repeat=n_lines):
                    wts = float(np.prod(g.weight[list(line_modes)])) if n_lines else 1.0
                    val = _chain_value(ctx, spec, shifts, cre_scaled, ann_scaled,
                                       pairing, line_modes)
                    if val is None:
                        continue
                    acc = wts * val if acc is None else acc + wts * val
            if acc is None:
                continue
            contrib = pref * boundary * acc
            out[(Ellipsis,) + tup] += contrib
            mag = float(np.max(np.abs(contrib)))
            per_L[spec.L] = max(per_L.get(spec.L, 0.0), mag)
    return out, per_L


def series_ratio(per_L: dict) -> float:
    """Decay ratio of the two deepest chain-length contributions.

    Early lengths can legitimately dominate each other (a depth-2 chain of
    first-order vertices outweighs the passthrough of a tiny kernel), so
    only the tail of the series indicates divergence.
    """
    live = {L: v for L, v in per_L.items() if v > 0.0}
    if len(live) < 2:
        return 0.0
    ls = sorted(live)
    peak = max(ls, key=lambda L: live[L])
    top = ls[-1]
    if top == peak:
        return live[top] / live[ls[-2]]
    return (live[top] / live[peak]) ** (1.0 / (top - peak))
