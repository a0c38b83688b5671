"""Contraction combinatorics and assembly of the renormalization recursion.

A chain of Wick monomials interleaved with diagonal resolvent factors is
rewritten as a sum of normal-ordered monomials.  This module enumerates the
term shapes (how many external/internal legs each chain vertex carries),
the internal pairings allowed in a vacuum expectation and the combinatorial
weights, and assembles the resulting kernels by quadrature over the
internal momenta.  The chains of one term shape and pairing are evaluated
as one batch: a leading row axis runs over every external mode tuple
times every internal line-mode assignment, and each vertex and resolvent
is queried once per batch with stacked (rows, ...) arguments, vectorized
over the (r, l) sample grid.  A family axis follows the row axis: one pass
assembles every member (z-node) of a family, whose resolvent and stacked
kernels (an RG step's vertices) depend on the member.

Every photon of a chain is a leg (mode, opened, closed): an external
creator at vertex c is (x, -1, c), an external annihilator at vertex a is
(x, a, L), an internal line from a to c is (x, a, c).  One pull-through
rule serves all three: a leg shifts the argument of every vertex and
resolvent it spans.

A chain is linear in each vertex, so a chain with a leg on a mode where
no vertex is non-zero, or whose spin product has a structurally zero
(0, 0) entry, is exactly zero: such chains are skipped, not evaluated.

The same assembler serves three callers, each passing its vertices as
data: the RG step (scale rho, its sampled kernels), the first decimation
(scale rho0, 2x2 spin-matrix vertices), and the small-Fock-space
operator-identity self-check (sampled toy kernels).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import math

import numpy as np

from .model import ConfigError, chi
from .fockspace import shift_index
from .kernels import Kernel, KernelGrid, symmetrize

# a batch is evaluated in chunks of rows that hold at most this many (r, l)
# grid points per family member: on the default grid a first-decimation
# batch has hundreds of rows, each at every z-node
_CHUNK_POINTS = 2 ** 15


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


def enumerate_term_specs(M: int, N: int, L_max: int, available) -> tuple[TermSpec, ...]:
    """All chain shapes producing an (M, N) monomial from the given kernels.

    `available` is the set of kernel indices (a, b) usable at a vertex; the
    vertex splits a = m_i + p_i external/internal creators (b likewise).
    The passthrough L=1 shape for (M, N) = (0, 0) is excluded: it is the
    diagonal part, not a chain term.
    """
    return _term_specs(M, N, L_max, frozenset(available))


@functools.lru_cache(maxsize=None)
def _term_specs(M: int, N: int, L_max: int, available: frozenset) -> tuple:
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
                          if a >= mvec[i] and b >= nvec[i]]
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
    return tuple(specs)


def combinatorial_weight(spec: TermSpec) -> int:
    """Number of leg splittings giving the same operator: a binomial product."""
    w = 1
    for i in range(spec.L):
        w *= math.comb(spec.m[i] + spec.p[i], spec.p[i])
        w *= math.comb(spec.n[i] + spec.q[i], spec.q[i])
    return w


@functools.lru_cache(maxsize=None)
def internal_pairings(spec: TermSpec) -> tuple:
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
    return tuple(out)


# ---------------------------------------------------------------------------
# chain assembly

def _leg_sums(modes, ends, L: int, k_abs, k_vec):
    """Photon energy and momentum carried past every slot of length-L chains.

    The slots alternate resolvents and vertices: slot 2t is the resolvent
    in front of vertex t (slot 2L: behind the chain), slot 2v + 1 is
    vertex v.  A leg (opened, closed) is a photon annihilated at vertex
    `opened` and created at vertex `closed`, so it spans the slots
    strictly between 2 opened + 1 and 2 closed + 1: the vertices with
    opened < v < closed and the resolvents with opened < t <= closed.  An
    external creator opens at -1, an external annihilator closes at L.
    Row i of `modes` (rows, legs) puts leg j, with ends[j] = (opened,
    closed), on mode modes[i, j]; the incidence depends on the ends only,
    so one 0/1 product serves every row.  Returns the sums, shape
    (rows, 2L + 1, 1 + dim), energy first.
    """
    opened, closed = np.array(ends, dtype=int).reshape(-1, 2).T
    slot = np.arange(2 * L + 1)[:, None]
    spans = (2 * opened + 1 < slot) & (slot < 2 * closed + 1)
    modes = np.asarray(modes, dtype=int)
    return spans @ np.concatenate([k_abs[modes][..., None], k_vec[modes]], axis=-1)


@dataclasses.dataclass
class WickContext:
    """Everything the assembler needs about one chain family.

    `vertices` maps a kernel index (a, b) to a vertex with the Kernel
    interface, evaluated on a batch of rows at once:
    eval_product(ids, rq, lqs) takes grid mode positions ids (rows, a + b)
    (creators first), rq (rows, n_r) and one (rows, n_l) array per l-axis,
    and returns each row's values on the (r, l) product grid of its query
    vectors, (rows, n_f, *base), with (s, s) axes appended for a spin
    vertex and n_f = 1 for a vertex that is the same at every member;
    max_abs() bounds it per member, like F_max (read only when prune > 0),
    live_modes() lists the modes it is not identically zero on, and
    spin_pattern() is the boolean sparsity of its spin block (1x1 for a
    scalar vertex).  A Kernel vertex is a stack.
    F_eval(rq, lqs) takes the same stacked queries and returns the diagonal
    resolvent factor at every family member, (rows, n_f, *base) or (rows,
    n_f, *base, s), masked to its domain; a family of one has n_f = 1.
    """
    grid: KernelGrid
    vertices: dict
    L_max: int
    scale: float
    ext_shift_steps: int
    F_eval: object
    F_max: float = 0.0
    prune: float = 0.0

    def __post_init__(self):
        self.scaled_ids = shift_index(self.grid.modes, self.ext_shift_steps)
        # a leg on a mode outside the union makes its chain exactly zero
        self.live_modes = tuple(sorted({int(x) for v in self.vertices.values()
                                        for x in v.live_modes()}))
        self.spin_patterns = {k: v.spin_pattern() for k, v in self.vertices.items()}
        self.max_abs = ({k: v.max_abs() for k, v in self.vertices.items()}
                        if self.prune > 0.0 else {})

    def member_run(self, run: slice) -> "WickContext":
        """The context of the family members in `run`, stacked vertices as views."""
        sub = copy.copy(self)
        sub.vertices = {k: v[run] if isinstance(v, Kernel) else v
                        for k, v in self.vertices.items()}
        sub.F_eval = lambda rq, lqs: self.F_eval(rq, lqs)[:, run]
        return sub


def _tuples(values, k: int) -> np.ndarray:
    """Every k-tuple of `values`, in itertools.product order: shape (n^k, k)."""
    combos = list(itertools.product(values, repeat=k))
    return np.array(combos, dtype=int).reshape(len(combos), k)


def _drop_zero_rows(rows, chain):
    live = np.any(chain, axis=tuple(range(1, chain.ndim)))
    return (rows, chain) if np.all(live) else (rows[live], chain[live])


def _chain_rows(ctx: WickContext, spec: TermSpec, modes, ends, queries):
    """Values of a batch of same-shape chains over their (r, l) grids.

    Row i of `modes` (rows, legs) puts leg j, with ends[j] = (opened,
    closed), on the mode id its vertices see: the spec.M + spec.N external
    legs, then the internal lines.  Vertex v creates the legs it closes
    and annihilates the legs it opens.  queries[a] (rows, 2L + 1, n_a)
    holds query axis a of every slot (see _leg_sums), photons already
    pulled through.  A row whose partial chain vanishes at every member is
    dropped at once: no later vertex or resolvent is evaluated on it.  A
    spin chain carries only its row <0|, the one its (0, 0) value depends
    on, the diagonal resolvent scaling each entry.  Returns the
    indices of the surviving rows and their values, (rows, n_f, *base).
    """
    rows = np.arange(len(modes))
    chain = None
    spin = len(ctx.spin_patterns[spec.vertex_kernel(0)]) > 1
    for v in range(spec.L):
        cols = ([j for j, (_, c) in enumerate(ends) if c == v]
                + [j for j, (o, _) in enumerate(ends) if o == v])
        rq, *lqs = [q[rows, 2 * v + 1] for q in queries]
        val = ctx.vertices[spec.vertex_kernel(v)].eval_product(
            modes[np.ix_(rows, cols)], rq, lqs)
        if chain is None:
            chain = val[..., 0, :] if spin else val
        elif spin:
            chain = chain[..., 0, None] * val[..., 0, :] + chain[..., 1, None] * val[..., 1, :]
        else:
            chain = chain * val
        rows, chain = _drop_zero_rows(rows, chain)
        if v < spec.L - 1 and len(rows):
            rq, *lqs = [q[rows, 2 * v + 2] for q in queries]
            rows, chain = _drop_zero_rows(rows, chain * ctx.F_eval(rq, lqs))
        if not len(rows):
            break
    return rows, chain[..., 0] if spin else chain


def assemble_target(M: int, N: int, ctx: WickContext, n_ext: int):
    """Sum of all chain contributions to the (M, N) output kernel.

    Returns (values, per_L): values has a family axis, the base-grid shape
    and M+N photon axes over the first n_ext modes of the grid; per_L maps
    chain length to each member's largest contribution (the series-decay
    monitor).  Both family axes have length 1 when no contribution depends
    on the member.  The result is NOT yet symmetrized over the photon axes.
    The chains of one term shape and pairing are one batch over every live
    external tuple times every internal line-mode assignment; a shape whose
    magnitude bound falls below ctx.prune at some members adds zeros there.
    """
    g = ctx.grid
    out = np.zeros((1,) + g.base_shape + (n_ext,) * (M + N), dtype=complex)
    per_L: dict[int, np.ndarray] = {}
    scale_pow = ctx.scale ** (1.5 * (M + N) - 1.0)
    shapes = []
    for spec in enumerate_term_specs(M, N, ctx.L_max, ctx.vertices):
        pairings = internal_pairings(spec)
        if not pairings:
            continue
        keys = [spec.vertex_kernel(v) for v in range(spec.L)]
        # the resolvent is diagonal: the vertices' spin patterns decide <0|chain|0>
        if not functools.reduce(np.matmul, (ctx.spin_patterns[k] for k in keys))[0, 0]:
            continue
        weight = combinatorial_weight(spec)
        members = np.ones(1, dtype=bool)      # the members whose bound passes
        if ctx.prune > 0.0:
            bound = weight * (ctx.F_max ** (spec.L - 1)) * scale_pow
            for k in keys:
                bound *= ctx.max_abs[k]
            bound *= (float(np.sum(g.weight)) ** sum(spec.p)) * len(pairings)
            members = np.atleast_1d(bound >= ctx.prune)
            if not np.any(members):
                continue
        pref = (-1.0) ** (spec.L - 1) * weight * scale_pow
        # (opened, closed) of each external leg, in tuple order
        ends = ([(-1, v) for v in range(spec.L) for _ in range(spec.m[v])]
                + [(v, spec.L) for v in range(spec.L) for _ in range(spec.n[v])])
        shapes.append((spec, pref, ends, pairings, members))
    if not shapes:
        return out, per_L
    ext = _tuples(range(n_ext), M + N)
    # a rescaled external mode below the grid floor (-1) or on no vertex's
    # support kills the term
    keep = np.flatnonzero(np.all(np.isin(ctx.scaled_ids[ext], ctx.live_modes), axis=1))
    nb = len(g.base_shape)
    r_col = g.r_nodes.reshape((1, -1) + (1,) * (nb - 1))

    def cutoff(legs):
        return chi(r_col + g.k_abs[legs].sum(axis=1).reshape((-1,) + (1,) * nb), 1.0)

    # boundary cutoffs (slots 0, 2L): all external creators, resp. annihilators
    boundary = cutoff(ext[keep, :M]) * cutoff(ext[keep, M:])
    live = np.any(boundary, axis=tuple(range(1, nb + 1)))
    keep, boundary = keep[live], boundary[live]
    if not len(keep):
        return out, per_L
    ext = ext[keep]
    scaled = ctx.scaled_ids[ext]
    boundary = boundary[:, None]
    flat_out = out.reshape(out.shape[:1 + nb] + (-1,))
    chunk = max(1, _CHUNK_POINTS // math.prod(g.base_shape))
    for spec, pref, ends, pairings, members in shapes:
        # a shape pruned at some members is evaluated over the run of members
        # from the first to the last it passes at, and adds zeros elsewhere
        run = (slice(None) if np.all(members)
               else slice(*np.flatnonzero(members)[[0, -1]] + [0, 1]))
        sub = ctx if run == slice(None) else ctx.member_run(run)
        # external photons come in the rescaled frame, lines in the vertex frame
        sums = _leg_sums(ext, ends, spec.L, g.k_abs, g.k_vec)
        frame = [ctx.scale * (ax + sums[:, :, a, None]) for a, ax in enumerate(g.base_axes)]
        acc = None
        for pairing in pairings:
            lines = _tuples(ctx.live_modes, len(pairing))
            if not len(lines):
                continue
            line_ends = [(a, c) for a, c, _ in pairing]
            line_sums = _leg_sums(lines, line_ends, spec.L, g.k_abs, g.k_vec)
            # row (t, j): external tuple t, line modes j
            t_all = np.repeat(np.arange(len(keep)), len(lines))
            j_all = np.tile(np.arange(len(lines)), len(keep))
            for lo in range(0, len(t_all), chunk):
                t_of, j_of = t_all[lo:lo + chunk], j_all[lo:lo + chunk]
                queries = [f[t_of] + line_sums[j_of, :, a, None] for a, f in enumerate(frame)]
                rows, vals = _chain_rows(sub, spec,
                                         np.concatenate([scaled[t_of], lines[j_of]], axis=1),
                                         ends + line_ends, queries)
                if not len(rows):
                    continue
                wts = np.prod(g.weight[lines], axis=1)[j_of[rows]]
                if acc is None:
                    acc = np.zeros((len(keep),) + vals.shape[1:], dtype=complex)
                # accumulates row by row, in the order of the rows
                np.add.at(acc, t_of[rows], wts.reshape((-1,) + (1,) * (nb + 1)) * vals)
        if acc is None:
            continue
        # each tuple's contribution, in place; a tuple no chain reached adds 0
        acc *= pref * boundary
        if not np.all(members[run]):
            acc = acc * members[run].reshape((-1,) + (1,) * nb)
        n_f = max(len(members), acc.shape[1])
        if len(out) < n_f:
            # a contribution added so far is the same at every member
            # (np.full writes every page now; the scattered add below would
            # fault each lazily zeroed page twice, on the read and the write)
            out = (np.repeat(out, n_f, axis=0) if per_L
                   else np.full((n_f,) + out.shape[1:], 0j))
            flat_out = out.reshape(out.shape[:1 + nb] + (-1,))
        # in place: a fancy-indexed += would copy the target's live tuples
        np.add.at(flat_out[run], (Ellipsis, keep), np.moveaxis(acc, 0, -1))
        mags = np.zeros(n_f)
        mags[run] = np.max(np.abs(acc), axis=(0,) + tuple(range(2, acc.ndim)))
        per_L[spec.L] = np.maximum(per_L.get(spec.L, 0.0), mags)
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


def _assemble_kernels(ctx: WickContext, M_max: int, w00_base: np.ndarray):
    """Every target kernel with m + n <= M_max at every family member.

    w00_base has a leading family axis, one row per member, and the (0,0)
    kernel is w00_base plus its closed chains.  Targets with m + n >= 2
    run over the grid's first n_pair modes.  Every other target is dropped
    when exactly zero at every member and otherwise symmetrized over its
    photon axes.  Returns (stacks, ratios): stacks[(m, n)] has shape (n_f, *base,
    photons), and ratios[k] is member k's worst series ratio.
    """
    g = ctx.grid
    n_f = len(w00_base)
    stacks = {}
    ratios = [0.0] * n_f
    for total in range(M_max + 1):
        n_ext = len(g.modes) if total <= 1 else g.n_pair
        # symmetrizing holds a second copy of the target: do it before the
        # family holds the other targets of this total
        for m in sorted(range(total + 1), key=lambda m: max(m, total - m) <= 1):
            n = total - m
            vals, per_L = assemble_target(m, n, ctx, n_ext)
            per_L = {L: np.broadcast_to(v, n_f) for L, v in per_L.items()}
            ratios = [max(r, series_ratio({L: float(v[k]) for L, v in per_L.items()}))
                      for k, r in enumerate(ratios)]
            if total == 0:
                stacks[(0, 0)] = w00_base + vals
            elif np.any(vals):
                vals = symmetrize(np.broadcast_to(vals, (n_f,) + vals.shape[1:]),
                                  m, n, 2 + len(g.l_axes))
                stacks[(m, n)] = np.ascontiguousarray(vals)
    return stacks, ratios
