"""The batched chain assembler against the per-chain loop it replaced.

The reference below is the assembler as it was before batching: one call
per (external tuple, term shape, pairing, line modes), each vertex and
resolvent queried on one chain at a time (through the stacked interface,
one row), spin chains multiplied as full 2x2 blocks.  The batch reorders
nothing within a sum, so every number must agree bitwise.  The one
exception is named and checked: a spin chain whose rows hold two non-zero
terms (the mix coupling) rounds differently when its 2x2 blocks go
through a stacked matmul than when each entry is summed from its two
rounded products, as the batch does; with the blocks multiplied out term
by term the reference agrees bitwise.
"""

import functools
import itertools

import numpy as np
import pytest

from dipolerg import wick
from dipolerg.firststep import initial_kernels
from dipolerg.model import ModelParams, SIGMA_X, SIGMA_Z, chi
from dipolerg.rgflow import cheb_nodes, renormalize
from dipolerg.selfcheck import _f_factor, _toy_grid, _toy_kernels
from dipolerg.wick import (combinatorial_weight, enumerate_term_specs,
                           internal_pairings)

MIX = 0.6 * SIGMA_X + 0.8 * SIGMA_Z


def _matmul_terms(a, b):
    """a @ b over trailing 2x2 blocks, written out as two products per entry."""
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _leg_sums_one(legs, L, k_abs, k_vec):
    x, opened, closed = np.array(legs, dtype=int).reshape(-1, 3).T
    slot = np.arange(2 * L + 1)[:, None]
    spans = (2 * opened + 1 < slot) & (slot < 2 * closed + 1)
    return spans @ np.column_stack([k_abs[x], k_vec[x]])


def _chain_value(ctx, spec, legs, frame, product):
    g = ctx.grid
    L = spec.L
    lines = _leg_sums_one(legs[spec.M + spec.N:], L, g.k_abs, g.k_vec)
    chain = None
    # every vertex returns a spin block, 1x1 for a scalar kernel
    spin = len(ctx.spin_patterns[spec.vertex_kernel(0)]) > 1
    for v in range(L):
        ids = [x for x, _, c in legs if c == v] + [x for x, o, _ in legs if o == v]
        rq, *lqs = [q + s for q, s in zip(frame[2 * v + 1], lines[2 * v + 1])]
        # one row of a family of one
        val = ctx.vertices[spec.vertex_kernel(v)].eval_product(
            np.array([ids], dtype=int).reshape(1, -1), rq[None], [q[None] for q in lqs])[0, 0]
        if not spin:
            val = val[..., 0, 0]
        # a spin vertex comes with length-1 grid axes
        grid = (len(rq),) + tuple(len(q) for q in lqs)
        val = np.broadcast_to(val, grid + val.shape[len(grid):])
        if chain is None:
            chain = val
        else:
            chain = product(chain, val) if spin else chain * val
        if not np.any(chain):
            return None
        if v < L - 1:
            rq, *lqs = [q + s for q, s in zip(frame[2 * v + 2], lines[2 * v + 2])]
            # one row of a family of one
            f = ctx.F_eval(rq[None], [q[None] for q in lqs])
            # the resolvent returns its spin levels apart
            f = np.stack([lv[0, 0] for lv in f], axis=-1) if spin else f[0][0, 0]
            chain = chain * (f[..., None, :] if spin else f)
            if not np.any(chain):
                return None
    return chain[..., 0, 0] if spin else chain


def reference_assemble_target(M, N, ctx, n_ext, product=np.matmul):
    """The per-chain assembler (same signature and result as wick.assemble_target
    on a family of one)."""
    g = ctx.grid
    ids = list(range(n_ext))
    nE = len(ids)
    out = np.zeros(g.base_shape + (nE,) * (M + N), dtype=complex)
    per_L = {}
    scale_pow = ctx.scale ** (1.5 * (M + N) - 1.0)
    shapes = []
    for spec in enumerate_term_specs(M, N, ctx.L_max, ctx.vertices):
        pairings = internal_pairings(spec)
        if not pairings:
            continue
        keys = [spec.vertex_kernel(v) for v in range(spec.L)]
        if not functools.reduce(np.matmul, (ctx.spin_patterns[k] for k in keys))[0, 0]:
            continue
        weight = combinatorial_weight(spec)
        if ctx.F_max is not None:
            bound = weight * (ctx.F_max ** (spec.L - 1)) * scale_pow
            for k in keys:
                bound *= ctx.max_abs[k]
            bound *= (float(np.sum(g.weight)) ** sum(spec.p)) * len(pairings)
            if bound < wick._PRUNE:
                continue
        pref = (-1.0) ** (spec.L - 1) * weight * scale_pow
        ends = ([(-1, v) for v in range(spec.L) for _ in range(spec.m[v])]
                + [(v, spec.L) for v in range(spec.L) for _ in range(spec.n[v])])
        shapes.append((spec, pref, ends, pairings))
    if not shapes:
        return out[None], per_L
    r_col = g.r_nodes.reshape((-1,) + (1,) * len(g.l_axes))
    for tup in itertools.product(range(nE), repeat=M + N):
        ext_ids = [ids[t] for t in tup]
        scaled = [int(ctx.scaled_ids[x]) for x in ext_ids]
        if not all(x in ctx.live_modes for x in scaled):
            continue
        boundary = (chi(r_col + g.k_abs[ext_ids[:M]].sum(), 1.0)
                    * chi(r_col + g.k_abs[ext_ids[M:]].sum(), 1.0))
        if not np.any(boundary):
            continue
        for spec, pref, ends, pairings in shapes:
            sums = _leg_sums_one([(x, a, c) for x, (a, c) in zip(ext_ids, ends)],
                                 spec.L, g.k_abs, g.k_vec)
            frame = [[ctx.scale * (ax + s) for ax, s in zip(g.base_axes, row)]
                     for row in sums]
            ext = [(x, a, c) for x, (a, c) in zip(scaled, ends)]
            acc = None
            for pairing in pairings:
                for line_modes in itertools.product(ctx.live_modes, repeat=len(pairing)):
                    wts = float(np.prod(g.weight[list(line_modes)])) if line_modes else 1.0
                    legs = ext + [(x, a, c) for x, (a, c, _) in zip(line_modes, pairing)]
                    val = _chain_value(ctx, spec, legs, frame, product)
                    if val is None:
                        continue
                    acc = wts * val if acc is None else acc + wts * val
            if acc is None:
                continue
            contrib = pref * boundary * acc
            out[(Ellipsis,) + tup] += contrib
            mag = float(np.max(np.abs(contrib)))
            per_L[spec.L] = max(per_L.get(spec.L, 0.0), mag)
    return out[None], {L: np.array([v]) for L, v in per_L.items()}


def _both(monkeypatch, run, product=np.matmul):
    """run() with the batched assembler, then with the per-chain reference."""
    batched = run()
    monkeypatch.setattr(wick, "assemble_target",
                        functools.partial(reference_assemble_target, product=product))
    reference = run()
    monkeypatch.undo()
    return batched, reference


def _assert_same_sequence(a, b, rtol=0.0):
    assert sorted(a.stacks) == sorted(b.stacks)
    for mn in a.stacks:
        x, y = a.stacks[mn], b.stacks[mn]
        assert x.n_modes == y.n_modes
        if rtol == 0.0:
            assert np.array_equal(x.values, y.values), mn
        else:
            np.testing.assert_allclose(x.values, y.values, rtol=0,
                                       atol=rtol * np.max(np.abs(y.values)))
    assert a.metas == b.metas


FIRST_STEPS = {
    "sigma_x": (ModelParams(lam0=0.02, j_max=5, j_max_pair=4), True),
    "sigma_z": (ModelParams(lam0=0.02, j_max=5, j_max_pair=4, spin_coupling=SIGMA_Z), True),
    "mix": (ModelParams(lam0=0.02, j_max=5, j_max_pair=4, spin_coupling=MIX), False),
    "d3": (ModelParams(dim=3, j_max=3, j_max_pair=2, N_max=2, lam0=0.004), True),
}


@pytest.mark.parametrize("case", sorted(FIRST_STEPS))
def test_first_step_matches_per_chain_loop(monkeypatch, case):
    # meta carries series_ratio and the resolvent's gap minima: the batch
    # must query the resolvent on exactly the chains the loop queried
    params, bitwise = FIRST_STEPS[case]
    batched, reference = _both(monkeypatch, lambda: initial_kernels(params, [0.03]))
    assert set(batched.metas[0]) >= {"gap_low", "gap_high", "series_ratio"}
    _assert_same_sequence(batched, reference, rtol=0.0 if bitwise else 1e-13)
    if not bitwise:
        # the difference is the stacked 2x2 matmul of the reference, nothing else
        _, termwise = _both(monkeypatch, lambda: initial_kernels(params, [0.03]),
                            product=_matmul_terms)
        _assert_same_sequence(batched, termwise)


def test_sigz_renormalize_matches_per_chain_loop(monkeypatch):
    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=3, n_z_samples=3,
                         spin_coupling=SIGMA_Z)
    family = initial_kernels(params, [0.01])
    batched, reference = _both(monkeypatch, lambda: renormalize(family, params))
    assert any(m + n for m, n in batched.stacks)
    _assert_same_sequence(batched, reference)


def test_wick_toy_matches_per_chain_loop():
    params = ModelParams()
    grid = _toy_grid(params)
    ctx = wick.WickContext(grid=grid, vertices=_toy_kernels(grid, np.random.default_rng(11)),
                           L_max=3, scale=1.0, F_eval=_f_factor)
    live = 0
    for total in range(7):
        for m in range(total + 1):
            vals, per_L = wick.assemble_target(m, total - m, ctx, 2)
            ref_vals, ref_per_L = reference_assemble_target(m, total - m, ctx, 2)
            assert np.array_equal(vals, ref_vals), (m, total - m)
            assert per_L.keys() == ref_per_L.keys()
            assert all(np.array_equal(per_L[L], ref_per_L[L]) for L in per_L)
            live += bool(np.any(vals))
    assert live >= 6      # at least every target with m + n <= 2


def test_row_chunks_change_no_number(monkeypatch):
    # one row per chunk against whole batches: the rows are accumulated in
    # the same order and the resolvent sees the same queries
    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=3, n_z_samples=3,
                         spin_coupling=SIGMA_Z)
    nodes = cheb_nodes(3, 0.45 * params.mu)
    whole = initial_kernels(params, nodes)
    whole_next = renormalize(whole, params)
    monkeypatch.setattr(wick, "_CHUNK_POINTS", 1)
    chunked = initial_kernels(params, nodes)
    for a, b in zip(chunked, whole):
        _assert_same_sequence(a, b)
    for a, b in zip(renormalize(chunked, params), whole_next):
        _assert_same_sequence(a, b)


def photon_last_assemble_target(M, N, ctx, n_ext):
    """wick.assemble_target as it was before its sums were held tuple-major:
    the target photon-last over every tuple, each chain row scattered into
    its tuple with np.add.at and each shape's sums into the target likewise
    (np.add.at adds its rows one by one, in order)."""
    g = ctx.grid
    nb = len(g.base_shape)
    out = np.zeros((1,) + g.base_shape + (n_ext,) * (M + N), dtype=complex)
    per_L = {}
    scale_pow = ctx.scale ** (1.5 * (M + N) - 1.0)
    shapes = []
    for spec in enumerate_term_specs(M, N, ctx.L_max, ctx.vertices):
        pairings = internal_pairings(spec)
        keys = [spec.vertex_kernel(v) for v in range(spec.L)]
        if not pairings or not functools.reduce(
                np.matmul, (ctx.spin_patterns[k] for k in keys))[0, 0]:
            continue
        weight = combinatorial_weight(spec)
        members = np.ones(1, dtype=bool)
        if ctx.F_max is not None:
            bound = weight * (ctx.F_max ** (spec.L - 1)) * scale_pow
            for k in keys:
                bound *= ctx.max_abs[k]
            bound *= (float(np.sum(g.weight)) ** sum(spec.p)) * len(pairings)
            members = np.atleast_1d(bound >= wick._PRUNE)
            if not np.any(members):
                continue
        ends = ([(-1, v) for v in range(spec.L) for _ in range(spec.m[v])]
                + [(v, spec.L) for v in range(spec.L) for _ in range(spec.n[v])])
        shapes.append((spec, (-1.0) ** (spec.L - 1) * weight * scale_pow, ends, pairings,
                       members))
    ext = wick._tuples(range(n_ext), M + N)
    keep = np.flatnonzero(np.all(np.isin(ctx.scaled_ids[ext], ctx.live_modes), axis=1))
    r_col = g.r_nodes.reshape((1, -1) + (1,) * (nb - 1))

    def cutoff(legs):
        return chi(r_col + g.k_abs[legs].sum(axis=1).reshape((-1,) + (1,) * nb), 1.0)

    boundary = cutoff(ext[keep, :M]) * cutoff(ext[keep, M:])
    live = np.any(boundary, axis=tuple(range(1, nb + 1)))
    keep, boundary = keep[live], boundary[live][:, None]
    if not shapes or not len(keep):
        return out, per_L
    ext = ext[keep]
    chunk = max(1, wick._CHUNK_POINTS // int(np.prod(g.base_shape)))
    for spec, pref, ends, pairings, members in shapes:
        run = (slice(None) if np.all(members)
               else slice(*np.flatnonzero(members)[[0, -1]] + [0, 1]))
        sums = wick._leg_sums(ext, ends, spec.L, g.k_abs, g.k_vec)
        frame = [ctx.scale * (ax + sums[:, :, a, None]) for a, ax in enumerate(g.base_axes)]
        acc = None
        for pairing in pairings:
            lines = wick._tuples(ctx.live_modes, len(pairing))
            line_ends = [(a, c) for a, c, _ in pairing]
            line_sums = wick._leg_sums(lines, line_ends, spec.L, g.k_abs, g.k_vec)
            t_all = np.repeat(np.arange(len(keep)), len(lines))
            j_all = np.tile(np.arange(len(lines)), len(keep))
            for lo in range(0, len(t_all), chunk):
                t_of, j_of = t_all[lo:lo + chunk], j_all[lo:lo + chunk]
                queries = [f[t_of] + line_sums[j_of, :, a, None] for a, f in enumerate(frame)]
                rows, vals = wick._chain_rows(
                    ctx, spec, np.concatenate([ctx.scaled_ids[ext][t_of], lines[j_of]], axis=1),
                    wick._incidence(tuple(ends + line_ends), spec.L)[1], queries, run)
                if not len(rows):
                    continue
                wts = np.prod(g.weight[lines], axis=1)[j_of[rows]]
                if acc is None:
                    acc = np.zeros((len(keep),) + vals.shape[1:], dtype=complex)
                np.add.at(acc, t_of[rows], wts.reshape((-1,) + (1,) * (nb + 1)) * vals)
        if acc is None:
            continue
        acc *= pref * boundary
        if not np.all(members[run]):
            acc = acc * members[run].reshape((-1,) + (1,) * nb)
        n_f = max(len(members), acc.shape[1])
        if len(out) < n_f:
            out = (np.repeat(out, n_f, axis=0) if per_L
                   else np.full((n_f,) + out.shape[1:], 0j))
        flat_out = out.reshape(out.shape[:1 + nb] + (-1,))
        np.add.at(flat_out[run], (Ellipsis, keep), np.moveaxis(acc, 0, -1))
        mags = np.zeros(n_f)
        mags[run] = np.max(np.abs(acc), axis=(0,) + tuple(range(2, acc.ndim)))
        per_L[spec.L] = np.maximum(per_L.get(spec.L, 0.0), mags)
    return out, per_L


def test_rows_spanning_chunks_add_in_row_order(monkeypatch):
    # seven rows per chunk: a tuple's rows span chunks and pairings.  The toy
    # context has several pairings per shape, and a zero photon slice of its
    # (1,1) kernel drops the rows of some tuples but not of their
    # neighbours, so some passes add through index arrays, not slices; the
    # sigma_z renormalize context has members and shapes pruned at some of them.
    checked = []

    def compare(ctx, M_max):
        monkeypatch.setattr(wick, "_CHUNK_POINTS", 7 * int(np.prod(ctx.grid.base_shape)))
        for total in range(1, M_max + 1):
            n_ext = len(ctx.grid.modes) if total <= 1 else ctx.grid.n_pair
            for m in range(total + 1):
                vals, per_L = wick.assemble_target(m, total - m, ctx, n_ext)
                ref, ref_per_L = photon_last_assemble_target(m, total - m, ctx, n_ext)
                assert vals.flags.c_contiguous
                assert np.array_equal(vals, ref), (m, total - m)
                assert per_L.keys() == ref_per_L.keys()
                assert all(np.array_equal(per_L[L], ref_per_L[L]) for L in per_L)
                checked.append(bool(np.any(vals)))

    grid = _toy_grid(ModelParams())
    toy = _toy_kernels(grid, np.random.default_rng(11))
    toy[(1, 1)].values[..., 0, 1] = 0.0
    compare(wick.WickContext(grid=grid, vertices=toy, L_max=3, scale=1.0, F_eval=_f_factor), 4)
    toy_live = sum(checked)

    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=3, n_z_samples=3,
                         spin_coupling=SIGMA_Z)
    original = wick._assemble_kernels

    def spy(ctx, M_max, w00_base):
        compare(ctx, M_max)
        return original(ctx, M_max, w00_base)

    family = initial_kernels(params, cheb_nodes(3, 0.45 * params.mu))
    monkeypatch.setattr(wick, "_assemble_kernels", spy)
    renormalize(family, params)
    assert toy_live >= 5 and sum(checked) > toy_live
