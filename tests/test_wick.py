import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolerg.model import ConfigError, ModelParams, SIGMA_Z
from dipolerg import firststep, wick
from dipolerg.firststep import initial_kernels
from dipolerg.kernels import Kernel, KernelGrid, symmetrize
from dipolerg.rgflow import cheb_nodes, renormalize, run_flow
from dipolerg.selfcheck import wick_reassembly_defect
from dipolerg.wick import (TermSpec, enumerate_term_specs, combinatorial_weight,
                           internal_pairings, series_ratio, _leg_sums)


# Counting reference: contraction schemes of a literal operator pattern,
# enumerated independently of the term-shape machinery in wick.

@dataclasses.dataclass(frozen=True)
class ContractionScheme:
    """Uncontracted positions plus a pairing of the rest.

    pattern positions hold '+' (creation) or '-' (annihilation); each paired
    annihilation sits left of its creation partner, as required for a
    nonzero vacuum expectation of the contracted part.
    """
    uncontracted: tuple
    pairs: tuple          # ((annih_pos, create_pos), ...)


def enumerate_contractions(pattern) -> list[ContractionScheme]:
    """All schemes with a nonzero vacuum expectation of the contracted part."""
    pattern = list(pattern)
    if not pattern:
        raise ConfigError("pattern must be nonempty")
    if any(s not in ("+", "-") for s in pattern):
        raise ConfigError("pattern entries must be '+' or '-'")
    npos = len(pattern)
    schemes = []
    for keep_mask in itertools.product((False, True), repeat=npos):
        kept = tuple(i for i in range(npos) if keep_mask[i])
        rest = [i for i in range(npos) if not keep_mask[i]]
        ann = [i for i in rest if pattern[i] == "-"]
        cre = [i for i in rest if pattern[i] == "+"]
        if len(ann) != len(cre):
            continue
        for perm in itertools.permutations(cre):
            if all(a < c for a, c in zip(ann, perm)):
                schemes.append(ContractionScheme(kept, tuple(zip(ann, perm))))
    return schemes


def test_contraction_counts_small_patterns():
    # counted by hand: keep-all, plus every admissible pairing subset
    assert len(enumerate_contractions("+-")) == 1
    assert len(enumerate_contractions("-+")) == 2
    assert len(enumerate_contractions("+-+-")) == 2
    assert len(enumerate_contractions("+--+")) == 3
    assert len(enumerate_contractions("--++")) == 7


def test_contraction_pair_orientation():
    for scheme in enumerate_contractions("--++-+"):
        for a, c in scheme.pairs:
            assert a < c


def test_contraction_rejects_bad_pattern():
    with pytest.raises(ConfigError):
        enumerate_contractions("")
    with pytest.raises(ConfigError):
        enumerate_contractions("+x")


def test_term_spec_validation():
    with pytest.raises(ConfigError):
        TermSpec(m=(0,), p=(0,), n=(0,), q=(0,))      # legless vertex
    with pytest.raises(ConfigError):
        TermSpec(m=(1, 0), p=(0,), n=(0, 0), q=(0, 0))
    s = TermSpec(m=(1, 0), p=(0, 1), n=(0, 1), q=(1, 0))
    assert s.L == 2 and s.M == 1 and s.N == 1
    assert s.vertex_kernel(0) == (1, 1)


def test_enumerate_specs_respects_available():
    specs = enumerate_term_specs(1, 1, 2, {(1, 0), (0, 1)})
    for s in specs:
        for i in range(s.L):
            assert s.vertex_kernel(i) in {(1, 0), (0, 1)}
            assert sum(s.vertex_kernel(i)) == 1
    # (1,1) from two single-leg vertices: exactly the two orderings
    assert len([s for s in specs if s.L == 2]) == 2
    assert not [s for s in specs if s.L == 1]


def test_enumerate_specs_excludes_diagonal_passthrough():
    specs = enumerate_term_specs(0, 0, 3, {(1, 0), (0, 1), (1, 1)})
    assert all(s.L >= 2 for s in specs)
    # internal lines must balance
    for s in specs:
        assert sum(s.p) == sum(s.q)


def test_combinatorial_weight_binomials():
    s = TermSpec(m=(1,), p=(1,), n=(0,), q=(0,))
    assert combinatorial_weight(s) == 2      # choose which leg is external
    s = TermSpec(m=(1, 0), p=(1, 1), n=(0, 0), q=(0, 2))
    assert combinatorial_weight(s) == 2          # comb(2,1) at vertex 0
    s = TermSpec(m=(0,), p=(0,), n=(1,), q=(1,))
    assert combinatorial_weight(s) == 2


def test_internal_pairings_orientation():
    # annihilators must sit left of their creators along the chain
    s = TermSpec(m=(0, 0, 0), p=(0, 1, 1), n=(0, 0, 0), q=(1, 1, 0))
    pairings = internal_pairings(s)
    for pairing in pairings:
        for (i, j, _slot) in pairing:
            assert i < j
    # ann(0) -> cre(1) forced once ann(1) -> cre(2) is the only option left
    assert len(pairings) == 1
    # flipped orientation has no admissible pairing at all
    flipped = TermSpec(m=(0, 0, 0), p=(1, 1, 0), n=(0, 0, 0), q=(0, 1, 1))
    assert internal_pairings(flipped) == ()


def test_internal_pairings_count_factorial():
    # two annihilators at vertex 0 paired with two creators at vertex 1:
    # 2! orderings of the creator slots
    s = TermSpec(m=(0, 0), p=(0, 2), n=(0, 0), q=(2, 0))
    assert len(internal_pairings(s)) == 2


def _scheme_count_by_shape(M, N, L, kernel_degrees):
    """Independent count of Wick schemes, grouped by per-vertex external legs.

    Builds the literal operator pattern of a chain of monomials and counts
    enumerate_contractions schemes whose kept legs match each spec, keeping
    the schemes distinguishable only up to the slot relabeling that
    combinatorial_weight accounts for.
    """
    counts = {}
    for degrees in itertools.product(kernel_degrees, repeat=L):
        pattern = []
        vertex_of = []
        kind = []
        for v, (a, b) in enumerate(degrees):
            pattern += ["+"] * a + ["-"] * b
            vertex_of += [v] * (a + b)
            kind += ["+"] * a + ["-"] * b
        for scheme in enumerate_contractions(pattern):
            m = [0] * L
            n = [0] * L
            for pos in scheme.uncontracted:
                if kind[pos] == "+":
                    m[vertex_of[pos]] += 1
                else:
                    n[vertex_of[pos]] += 1
            if sum(m) != M or sum(n) != N:
                continue
            for a, c in scheme.pairs:
                if vertex_of[a] >= vertex_of[c]:
                    break
            else:
                p = [0] * L
                q = [0] * L
                for a, c in scheme.pairs:
                    q[vertex_of[a]] += 1
                    p[vertex_of[c]] += 1
                key = (tuple(m), tuple(p), tuple(n), tuple(q))
                counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("M,N,L", [(0, 0, 2), (1, 1, 2), (2, 0, 2), (1, 0, 3)])
def test_scheme_count_identity(M, N, L):
    """weight(spec) * #pairings(spec) reproduces the raw scheme count."""
    degrees = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    raw = _scheme_count_by_shape(M, N, L, degrees)
    specs = [s for s in enumerate_term_specs(M, N, L, set(degrees)) if s.L == L]
    predicted = {}
    for s in specs:
        key = (s.m, s.p, s.n, s.q)
        predicted[key] = combinatorial_weight(s) * len(internal_pairings(s))
    raw = {k: v for k, v in raw.items() if v}
    predicted = {k: v for k, v in predicted.items() if v}
    assert raw == predicted


def test_leg_sums_telescoping():
    """Resolvent sums interleave vertex sums: at vertex t the external
    energy it creates is swapped for the energy it annihilates."""
    L = 3
    k_abs = np.array([1.0, 0.45, 0.2025, 0.0911])
    k_vec = np.array([[1.0], [-0.45], [0.2025], [-0.0911]])
    create_ids = [[0], [1, 2], []]
    annih_ids = [[], [3], [0]]
    legs = ([(x, -1, v) for v in range(L) for x in create_ids[v]]
            + [(x, v, L) for v in range(L) for x in annih_ids[v]])
    sums = _leg_sums([[x for x, _, _ in legs]], [(a, c) for _, a, c in legs],
                     L, k_abs, k_vec)[0]
    assert sums.shape == (2 * L + 1, 2)
    at_vertex, at_resolvent = sums[1::2], sums[0::2]
    k = np.column_stack([k_abs, k_vec])
    ce = [k[ids].sum(axis=0) for ids in create_ids]
    ae = [k[ids].sum(axis=0) for ids in annih_ids]
    for t in range(L):
        np.testing.assert_allclose(at_resolvent[t] - at_resolvent[t + 1], ce[t] - ae[t],
                                   atol=1e-15)
        # vertex sum sits between its neighbouring resolvent sums
        np.testing.assert_allclose(at_vertex[t], at_resolvent[t] - ce[t], atol=1e-15)
        np.testing.assert_allclose(at_vertex[t], at_resolvent[t + 1] - ae[t], atol=1e-15)
    np.testing.assert_allclose(at_resolvent[0], sum(ce))
    np.testing.assert_allclose(at_resolvent[-1], sum(ae))


def test_leg_sums_internal_line_spans_only_its_interior():
    """A line from vertex a to vertex c shifts the vertices strictly between
    its ends and the resolvents behind a up to the one in front of c."""
    k_abs = np.array([0.45, 0.2025, 0.0911])
    k_vec = np.array([[0.45], [-0.2025], [0.0911]])
    L = 5
    sums = _leg_sums([[1]], [(1, 3)], L, k_abs, k_vec)[0]
    k, o = [0.2025, -0.2025], [0.0, 0.0]
    assert np.array_equal(sums[1::2], [o, o, k, o, o])         # vertices
    assert np.array_equal(sums[0::2], [o, o, k, k, o, o])      # resolvents
    assert not np.any(_leg_sums(np.zeros((2, 0), dtype=int), [], L, k_abs, k_vec))
    # mixed external and internal legs against the rule written as a loop,
    # one row per mode assignment of the same legs
    ends = [(-1, 2), (-1, 4), (0, 5), (3, 5), (0, 2), (1, 4)]
    modes = [[0, 2, 1, 2, 0, 1], [1, 0, 2, 2, 1, 0]]
    stacked = _leg_sums(modes, ends, L, k_abs, k_vec)
    assert stacked.shape == (2, 2 * L + 1, 2)
    for row, sums in zip(modes, stacked):
        legs = [(x, a, c) for x, (a, c) in zip(row, ends)]
        for v in range(L):
            expect = sum((np.r_[k_abs[x], k_vec[x]] for x, a, c in legs if a < v < c),
                         start=np.zeros(2))
            np.testing.assert_allclose(sums[2 * v + 1], expect, atol=1e-15)
        for t in range(L + 1):
            expect = sum((np.r_[k_abs[x], k_vec[x]] for x, a, c in legs if a < t <= c),
                         start=np.zeros(2))
            np.testing.assert_allclose(sums[2 * t], expect, atol=1e-15)


def test_target_without_live_shape_skips_tuple_loop(monkeypatch):
    # zero vertices have no live mode, so no tuple is live: no boundary
    # cutoff is evaluated and the target has no array
    params = ModelParams(j_max=2, j_max_pair=1)
    grid = KernelGrid(params)
    n = len(grid.modes)
    zero = {(a, b): Kernel(a, b, grid, np.zeros((n,) * (a + b) + grid.base_shape))
            for (a, b) in [(1, 0), (0, 1), (1, 1)]}
    ctx = wick.WickContext(grid=grid, vertices=zero, L_max=3, scale=params.rho,
                           F_eval=None, F_max=1.0)
    assert enumerate_term_specs(1, 1, ctx.L_max, ctx.vertices)
    calls = []
    monkeypatch.setattr(wick, "chi", lambda *a: calls.append(a) or 1.0)
    vals, per_L = wick.assemble_target(1, 1, ctx, n, 1)
    assert calls == []
    assert vals is None and per_L == {}


def test_target_without_live_tuple_evaluates_no_chain(monkeypatch):
    # the self-check's toy modes have energy 0.45: three external creators
    # (or annihilators) already pass the unit cap, so the boundary cutoff
    # kills every tuple of a (3, n) target, which evaluates no chain and
    # has no array
    from dipolerg.selfcheck import _f_factor, _toy_grid, _toy_kernels
    grid = _toy_grid(ModelParams())
    ctx = wick.WickContext(grid=grid, vertices=_toy_kernels(grid, np.random.default_rng(11)),
                           L_max=3, scale=1.0, F_eval=_f_factor)
    calls = []
    for name in ("_leg_sums", "_chain_rows"):
        monkeypatch.setattr(wick, name, lambda *a, name=name: calls.append(name))
    for m, n in [(3, 0), (3, 1), (0, 3)]:
        vals, per_L = wick.assemble_target(m, n, ctx, 2, 1)
        assert vals is None and per_L == {}
    assert calls == []
    # a live target does reach them
    monkeypatch.undo()
    assert np.any(wick.assemble_target(2, 0, ctx, 2, 1)[0])


@pytest.mark.parametrize("case", ["sigma_x-odd", "no-modes"])
def test_structurally_zero_target_has_no_array(monkeypatch, case):
    # sigma_x's spin patterns close no odd chain, and n_ext = 0 leaves no
    # tuple at all: the target evaluates no chain, no boundary cutoff and no
    # resolvent, and returns no array (zero vertices, which leave no live
    # tuple, are test_target_without_live_shape_skips_tuple_loop)
    params = ModelParams(lam0=0.004, j_max=4, j_max_pair=4)
    grid = KernelGrid(params)
    vertices = {(1, 0): firststep._SpinVertex(-1.0, params, grid),
                (0, 1): firststep._SpinVertex(1.0, params, grid)}
    calls = []
    ctx = wick.WickContext(grid=grid, vertices=vertices, L_max=3, scale=params.rho0,
                           F_eval=lambda *a: calls.append("F_eval"))
    for name in ("chi", "_chain_rows"):
        monkeypatch.setattr(wick, name, lambda *a, name=name: calls.append(name))
    M, N, n_ext = (1, 0, len(grid.modes)) if case == "sigma_x-odd" else (1, 1, 0)
    assert enumerate_term_specs(M, N, ctx.L_max, ctx.vertices)
    vals, per_L = wick.assemble_target(M, N, ctx, n_ext, 3)
    assert vals is None and per_L == {} and calls == []


def test_series_ratio_decay_from_peak():
    assert series_ratio({1: 1.0, 2: 0.1, 3: 0.01}) == pytest.approx(0.1)
    # growth into a peak then decay: rate measured from the peak only
    assert series_ratio({1: 1e-6, 2: 1.0, 3: 0.2}) == pytest.approx(0.2)
    assert series_ratio({1: 0.0, 2: 1.0}) == 0.0    # single live entry
    assert series_ratio({}) == 0.0


def test_scaled_ids_follow_shift_up_steps():
    # scale = rho**steps: steps grid steps up, -1 once a mode falls below the floor
    params = ModelParams(j_max=5, j_max_pair=3)
    grid = KernelGrid(params)
    for steps in range(4):
        ctx = wick.WickContext(grid=grid, vertices={}, L_max=3, scale=params.rho ** steps,
                               F_eval=None)
        expect = list(range(len(grid.modes)))
        for _ in range(steps):
            expect = [int(grid.shift_up[s]) if s >= 0 else -1 for s in expect]
        assert ctx.scaled_ids.tolist() == expect
    assert -1 in expect and len(set(expect) - {-1}) > 1
    with pytest.raises(ConfigError, match="integer power of rho"):
        wick.WickContext(grid=grid, vertices={}, L_max=3, scale=0.3, F_eval=None)


# the flow_sigx and flow_sigz benchmark grids, and the photon lengths of their
# first decimation's targets
CUT_GRIDS = {
    "sigma_x": (ModelParams(lam0=0.004, j_max=4, j_max_pair=4, n_z_samples=9),
                {(2, 0): 4, (1, 1): 4, (0, 2): 4}),
    "sigma_z": (ModelParams(lam0=0.02, j_max=4, j_max_pair=3, n_z_samples=3,
                            spin_coupling=SIGMA_Z),
                {(1, 0): 4, (0, 1): 4, (1, 1): 4}),
}


@pytest.mark.parametrize("case", sorted(CUT_GRIDS))
def test_photon_axes_end_at_last_live_image(monkeypatch, case):
    # every assembler pass of a flow: each target's photon axes end at the
    # last mode whose rescaled image is live, and zero-padded back to every
    # mode (one-photon targets) or the first n_pair modes (pair targets) it is
    # the uncut assembly, symmetrized; a dropped target assembles to zero
    params, first_lengths = CUT_GRIDS[case]
    original = wick._assemble_kernels
    lengths = []

    def spy(ctx, M_max, w00_base):
        stacks, ratios = original(ctx, M_max, w00_base)
        g = ctx.grid
        imaged = np.isin(ctx.scaled_ids, ctx.live_modes)
        for total in range(1, M_max + 1):
            n_full = len(g.modes) if total <= 1 else g.n_pair
            for m in range(total + 1):
                ref, _ = wick.assemble_target(m, total - m, ctx, n_full, len(w00_base))
                if (m, total - m) not in stacks:
                    assert ref is None or not np.any(ref)
                    continue
                ref = symmetrize(ref, m, total - m)
                vals = stacks[(m, total - m)]
                n_cut = vals.shape[1]
                assert imaged[n_cut - 1] and not np.any(imaged[n_cut:n_full])
                pad = ([(0, 0)] + [(0, n_full - n_cut)] * total
                       + [(0, 0)] * (vals.ndim - 1 - total))
                assert np.array_equal(np.pad(vals, pad), ref)
        lengths.append({mn: v.shape[1] for mn, v in stacks.items() if sum(mn)})
        return stacks, ratios

    monkeypatch.setattr(wick, "_assemble_kernels", spy)
    run_flow(params)
    assert lengths[0] == first_lengths and len(lengths) >= 2


# --- one chain product rule ----------------------------------------------------

# the spin levels a chain carries past resolvent v, the one after vertex v:
# a chain starts on level 0 and a sigma_x vertex flips the level
_LEVELS = {
    "sigma_z": lambda v: [0],
    "sigma_x": lambda v: [(v + 1) % 2],
    "mix:0.6,0.8": lambda v: [0, 1],
}


@pytest.mark.parametrize("coupling", sorted(_LEVELS))
def test_chains_carry_only_the_levels_their_vertices_reach(monkeypatch, coupling):
    chains = []
    chain_rows, drop = wick._chain_rows, wick._drop_zero_rows

    def rows_spy(ctx, spec, *args):
        chains.append((spec.L, []))
        return chain_rows(ctx, spec, *args)

    def drop_spy(rows, chain):
        chains[-1][1].append(sorted(chain))
        return drop(rows, chain)

    monkeypatch.setattr(wick, "_chain_rows", rows_spy)
    monkeypatch.setattr(wick, "_drop_zero_rows", drop_spy)
    initial_kernels(ModelParams(lam0=0.02, j_max=4, j_max_pair=3, n_z_samples=3,
                                spin_coupling=coupling), [0.0])
    # the first decimation drops no row, so every chain runs to its end:
    # rows are checked once past each of its L - 1 resolvents
    for L, chain in chains:
        assert chain == [_LEVELS[coupling](v) for v in range(L - 1)]
    assert any(L > 1 for L, _ in chains)


def test_vertices_return_spin_blocks_and_resolvents_spin_levels(monkeypatch):
    # the three callers of the assembler (the first decimation, an RG step
    # and the self-check) keep one contract: with s the spin pattern's size,
    # a vertex returns (rows, n_f or 1, ..., s, s) and a resolvent the
    # levels asked for, some of its s
    seen = set()

    def checked_vertex(cls):
        orig = cls.eval_product

        def eval_product(self, ids, rq, lqs, run=slice(None)):
            out = orig(self, ids, rq, lqs, run)
            s = len(self.spin_pattern())
            grid = (rq.shape[1],) + tuple(q.shape[1] for q in lqs)
            if isinstance(self, Kernel):
                assert out.shape == (len(ids), len(self.values[run])) + grid + (s, s)
            else:       # the same at every member and (r, l)
                assert out.shape == (len(ids), 1) + (1,) * len(grid) + (s, s)
            seen.add(("vertex", s))
            return out
        monkeypatch.setattr(cls, "eval_product", eval_product)

    post_init = wick.WickContext.__post_init__

    def checked_context(ctx):
        post_init(ctx)
        (s,) = {len(pattern) for pattern in ctx.spin_patterns.values()}
        F_eval = ctx.F_eval

        def checked_F(rq, lqs, run, levels):
            out = F_eval(rq, lqs, run, levels)
            assert list(levels) == sorted(set(levels)) and set(levels) <= set(range(s))
            assert isinstance(out, tuple) and len(out) == len(levels)
            grid = (rq.shape[1],) + tuple(q.shape[1] for q in lqs)
            assert all(lv.shape[0] == len(rq) and lv.shape[2:] == grid for lv in out)
            seen.add(("resolvent", s))
            return out
        ctx.F_eval = checked_F

    checked_vertex(Kernel)
    checked_vertex(firststep._SpinVertex)
    monkeypatch.setattr(wick.WickContext, "__post_init__", checked_context)
    params = ModelParams(lam0=0.02, j_max=4, j_max_pair=3, n_z_samples=3,
                         spin_coupling=SIGMA_Z)
    family = initial_kernels(params, cheb_nodes(3, 0.45 * params.mu))
    assert seen == {("vertex", 2), ("resolvent", 2)}
    renormalize(family, params)
    assert seen == {("vertex", 2), ("resolvent", 2), ("vertex", 1), ("resolvent", 1)}
    seen.clear()
    assert wick_reassembly_defect() < 1e-12
    assert seen == {("vertex", 1), ("resolvent", 1)}
