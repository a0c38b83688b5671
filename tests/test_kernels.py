import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolerg.model import ModelParams, ConfigError
from dipolerg.fockspace import FockBasis, build_modes
from dipolerg import kernels
from dipolerg.firststep import initial_kernels
from dipolerg.kernels import (interp_rows, KernelGrid, Kernel,
                              KernelFamily, symmetrize, norm_sharp,
                              polydisc_measure, scale_transform,
                              assemble_operator, sequence_to_json)
from helpers import ladder_matrix, norm_half, sequence_from_json


def _one(grid, kernels, p=0.0, z=0.0, meta=None):
    """A family of one from unstacked kernel arrays."""
    return KernelFamily(grid, {mn: np.asarray(v)[None] for mn, v in kernels.items()},
                        p, [z], [meta or {}])


@pytest.fixture()
def grid():
    return KernelGrid(ModelParams(j_max=4, j_max_pair=3))


def _linear_field(grid, a=0.7, b=-0.3, c=0.2):
    r = grid.r_nodes.reshape(-1, 1)
    l = grid.l_axes[0].reshape(1, -1)
    return a + b * r + c * l + 0j


# --- interpolation -----------------------------------------------------------

def test_interp_product_exact_at_nodes(grid):
    vals = _linear_field(grid) ** 2      # anything, exactness is nodal
    out = interp_rows(vals[None], grid.base_axes, [grid.r_nodes[None], grid.l_axes[0][None]])
    np.testing.assert_allclose(out[0], vals, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_interp_product_exact_for_multilinear(r, l):
    grid = KernelGrid(ModelParams(j_max=4))
    vals = _linear_field(grid)
    out = interp_rows(vals[None], grid.base_axes, [np.array([[r]]), np.array([[l]])])
    assert out[0, 0, 0] == pytest.approx(0.7 - 0.3 * r + 0.2 * l, abs=1e-12)


def test_interp_outside_range_is_zero(grid):
    vals = np.ones((len(grid.r_nodes), len(grid.l_axes[0])), dtype=complex)
    out = interp_rows(vals[None], grid.base_axes, [np.array([[1.5]]), np.array([[0.0]])])
    assert out[0, 0, 0] == 0.0
    out = interp_rows(vals[None], grid.base_axes, [np.array([[0.5]]), np.array([[-2.0]])])
    assert out[0, 0, 0] == 0.0


def test_eval_product_rows_match_per_row_interpolation(grid, rng):
    # each row interpolates its own photon slice at its own query vectors;
    # a row with a photon argument off the kernel's modes evaluates to 0;
    # the kernel is a family of one
    ids = [0, 1, 2]
    vals = (rng.normal(size=grid.base_shape + (3, 3))
            + 1j * rng.normal(size=grid.base_shape + (3, 3)))
    vals = np.moveaxis(vals, (2, 3), (0, 1))     # drawn photon-last, stored photon-major
    ker = Kernel(1, 1, grid, vals[None])
    assert ker.n_modes == 3
    rows = np.array([[ids[0], ids[2]], [ids[1], ids[1]], [ids[2], len(grid.modes) - 1]])
    rq = np.array([np.linspace(0.0, 1.1, 5), np.linspace(0.2, 0.9, 5), np.linspace(0, 1, 5)])
    lq = np.array([np.linspace(-1.0, 1.0, 4), np.linspace(-0.3, 0.5, 4), np.zeros(4)])
    out = ker.eval_product(rows, rq, [lq])
    # the trailing axes are the scalar kernel's 1x1 spin block
    assert out.shape == (3, 1, 5, 4, 1, 1)
    out = out[..., 0, 0]
    for i in range(2):
        loc = [ids.index(g) for g in rows[i]]
        expect = interp_rows(vals[loc[0], loc[1]][None], grid.base_axes,
                             [rq[i, None], lq[i, None]])
        assert np.array_equal(out[i, 0], expect[0])
    assert not np.any(out[2])


# --- grid invariants ---------------------------------------------------------

def test_grid_contains_geometric_nodes(grid):
    rho = grid.rho
    for j in range(grid.params.j_max + 1):
        assert np.any(np.isclose(grid.r_nodes, rho ** j, atol=1e-15))
        assert np.any(np.isclose(grid.l_axes[0], rho ** j, atol=1e-15))
        assert np.any(np.isclose(grid.l_axes[0], -rho ** j, atol=1e-15))


def test_grid_mask_base_set(grid):
    mask = grid.mask
    r = grid.r_nodes.reshape(-1, 1)
    l = grid.l_axes[0].reshape(1, -1)
    np.testing.assert_array_equal(mask, np.abs(l) <= r + 1e-12)


def test_grid_layout_derives_origin_and_mask():
    layout = ([0.0, 0.5, 1.0], [[-1.0, -0.5, 0.0, 0.5, 1.0]])
    grid = KernelGrid(ModelParams(j_max=2), layout=layout)
    assert grid.r0_idx == 0 and grid.l0_idx == (2,)
    assert grid.base_shape == (3, 5)
    r = grid.r_nodes.reshape(-1, 1)
    np.testing.assert_array_equal(grid.mask, np.abs(grid.l_axes[0]) <= r + 1e-12)


@pytest.mark.parametrize("layout", [
    ([0.1, 0.5, 1.0], [[-1.0, 0.0, 1.0]]),           # r-grid without 0
    ([0.0, 0.5, 1.0], [[-1.0, -0.5, 0.5, 1.0]]),     # l-axis without 0
])
def test_grid_layout_must_contain_zero(layout):
    with pytest.raises(ConfigError):
        KernelGrid(ModelParams(j_max=2), layout=layout)


def test_pair_modes_are_a_prefix(grid):
    pair = set(range(grid.n_pair))
    assert pair <= set(range(len(grid.modes)))
    assert all(grid.modes[i].j <= grid.params.j_max_pair for i in pair)
    assert all(m.j > grid.params.j_max_pair for m in grid.modes[grid.n_pair:])


def test_grid_rejects_modes_out_of_shell_order():
    params = ModelParams(j_max=3)
    modes = build_modes(params)
    with pytest.raises(ConfigError):
        KernelGrid(params, modes=modes[2:] + modes[:2])


# --- kernels and norms -------------------------------------------------------

def test_kernel_shape_validation(grid):
    with pytest.raises(ConfigError):
        Kernel(1, 0, grid, np.zeros(grid.base_shape, dtype=complex))
    with pytest.raises(ConfigError):
        bad = np.full(grid.base_shape, np.nan, dtype=complex)
        Kernel(0, 0, grid, bad)


def test_symmetrize_fixes_transposition(grid):
    nloc = 3
    rng = np.random.default_rng(5)
    vals = rng.normal(size=grid.base_shape + (nloc, nloc))
    vals = np.moveaxis(vals, (2, 3), (0, 1))[None]      # a stack of one, photon-major
    sym = symmetrize(vals, 2, 0)
    np.testing.assert_allclose(sym, np.swapaxes(sym, 1, 2), atol=1e-15)
    # already symmetric input is untouched
    np.testing.assert_allclose(symmetrize(sym, 2, 0), sym, atol=1e-15)


def test_norm_half_handpicked(grid):
    # w(r,l,k) = k: sup of |k| * k^{-1/2} over modes = max sqrt(k) = 1
    nmod = len(grid.modes)
    vals = np.broadcast_to(grid.k_abs.reshape(nmod, 1, 1),
                           (nmod,) + grid.base_shape).astype(complex)
    ker = Kernel(0, 1, grid, vals)
    assert norm_half(ker) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        norm_half(Kernel(0, 0, grid, np.zeros(grid.base_shape, complex)))


def test_norm_sharp_linear_symbol(grid):
    # w00 = r: origin 0, d/dr = 1, d/dl = 0
    vals = np.broadcast_to(grid.r_nodes.reshape(-1, 1),
                           grid.base_shape).astype(complex)
    assert norm_sharp(Kernel(0, 0, grid, vals)) == pytest.approx(1.0, abs=1e-10)


def test_polydisc_measure_free_sequence(grid):
    # exact marginal symbol: gamma and eps vanish, delta = |z|
    p = grid.params
    r = grid.r_nodes.reshape(-1, 1).astype(complex)
    l = grid.l_axes[0].reshape(1, -1)
    z = 0.03
    w00 = r - (p.p[0] / p.m) * l - z
    seq = _one(grid, {(0, 0): np.broadcast_to(w00, grid.base_shape)}, p=p.p, z=z)
    led = polydisc_measure(seq)
    assert led.gamma == pytest.approx(0.0, abs=1e-12)
    # on shell at its own z; measured against z=0 the offset reappears
    assert led.delta == pytest.approx(0.0, abs=1e-14)
    at_zero = KernelFamily(grid, {mn: s.values for mn, s in seq.stacks.items()},
                           p.p, [0.0], [{}])
    assert polydisc_measure(at_zero).delta == pytest.approx(z, abs=1e-14)
    assert led.eps == 0.0


def test_polydisc_measure_norms_each_kernel_once(monkeypatch):
    # one sharp norm per kernel of the member, plus gamma's diff kernel
    params = ModelParams(lam0=0.02, j_max=4, j_max_pair=3)
    family = initial_kernels(params, [-0.01, 0.0, 0.01])
    assert len(family.stacks) >= 4
    calls = []
    orig = kernels.norm_sharp

    def counted(kernel):
        calls.append((kernel.m, kernel.n))
        return orig(kernel)

    monkeypatch.setattr(kernels, "norm_sharp", counted)
    for k in range(len(family)):
        calls.clear()
        led = polydisc_measure(family[k])
        assert len(calls) == len(family.stacks) + 1
        assert sorted(led.sharp_norms) == sorted(family.stacks)


def test_family_members_are_views():
    params = ModelParams(lam0=0.02, j_max=4, j_max_pair=3)
    zs = [-0.01, 0.0, 0.01]
    family = initial_kernels(params, zs)
    for k in (0, 1, 2, -1):
        member = family[k]
        assert len(member) == 1
        assert member.zs[0] == complex(zs[k]) and member.metas == [family.metas[k]]
        assert member.w00_origins()[0] == family.w00_origins()[k]
        assert sorted(member.stacks) == sorted(family.stacks)
        for mn, stack in family.stacks.items():
            assert np.shares_memory(member.stacks[mn].values, stack.values[k])
            assert np.array_equal(member.stacks[mn].values[0], stack.values[k])
    members = list(family)
    assert len(members) == len(family) == 3
    assert [m.zs[0] for m in members] == list(family.zs)
    with pytest.raises(IndexError):
        family[3]
    with pytest.raises(ConfigError):
        KernelFamily(family.grid, {(1, 1): family.stacks[(1, 1)].values}, 0.0, zs, [{}] * 3)


def test_scale_transform_prefactor_and_shift(grid):
    # constant one-photon kernel: the value picks up exactly rho^{1/2}
    nmod = len(grid.modes)
    vals = np.ones((1, nmod) + grid.base_shape, dtype=complex)
    out = scale_transform(Kernel(1, 0, grid, vals))
    assert out.shape == vals.shape
    rho = grid.rho
    # modes with a deeper copy keep the value, the IR floor shell is dropped
    for gid in range(nmod):
        got = out[(0, gid, 0) + tuple([grid.l0_idx[0]])]
        if grid.shift_up[gid] >= 0:
            assert got == pytest.approx(rho ** 0.5, rel=1e-12)
    js = np.array([m.j for m in grid.modes])
    floor = js == grid.params.j_max
    assert np.any(floor) and np.all(out[:, floor] == 0.0)
    # content on the top shell alone has no image: every image shell reads a deeper one
    top = np.where((js == 0)[:, None, None], vals, 0.0)
    assert not np.any(scale_transform(Kernel(1, 0, grid, top)))


def test_sequence_json_roundtrip(grid):
    rng = np.random.default_rng(2)
    nmod = len(grid.modes)
    kernels = {
        (0, 0): rng.normal(size=grid.base_shape) + 1j * rng.normal(size=grid.base_shape),
        (1, 1): np.moveaxis(rng.normal(size=grid.base_shape + (nmod, nmod)), (2, 3), (0, 1)) + 0j,
    }
    seq = _one(grid, kernels, p=0.1, z=0.02 + 0.001j, meta={"stage": 4})
    back = sequence_from_json(sequence_to_json(seq), grid)
    assert back.zs[0] == seq.zs[0]
    assert sorted(back.stacks) == sorted(seq.stacks)
    for mn in seq.stacks:
        np.testing.assert_allclose(back.stacks[mn].values,
                                   seq.stacks[mn].values, atol=1e-14)


def test_sequence_json_writes_photon_last_order(grid):
    # the dump is byte for byte the one of photon-last arrays, (n_r, *l_shape,
    # photons) in C order, whatever order Kernel.values stores them in
    seq = initial_kernels(grid.params.with_updates(lam0=0.02), [0.01], grid=grid)
    assert any(m + n >= 2 for m, n in seq.stacks)
    text = sequence_to_json(seq)
    payload = json.loads(text)
    for item in payload["kernels"]:
        m, n = item["m"], item["n"]
        stored = seq.stacks[(m, n)].values[0]
        last = np.empty(stored.shape[m + n:] + stored.shape[:m + n], dtype=complex)
        for tup in np.ndindex(stored.shape[:m + n]):
            last[(Ellipsis,) + tup] = stored[tup]
        item["re"], item["im"] = last.real.ravel().tolist(), last.imag.ravel().tolist()
    assert json.dumps(payload, sort_keys=True) == text


def test_sequence_from_json_rejects_mode_ids_off_the_prefix(grid):
    nmod = len(grid.modes)
    seq = _one(grid, {(0, 0): np.zeros(grid.base_shape, complex),
                      (1, 0): np.ones((nmod,) + grid.base_shape, complex)})
    payload = json.loads(sequence_to_json(seq))
    assert [k["mode_ids"] for k in payload["kernels"]] == [list(range(nmod))] * 2
    payload["kernels"][1]["mode_ids"] = list(range(1, nmod + 1))
    with pytest.raises(ConfigError):
        sequence_from_json(json.dumps(payload), grid)


def test_sequence_from_json_rejects_another_grid(grid):
    # same shapes, other photon energies and weights: the dump does not fit
    other = KernelGrid(grid.params.with_updates(uv_cutoff=0.9))
    assert other.base_shape == grid.base_shape and len(other.modes) == len(grid.modes)
    nmod = len(grid.modes)
    seq = _one(other, {(0, 0): np.zeros(grid.base_shape, complex),
                       (1, 0): np.ones((nmod,) + grid.base_shape, complex)})
    text = sequence_to_json(seq)
    sequence_from_json(text, other)
    with pytest.raises(ConfigError, match="another grid"):
        sequence_from_json(text, grid)


def test_assemble_operator_hermitian_pair(grid):
    # w_{1,0} = conj-transpose partner of w_{0,1} gives a Hermitian operator
    rng = np.random.default_rng(3)
    nmod = len(grid.modes)
    basis = FockBasis(grid.modes, 2)
    v01 = rng.normal(size=grid.base_shape + (nmod,)) \
        + 1j * rng.normal(size=grid.base_shape + (nmod,))
    v01 = np.moveaxis(v01, -1, 0)                # drawn photon-last, stored photon-major
    v10 = np.conj(v01)
    seq = _one(grid, {(0, 0): np.zeros(grid.base_shape, complex), (0, 1): v01, (1, 0): v10})
    W = assemble_operator(seq, basis).toarray()
    np.testing.assert_allclose(W, W.conj().T, atol=1e-13)


def test_assemble_operator_rejects_foreign_basis(grid):
    other = KernelGrid(ModelParams(j_max=2))
    basis = FockBasis(other.modes, 1)
    seq = _one(grid, {(0, 0): np.zeros(grid.base_shape, complex)})
    with pytest.raises(ConfigError):
        assemble_operator(seq, basis)
    # as many modes, at other momenta
    shifted = build_modes(ModelParams(j_max=4, uv_cutoff=0.9))
    with pytest.raises(ConfigError):
        assemble_operator(seq, FockBasis(shifted, 1))


def _interp_rows_take_along_axis(values, nodes_list, queries_list):
    """interp_rows as it gathered before: np.take_along_axis per axis."""
    from dipolerg.kernels import _axis_weights
    out = values
    for ax, (nodes, q) in enumerate(zip(nodes_list, queries_list), start=1):
        i0, w0, w1 = _axis_weights(np.asarray(nodes, dtype=float), q)
        i1 = i0 + 1
        shape = [len(i0)] + [1] * (out.ndim - 1)
        shape[ax] = i0.shape[1]
        a = np.take_along_axis(out, i0.reshape(shape), axis=ax)
        b = np.take_along_axis(out, i1.reshape(shape), axis=ax)
        out = a * w0.reshape(shape) + b * w1.reshape(shape)
    return out


def test_interp_rows_matches_take_along_axis(rng):
    grid = KernelGrid(ModelParams(dim=3, j_max=2, n_l_axis_d3=5))
    shape = grid.base_shape
    rows = 4
    values = rng.normal(size=(rows,) + shape) + 1j * rng.normal(size=(rows,) + shape)
    queries = [rng.uniform(-0.1, 1.1, size=(rows, 6)) for _ in grid.base_axes]
    # per-row blocks, one shared block
    for vals, lead in ((values, None), (values[:1], (np.zeros((1, 1), dtype=int),))):
        out = interp_rows(vals, grid.base_axes, queries, lead)
        assert out.shape == (rows, 6, 6, 6, 6)
        assert np.array_equal(out, _interp_rows_take_along_axis(vals, grid.base_axes, queries))


def _eval_product_blockwise(ker, ids, rq, lqs, run=slice(None)):
    """Kernel.eval_product as it gathered before: each row's whole block of
    members and base grid at its photon ids, the members moved last, each
    axis interpolated (the take_along_axis reference), the members moved
    back and the result copied to C order."""
    values = ker.values[run]
    ids = np.asarray(ids, dtype=int)
    ok = np.all(ids < ker.n_modes, axis=1)
    blocks = (np.moveaxis(values[(slice(None),) + tuple(ids[ok].T)], 1, 0)
              if ker.m + ker.n else values[None])
    queries = [np.asarray(q, dtype=float)[ok] for q in [rq, *lqs]]
    vals = _interp_rows_take_along_axis(np.moveaxis(blocks, 1, -1), ker.grid.base_axes, queries)
    vals = np.ascontiguousarray(np.moveaxis(vals, -1, 1))
    out = np.zeros((len(ids),) + vals.shape[1:], dtype=complex)
    out[ok] = vals
    return out[..., None, None]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["family-run", "d3", "w00", "beyond-modes"])
def test_eval_product_matches_blockwise_gather(case, rng):
    # one gather per corner reads photon slice, members and r-corner at once;
    # the old route copied each row's whole block first.  The numbers must be
    # the same bits, zeros' signs included, and the result C-ordered
    dim3 = case == "d3"
    grid = KernelGrid(ModelParams(dim=3, j_max=2, n_l_axis_d3=5) if dim3
                      else ModelParams(j_max=4, j_max_pair=3))
    m, n = {"w00": (0, 0), "d3": (1, 1)}.get(case, (2, 1))
    n_f, n_loc, rows = (1, 4, 6) if dim3 else (5, 3, 9)
    shape = (n_f,) + grid.base_shape + (n_loc,) * (m + n)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    values[values.real < -1.5] = -0.0         # signed zeros pass through
    # drawn photon-last, stored photon-major
    values = np.moveaxis(values, range(-(m + n), 0), range(1, 1 + m + n))
    ker = Kernel(m, n, grid, values)
    # ids beyond the kernel's modes only where that path is the case
    ids = rng.integers(0, n_loc + 2 * (case == "beyond-modes"), size=(rows, m + n))
    if case == "beyond-modes":
        ids[0] = 0
        ids[1, -1] = n_loc
    # queries off the grid, on nodes and outside it
    rq = np.concatenate([rng.uniform(-0.2, 1.2, size=(rows, 5)),
                         np.broadcast_to(grid.r_nodes[:3], (rows, 3))], axis=1)
    lqs = [rng.uniform(-1.2, 1.2, size=(rows, 4)) for _ in grid.l_axes]
    runs = [slice(None), slice(1, 4)] if case == "family-run" else [slice(None)]
    for run in runs:
        out = ker.eval_product(ids, rq, lqs, run)
        ref = _eval_product_blockwise(ker, ids, rq, lqs, run)
        assert out.shape == (rows, len(values[run]), 8) + (4,) * len(lqs) + (1, 1)
        assert out.flags.c_contiguous
        assert _same_bits(out, ref)
    if case == "beyond-modes":
        assert not np.any(out[1]) and np.any(out[0])


def _assemble_operator_per_tuple(seq, basis):
    """assemble_operator as it was: one interpolation at every state, and
    the adjoints of the ladders taken, per kernel and photon tuple."""
    import itertools
    import scipy.sparse as sp
    g = seq.grid
    points = [basis.r[:, None]] + [basis.l[:, a, None] for a in range(len(g.l_axes))]
    total = sp.csr_matrix((len(basis), len(basis)), dtype=complex)
    b_ops = [ladder_matrix(basis, i) for i in range(len(g.modes))]
    for (m, n), stack in sorted(seq.stacks.items()):
        ker = stack[0]
        for tup in itertools.product(range(ker.n_modes), repeat=m + n):
            diag = interp_rows(ker.values[tup][None], g.base_axes, points,
                               (np.zeros((1, 1), dtype=int),)).reshape(len(basis))
            if not np.any(diag):
                continue
            w = math.sqrt(float(np.prod(g.weight[list(tup)]))) if tup else 1.0
            op = sp.diags(diag).tocsr()
            for i in tup[m:]:
                op = op @ b_ops[i]
            for i in reversed(tup[:m]):
                op = b_ops[i].conj().T @ op
            total = total + w * op
    # the projection onto total field energy <= 1
    proj = sp.diags((basis.r <= 1.0 + 1e-12).astype(complex)).tocsr()
    return proj @ total @ proj


@pytest.mark.parametrize("dim", [1, 3])
def test_assemble_operator_matches_per_tuple_loop(dim, rng):
    params = (ModelParams(j_max=4, j_max_pair=3) if dim == 1
              else ModelParams(dim=3, j_max=2, n_l_axis_d3=3, N_max=2))
    grid = KernelGrid(params)
    basis = FockBasis(grid.modes, 2)
    kernels = {}
    # on the 3-d grid (1, 1) puts both legs of a tuple on one mode 36 times; the
    # reference's per-tuple products take seconds for it, so pairs stop there
    shapes = ([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)] if dim == 1
              else [(0, 0), (1, 0), (0, 1), (1, 1)])
    for m, n in shapes:
        n_loc = len(grid.modes) if m + n <= 1 else grid.n_pair
        shape = grid.base_shape + (n_loc,) * (m + n)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if m + n:
            vals[..., 0] = 0.0            # a photon slice that is exactly zero
        # drawn photon-last, stored photon-major
        kernels[(m, n)] = np.moveaxis(vals, range(-(m + n), 0), range(m + n))
    seq = _one(grid, kernels)
    W = assemble_operator(seq, basis).toarray()
    assert np.any(W)
    assert np.array_equal(W, _assemble_operator_per_tuple(seq, basis).toarray())
