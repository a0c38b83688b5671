import numpy as np
import pytest

from dipolerg import feshbach, firststep, rgflow
from dipolerg.model import ConfigError, ModelParams, SIGMA_X, SIGMA_Z, chi
from dipolerg.kernels import Kernel, KernelFamily, KernelGrid, scale_transform
from dipolerg.firststep import initial_kernels
from dipolerg.rgflow import (renormalize, FlowError, cheb_nodes, StageMap,
                             interpolate_family, run_flow, extract_alpha_beta,
                             ground_state, _band_margin, _lagrange_weights)
from dipolerg.oracle import build_fiber_hamiltonian, ground_energy
from helpers import feshbach_map


@pytest.fixture()
def small_params():
    return ModelParams(lam0=0.02, j_max=6, j_max_pair=5, n_z_samples=5)


def test_cheb_nodes_symmetric():
    n = cheb_nodes(9, 0.2)
    assert len(n) == 9
    np.testing.assert_allclose(n + n[::-1], 0.0, atol=1e-15)
    assert n[4] == 0.0
    assert np.max(np.abs(n)) < 0.2


def test_stage_map_roundtrip():
    nodes = cheb_nodes(7, 0.25)
    values = 0.8 * nodes + 0.3 * nodes ** 2 - 0.01
    sm = StageMap.fit(nodes, values)
    assert sm(0.1) == pytest.approx(0.8 * 0.1 + 0.3 * 0.01 - 0.01, abs=1e-13)
    z = sm.inverse(0.05, rho=0.45, tol=1e-14)
    assert sm(z) == pytest.approx(0.05, abs=1e-12)


def test_stage_map_inverse_window_guard():
    nodes = cheb_nodes(5, 0.1)
    sm = StageMap.fit(nodes, 0.5 * nodes)
    with pytest.raises(FlowError):
        sm.inverse(0.2, rho=0.45, tol=1e-14)    # image would be z = 0.4


def test_interpolate_family_reproduces_nodes(small_params):
    nodes = cheb_nodes(5, 0.45 * small_params.mu)
    grid = KernelGrid(small_params)
    seqs = initial_kernels(small_params, nodes, grid=grid)
    refs = list(seqs)
    at_nodes = interpolate_family(seqs, _lagrange_weights(nodes, nodes), nodes)
    # the input family is emptied as the pulled-back one is built
    assert not seqs.stacks
    assert len(at_nodes) == len(refs)
    for seq, ref in zip(at_nodes, refs):
        assert sorted(seq.stacks) == sorted(ref.stacks)
        for mn in ref.stacks:
            np.testing.assert_allclose(seq.stacks[mn].values,
                                       ref.stacks[mn].values, atol=1e-13)


def test_interpolate_family_union_of_indices(small_params):
    grid = KernelGrid(small_params)
    nmod = len(grid.modes)
    one = np.ones(grid.base_shape + (nmod,), complex)
    # the member at -0.1 has an exactly zero (1, 0) kernel
    stacks = {(0, 0): np.zeros((2,) + grid.base_shape, complex),
              (1, 0): np.stack([np.zeros_like(one), one])}
    nodes = np.array([-0.1, 0.1])
    family = KernelFamily(grid, stacks, 0.0, nodes, [{}, {}])
    assert not np.any(family[0].stacks[(1, 0)].values)
    (mid,) = interpolate_family(family, _lagrange_weights(nodes, [0.0]), [0.0])
    assert (1, 0) in mid.stacks
    np.testing.assert_allclose(mid.stacks[(1, 0)].values[0], 0.5 * one, atol=1e-15)


def test_renormalize_free_passthrough():
    params = ModelParams(lam0=0.0, p=0.1)
    grid = KernelGrid(params)
    family = initial_kernels(params, [0.02], grid=grid)
    (out,) = renormalize(family, params)
    rho = params.rho
    # origin scales exactly; marginal slopes are fixed points
    assert out.w00_origins()[0] == pytest.approx(-0.02 / rho, abs=1e-14)
    alpha, beta = extract_alpha_beta(out)
    assert alpha == pytest.approx(1.0, abs=1e-10)
    assert beta[0] == pytest.approx(-params.p[0] / params.m, abs=1e-10)
    assert out.metas[0]["stage"] == 1


@pytest.mark.parametrize("kw", [dict(j_max=4), dict(p=0.2, p_star=0.2), dict(dim=3, j_max=2)])
def test_renormalize_rescales_the_band_symbol_with_scale_transform(kw):
    # decoupled, the family holds only (0,0) and no chain corrects it: the
    # flow's rescale is exactly the scale transformation the acceptance
    # check compares with the grid dilation
    params = ModelParams(lam0=0.0, **kw)
    family = initial_kernels(params, [-0.05, 0.0, 0.05])
    assert list(family.stacks) == [(0, 0)]
    out = renormalize(family, params)
    assert np.array_equal(out.stacks[(0, 0)].values, scale_transform(family.stacks[(0, 0)]))


def test_renormalize_band_margin_guard():
    params = ModelParams(lam0=0.0)
    grid = KernelGrid(params)
    # symbol nearly vanishing on the decimation shell
    vals = np.full((1,) + grid.base_shape, 1e-6, dtype=complex)
    family = KernelFamily(grid, {(0, 0): vals}, 0.0, [0.0], [{}])
    assert _band_margin(family) == pytest.approx([1e-6])
    with pytest.raises(FlowError):
        renormalize(family, params)


def test_run_flow_decoupled_is_exactly_zero():
    params = ModelParams(lam0=0.0, p=0.2, j_max=5, n_z_samples=5)
    res = run_flow(params)
    assert res.energy == 0.0
    assert all(abs(e) < 1e-14 for e in res.e_chain)


def test_run_flow_matches_oracle(small_params):
    res = run_flow(small_params)
    e = ground_energy(small_params)
    assert abs(res.energy - e) / abs(e) < 2e-3
    assert res.stages >= 2
    # spectral window insensitivity: the composed energy is a property of
    # the model, not of the sampling
    res2 = run_flow(small_params, z_half_width_frac=0.35)
    assert abs(res.energy - res2.energy) < 1e-12


def test_run_flow_deterministic(small_params):
    a = run_flow(small_params).energy
    b = run_flow(small_params).energy
    assert a == b


# sigma_z on this coarse grid needs three stages: the energy chain steps
# are 1.1e-6, 1.0e-7 and 0, against a tolerance of 5e-11
_THREE_STAGE = dict(lam0=0.02, j_max=5, j_max_pair=1, n_z_samples=3,
                    n_r_uniform=4, n_l_uniform=2, L_max=2, spin_coupling=SIGMA_Z)


def test_run_flow_raises_when_not_cauchy(monkeypatch):
    params = ModelParams(**_THREE_STAGE)
    with pytest.raises(FlowError, match="not Cauchy after 2 stages"):
        run_flow(params.with_updates(n_flow_max=2))
    assert run_flow(params.with_updates(n_flow_max=3)).stages == 3
    # a stage cap below the stages asked for: rejected before any work
    # (ModelParams rejects caps below 2 and bad tolerances itself)
    monkeypatch.setattr(rgflow, "initial_kernels", None)
    with pytest.raises(ConfigError, match="n_flow_max"):
        run_flow(params.with_updates(n_flow_max=3), min_stages=4)


def test_run_flow_reports_first_step_failure():
    params = ModelParams(lam0=5.0, j_max=4, n_z_samples=3)
    # huge coupling: the chain corrections crush the band margin instead;
    # either guard is acceptable but the error must be a FlowError
    with pytest.raises(FlowError):
        run_flow(params)


def test_diagonal_coupling_flow_multistage():
    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=4, n_z_samples=5,
                         spin_coupling=SIGMA_Z)
    res = run_flow(params)
    assert res.stages >= 3
    e = ground_energy(params)
    assert abs(res.energy - e) / abs(e) < 2e-3
    # the off-shell distance contracts stage over stage
    deltas = [l.delta for l in res.ledgers]
    assert deltas[1] < 1e-3 * deltas[0]


def test_ground_state_reconstruction(small_params):
    res = run_flow(small_params)
    psi, resid, basis = ground_state(small_params, res.energy)
    assert np.isclose(np.linalg.norm(psi), 1.0)
    assert resid < 1e-5
    e0, vec, _b = ground_energy(small_params, return_vector=True)
    assert abs(np.vdot(vec, psi)) > 0.9999


@pytest.mark.parametrize("p", [0.0, 0.2])
def test_ground_state_matches_dense_reference(p):
    # the benchmark's small grid: the sparse back-transport against the
    # dense Feshbach map, at the oracle's energy
    params = ModelParams(lam0=0.02, j_max=4, j_max_pair=4, p=p, p_star=p)
    energy = ground_energy(params)
    psi, resid, basis = ground_state(params, energy)
    H, _ = build_fiber_hamiltonian(params, basis, z=energy)
    chi_vec = np.concatenate([chi(basis.r, params.rho0), np.zeros(len(basis))])
    vac = np.zeros(H.shape[0], dtype=complex)
    vac[basis.vacuum_index] = 1.0
    ref = feshbach_map(H.toarray(), H.diagonal(), chi_vec).Q @ vac
    assert np.max(np.abs(feshbach.back_transport(H, chi_vec, vac) - ref)) <= 1e-12
    ref = ref / np.linalg.norm(ref)
    phase = np.vdot(ref, psi) / abs(np.vdot(ref, psi))
    assert np.max(np.abs(psi - phase * ref)) <= 1e-12
    ref_resid = np.linalg.norm(H.toarray() @ ref)
    assert abs(resid - ref_resid) <= 1e-9 * ref_resid


def test_ground_state_at_lanczos_size():
    # dim 2660, the benchmark's oracle grid: the dense route did not fit here
    params = ModelParams(lam0=0.02, j_max=8, j_max_pair=6)
    e0, vec, basis = ground_energy(params, return_vector=True)
    assert len(vec) == 2660
    psi, resid, _ = ground_state(params, e0, basis)
    assert resid <= 1e-5
    assert abs(np.vdot(vec, psi)) > 0.9999


def test_no_vertex_sees_a_below_floor_mode(monkeypatch):
    # rho0 = rho^3 shifts the first-step external modes three grid steps and
    # each RG step shifts them one: on j_max=5 the deepest modes fall below
    # the floor, and the assembler must drop those terms before any vertex
    # is evaluated
    params = ModelParams(lam0=0.02, rho0=0.45 ** 3, j_max=5, j_max_pair=3,
                         spin_coupling=0.6 * SIGMA_X + 0.8 * SIGMA_Z)
    grid = KernelGrid(params)
    assert min(grid.shift_up) < 0
    seen = []

    def checked(orig):
        def eval_product(self, global_ids, rq, lqs, run=slice(None)):
            assert np.all(np.asarray(global_ids) >= 0), global_ids
            seen.append(type(self))
            return orig(self, global_ids, rq, lqs, run)
        return eval_product

    monkeypatch.setattr(Kernel, "eval_product", checked(Kernel.eval_product))
    monkeypatch.setattr(firststep._SpinVertex, "eval_product",
                        checked(firststep._SpinVertex.eval_product))
    family = initial_kernels(params, [0.0], grid=grid)
    assert (1, 0) in family.stacks
    renormalize(family, params)
    assert firststep._SpinVertex in seen and Kernel in seen


def _lagrange_loop(seqs, nodes, z):
    """Family member at z as the flow built it before the family was one
    array per kernel: the Lagrange sum written as one axpy per member and
    kernel, a member whose kernel is exactly zero adding nothing."""
    d = z - nodes
    bw = np.array([1.0 / np.prod(x - np.delete(nodes, i)) for i, x in enumerate(nodes)])
    w = (bw / d) / np.sum(bw / d)
    out = {}
    for mn in sorted({mn for s in seqs for mn in s.stacks}):
        acc = 0.0
        for wk, s in zip(w, seqs):
            if np.any(s.stacks[mn].values):
                acc = acc + wk * s.stacks[mn].values[0]
        out[mn] = acc
    return out


def test_interpolate_family_matches_member_loop():
    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=4, n_z_samples=5,
                         spin_coupling=SIGMA_Z)
    grid = KernelGrid(params)
    nodes = cheb_nodes(5, 0.45 * params.mu)
    first = initial_kernels(params, nodes, grid=grid)
    stacks = {mn: s.values.copy() for mn, s in first.stacks.items()}
    # the last member's (1, 0) kernel is exactly zero
    stacks[(1, 0)][-1] = 0.0
    family = KernelFamily(grid, stacks, params.p, nodes, first.metas)
    members = list(family)
    assert not np.any(family[-1].stacks[(1, 0)].values)
    assert np.any(family[0].stacks[(1, 0)].values)
    targets = [0.3 * nodes[0] + 0.01j, 0.5 * (nodes[1] + nodes[2]), 0.95 * nodes[-1]]
    weights = _lagrange_weights(nodes, targets)
    peak = {mn: np.max(np.abs(s.values)) for mn, s in family.stacks.items()}
    pulled = interpolate_family(family, weights, targets)
    for w, z, member in zip(weights, targets, pulled):
        expect = _lagrange_loop(members, nodes, z)
        assert sorted(member.stacks) == sorted(expect) and member.zs[0] == z
        for mn, ref in expect.items():
            # the contraction sums the same n_z products in another order
            scale = np.sum(np.abs(w)) * peak[mn]
            tol = 8 * len(nodes) * np.finfo(float).eps * scale
            np.testing.assert_allclose(member.stacks[mn].values[0], ref, rtol=0, atol=tol)


# the bench grids, and a sigma_z grid whose first renormalize has chain
# shapes that are pruned at some members and change the kernels of others
STAGE_GRIDS = {
    "sigma_x_9": ModelParams(lam0=0.004, j_max=4, j_max_pair=4, n_z_samples=9),
    "sigma_z_3": ModelParams(lam0=0.02, j_max=4, j_max_pair=3, n_z_samples=3,
                             spin_coupling=SIGMA_Z),
    "sigma_z_5": ModelParams(lam0=0.03, j_max=5, j_max_pair=4, n_z_samples=5,
                             spin_coupling=SIGMA_Z),
}


@pytest.mark.parametrize("case", sorted(STAGE_GRIDS))
def test_renormalize_family_matches_each_member_alone(monkeypatch, case):
    params = STAGE_GRIDS[case]
    batched = rgflow.renormalize
    stages = []

    def checked(family, params):
        # every stage of the flow, before the next stage empties its output
        out = batched(family, params)
        assert len(family) == params.n_z_samples
        _assert_members_alone(family, out, params)
        stages.append(len(out))
        return out

    monkeypatch.setattr(rgflow, "renormalize", checked)
    run_flow(params)
    assert len(stages) >= 2


def _assert_members_alone(family, out, params):
    """Each member of renormalize(family) equals renormalizing it alone."""
    assert len(out) == len(family)
    for seq, got in zip(family, out):
        alone = KernelFamily(family.grid, {mn: k.values for mn, k in seq.stacks.items()},
                             seq.p, seq.zs, seq.metas)
        ref = renormalize(alone, params)
        assert sorted(got.stacks) == sorted(ref.stacks)
        for mn in ref.stacks:
            assert np.array_equal(got.stacks[mn].values, ref.stacks[mn].values), mn
        assert got.metas == ref.metas
        assert np.array_equal(got.metas[0]["series_ratio"], ref.metas[0]["series_ratio"])


def test_renormalize_zeroes_a_pruned_member_between_live_ones():
    # the middle member's photon kernels are scaled down until chain shapes
    # are pruned at it alone: they are evaluated over members 0..2 and must
    # add nothing to member 1
    params = STAGE_GRIDS["sigma_z_3"]
    first = initial_kernels(params, cheb_nodes(3, 0.45 * params.mu))
    stacks = {mn: s.values.copy() for mn, s in first.stacks.items()}
    for mn in stacks:
        stacks[mn][1] *= 1.0 if mn == (0, 0) else 1e-6
    family = KernelFamily(first.grid, stacks, params.p, first.zs, first.metas)
    _assert_members_alone(family, renormalize(family, params), params)


def test_renormalize_raises_when_one_member_misses_its_band_margin():
    params = STAGE_GRIDS["sigma_z_3"]
    nodes = cheb_nodes(3, 0.45 * params.mu)
    first = initial_kernels(params, nodes)
    renormalize(first, params)
    stacks = {mn: s.values.copy() for mn, s in first.stacks.items()}
    stacks[(0, 0)][1] = 1e-6
    family = KernelFamily(first.grid, stacks, params.p, nodes, first.metas)
    margins = _band_margin(family)
    assert margins[1] == pytest.approx(1e-6) and min(margins[0], margins[2]) > 0.1
    with pytest.raises(FlowError, match="band margin 1.000e-06"):
        renormalize(family, params)


def test_member_runs_reach_the_vertices_and_the_resolvent(monkeypatch):
    # this renormalize evaluates chain shapes pruned at some members over
    # the member runs slice(2, 3) and slice(1, 3): vertices and resolvent
    # must be evaluated at those members only (all three would cost about
    # 10 % of the default run_flow), each member still as if alone
    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=3, n_z_samples=3,
                         spin_coupling=SIGMA_Z)
    family = initial_kernels(params, cheb_nodes(3, 0.45 * params.mu))
    vertex, resolvent = [], []
    vertex_eval, band = Kernel.eval_product, rgflow._band_denominator

    def eval_product(self, *args):
        out = vertex_eval(self, *args)
        vertex.append(out.shape[1])
        return out

    def F_eval(fam, *args):
        n = len(vertex)
        out = band(fam)(*args)
        del vertex[n:]      # the band symbol the resolvent reads is no chain vertex
        resolvent.append(out[0].shape[1])
        return out

    monkeypatch.setattr(Kernel, "eval_product", eval_product)
    monkeypatch.setattr(rgflow, "_band_denominator", lambda fam: lambda *a: F_eval(fam, *a))
    out = renormalize(family, params)
    monkeypatch.undo()
    assert {1, 2, 3} <= set(vertex) and {1, 2, 3} <= set(resolvent)
    _assert_members_alone(family, out, params)
