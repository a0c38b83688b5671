import numpy as np
import pytest

from dipolerg import firststep
from dipolerg.model import ModelParams, SIGMA_X, SIGMA_Z
from dipolerg.kernels import Kernel, KernelGrid, KernelSequence
from dipolerg.firststep import initial_kernels
from dipolerg.rgflow import (renormalize, FlowError, cheb_nodes, StageMap,
                             interpolate_family, run_flow, extract_alpha_beta,
                             ground_state, _band_margin)
from dipolerg.oracle import ground_energy


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
    seqs = [initial_kernels(small_params, zk, grid=grid) for zk in nodes]
    mid = interpolate_family(seqs, nodes, nodes[2])
    for mn in seqs[2].indices():
        np.testing.assert_allclose(mid.kernel(*mn).values,
                                   seqs[2].kernel(*mn).values, atol=1e-13)


def test_interpolate_family_union_of_indices(small_params):
    grid = KernelGrid(small_params)
    z00 = Kernel(0, 0, grid, np.zeros(grid.base_shape, complex))
    nmod = len(grid.modes)
    one = Kernel(1, 0, grid, np.ones(grid.base_shape + (nmod,), complex))
    a = KernelSequence(grid, {(0, 0): z00}, p=0.0, z=-0.1)
    b = KernelSequence(grid, {(0, 0): z00, (1, 0): one}, p=0.0, z=0.1)
    mid = interpolate_family([a, b], np.array([-0.1, 0.1]), 0.0)
    assert (1, 0) in mid.kernels
    np.testing.assert_allclose(mid.kernel(1, 0).values, 0.5 * one.values,
                               atol=1e-15)


def test_renormalize_free_passthrough():
    params = ModelParams(lam0=0.0, p=0.1)
    grid = KernelGrid(params)
    seq = initial_kernels(params, 0.02, grid=grid)
    out = renormalize(seq, params)
    rho = params.rho
    # origin scales exactly; marginal slopes are fixed points
    assert out.w00_origin() == pytest.approx(-0.02 / rho, abs=1e-14)
    alpha, beta = extract_alpha_beta(out)
    assert alpha == pytest.approx(1.0, abs=1e-10)
    assert beta[0] == pytest.approx(-params.p[0] / params.m, abs=1e-10)
    assert out.meta["stage"] == 1


def test_renormalize_band_margin_guard():
    params = ModelParams(lam0=0.0)
    grid = KernelGrid(params)
    # symbol nearly vanishing on the decimation shell
    vals = np.full(grid.base_shape, 1e-6, dtype=complex)
    seq = KernelSequence(grid, {(0, 0): Kernel(0, 0, grid, vals)}, p=0.0, z=0.0)
    assert _band_margin(seq) == pytest.approx(1e-6)
    with pytest.raises(FlowError):
        renormalize(seq, params)


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
        def eval_product(self, global_ids, rq, lqs):
            assert all(g >= 0 for g in global_ids), global_ids
            seen.append(type(self))
            return orig(self, global_ids, rq, lqs)
        return eval_product

    monkeypatch.setattr(Kernel, "eval_product", checked(Kernel.eval_product))
    monkeypatch.setattr(firststep._SpinVertex, "eval_product",
                        checked(firststep._SpinVertex.eval_product))
    seq = initial_kernels(params, 0.0, grid=grid)
    assert seq.kernel(1, 0) is not None
    renormalize(seq, params)
    assert firststep._SpinVertex in seen and Kernel in seen
