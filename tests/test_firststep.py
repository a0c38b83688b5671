import math

import numpy as np
import pytest

from dipolerg.model import ModelParams, ConfigError, SIGMA_X, SIGMA_Z, chi, rho_power
from dipolerg.kernels import KernelGrid, assemble_operator
from dipolerg.fockspace import FockBasis
from dipolerg import firststep
from dipolerg.firststep import (initial_kernels, TwoLevelResolventData,
                                FirstStepError, first_step_admissible,
                                lambda_critical_estimate)
from dipolerg.oracle import build_fiber_hamiltonian, pt2_energy
from dipolerg.rgflow import cheb_nodes
from helpers import dilation, feshbach_map


@pytest.fixture()
def small_params():
    return ModelParams(lam0=0.02, j_max=6, j_max_pair=5)


def test_decoupled_sequence_is_free_symbol():
    params = ModelParams(lam0=0.0, p=0.1)
    grid = KernelGrid(params)
    seq = initial_kernels(params, [0.05], grid=grid)
    assert sorted(seq.stacks) == [(0, 0)]
    r = grid.r_nodes.reshape(-1, 1)
    l = grid.l_axes[0]
    expect = (r + params.rho0 * l ** 2 / (2 * params.m)
              - params.p[0] * l / params.m - 0.05)
    np.testing.assert_allclose(seq.stacks[(0, 0)].values[0], expect, atol=1e-14)
    assert seq.metas[0]["series_ratio"] == 0.0


def test_decoupled_first_step_evaluates_no_vertex(monkeypatch):
    def fail(*args):
        raise AssertionError("a vertex was evaluated at zero coupling")

    monkeypatch.setattr(firststep._SpinVertex, "eval_product", fail)
    params = ModelParams(lam0=0.0, p=0.2, j_max=5, j_max_pair=4)
    grid = KernelGrid(params)
    seq = initial_kernels(params, [0.05], grid=grid)
    assert sorted(seq.stacks) == [(0, 0)]
    assert np.array_equal(seq.stacks[(0, 0)].values, firststep._free_part(params, grid, [0.05]))


def test_origin_matches_second_order_theory(small_params):
    # with the off-diagonal coupling every intermediate state is gapped by
    # omega0, so the diagonal origin must reproduce the full second-order sum
    (origin,) = initial_kernels(small_params, [0.0]).w00_origins()
    e2 = pt2_energy(small_params)
    assert small_params.rho0 * origin.real == pytest.approx(e2, rel=1e-12)
    assert abs(origin.imag) < 1e-15


def test_origin_regression_default_grid():
    (origin,) = initial_kernels(ModelParams(lam0=0.02), [0.0]).w00_origins()
    assert origin.real == pytest.approx(-0.0071504298143817095,
                                                  rel=1e-11)


def test_kernel_indices_and_symmetry(small_params):
    seq = initial_kernels(small_params, [0.0])
    assert (1, 1) in seq.stacks
    assert (2, 0) in seq.stacks
    # pair kernels are stored symmetrized
    k20 = seq.stacks[(2, 0)].values[0]
    np.testing.assert_allclose(k20, np.swapaxes(k20, 2, 3), atol=1e-15)


def test_z_window_guard(small_params):
    with pytest.raises(FirstStepError):
        initial_kernels(small_params, [0.3])
    initial_kernels(small_params, [0.24])      # inside: fine
    # a non-finite z is no window miss but a configuration error
    with pytest.raises(ConfigError, match="finite"):
        initial_kernels(small_params, [0.0, complex(0.0, math.inf)])


def test_two_level_resolvent_values():
    params = ModelParams()
    F = TwoLevelResolventData(params, z_phys=0.01)
    rq = np.array([[0.5]])
    lqs = [np.array([[0.1]])]
    low, high = F(rq, lqs)
    b1 = 0.5 + 0.1 ** 2 / 2 - 0.01
    assert low[0, 0, 0, 0] == pytest.approx(1.0 / b1)          # chibar = 1 there
    assert high[0, 0, 0, 0] == pytest.approx(1.0 / (b1 + 1.0))


def _query_rows(params, grid, pick):
    # rows of the first decimation's kind: the grid axes shifted by one
    # photon of each of the first modes, in original units
    rq = params.rho0 * (grid.r_nodes[None] + grid.k_abs[pick, None])
    lqs = [params.rho0 * (ax[None] + grid.k_vec[pick, a, None])
           for a, ax in enumerate(grid.l_axes)]
    return rq, lqs


def test_resolvent_table_evaluates_each_distinct_row_once(monkeypatch):
    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=4)
    grid = KernelGrid(params)
    z_phys = params.rho0 * cheb_nodes(3, 0.45 * params.mu)
    pick = np.random.default_rng(5).permutation(np.arange(20) % 6)
    rq, lqs = _query_rows(params, grid, pick)
    evaluated = []
    original = TwoLevelResolventData._evaluate

    def counting(self, rq, lqs):
        evaluated.append((self, len(rq)))
        return original(self, rq, lqs)

    monkeypatch.setattr(TwoLevelResolventData, "_evaluate", counting)
    F = TwoLevelResolventData(params, z_phys)
    low, high = F(rq[:8], [q[:8] for q in lqs])
    assert len(F._index) == len(set(pick[:8].tolist()))
    low, high = F(rq, lqs)
    assert len(F._index) == 6
    for i in range(len(pick)):
        alone = TwoLevelResolventData(params, z_phys)(rq[i:i + 1], [q[i:i + 1] for q in lqs])
        assert np.array_equal(low[i], alone[0][0]) and np.array_equal(high[i], alone[1][0])
    run = F(rq, lqs, slice(1, 2))
    assert np.array_equal(run[0], low[:, 1:2]) and np.array_equal(run[1], high[:, 1:2])
    assert sum(n for obj, n in evaluated if obj is F) == 6
    first = [list(pick).index(x) for x in range(6)]
    fresh = TwoLevelResolventData(params, z_phys)
    fresh(rq[first], [q[first] for q in lqs])
    assert np.array_equal(F.min_gap_low, fresh.min_gap_low)
    assert np.array_equal(F.min_gap_high, fresh.min_gap_high)
    # a table with room for two rows: the same numbers, and it stops growing
    monkeypatch.setattr(firststep, "_TABLE_BYTES", 2 * (low[0].nbytes + high[0].nbytes))
    small = TwoLevelResolventData(params, z_phys)
    small(rq[:8], [q[:8] for q in lqs])
    capped = small(rq, lqs)
    assert len(small._index) == 2
    # the rows it could not store are evaluated again when queried again
    n8 = len(set(pick[:8].tolist()))
    assert sum(n for obj, n in evaluated if obj is small) == n8 + 6 - 2
    assert np.array_equal(capped[0], low) and np.array_equal(capped[1], high)
    assert np.array_equal(small.min_gap_low, fresh.min_gap_low)
    assert np.array_equal(small.min_gap_high, fresh.min_gap_high)


def test_resolvent_returns_the_levels_asked_for(monkeypatch):
    # a chain asks only for the levels it carries; each comes out as in the
    # call for both, and every query row is still evaluated (and its gaps
    # checked) at both levels, also past a full table
    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=4)
    grid = KernelGrid(params)
    z_phys = params.rho0 * cheb_nodes(3, 0.45 * params.mu)
    rq, lqs = _query_rows(params, grid, np.random.default_rng(5).permutation(np.arange(20) % 6))
    both = TwoLevelResolventData(params, z_phys)(rq, lqs)
    for cap in (None, 2):
        if cap:
            monkeypatch.setattr(firststep, "_TABLE_BYTES", cap * (both[0][0].nbytes * 2))
        for levels in [(0,), (1,), (0, 1)]:
            F = TwoLevelResolventData(params, z_phys)
            out = F(rq, lqs, slice(None), levels)
            assert isinstance(out, tuple) and len(out) == len(levels)
            assert all(np.array_equal(o, both[t]) for o, t in zip(out, levels))
            assert np.all(np.isfinite(F.min_gap_low)) and np.all(np.isfinite(F.min_gap_high))
            run = F(rq, lqs, slice(1, 2), levels[-1:])
            assert len(run) == 1 and np.array_equal(run[0], both[levels[-1]][:, 1:2])


def test_resolvent_table_cap_changes_no_kernel(monkeypatch):
    params = ModelParams(lam0=0.02, j_max=5, j_max_pair=4, spin_coupling=SIGMA_Z)
    nodes = cheb_nodes(3, 0.45 * params.mu)
    whole = initial_kernels(params, nodes)
    # a cap below one row: the table keeps one row and evaluates the rest
    monkeypatch.setattr(firststep, "_TABLE_BYTES", 0)
    capped = initial_kernels(params, nodes)
    assert sorted(whole.stacks) == sorted(capped.stacks)
    for mn in whole.stacks:
        assert np.array_equal(whole.stacks[mn].values, capped.stacks[mn].values), mn
    assert whole.metas == capped.metas


def test_two_level_resolvent_gap_guard():
    params = ModelParams()
    F = TwoLevelResolventData(params, z_phys=0.4)
    with pytest.raises(FirstStepError):
        F(np.array([[0.3]]), [np.array([[0.0]])])


def matrix_first_step(params: ModelParams, z, basis: FockBasis | None = None):
    """Dense-route first decimation on the spin-Fock matrix representation.

    Decimates H(p) - rho0*z with the soft partition (lower level with field
    content below the band edge; the upper level entirely off-band) against
    the diagonal of H, then rescales by conjugation with the grid dilation.
    Returns the rescaled lower-level block and the basis, for comparison
    against assembling the kernel sequence into an operator.
    """
    steps = rho_power(params.rho0, params.rho)
    H, basis = build_fiber_hamiltonian(params, basis, z=params.rho0 * complex(z))
    chi_vec = np.concatenate([chi(basis.r, params.rho0), np.zeros(len(basis))])
    res = feshbach_map(H.toarray(), H.diagonal(), chi_vec)
    nf = len(basis)
    gamma = dilation(basis, steps=steps).toarray()
    F_hat = (gamma @ res.F[:nf, :nf] @ gamma.conj().T) / params.rho0
    return F_hat, basis, res


def test_matrix_cross_check_quartic(small_params):
    """Kernel route and dense matrix route agree to fourth order in the
    coupling on the on-node single-photon sector."""
    diffs = {}
    for lam in (0.01, 0.02):
        params = small_params.with_updates(lam0=lam)
        grid = KernelGrid(params)
        basis = FockBasis(grid.modes, params.N_max)
        seq = initial_kernels(params, [0.0], grid=grid)
        A = assemble_operator(seq, basis).toarray()
        F_hat, basis, _ = matrix_first_step(params, 0.0, basis)
        G = dilation(basis, steps=rho_power(params.rho0, params.rho)).toarray()
        P = (G @ G.conj().T) @ np.diag((basis.r <= 1.0 + 1e-12).astype(complex))
        sel = np.diag((basis.occ.sum(axis=1) <= 1).astype(float))
        D = sel @ P @ (F_hat - A) @ P @ sel
        diffs[lam] = float(np.max(np.abs(D)))
    assert diffs[0.02] < 40.0 * 0.02 ** 4
    assert 14.0 < diffs[0.02] / diffs[0.01] < 18.0


def test_admissibility_window(small_params):
    assert first_step_admissible(small_params.with_updates(lam0=0.0))
    assert first_step_admissible(small_params)
    assert not first_step_admissible(small_params.with_updates(lam0=1.0))


def test_lambda_critical_bracketing(small_params):
    lam_c = lambda_critical_estimate(small_params)
    assert 0.02 < lam_c < 0.08
    assert first_step_admissible(small_params.with_updates(lam0=0.9 * lam_c))
    assert not first_step_admissible(small_params.with_updates(lam0=1.1 * lam_c))


def test_diagonal_coupling_first_step():
    # sigma_z keeps intermediates near the band; the decimation still works
    params = ModelParams(lam0=0.02, j_max=6, j_max_pair=5,
                         spin_coupling=SIGMA_Z)
    seq = initial_kernels(params, [0.0])
    assert seq.w00_origins()[0].real < 0.0
    assert seq.metas[0]["gap_low"] > params.mu * params.rho0 / 4.0


MIX = 0.6 * SIGMA_X + 0.8 * SIGMA_Z
FAMILIES = {
    "sigma_x_p02": ModelParams(lam0=0.02, p=0.2, p_star=0.2, j_max=5, j_max_pair=4),
    "sigma_z": ModelParams(lam0=0.02, j_max=5, j_max_pair=4, spin_coupling=SIGMA_Z),
    "mix": ModelParams(lam0=0.02, j_max=5, j_max_pair=4, spin_coupling=MIX),
    "d3": ModelParams(dim=3, j_max=3, j_max_pair=2, N_max=2, lam0=0.004),
    "decoupled": ModelParams(lam0=0.0, p=0.1, j_max=5, j_max_pair=4),
}


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_family_matches_single_node_calls(case):
    # one assembler pass over every z-node must give each node exactly the
    # kernels, gap minima and series ratio of a decimation at that node alone
    params = FAMILIES[case]
    grid = KernelGrid(params)
    nodes = cheb_nodes(5, 0.45 * params.mu)
    family = initial_kernels(params, nodes, grid=grid)
    assert len(family) == len(nodes)
    for zk, member in zip(nodes, family):
        alone = initial_kernels(params, [zk], grid=grid)
        assert member.zs[0] == alone.zs[0] == complex(zk)
        assert sorted(member.stacks) == sorted(alone.stacks)
        for mn in alone.stacks:
            assert member.stacks[mn].n_modes == alone.stacks[mn].n_modes
            assert np.array_equal(member.stacks[mn].values, alone.stacks[mn].values), mn
        assert member.metas == alone.metas
        assert set(member.metas[0]) >= {"series_ratio", "gap_low", "gap_high"}


def test_family_fails_when_one_node_fails(small_params):
    nodes = [0.0, 0.1, 0.24]
    initial_kernels(small_params, nodes)
    # one node outside the half-gap window
    with pytest.raises(FirstStepError, match="half-gap window"):
        initial_kernels(small_params, nodes + [0.3])
    # one member's lower-level gap below its floor: the family raises and
    # names that member, while the other member alone passes
    F = TwoLevelResolventData(ModelParams(), z_phys=[0.01, 0.4])
    with pytest.raises(FirstStepError, match="lower-level gap .* z_phys=0.4"):
        F(np.array([[0.3]]), [np.array([[0.0]])])
    TwoLevelResolventData(ModelParams(), z_phys=[0.01])(np.array([[0.3]]), [np.array([[0.0]])])
