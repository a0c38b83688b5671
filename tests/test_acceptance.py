"""End-to-end acceptance checks for the whole engine.

Each test pins one externally meaningful guarantee: exactness limits,
dual-route agreement, contraction of the flow, and smoothness of the
computed dispersion.  Tolerances are frozen; do not loosen them to make
a regression pass.
"""

import math
import time

import numpy as np
import pytest
from scipy.sparse.linalg import svds

from dipolerg.model import ModelParams
from dipolerg.fockspace import FockBasis
from dipolerg.kernels import (KernelGrid, Kernel, KernelFamily,
                              assemble_operator, scale_transform, norm_sharp)
from dipolerg.firststep import initial_kernels
from dipolerg.rgflow import run_flow, extract_alpha_beta
from dipolerg.oracle import ground_energy, pt2_energy
from dipolerg.selfcheck import wick_reassembly_defect
from helpers import (dilation, effective_mass, isospectral_test, norm_half,
                     planted_instance)


def test_free_theory_exactness():
    # with the coupling off the flow must reproduce the free dispersion to
    # machine precision: zero energy, unit kinetic slope, -p/m drift
    t0 = time.monotonic()
    for p in (0.0, 0.3, -0.3):
        params = ModelParams(lam0=0.0, p=p, p_star=p, n_z_samples=5, n_flow_max=30)
        res = run_flow(params, min_stages=30)
        assert res.stages >= 30
        assert abs(res.energy) <= 1e-10
        seq = res.final_family[len(res.z_nodes) // 2]
        alpha, beta = extract_alpha_beta(seq)
        assert abs(alpha - 1.0) <= 1e-8
        assert abs(beta[0] + p / params.m) <= 1e-8
    assert time.monotonic() - t0 < 10.0


def test_wick_reassembly_identity():
    # resolvent-chain route vs reassembled-kernel route on a lossless
    # two-mode toy space; typical defect is below 1e-14
    t0 = time.monotonic()
    assert wick_reassembly_defect() <= 1e-11
    assert time.monotonic() - t0 < 60.0


def test_decimation_isospectrality_random_instances():
    # 200 random pairs: a singular instance with a planted kernel vector
    # (transport both ways) and an invertible sibling (resolvent split)
    rng = np.random.default_rng(77)
    t0 = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(6, 25))
        H, t, chi_d, _psi = planted_instance(n, rng)
        out = isospectral_test(H, t, chi_d)
        assert out["forward_residual"] <= 1e-9
        assert out["backward_residual"] <= 1e-9
        H2, t2, chi2, _ = planted_instance(n, rng, plant_kernel=False)
        out2 = isospectral_test(H2, t2, chi2)
        assert out2["resolvent_residual"] <= 1e-9
    assert time.monotonic() - t0 < 30.0


def test_flow_matches_oracle_across_momenta(lam_c):
    lam = lam_c / 10.0
    for p in (0.0, 0.2, 0.4):
        params = ModelParams(lam0=lam, p=p, p_star=p)
        e_flow = run_flow(params).energy
        e_oracle = ground_energy(params)
        tol = max(1e-3 * abs(e_oracle), 1e-8 * params.m)
        assert abs(e_flow - e_oracle) <= tol


def test_flow_matches_oracle_coarse_3d():
    # the 3-d flow (three l-axes, polarized couplings) on a coarse grid, at
    # the sigma_x tolerance of the momentum sweep above
    params = ModelParams(dim=3, j_max=3, j_max_pair=2, N_max=2, n_z_samples=3,
                         lam0=0.004)
    e_flow = run_flow(params).energy
    e_oracle = ground_energy(params)
    tol = max(1e-3 * abs(e_oracle), 1e-8 * params.m)
    assert abs(e_flow - e_oracle) <= tol


def test_coarse_3d_energy_keeps_the_grid_symmetries():
    # the upper level singles out z in spin space, so the symmetries of the
    # model that the six-direction grid keeps are the quarter turns about z
    # (taken with the spin) and p -> -p.  The flow keeps them bit for bit;
    # the oracle's images of E(0.1 e_x) and E(0.1 e_z) were measured within
    # 6.3e-16 relative, and the bound is about 3x that
    def energies(p):
        params = ModelParams(dim=3, j_max=3, j_max_pair=2, N_max=2, n_z_samples=3,
                             lam0=0.004, p=p, p_star=p)
        return run_flow(params).energy, ground_energy(params)

    for p, images in [((0.1, 0, 0), [(0, 0.1, 0), (-0.1, 0, 0)]),
                      ((0, 0, 0.1), [(0, 0, -0.1)])]:
        e_flow, e_oracle = energies(p)
        for image in images:
            flow, oracle = energies(image)
            assert flow == e_flow, image
            assert abs(oracle - e_oracle) <= 2e-15 * abs(e_oracle), image


@pytest.mark.parametrize("coupling, lam0, j_max, j_max_pair, bound, grid", [
    # measured relative gaps at L_max=4: 1.57e-9 (sigma_x) and 3.21e-6
    # (sigma_z), against 9.9e-6 and 8.9e-5 for pt2; bounds about 3x those
    ("sigma_x", 0.004, 5, 4, 5e-9, {}),
    ("sigma_z", 0.02, 4, 3, 1e-5, {}),
    # d=3 coarse grid at p = 0: measured gap 3.03e-8, against 1.72e-5 for pt2
    ("sigma_x", 0.004, 3, 2, 1e-7, dict(dim=3, N_max=2)),
], ids=["sigma_x-0.004-5-4-5e-09", "sigma_z-0.02-4-3-1e-05", "d3-sigma_x-0.004-3-2-1e-07"])
def test_chain_depth_four_beats_perturbation_theory(coupling, lam0, j_max, j_max_pair,
                                                    bound, grid):
    # the flow's gap to the oracle is the first decimation's truncated chain
    # series: at L_max=4 the flow must beat second-order perturbation theory
    params = ModelParams(lam0=lam0, j_max=j_max, j_max_pair=j_max_pair, n_z_samples=3,
                         L_max=4, spin_coupling=coupling, **grid)
    e_oracle = ground_energy(params)
    gap = abs(run_flow(params).energy - e_oracle) / abs(e_oracle)
    assert gap <= bound
    assert gap < abs(pt2_energy(params) - e_oracle) / abs(e_oracle)


def test_oracle_minus_pt2_is_fourth_order(lam_c):
    lams = [lam_c / 40.0, lam_c / 20.0, lam_c / 10.0]
    diffs = []
    for lam in lams:
        params = ModelParams(lam0=lam)
        diffs.append(abs(ground_energy(params) - pt2_energy(params)))
    slope = np.polyfit(np.log(lams), np.log(diffs), 1)[0]
    assert slope >= 3.5


def test_flow_contracts_perturbation(lam_c):
    params = ModelParams(lam0=lam_c / 10.0, n_flow_max=8)
    res = run_flow(params, min_stages=6)
    eps = [led.eps for led in res.ledgers]
    assert len(eps) >= 6
    for n in range(2, len(eps) - 1):
        if eps[n] == 0.0:
            continue
        assert eps[n + 1] / eps[n] <= 0.75
    cap = max(eps)
    bound = params.rho / (1.0 - cap)
    assert bound < 1.0
    diffs = [abs(res.e_chain[i + 1] - res.e_chain[i])
             for i in range(len(res.e_chain) - 1)]
    for i in range(len(diffs) - 1):
        if diffs[i] < 1e-15:
            continue        # chain already at rounding level
        assert diffs[i + 1] / diffs[i] <= bound


def test_scale_transformation_exactness():
    params = ModelParams(lam0=0.02, j_max=6, j_max_pair=5)
    grid = KernelGrid(params)
    seq = initial_kernels(params, [0.0], grid=grid)
    scaled = KernelFamily(grid, {mn: scale_transform(s) for mn, s in seq.stacks.items()},
                          seq.p, seq.zs, seq.metas)
    basis = FockBasis(grid.modes, 2)
    A = assemble_operator(seq, basis).toarray()
    B = assemble_operator(scaled, basis).toarray()
    G = dilation(basis, steps=1).toarray()
    # conjugated-dilation route, restricted to on-node states of at most
    # one photon that survive the dilation
    lhs = G @ A @ G.conj().T / grid.rho
    sel = np.diag((basis.occ.sum(axis=1) <= 1).astype(float))
    proj = sel @ (G @ G.conj().T)
    defect = float(np.max(np.abs(proj @ (lhs - B) @ proj)))
    assert defect <= 1e-13

    rho = grid.rho
    for (m, n) in sorted(seq.stacks):
        before, after = seq.stacks[(m, n)][0], scaled.stacks[(m, n)][0]
        norm = norm_sharp if m + n == 0 else norm_half
        ratio = norm(after) / max(norm(before), 1e-300)
        # equality case for the single-sided bound; allow rounding only
        assert ratio <= rho ** (2 * (m + n) - 1) * (1.0 + 1e-12)


def test_operator_norm_bound_coarse_3d():
    params = ModelParams(dim=3, j_max=2, n_l_axis_d3=3, N_max=2)
    grid = KernelGrid(params)
    basis = FockBasis(grid.modes, 2)
    rng = np.random.default_rng(5)
    shapes = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    zero00 = np.zeros((1,) + grid.base_shape, complex)
    nmod = len(grid.modes)
    for trial in range(50):
        m, n = shapes[trial % len(shapes)]
        full = grid.base_shape + (nmod,) * (m + n)
        vals = rng.normal(size=full) + 1j * rng.normal(size=full)
        # drawn photon-last, stored photon-major
        vals = np.moveaxis(vals, range(-(m + n), 0), range(m + n))
        ker = Kernel(m, n, grid, vals)
        seq = KernelFamily(grid, {(0, 0): zero00, (m, n): vals[None]}, 0.0, [0.0], [{}])
        op = assemble_operator(seq, basis)
        # the largest singular value to machine precision (ARPACK, tol=0), from
        # a fixed start vector; on these operators it is the dense 2-norm to 1e-15
        start = np.random.default_rng(0).normal(size=op.shape[0])
        opn = svds(op, k=1, tol=0, v0=start, return_singular_vectors=False)[0]
        bound = ((math.factorial(m) * math.factorial(n)) ** -0.5
                 * (8.0 * math.pi) ** ((m + n) / 2.0) * norm_half(ker))
        assert opn <= bound


def test_dispersion_smoothness(lam_c):
    lam = lam_c / 10.0
    pvals = np.linspace(-0.5, 0.5, 9)
    energies = []
    for pv in pvals:
        params = ModelParams(lam0=lam, p=pv, p_star=pv, j_max=8,
                             j_max_pair=6, n_z_samples=5)
        # narrow spectral window: the fiber gap shrinks toward |p| = m/2
        energies.append(run_flow(params, z_half_width_frac=0.2).energy)
    energies = np.asarray(energies)
    assert np.max(np.abs(energies - energies[::-1])) <= 1e-10
    h = pvals[1] - pvals[0]
    assert abs(energies[5] - energies[3]) / (2.0 * h) <= 1e-8
    out = effective_mass(pvals, energies, m=1.0)
    assert out["fit_residual"] <= 1e-5 * out["energy_range"]
    assert abs(out["m_eff_diff"] / out["m_eff_fit"] - 1.0) <= 0.01
