import math

import numpy as np
import pytest

from dipolerg.model import ModelParams, ConfigError, SIGMA_X, SIGMA_Y, SIGMA_Z
from dipolerg.fockspace import (build_modes, shift_index, FockBasis,
                                ladder, functional_calculus, number_projection)
from dipolerg.selfcheck import _toy_grid
from helpers import dilation, polarization


@pytest.fixture()
def small_params():
    return ModelParams(j_max=3)


@pytest.fixture()
def modes(small_params):
    return build_modes(small_params)


def test_build_modes_counts_d1(modes, small_params):
    assert len(modes) == 2 * (small_params.j_max + 1)
    # both directions present at each shell
    ks = sorted(m.k[0] for m in modes if m.j == 0)
    assert ks == [-1.0, 1.0]


def test_d3_frame_table_matches_polarization_solver():
    # every coupling is eps_lam(k).sigma with eps from the general frame
    # solver, bit for bit (signs of zeros included), and each frame is a
    # transverse orthonormal pair
    modes = build_modes(ModelParams(dim=3, j_max=2))
    assert len(modes) == 3 * 12
    for m in modes:
        eps = polarization(m.k, m.pol)
        expect = sum(e * s for e, s in zip(eps, (SIGMA_X, SIGMA_Y, SIGMA_Z)))
        assert m.coupling.tobytes() == expect.tobytes()
        assert np.linalg.norm(eps) == pytest.approx(1.0, abs=1e-15)
        assert abs(eps @ m.k) < 1e-15
        assert abs(eps @ polarization(m.k, 3 - m.pol)) < 1e-15


def test_mode_weights_scale_geometrically(modes, small_params):
    rho = small_params.rho
    by_j = {}
    for m in modes:
        by_j.setdefault(m.j, m.weight)
        assert m.weight == pytest.approx(by_j[m.j])
    for j in range(1, small_params.j_max + 1):
        assert by_j[j] / by_j[j - 1] == pytest.approx(rho ** 3, rel=1e-14)


def test_mode_weights_riemann_sum(modes):
    # r^2 dr measure over (rho^(j_max+1), 1] times the angular weight
    rho = ModelParams().rho
    total = sum(m.weight for m in modes) / 2.0   # per direction
    exact = 2.0 * math.pi * (1.0 - rho ** (3 * 4)) / 3.0
    assert total == pytest.approx(exact, rel=1e-12)


def test_shift_index_roundtrip(modes):
    up, down = shift_index(modes, +1), shift_index(modes, -1)
    for i, m in enumerate(modes):
        t = up[i]
        if m.j == 3:
            assert t == -1
            continue
        assert modes[t].j == m.j + 1
        assert down[t] == i
        # direction preserved
        assert np.sign(modes[t].k[0]) == np.sign(m.k[0])


def _shifted_mode_index_scan(modes, i, steps):
    """The shift as a scan over every mode for the same direction and
    polarization at j + steps: the reference for shift_index."""
    src = modes[i]
    for t, m in enumerate(modes):
        if (m.j == src.j + steps and m.pol == src.pol
                and np.allclose(m.k / max(m.k_abs, 1e-300),
                                src.k / max(src.k_abs, 1e-300), atol=1e-12)):
            return t
    return -1


@pytest.mark.parametrize("grid_modes", [
    lambda: build_modes(ModelParams(j_max=5)),
    lambda: build_modes(ModelParams(dim=3, j_max=3)),
    lambda: _toy_grid(ModelParams()).modes,
], ids=["d1", "d3", "toy"])
def test_shift_index_matches_mode_scan(grid_modes):
    modes = grid_modes()
    for steps in range(-3, 4):
        expect = [_shifted_mode_index_scan(modes, i, steps) for i in range(len(modes))]
        assert shift_index(modes, steps).tolist() == expect


def test_dilation_refuses_non_geometric_grid(modes):
    # the j=1 shell lacks its -k mode: that of j=2 has no image one shell down
    gappy = [m for i, m in enumerate(modes) if i != 3]
    with pytest.raises(ConfigError):
        dilation(FockBasis(gappy, 1), steps=1)


def test_basis_enumeration_and_order(modes):
    basis = FockBasis(modes[:4], 2)
    # multichoose(4, 0..2) = 1 + 4 + 10
    assert len(basis) == 15
    assert basis.vacuum_index == 0
    counts = [sum(s) for s in basis.states]
    assert counts == sorted(counts)
    np.testing.assert_allclose(basis.r, basis.occ @ [m.k_abs for m in modes[:4]])


def test_ladder_ccr(modes):
    basis = FockBasis(modes[:3], 3)
    b = ladder(basis, 0).toarray()
    bd = b.conj().T
    comm = b @ bd - bd @ b
    # exact Kronecker delta away from the truncation boundary
    keep = np.array([sum(s) < basis.n_max for s in basis.states])
    np.testing.assert_allclose(comm[np.ix_(keep, keep)], np.eye(int(keep.sum())),
                               atol=1e-14)
    b1 = ladder(basis, 1).toarray()
    np.testing.assert_allclose(b @ b1 - b1 @ b, 0.0, atol=1e-14)


def test_ladder_rejects_bad_args(modes):
    basis = FockBasis(modes[:2], 1)
    with pytest.raises(ConfigError):
        ladder(basis, 99)


def test_functional_calculus_matches_number_operator(modes):
    basis = FockBasis(modes[:4], 2)
    hf = functional_calculus(lambda r, l: r.astype(complex), basis).toarray()
    acc = np.zeros_like(hf)
    for i in range(4):
        b = ladder(basis, i).toarray()
        bd = b.conj().T
        acc += basis.modes[i].k_abs * (bd @ b)
    np.testing.assert_allclose(hf, acc, atol=1e-13)


def test_number_projection_idempotent(modes):
    basis = FockBasis(modes, 2)
    P = number_projection(basis, 0.3).toarray()
    np.testing.assert_allclose(P @ P, P, atol=1e-15)
    assert P[basis.vacuum_index, basis.vacuum_index] == 1.0


def test_dilation_partial_isometry(modes, small_params):
    basis = FockBasis(modes, 2)
    G = dilation(basis, steps=1).toarray()
    GtG = G.conj().T @ G
    # projector onto the states with a pre-image
    np.testing.assert_allclose(GtG @ GtG, GtG, atol=1e-14)
    assert np.all(np.isin(np.round(np.diag(GtG).real, 12), [0.0, 1.0]))


def test_dilation_scales_field_energy(modes, small_params):
    rho = small_params.rho
    basis = FockBasis(modes, 2)
    G = dilation(basis, steps=1).toarray()
    f = functional_calculus(lambda r, l: (r + 0.5 * l[:, 0]).astype(complex), basis)
    lhs = G @ f.toarray() @ G.conj().T
    scaled = functional_calculus(
        lambda r, l: (rho * r + 0.5 * rho * l[:, 0]).astype(complex), basis).toarray()
    rng_proj = G @ G.conj().T
    np.testing.assert_allclose(lhs, rng_proj @ scaled @ rng_proj, atol=1e-13)



def _ladder_per_state(basis, mode_index):
    """ladder as a loop over the states, found by their occupation tuples."""
    index = {s: i for i, s in enumerate(basis.states)}
    b = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, s in enumerate(basis.states):
        if s[mode_index]:
            t = list(s)
            t[mode_index] -= 1
            b[index[tuple(t)], i] = math.sqrt(s[mode_index])
    return b


def _dilation_per_state(basis, steps):
    """dilation as a loop over the states, moving each photon down by scan."""
    index = {s: i for i, s in enumerate(basis.states)}
    down = [_shifted_mode_index_scan(basis.modes, i, -steps) for i in range(len(basis.modes))]
    g = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, s in enumerate(basis.states):
        if any(n and down[mi] < 0 for mi, n in enumerate(s)):
            continue
        t = [0] * len(s)
        for mi, n in enumerate(s):
            if n:
                t[down[mi]] += n
        g[index[tuple(t)], i] = 1.0
    return g


@pytest.mark.parametrize("params,n_max,words", [
    (ModelParams(j_max=4), 3, 1),
    # 48 modes of base 3 need 76 bits: two key words
    (ModelParams(dim=3, j_max=3), 2, 2),
], ids=["d1", "d3-two-words"])
def test_ladder_and_dilation_match_per_state_loops(params, n_max, words):
    basis = FockBasis(build_modes(params), n_max)
    assert basis.keys.shape[1] == words
    assert basis.lookup(basis.keys).tolist() == list(range(len(basis)))
    for i in range(len(basis.modes)):
        assert np.array_equal(ladder(basis, i).toarray(), _ladder_per_state(basis, i))
    for steps in (1, 2):
        assert np.array_equal(dilation(basis, steps).toarray(), _dilation_per_state(basis, steps))


def test_lookup_finds_states_and_misses_the_rest(modes):
    basis = FockBasis(modes, 2)
    w = basis.key_weights
    one = basis.lookup(w[5])
    assert basis.states[one] == tuple(int(i == 5) for i in range(len(modes)))
    # three photons: one more than n_max allows
    assert basis.lookup(np.stack([w[0] + w[1] + w[2], 2 * w[3] + w[4]])).tolist() == [-1, -1]
