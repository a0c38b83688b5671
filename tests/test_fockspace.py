import math

import numpy as np
import pytest

from dipolerg.model import ModelParams, ConfigError
from dipolerg.fockspace import (Mode, build_modes, shifted_mode_index, FockBasis,
                                ladder, functional_calculus, number_projection,
                                dilation)


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


def test_shifted_mode_index_roundtrip(modes):
    for m in modes:
        t = shifted_mode_index(modes, m.index, +1)
        if m.j == 3:
            assert t is None
            continue
        assert modes[t].j == m.j + 1
        assert shifted_mode_index(modes, t, -1) == m.index
        # direction preserved
        assert np.sign(modes[t].k[0]) == np.sign(m.k[0])


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
    b = ladder(basis, 0).dense()
    bd = b.conj().T
    comm = b @ bd - bd @ b
    # exact Kronecker delta away from the truncation boundary
    keep = np.array([sum(s) < basis.n_max for s in basis.states])
    np.testing.assert_allclose(comm[np.ix_(keep, keep)], np.eye(int(keep.sum())),
                               atol=1e-14)
    b1 = ladder(basis, 1).dense()
    np.testing.assert_allclose(b @ b1 - b1 @ b, 0.0, atol=1e-14)


def test_ladder_rejects_bad_args(modes):
    basis = FockBasis(modes[:2], 1)
    with pytest.raises(ConfigError):
        ladder(basis, 99)


def test_functional_calculus_matches_number_operator(modes):
    basis = FockBasis(modes[:4], 2)
    hf = functional_calculus(lambda r, l: r.astype(complex), basis).dense()
    acc = np.zeros_like(hf)
    for i in range(4):
        b = ladder(basis, i).dense()
        bd = b.conj().T
        acc += basis.modes[i].k_abs * (bd @ b)
    np.testing.assert_allclose(hf, acc, atol=1e-13)


def test_number_projection_idempotent(modes):
    basis = FockBasis(modes, 2)
    P = number_projection(basis, 0.3).dense()
    np.testing.assert_allclose(P @ P, P, atol=1e-15)
    assert P[basis.vacuum_index, basis.vacuum_index] == 1.0


def test_dilation_partial_isometry(modes, small_params):
    basis = FockBasis(modes, 2)
    G = dilation(basis, steps=1).dense()
    GtG = G.conj().T @ G
    # projector onto the states with a pre-image
    np.testing.assert_allclose(GtG @ GtG, GtG, atol=1e-14)
    assert np.all(np.isin(np.round(np.diag(GtG).real, 12), [0.0, 1.0]))


def test_dilation_scales_field_energy(modes, small_params):
    rho = small_params.rho
    basis = FockBasis(modes, 2)
    G = dilation(basis, steps=1).dense()
    f = functional_calculus(lambda r, l: (r + 0.5 * l[:, 0]).astype(complex), basis)
    lhs = G @ f.dense() @ G.conj().T
    scaled = functional_calculus(
        lambda r, l: (rho * r + 0.5 * rho * l[:, 0]).astype(complex), basis).dense()
    rng_proj = G @ G.conj().T
    np.testing.assert_allclose(lhs, rng_proj @ scaled @ rng_proj, atol=1e-13)

