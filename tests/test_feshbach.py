import numpy as np
import pytest

from dipolerg.model import ConfigError
from dipolerg.feshbach import feshbach_map, DecimationError
from helpers import isospectral_test, planted_instance


def test_decoupled_limit_is_restriction(rng):
    # W = 0: F is just T with the chi-squared dressing of W absent
    n = 8
    t = np.linspace(0.1, 2.0, n)
    chi = np.clip(1.2 - t, 0.0, 1.0)
    res = feshbach_map(np.diag(t), t, chi)
    np.testing.assert_allclose(res.F, np.diag(t), atol=1e-14)
    np.testing.assert_allclose(res.Q, np.diag(chi), atol=1e-14)


def test_planted_kernel_transport(rng):
    H, t, chi, psi = planted_instance(16, rng)
    res = feshbach_map(H, t, chi)
    # chi psi lies in ker F
    v = chi * psi
    assert np.linalg.norm(res.F @ v) / np.linalg.norm(res.F) < 1e-12
    # and Q carries ker F back into ker H
    _u, s, vh = np.linalg.svd(res.F)
    phi = vh[-1].conj()
    back = res.Q @ phi
    assert np.linalg.norm(H @ back) / (np.linalg.norm(H) * np.linalg.norm(back)) < 1e-10


def test_resolvent_splitting(rng):
    H, t, chi, _psi = planted_instance(14, rng, plant_kernel=False)
    rep = isospectral_test(H, t, chi)
    assert rep["sigma_min_H"] > 1e-8
    assert rep["resolvent_residual"] < 1e-11


def test_isospectral_report_planted(rng):
    H, t, chi, _psi = planted_instance(12, rng)
    rep = isospectral_test(H, t, chi)
    assert rep["sigma_min_H"] < 1e-10
    assert rep["forward_residual"] < 1e-10
    assert rep["backward_residual"] < 1e-10


def test_q_operators_shapes(rng):
    H, t, chi, _psi = planted_instance(9, rng)
    res = feshbach_map(H, t, chi)
    assert res.Q.shape == (9, 9)


def test_rejects_nondiagonal_reference(rng):
    H = rng.normal(size=(4, 4))
    T = rng.normal(size=(4, 4))
    with pytest.raises(ConfigError):
        feshbach_map(H, T, np.ones(4) * 0.5)


def test_rejects_bad_partition(rng):
    H = np.eye(3)
    with pytest.raises(ConfigError):
        feshbach_map(H, np.ones(3), np.array([0.5, 2.0, 0.1]))
    with pytest.raises(ConfigError):
        feshbach_map(H, np.ones(3), np.ones(4) * 0.5)


def test_singular_offband_block_raises():
    # T zero on supp(chibar) and W = 0 makes the off-band block singular
    t = np.array([0.01, 0.0, 0.0])
    chi = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DecimationError):
        feshbach_map(np.diag(t), t, chi)


def test_hard_partition_is_schur_complement(rng):
    # chi in {0,1}: F restricted to the band equals the textbook complement
    n = 6
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
    t = np.linspace(0.2, 1.4, n)
    chi = (t < 0.7).astype(float)
    band = chi > 0.5
    res = feshbach_map(H, t, chi)
    Hbb = H[np.ix_(band, band)]
    Hbo = H[np.ix_(band, ~band)]
    Hob = H[np.ix_(~band, band)]
    Hoo = H[np.ix_(~band, ~band)]
    schur = Hbb - Hbo @ np.linalg.solve(Hoo, Hob)
    np.testing.assert_allclose(res.F[np.ix_(band, band)], schur, atol=1e-11)
