import numpy as np
import pytest
import scipy.sparse as sp

from dipolerg.feshbach import DecimationError, _MIN_MARGIN, back_transport
from helpers import feshbach_map, isospectral_test, planted_instance


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


# the sparse back-transport, against the dense reference; pytest's
# filterwarnings = error also fails any of these on a solver warning

@pytest.mark.parametrize("n", [6, 12, 24])
def test_back_transport_matches_dense_reference(rng, n):
    # back_transport's reference is the diagonal of H itself
    H, _t, chi, _psi = planted_instance(n, rng)
    Q = feshbach_map(H, np.diag(H), chi).Q
    vecs = np.vstack([np.eye(n)[:2], rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))])
    for v in vecs:
        got = back_transport(sp.csr_matrix(H), chi, v)
        assert np.max(np.abs(got - Q @ v)) <= 1e-12 * max(1.0, np.linalg.norm(Q @ v))


def _hard_partition_with_offband_spectrum(rng, sv):
    """H on one band row plus an off-band block with singular values sv:
    with chi = (1, 0, ..., 0) the off-band block is H's lower-right corner."""
    k = len(sv)
    u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    w, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    H = rng.normal(size=(k + 1, k + 1)) + 1j * rng.normal(size=(k + 1, k + 1))
    H[1:, 1:] = (u * np.asarray(sv)) @ w.conj().T
    chi = np.zeros(k + 1)
    chi[0] = 1.0
    return H, chi


def test_back_transport_singular_block_raises(rng):
    # exactly singular: an all-zero off-band block, and a rank-deficient one
    t = np.array([0.01, 0.0, 0.0, 0.0, 0.0])
    chi = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(DecimationError):
        back_transport(sp.diags(t), chi, np.ones(5))
    H, chi = _hard_partition_with_offband_spectrum(rng, [2.0, 1.0, 0.5, 0.0])
    with pytest.raises(DecimationError):
        back_transport(sp.csr_matrix(H), chi, np.ones(5))


def test_back_transport_margin_guard_matches_reference(rng):
    # 0 < sigma_min < _MIN_MARGIN: the factor exists, the margin refuses it
    near, _ = _hard_partition_with_offband_spectrum(rng, [2.0, 1.0, 0.5, 1e-2 * _MIN_MARGIN])
    ok, chi = _hard_partition_with_offband_spectrum(rng, [2.0, 1.0, 0.5, 1e2 * _MIN_MARGIN])
    v = np.ones(5)
    for guard in (lambda H: back_transport(sp.csr_matrix(H), chi, v),
                  lambda H: feshbach_map(H, np.diag(H), chi)):
        with pytest.raises(DecimationError, match="margin"):
            guard(near)
        guard(ok)
