import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dipolerg.model import ModelParams, ConfigError, SIGMA_X, SIGMA_Y, SIGMA_Z
from dipolerg.fockspace import FockBasis, build_modes
from dipolerg.oracle import (build_fiber_hamiltonian, ground_energy, pt2_energy,
                             sweep_to_csv)
from helpers import effective_mass, kron_fiber_hamiltonian


@pytest.fixture()
def small_params():
    return ModelParams(lam0=0.02, j_max=6)


def test_hamiltonian_hermitian(small_params):
    H, basis = build_fiber_hamiltonian(small_params)
    Hd = H.toarray()
    np.testing.assert_allclose(Hd, Hd.conj().T, atol=1e-13)
    assert Hd.shape == (2 * len(basis), 2 * len(basis))


_COUPLINGS = {"sigma_x": dict(lam0=0.02, p=0.1, j_max=6),
              "sigma_z": dict(lam0=0.02, p=0.1, j_max=6, spin_coupling=SIGMA_Z),
              "mix": dict(lam0=0.02, p=0.1, j_max=6,
                          spin_coupling=0.6 * SIGMA_X + 0.8 * SIGMA_Z),
              "d3": dict(lam0=0.004, dim=3, j_max=1, N_max=2)}


@pytest.mark.parametrize("name", sorted(_COUPLINGS))
def test_one_pass_build_matches_kron_sum(name):
    # same sparsity and the same entries as the per-mode sum; a sparse sum
    # adds +0 to every entry, which turns a -0.0 part into +0.0, so the
    # bits are compared after the same + 0.0
    params = ModelParams(**_COUPLINGS[name])
    ref, basis = kron_fiber_hamiltonian(params, z=1e-3)
    H, _ = build_fiber_hamiltonian(params, basis, z=1e-3)
    assert H.has_canonical_format and ref.has_canonical_format
    np.testing.assert_array_equal(H.indptr, ref.indptr)
    np.testing.assert_array_equal(H.indices, ref.indices)
    np.testing.assert_array_equal((H.data + 0.0).view(np.uint64),
                                  (ref.data + 0.0).view(np.uint64))


@pytest.mark.parametrize("name", sorted(_COUPLINGS))
def test_ground_vector_is_in_the_physical_gauge(name):
    # Lanczos runs on P^dag H P with P = diag(i^N); a vector left in that
    # gauge misses H's eigen-equation at O(lam0)
    params = ModelParams(**_COUPLINGS[name])
    e, vec, basis = ground_energy(params, return_vector=True)
    H, _ = build_fiber_hamiltonian(params, basis)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(H @ vec - e * vec) <= 1e-10


def test_sigma_y_takes_the_complex_route_to_the_sigma_x_energy():
    # a spin rotation about z maps sigma_y to sigma_x, and so one fiber
    # Hamiltonian to the other; in the gauge, sigma_y's G stays complex
    kw = _COUPLINGS["sigma_x"]
    e_x = ground_energy(ModelParams(**kw))
    e_y = ground_energy(ModelParams(**{**kw, "spin_coupling": SIGMA_Y}))
    assert e_y == pytest.approx(e_x, abs=1e-12)


def test_decoupled_ground_energy_zero():
    # with momentum the zero point p^2/2m is already subtracted; dim 572,
    # where a Lanczos start on the vacuum, an exact eigenvector, would stop
    # with ARPACK error -9
    for kw in (dict(j_max=4), dict(p=0.2, j_max=4)):
        assert ground_energy(ModelParams(lam0=0.0, **kw)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.1])
def test_decoupled_ground_energy_zero_sparse_route(p):
    # dim 2660, the largest space the suite solves, where the vacuum is an
    # exact eigenvector of the decoupled Hamiltonian
    params = ModelParams(lam0=0.0, p=p, j_max=8, j_max_pair=6)
    assert build_fiber_hamiltonian(params)[0].shape[0] == 2660
    assert ground_energy(params) == pytest.approx(0.0, abs=1e-15)


def _shift_invert_ground_energy(params):
    """Lowest eigenvalue by shift-invert below a Gershgorin lower bound."""
    H, _ = build_fiber_hamiltonian(params)
    radius = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(H.diagonal())
    shift = float(np.min(H.diagonal().real - radius))
    shift -= 1e-3 * (1.0 + abs(shift))
    w = spla.eigsh(H.tocsc(), k=1, sigma=shift, which="LM",
                   return_eigenvectors=False)
    return float(np.min(w.real))


_BIG = dict(j_max=8, j_max_pair=6)


@pytest.mark.parametrize("kw", [
    dict(lam0=0.004, p=0.0, **_BIG),
    dict(lam0=0.004, p=0.2, **_BIG),
    dict(lam0=0.02, spin_coupling=SIGMA_Z, **_BIG),
    dict(lam0=0.02, p=0.1, spin_coupling=0.6 * SIGMA_X + 0.8 * SIGMA_Z, **_BIG),
    dict(lam0=0.05, **_BIG),
    dict(lam0=0.004, dim=3, j_max=3, N_max=2),
    # small spaces, down to dim 10
    dict(lam0=0.004, j_max=1, N_max=1),
    dict(lam0=0.02, spin_coupling=SIGMA_Z, j_max=3),
    dict(lam0=0.004, p=0.1, j_max=4),
    dict(lam0=0.004, dim=3, j_max=1, N_max=2),
], ids=["sx-p0", "sx-p0.2", "sz", "mix-p0.1", "lam0.05", "d3",
        "sx-dim10", "sz-dim330", "sx-p0.1-dim572", "d3-dim650"])
def test_vacuum_start_reaches_ground_state(kw):
    # the Lanczos start is the free vacuum, so the ground state must overlap
    # it; a second eigensolver route finds the lowest level without that
    params = ModelParams(**kw)
    assert abs(ground_energy(params) - _shift_invert_ground_energy(params)) <= 1e-12


def test_ground_energy_negative_when_coupled(small_params):
    assert ground_energy(small_params) < 0.0


def test_pt2_closed_form_properties(small_params):
    assert pt2_energy(ModelParams(lam0=0.0)) == 0.0
    e = pt2_energy(small_params)
    assert e < 0.0
    # quadratic in the coupling by construction
    e2 = pt2_energy(small_params.with_updates(lam0=0.04))
    assert e2 == pytest.approx(4.0 * e, rel=1e-12)


def test_oracle_pt2_difference_is_quartic(small_params):
    d = {}
    for lam in (0.01, 0.02):
        pp = small_params.with_updates(lam0=lam)
        d[lam] = abs(ground_energy(pp) - pt2_energy(pp))
    assert 14.0 < d[0.02] / d[0.01] < 18.0


def test_pt2_quadrature_matches_hamiltonian(small_params):
    # one-photon truncation: diagonalization is second order plus an
    # O(lam^4) resummation of the same matrix elements; at lam = 5e-3 the
    # remainder sits below 1e-9
    pp = small_params.with_updates(lam0=0.005)
    basis = FockBasis(build_modes(pp), 1)
    e = ground_energy(pp, basis=basis)
    assert e == pytest.approx(pt2_energy(pp), abs=5e-9)


def test_diagonal_coupling_oracle(small_params):
    pp = small_params.with_updates(spin_coupling=SIGMA_Z)
    assert ground_energy(pp) < 0.0


def test_sweep_to_csv(small_params):
    p_values = [-0.2, 0.0, 0.2]
    energies = [pt2_energy(small_params.with_updates(p=pv)) for pv in p_values]
    assert energies[0] == pytest.approx(energies[2], abs=1e-15)
    text = sweep_to_csv(p_values, energies, "pt2")
    lines = text.strip().splitlines()
    assert lines[0] == "p,energy,method"
    assert len(lines) == 4
    assert [float(line.split(",")[0]) for line in lines[1:]] == p_values
    assert {line.split(",")[2] for line in lines[1:]} == {"pt2"}


def test_effective_mass_exact_parabola():
    p = np.linspace(-0.4, 0.4, 9)
    c = 0.37
    e = c * p ** 2
    out = effective_mass(p, e, m=1.0)
    assert out["curvature_diff"] == pytest.approx(2 * c, rel=1e-10)
    assert out["curvature_fit"] == pytest.approx(2 * c, rel=1e-8)
    assert out["fit_residual"] < 1e-14
    assert out["m_eff_diff"] == pytest.approx(1.0 / (1.0 + 2 * c), rel=1e-10)


def test_effective_mass_requires_symmetric_sweep():
    with pytest.raises(ConfigError):
        effective_mass([0.0, 0.1, 0.3], [0.0, 0.1, 0.2], m=1.0)
