import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dipolerg.model import (ModelParams, ConfigError, chi, chibar,
                            parse_config_text, config_defaults,
                            config_dump_text, rho_power,
                            CHI_PLATEAU, CHI_SUPPORT, SIGMA_X, SIGMA_Z)
from dipolerg.kernels import KernelGrid


@given(st.floats(min_value=-2.0, max_value=4.0))
def test_chi_partition_of_unity(x):
    assert chi(x) ** 2 + chibar(x) ** 2 == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=1e-3, max_value=1.0))
def test_chi_scaling(x, s):
    # chi at scale s is chi of x/s at scale 1
    assert chi(x, s) == pytest.approx(chi(x / s), abs=1e-12)


def test_chi_plateau_and_support():
    xs = np.linspace(0.0, 2.0, 801)
    v = chi(xs)
    assert np.all(v[xs <= CHI_PLATEAU] == 1.0)
    assert np.all(v[xs >= CHI_SUPPORT] == 0.0)
    # ramp is strictly decreasing inside the transition window
    inside = (xs > CHI_PLATEAU) & (xs < CHI_SUPPORT)
    assert np.all(np.diff(v[inside]) < 0)


def test_chibar_vanishes_at_origin():
    assert chibar(0.0) == 0.0
    assert chibar(np.array([0.0, 0.5 * CHI_PLATEAU]))[1] == 0.0


def test_params_defaults_valid():
    p = ModelParams()
    assert p.mu > 0
    assert p.rho0 == pytest.approx(p.rho ** 3)
    assert rho_power(p.rho0, p.rho) == 3


def test_params_rejects_bad_rho():
    with pytest.raises(ConfigError):
        ModelParams(rho=0.6)
    with pytest.raises(ConfigError):
        ModelParams(rho=0.0)


def test_params_rejects_negative_mass():
    with pytest.raises(ConfigError):
        ModelParams(m=-1.0)


@pytest.mark.parametrize("name, bad, edge", [
    # numpy's linspace would reject negative node counts later, with a traceback
    pytest.param("n_r_uniform", -2, 0, id="n_r_uniform"),
    pytest.param("n_l_uniform", -2, 0, id="n_l_uniform"),
    # the convergence criterion compares two stages
    ("n_flow_max", 1, 2), ("n_flow_max", 0, 2),
    # a tolerance of 0 or below is never met
    ("tol_factor", 0.0, 1e-300), ("tol_factor", -1.0, 1e-300),
    # each sweep point sets p_star = p, and |p_star| < m
    ("p_sweep_max", 0.0, 0.999), ("p_sweep_max", 1.0, 0.999),
])
def test_params_reject_negative_uniform_node_counts(name, bad, edge):
    # and every other count or tolerance outside its range, naming the key;
    # `edge` is a value inside it
    with pytest.raises(ConfigError, match=name):
        ModelParams(**{name: bad})
    assert getattr(ModelParams(**{name: edge}), name) == edge


def test_params_reject_a_negative_j_max_pair():
    # j_max_pair=-1 used to run a flow with no pair kernels at all; a cap at
    # or above j_max (the default 7 on every small grid) covers every mode
    with pytest.raises(ConfigError, match="j_max_pair"):
        ModelParams(j_max=3, j_max_pair=-1)
    assert KernelGrid(ModelParams(j_max=3, j_max_pair=0)).n_pair == 2
    full = KernelGrid(ModelParams(j_max=3, j_max_pair=3))
    assert full.n_pair == len(full.modes)
    for cap in (7, 20):
        assert KernelGrid(ModelParams(j_max=3, j_max_pair=cap)).n_pair == full.n_pair


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.sampled_from(["m", "omega0", "lam0", "rho", "rho0", "xi", "uv_cutoff",
                        "p", "p_star", "tol_factor", "p_sweep_max"]), _NON_FINITE)
@example("tol_factor", math.nan)
@example("tol_factor", math.inf)
@example("p_sweep_max", math.inf)
def test_params_reject_non_finite_scalars(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        ModelParams(**{name: bad})


@given(st.sampled_from(["p", "p_star", "spin_coupling"]), st.integers(0, 3),
       _NON_FINITE, st.booleans())
def test_params_reject_non_finite_entries(name, i, bad, imag):
    if name == "spin_coupling":
        value = SIGMA_X.copy()
        value.flat[i] = complex(0.0, bad) if imag else bad
        kw = {name: value}
    else:
        value = np.zeros(3)
        value[i % 3] = bad
        kw = {name: value, "dim": 3}
    with pytest.raises(ConfigError, match="finite"):
        ModelParams(**kw)


@pytest.mark.parametrize("name, n", [
    pytest.param("n_z_samples", 1, id="1"), pytest.param("n_z_samples", 4, id="4"),
    ("p_sweep_points", 4), ("p_sweep_points", 1),
])
def test_params_reject_too_few_or_even_z_samples(name, n):
    # the flow reads its ledgers off the middle node, at z = 0 for odd counts
    # only; the symmetric dispersion sweep shares the rule
    with pytest.raises(ConfigError, match=name):
        ModelParams(**{name: n})


@pytest.mark.parametrize("n", [-3, 0, 1, 4])
def test_params_reject_too_few_or_even_l_axis_nodes_d3(n):
    # the d=3 l-axes run symmetrically through l = 0, which needs an odd count
    with pytest.raises(ConfigError, match="n_l_axis_d3"):
        ModelParams(dim=3, n_l_axis_d3=n)


@pytest.mark.parametrize("coupling", ["sigma_z", "mix:0.6,0.8", SIGMA_Z])
def test_params_reject_a_spin_coupling_other_than_sigma_x_in_d3(coupling):
    # in d=3 every mode couples through eps(k).sigma, not the spin coupling
    with pytest.raises(ConfigError, match="spin_coupling"):
        ModelParams(dim=3, spin_coupling=coupling)
    assert ModelParams(spin_coupling=coupling).dim == 1


@pytest.mark.parametrize("coupling", [None, "sigma_x", SIGMA_X])
def test_params_d3_accepts_sigma_x(coupling):
    assert np.array_equal(ModelParams(dim=3, spin_coupling=coupling).spin_coupling, SIGMA_X)


def test_with_updates_keeps_frozen():
    p = ModelParams()
    q = p.with_updates(lam0=0.1)
    assert q.lam0 == 0.1
    assert p.lam0 == 0.0


def test_config_roundtrip():
    cfg = config_defaults()
    text = config_dump_text(cfg)
    back = parse_config_text(text)
    assert back == cfg
    ModelParams(**back)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("nonsense_key = 3\n")


def test_config_spin_tags():
    cfg = config_defaults()
    cfg["spin_coupling"] = "sigma_z"
    p = ModelParams(**cfg)
    assert p.spin_coupling[0, 0] == pytest.approx(-1.0)
    cfg["spin_coupling"] = "mix:0.6,0.8"
    p = ModelParams(**cfg)
    assert p.spin_coupling[0, 1] == pytest.approx(0.6)
    cfg["spin_coupling"] = "bogus"
    with pytest.raises(ConfigError):
        ModelParams(**cfg)


def test_mu_uses_reference_momentum():
    p = ModelParams(p=0.3, p_star=0.3)
    assert p.mu == pytest.approx((1.0 - 0.3) / 2.0)


def test_config_defaults_match_api_defaults():
    # every configuration key is a ModelParams field holding its own default
    cfg = config_defaults()
    assert list(cfg) == [f.name for f in dataclasses.fields(ModelParams)]
    from_cfg = ModelParams(**cfg)
    default = ModelParams()
    for f in dataclasses.fields(ModelParams):
        assert np.array_equal(getattr(from_cfg, f.name), getattr(default, f.name)), f.name
