import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dipolerg.model import (ModelParams, ConfigError, chi, chibar, form_factor,
                            polarization, parse_config_text, params_from_config,
                            config_defaults, config_dump_text,
                            CHI_PLATEAU, CHI_SUPPORT, SIGMA_X)
from dipolerg.rgflow import run_flow


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


def test_form_factor_sharp_cutoff():
    assert form_factor(0.5) == pytest.approx(math.sqrt(0.5))
    assert form_factor(1.5) == 0.0
    arr = form_factor(np.array([0.09, 0.9999, 1.0001]))
    assert arr[0] == pytest.approx(0.3)
    assert arr[2] == 0.0


def test_polarization_orthogonal():
    k = np.array([0.3, -0.4, 0.2])
    e1 = polarization(k, 1)
    e2 = polarization(k, 2)
    assert abs(e1 @ k) < 1e-14
    assert abs(e2 @ k) < 1e-14
    assert abs(e1 @ e2) < 1e-14
    assert np.linalg.norm(e1) == pytest.approx(1.0)
    # k parallel to e_z uses the declared fallback frame
    ez = np.array([0.0, 0.0, 0.7])
    assert polarization(ez, 1).tolist() == [1.0, 0.0, 0.0]


def test_params_defaults_valid():
    p = ModelParams()
    assert p.mu > 0
    assert p.rho0 == pytest.approx(p.rho ** 3)
    assert p.rho0_power() == 3


def test_params_rejects_bad_rho():
    with pytest.raises(ConfigError):
        ModelParams(rho=0.6)
    with pytest.raises(ConfigError):
        ModelParams(rho=0.0)


def test_params_rejects_negative_mass():
    with pytest.raises(ConfigError):
        ModelParams(m=-1.0)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.sampled_from(["m", "omega0", "lam0", "rho", "rho0", "xi", "uv_cutoff",
                        "p", "p_star"]), _NON_FINITE)
def test_params_reject_non_finite_scalars(name, bad):
    with pytest.raises(ConfigError, match="finite"):
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
    params_from_config(back)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("nonsense_key = 3\n")


def test_config_spin_tags():
    cfg = config_defaults()
    cfg["spin_coupling"] = "sigma_z"
    p = params_from_config(cfg)
    assert p.spin_coupling[0, 0] == pytest.approx(-1.0)
    cfg["spin_coupling"] = "mix:0.6,0.8"
    p = params_from_config(cfg)
    assert p.spin_coupling[0, 1] == pytest.approx(0.6)
    cfg["spin_coupling"] = "bogus"
    with pytest.raises(ConfigError):
        params_from_config(cfg)


def test_mu_uses_reference_momentum():
    p = ModelParams(p=0.3, p_star=0.3)
    assert p.mu == pytest.approx((1.0 - 0.3) / 2.0)


def test_config_defaults_match_api_defaults():
    # the config schema repeats every ModelParams default and run_flow's
    # stage cap and tolerance
    cfg = config_defaults()
    from_cfg = params_from_config(cfg)
    default = ModelParams()
    for f in dataclasses.fields(ModelParams):
        assert np.array_equal(getattr(from_cfg, f.name), getattr(default, f.name)), f.name
    flow_args = inspect.signature(run_flow).parameters
    assert flow_args["n_max"].default == cfg["n_flow_max"]
    assert flow_args["tol_factor"].default == cfg["tol_factor"]
