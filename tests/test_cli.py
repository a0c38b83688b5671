import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from dipolerg import cli, feshbach, firststep, rgflow, selfcheck
from dipolerg.cli import main, EXIT_CONFIG, EXIT_FIRST_STEP, EXIT_FLOW, EXIT_VALIDATION
from dipolerg.firststep import FirstStepError
from dipolerg.kernels import polydisc_measure
from dipolerg.model import ModelParams
from helpers import sequence_from_json


@pytest.fixture()
def runner():
    return CliRunner()


def test_config_dump_roundtrips(runner, tmp_path):
    out = runner.invoke(main, ["config-dump"])
    assert out.exit_code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(out.output)
    again = runner.invoke(main, ["config-dump", "--config", str(cfg)])
    assert again.exit_code == 0
    assert again.output == out.output


def test_config_dump_set_override(runner):
    out = runner.invoke(main, ["config-dump", "--set", "lam0=0.03"])
    assert out.exit_code == 0
    assert "lam0 = 0.03" in out.output


def test_set_rejects_an_override_that_is_all_comment(runner, tmp_path):
    out = runner.invoke(main, ["config-dump", "--set", "#lam0=0.5"])
    assert out.exit_code == EXIT_CONFIG
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1 and "'#lam0=0.5'" in out.stderr
    # a config file still skips its comment lines
    cfg = tmp_path / "run.cfg"
    cfg.write_text("#lam0=0.5\nlam0 = 0.03  # trailing comment\n")
    out = runner.invoke(main, ["config-dump", "--config", str(cfg)])
    assert out.exit_code == 0
    assert "lam0 = 0.03" in out.output


def test_bad_config_exit_code(runner):
    out = runner.invoke(main, ["config-dump", "--set", "rho=0.9"])
    assert out.exit_code == EXIT_CONFIG
    out = runner.invoke(main, ["first-step", "--set", "no_such_key=1"])
    assert out.exit_code == EXIT_CONFIG
    out = runner.invoke(main, ["first-step", "--set", "oops"])
    assert out.exit_code == EXIT_CONFIG


def _float_text(low, high, accept=lambda v: True):
    """Texts, in three formats, of floats drawn from [low, high]; the value
    each text rounds to passes `accept`."""
    return st.tuples(st.floats(min_value=low, max_value=high),
                     st.sampled_from(["{!r}", "{:g}", "{:.3e}"])).map(
        lambda vf: vf[1].format(vf[0])).filter(lambda t: accept(float(t)))


_FLOAT_TEXT = _float_text(0.0, 1e3)
# only values every command accepts: config-dump applies the same rules
_SETS = st.one_of(
    st.tuples(st.just("lam0"), _FLOAT_TEXT),
    st.tuples(st.just("tol_factor"), _float_text(0.0, 1e3, lambda v: v > 0.0)),
    st.tuples(st.just("p_sweep_max"), _float_text(0.0, 1.0, lambda v: 0.0 < v < 1.0)),
    st.tuples(st.just("n_flow_max"), st.integers(min_value=2, max_value=10 ** 6).map(str)),
    st.tuples(st.just("p_sweep_points"),
              st.integers(min_value=1, max_value=5 * 10 ** 5 - 1).map(lambda k: str(2 * k + 1))),
    st.tuples(st.just("j_max"), st.integers(min_value=1, max_value=10 ** 6).map(str)),
    st.tuples(st.just("spin_coupling"), st.one_of(
        st.sampled_from(["sigma_x", "sigma_z"]),
        st.tuples(_FLOAT_TEXT, _FLOAT_TEXT).map(lambda ab: f"mix:{ab[0]},{ab[1]}"))),
).map(lambda kv: f"{kv[0]}={kv[1]}")


@settings(max_examples=40, deadline=None)
@given(st.lists(_SETS, min_size=1, max_size=3))
def test_config_dump_set_roundtrip(tmp_path_factory, sets):
    runner = CliRunner()
    args = ["config-dump"] + [a for item in sets for a in ("--set", item)]
    out = runner.invoke(main, args)
    assert out.exit_code == 0, out.output
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text(out.stdout)
    again = runner.invoke(main, ["config-dump", "--config", str(cfg)])
    assert again.exit_code == 0
    assert again.stdout == out.stdout


@pytest.mark.parametrize("args", [
    ["flow", "--set", "lam0=nan"],           # rejected by ModelParams
    ["first-step", "--set", "rho0=0.05"],    # rejected by the first decimation
    ["first-step", "--set", "n_r_uniform=-2"],  # rejected by ModelParams
    ["flow", "--set", "n_z_samples=4"],      # no member at z = 0 for the ledger
    ["oracle", "--set", "dim=3", "--set", "spin_coupling=sigma_z"],  # d=3 couples eps.sigma
    ["config-dump", "--set", "n_l_axis_d3=4"],  # no l = 0 node on the d=3 axes
    ["flow", "--set", "j_max_pair=-1"],      # no mode would carry the pair kernels
])
def test_config_errors_exit_1_with_one_line(runner, args):
    out = runner.invoke(main, args)
    assert out.exit_code == EXIT_CONFIG
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("case", ["output-missing-dir", "output-dir", "config-dir",
                                  "config-not-utf8"])
def test_bad_file_paths_exit_1_with_one_line(runner, monkeypatch, tmp_path, case):
    def no_work(*_a, **_k):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(cli.oracle_mod, "pt2_energy", no_work)
    bad_cfg = tmp_path / "latin1.cfg"
    bad_cfg.write_bytes("lam0 = 0.02  # \xb5\n".encode("latin-1"))
    path, args = {
        "output-missing-dir": (tmp_path / "missing" / "x.csv", ["dispersion", "--method", "pt2"]),
        "output-dir": (tmp_path, ["dispersion", "--method", "pt2"]),
        "config-dir": (tmp_path, ["flow"]),
        "config-not-utf8": (bad_cfg, ["flow"]),
    }[case]
    option = "--output" if case.startswith("output") else "--config"
    out = runner.invoke(main, args + [option, str(path)])
    assert out.exit_code == EXIT_CONFIG
    assert isinstance(out.exception, SystemExit)     # no traceback
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert str(path) in out.stderr


@pytest.mark.parametrize("args", [
    ["flow", "--bogus-flag"],                # unknown option
    ["dispersion", "--method", "bogus"],     # value outside a choice
    ["first-step", "--z", "notafloat"],      # value of the wrong type
    ["no-such-command"],                     # unknown subcommand
    ["--bogus-flag", "flow"],                # unknown top-level option
], ids=["option", "choice", "type", "command", "top-level"])
def test_usage_errors_exit_1_with_usage_text(runner, args):
    # exit 2 would read as a failed first decimation
    out = runner.invoke(main, args)
    assert out.exit_code == EXIT_CONFIG
    assert out.stdout == ""
    assert out.stderr.startswith("Usage: ")
    assert "Error: " in out.stderr


@pytest.mark.parametrize("command", [["flow"], ["dispersion", "--method", "flow"]])
def test_failed_first_decimation_exits_2(runner, monkeypatch, command):
    def fail(params, z, grid=None):
        raise FirstStepError("lower-level gap below its floor")

    monkeypatch.setattr(rgflow, "initial_kernels", fail)
    out = runner.invoke(main, command + ["--set", "j_max=3"])
    assert out.exit_code == EXIT_FIRST_STEP
    assert "first decimation failed" in out.stderr


def test_flow_failure_exits_3(runner):
    # far outside the coupling window the stage map cannot be inverted
    out = runner.invoke(main, ["flow", "--set", "lam0=30", "--set", "j_max=3",
                               "--set", "j_max_pair=2", "--set", "n_z_samples=3"])
    assert out.exit_code == EXIT_FLOW


def test_flow_stage_cap_exit_codes(runner):
    # one stage can never meet the criterion: a configuration error
    out = runner.invoke(main, ["flow", "--set", "n_flow_max=1"])
    assert out.exit_code == EXIT_CONFIG
    # this sigma_z grid needs three stages (see tests/test_rgflow.py)
    sets = ["lam0=0.02", "j_max=5", "j_max_pair=1", "n_z_samples=3", "n_r_uniform=4",
            "n_l_uniform=2", "L_max=2", "spin_coupling=sigma_z", "n_flow_max=2"]
    out = runner.invoke(main, ["flow"] + [a for kv in sets for a in ("--set", kv)])
    assert out.exit_code == EXIT_FLOW
    assert "not Cauchy" in out.output


def test_first_step_json_and_determinism(runner):
    args = ["first-step", "--set", "lam0=0.02", "--set", "j_max=5",
            "--set", "j_max_pair=4"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0
    assert a.output == b.output
    payload = json.loads(a.output)
    assert payload["band_symbol_origin"][0] < 0.0
    assert "ledger" in payload
    assert [0, 0] in payload["kernel_indices"]


def test_first_step_dump_kernels_roundtrips(runner):
    # the dump reloads bitwise, photon axes as short as the first decimation
    # made them, and its ledger is the printed one
    sets = ["lam0=0.004", "j_max=4", "j_max_pair=3"]
    out = runner.invoke(main, ["first-step", "--dump-kernels"]
                        + [a for kv in sets for a in ("--set", kv)])
    assert out.exit_code == 0
    payload = json.loads(out.output)
    params, _ = cli._params(None, sets)
    family = firststep.initial_kernels(params, [0.0])
    loaded = sequence_from_json(json.dumps(payload["kernels"]), family.grid)
    assert sorted(loaded.stacks) == sorted(family.stacks)
    for mn, stack in family.stacks.items():
        assert loaded.stacks[mn].values.shape == stack.values.shape
        assert np.array_equal(loaded.stacks[mn].values, stack.values)
    assert polydisc_measure(loaded).as_dict() == payload["ledger"]


def test_first_step_window_exit(runner):
    out = runner.invoke(main, ["first-step", "--z", "5.0"])
    assert out.exit_code == EXIT_FIRST_STEP


def test_oracle_command(runner):
    out = runner.invoke(main, ["oracle", "--set", "lam0=0.02",
                               "--set", "j_max=5"])
    assert out.exit_code == 0
    payload = json.loads(out.output)
    assert payload["energy"] < 0.0
    assert payload["pt2"] < 0.0


def test_dispersion_pt2_csv(runner, tmp_path):
    dest = tmp_path / "sweep.csv"
    out = runner.invoke(main, ["dispersion", "--method", "pt2",
                               "--set", "lam0=0.02", "--set", "j_max=5",
                               "--set", "p_sweep_points=5",
                               "--output", str(dest)])
    assert out.exit_code == 0
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "p,energy,method"
    assert len(lines) == 6


def test_dispersion_flow_sweep_matches_oracle(runner):
    # each point takes p_star = p: with p_star kept at 0 the first decimation
    # at p = 0.4 misses its lower-level gap and the sweep exits 2
    sets = ["lam0=0.004", "j_max=4", "j_max_pair=3", "n_z_samples=3", "p_sweep_points=3"]
    args = [a for kv in sets for a in ("--set", kv)]
    rows = {}
    for method in ("flow", "oracle"):
        out = runner.invoke(main, ["dispersion", "--method", method] + args)
        assert out.exit_code == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "p,energy,method"
        rows[method] = [[float(x) for x in line.split(",")[:2]] for line in lines[1:]]
    assert len(rows["flow"]) == 3
    for (p_flow, e_flow), (p_oracle, e_oracle) in zip(rows["flow"], rows["oracle"]):
        assert p_flow == p_oracle
        assert abs(e_flow - e_oracle) <= 1e-3 * abs(e_oracle)


def test_dispersion_rejects_even_sweep(runner):
    out = runner.invoke(main, ["dispersion", "--method", "pt2",
                               "--set", "p_sweep_points=4"])
    assert out.exit_code == EXIT_CONFIG


def test_dispersion_rejects_configured_p_star(runner):
    # every sweep point sets p_star = p, so a configured value would be ignored
    out = runner.invoke(main, ["dispersion", "--method", "pt2", "--set", "p_star=0.1"])
    assert out.exit_code == EXIT_CONFIG
    assert "p_star" in out.stderr


def test_validate_pass_and_fail(runner):
    args = ["validate", "--set", "lam0=0.02", "--set", "j_max=5",
            "--set", "j_max_pair=4", "--set", "n_z_samples=5"]
    out = runner.invoke(main, args)
    assert out.exit_code == 0
    payload = json.loads(out.output)
    assert payload["pass"] is True
    # the ground state at the flow energy; the same bound perfbench checks
    assert payload["ground_state_residual"] <= 1e-5
    out = runner.invoke(main, args + ["--rel-tol", "1e-12", "--abs-tol", "1e-15"])
    assert out.exit_code == EXIT_VALIDATION
    assert json.loads(out.output)["ground_state_residual"] <= 1e-5


def test_failed_ground_state_reconstruction_exits_3(runner, monkeypatch):
    def fail(H, chi, v):
        raise feshbach.DecimationError("off-band block is singular")

    monkeypatch.setattr(feshbach, "back_transport", fail)
    out = runner.invoke(main, ["validate", "--set", "lam0=0.004", "--set", "j_max=4",
                               "--set", "j_max_pair=3", "--set", "n_z_samples=3"])
    assert out.exit_code == EXIT_FLOW
    assert isinstance(out.exception, SystemExit)     # no traceback
    assert out.stdout == ""
    assert out.stderr == ("error: ground state reconstruction failed: "
                          "off-band block is singular\n")


@pytest.mark.parametrize("args", [
    ["validate", "--rel-tol", "nan"],
    ["validate", "--abs-tol", "nan"],
    ["validate", "--rel-tol", "-1e-3"],
    ["wick-check", "--tol", "nan"],
    ["wick-check", "--tol", "inf"],
    ["first-step", "--z", "nan"],
    ["flow", "--set", "tol_factor=nan"],
    ["validate", "--set", "tol_factor=0"],
    ["flow", "--set", "tol_factor=inf"],
    ["dispersion", "--method", "pt2", "--set", "p_sweep_max=inf"],
] + [[command, "--set", kv] for kv, working in [
    ("tol_factor=0", "flow"),
    ("p_sweep_max=0", "dispersion"),
    ("p_sweep_max=-0.2", "dispersion"),
    ("p_sweep_max=1.0", "dispersion"),
    ("p_sweep_points=4", "dispersion"),
    ("n_flow_max=1", "flow"),
] for command in ("config-dump", working)])
def test_non_finite_or_negative_values_exit_1_before_any_work(runner, monkeypatch, args):
    def no_work(*_a, **_k):
        raise AssertionError("the command ran before rejecting its option")

    monkeypatch.setattr(cli, "run_flow", no_work)
    monkeypatch.setattr(selfcheck, "wick_reassembly_defect", no_work)
    monkeypatch.setattr(firststep, "TwoLevelResolventData", no_work)
    out = runner.invoke(main, args)
    assert out.exit_code == EXIT_CONFIG
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    if "--set" in args:
        assert out.stderr.startswith(f"error: {args[-1].split('=')[0]} ")


def test_wick_check_exit_follows_printed_pass(runner, monkeypatch):
    monkeypatch.setattr(selfcheck, "wick_reassembly_defect", lambda params: float("nan"))
    out = runner.invoke(main, ["wick-check"])
    assert '"pass": false' in out.stdout
    assert out.exit_code == EXIT_VALIDATION


def test_wick_check_command(runner):
    out = runner.invoke(main, ["wick-check"])
    assert out.exit_code == 0
    payload = json.loads(out.output)
    assert payload["pass"] is True
    assert payload["defect"] < 1e-11


def test_wick_check_reads_the_configured_depth(runner):
    out = runner.invoke(main, ["wick-check", "--set", "L_max=2"])
    assert out.exit_code == 0
    defect = json.loads(out.output)["defect"]
    assert defect == selfcheck.wick_reassembly_defect(ModelParams(L_max=2))
    assert defect != selfcheck.wick_reassembly_defect()


def test_lambda_critical_command(runner):
    out = runner.invoke(main, ["lambda-critical", "--set", "j_max=5",
                               "--set", "j_max_pair=4"])
    assert out.exit_code == 0
    lam = json.loads(out.output)["lambda_critical"]
    assert 0.02 < lam < 0.08
