"""Command-line interface.

Plain key=value configuration files, deterministic output, and exit codes
that scripts can branch on: 0 success, 1 configuration or usage error, 2
first decimation failure, 3 flow failure, 4 validation failure.  Codes 1-3
follow the type of the exception that ended the command (see _ExitCodes).
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from .model import (ModelParams, ConfigError, parse_config_text, config_defaults,
                    config_dump_text, apply_config_line)
from .kernels import polydisc_measure, sequence_to_json
from .firststep import initial_kernels, FirstStepError, lambda_critical_estimate
from .rgflow import run_flow, FlowError, extract_alpha_beta, ground_state
from . import oracle as oracle_mod

EXIT_CONFIG = 1
EXIT_FIRST_STEP = 2
EXIT_FLOW = 3
EXIT_VALIDATION = 4


def _params(config_path, sets) -> tuple[ModelParams, dict]:
    """The config of --config and the --set overrides, checked, and its
    ModelParams."""
    cfg = config_defaults()
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            why = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror
            raise ConfigError(f"cannot read config {config_path}: {why}") from exc
        cfg = parse_config_text(text)
    for item in sets:
        if "=" not in item.split("#", 1)[0]:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        apply_config_line(cfg, item, "--set")
    return ModelParams(**cfg), cfg


def _tolerance(ctx, param, value: float) -> float:
    # a NaN tolerance fails every comparison and prints as bare NaN, not JSON
    if not 0.0 <= value < np.inf:
        raise ConfigError(f"{param.opts[0]} must be finite and >= 0, got {value}")
    return value


def _output_path(ctx, param, value):
    # checked before the sweep, which can take minutes
    folder = os.path.dirname(os.path.abspath(value or "."))
    if value is not None and (os.path.isdir(value) or not os.path.isdir(folder)
                              or not os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write --output {value}")
    return value


class _ExitCodes(click.Group):
    """Maps the exception that ends a command to its exit code.

    A click usage error is a configuration error, printed by click with its
    usage text; any other message goes to stderr as one line.  A FlowError
    caused by a FirstStepError is a first decimation failure.
    """

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CONFIG
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CONFIG
            raise
        except (ConfigError, FirstStepError, FlowError) as exc:
            if isinstance(exc, ConfigError):
                code = EXIT_CONFIG
            elif isinstance(exc, FirstStepError) or isinstance(exc.__cause__, FirstStepError):
                code = EXIT_FIRST_STEP
            else:
                code = EXIT_FLOW
            click.echo(f"error: {exc}", err=True)
            sys.exit(code)


def with_common(f):
    """Give a command the --config and --set options."""
    f = click.option("--set", "sets", multiple=True, metavar="KEY=VALUE",
                     help="override one configuration key")(f)
    return click.option("--config", "config_path", type=click.Path(exists=True),
                        default=None, help="key=value configuration file")(f)


@click.group(cls=_ExitCodes)
def main():
    """Dispersion of a field-coupled dipole by spectral renormalization."""


@main.command("config-dump")
@with_common
def config_dump(config_path, sets):
    """Print the effective configuration with documentation."""
    _, cfg = _params(config_path, sets)
    click.echo(config_dump_text(cfg), nl=False)


@main.command("first-step")
@with_common
@click.option("--z", "z_value", type=float, default=0.0,
              help="rescaled spectral parameter")
@click.option("--dump-kernels", is_flag=True, help="emit the full kernel arrays")
def first_step(config_path, sets, z_value, dump_kernels):
    """Run the first decimation and report its summary."""
    params, _ = _params(config_path, sets)
    family = initial_kernels(params, [z_value])
    (origin,) = family.w00_origins()
    payload = {
        "z": z_value,
        "kernel_indices": [list(mn) for mn in sorted(family.stacks)],
        "band_symbol_origin": [origin.real, origin.imag],
        "series_ratio": family.metas[0]["series_ratio"],
        "ledger": polydisc_measure(family).as_dict(),
    }
    if dump_kernels:
        payload["kernels"] = json.loads(sequence_to_json(family))
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


@main.command("flow")
@with_common
def flow_cmd(config_path, sets):
    """Run the full flow at the configured momentum; print the energy."""
    params, _ = _params(config_path, sets)
    res = run_flow(params)
    alpha, beta = extract_alpha_beta(res.final_family[len(res.z_nodes) // 2])
    payload = {
        "energy": res.energy,
        "stages": res.stages,
        "energy_chain": [complex(e).real for e in res.e_chain],
        "series_ratios": res.series_ratios,
        "eps_ledger": [l.eps for l in res.ledgers],
        "delta_ledger": [l.delta for l in res.ledgers],
        "gamma_ledger": [l.gamma for l in res.ledgers],
        "alpha": alpha,
        "beta": list(beta),
    }
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


@main.command("oracle")
@with_common
def oracle_cmd(config_path, sets):
    """Ground energy by direct diagonalization, with the perturbative value."""
    params, _ = _params(config_path, sets)
    e = oracle_mod.ground_energy(params)
    payload = {"energy": e, "pt2": oracle_mod.pt2_energy(params)}
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


@main.command("dispersion")
@with_common
@click.option("--method", type=click.Choice(["flow", "oracle", "pt2"]),
              default="flow")
@click.option("--output", type=click.Path(), default=None, callback=_output_path,
              help="write CSV here instead of stdout")
def dispersion(config_path, sets, method, output):
    """Sweep the conserved momentum as a CSV table; each point sets p_star = p,
    so a configured p_star is rejected."""
    params, cfg = _params(config_path, sets)
    if cfg["p_star"] != config_defaults()["p_star"]:
        raise ConfigError("dispersion sets p_star = p at each sweep point; remove p_star")
    pmax = params.p_sweep_max * params.m
    p_values = np.linspace(-pmax, pmax, params.p_sweep_points)
    energy = {"oracle": oracle_mod.ground_energy,
              "pt2": oracle_mod.pt2_energy,
              "flow": lambda pp: run_flow(pp).energy}[method]
    energies = [energy(params.with_updates(p=pv, p_star=pv)) for pv in p_values]
    text = oracle_mod.sweep_to_csv(p_values, energies, method)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command("validate")
@with_common
@click.option("--rel-tol", type=float, default=1e-3, callback=_tolerance)
@click.option("--abs-tol", type=float, default=1e-8, callback=_tolerance)
def validate(config_path, sets, rel_tol, abs_tol):
    """Compare the flow against direct diagonalization at one momentum, and
    report the residual of the ground state reconstructed at the flow
    energy (reported, not judged)."""
    params, _ = _params(config_path, sets)
    e_flow = run_flow(params).energy
    e_oracle = oracle_mod.ground_energy(params)
    diff = abs(e_flow - e_oracle)
    tol = max(rel_tol * abs(e_oracle), abs_tol * params.m)
    payload = {"energy_flow": e_flow, "energy_oracle": e_oracle,
               "difference": diff, "tolerance": tol, "pass": bool(diff <= tol),
               "ground_state_residual": ground_state(params, e_flow)[1]}
    click.echo(json.dumps(payload, sort_keys=True, indent=2))
    if not payload["pass"]:
        sys.exit(EXIT_VALIDATION)


@main.command("wick-check")
@with_common
@click.option("--tol", type=float, default=1e-11, callback=_tolerance)
def wick_check(config_path, sets, tol):
    """Operator-identity self-test of the contraction machinery."""
    params, _ = _params(config_path, sets)
    from .selfcheck import wick_reassembly_defect
    defect = wick_reassembly_defect(params)
    payload = {"defect": defect, "tolerance": tol, "pass": bool(defect <= tol)}
    click.echo(json.dumps(payload, sort_keys=True, indent=2))
    if not payload["pass"]:
        sys.exit(EXIT_VALIDATION)


@main.command("lambda-critical")
@with_common
def lambda_critical(config_path, sets):
    """Estimate the largest admissible coupling for the configured model."""
    params, _ = _params(config_path, sets)
    lam = lambda_critical_estimate(params)
    click.echo(json.dumps({"lambda_critical": lam}, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
