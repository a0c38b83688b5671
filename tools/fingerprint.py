"""Fingerprint the program's outputs: one sha256 per configuration.

    python tools/fingerprint.py

It takes no options and imports the package from the `src/` beside this
folder, so a copy of the file placed in another checkout fingerprints
that checkout.  Each line is `<sha256>  <name>`; two trees whose outputs
agree bit for bit print the same lines, so a refactor that must not move
a number is checked by diffing the output of the two trees.

Covered: what `run_flow` returns (energy, energy chain, stages, ledgers,
series ratios, z nodes, final stacks and metas) and the oracle energy on
a fixed list of grids, the Wick self-check defect at chain depths 2, 3
(the default) and 4, and the stdout of five CLI commands on a small
grid.  Values are pickled with a fixed protocol, so hashes compare across
trees on one numpy and Python version.  The final stacks enter as each
member's `sequence_to_json` dump, whose order of values is fixed whatever
order `Kernel.values` stores them in, so trees that store kernels in
different layouts still compare.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402

from dipolerg import oracle  # noqa: E402
from dipolerg.cli import main as cli_main  # noqa: E402
from dipolerg.kernels import sequence_to_json  # noqa: E402
from dipolerg.model import ModelParams  # noqa: E402
from dipolerg.rgflow import run_flow  # noqa: E402
from dipolerg.selfcheck import wick_reassembly_defect  # noqa: E402

GRIDS = {
    "flow_sigx": dict(lam0=0.004, j_max=4, j_max_pair=4, n_z_samples=9),
    "flow_sigz": dict(lam0=0.02, j_max=4, j_max_pair=3, n_z_samples=3,
                      spin_coupling="sigma_z"),
    "mix": dict(lam0=0.02, j_max=5, j_max_pair=4, n_z_samples=5,
                spin_coupling="mix:0.6,0.8"),
    "d3": dict(lam0=0.004, dim=3, j_max=3, j_max_pair=2, N_max=2, n_z_samples=3),
    "default": dict(lam0=0.004),
    # the one grid found where a nonzero target has no member-dependent
    # contribution: sigma_z's first-step (1,0)/(0,1) targets at L_max=2
    "sigz_L2": dict(lam0=0.02, j_max=4, j_max_pair=3, n_z_samples=3, L_max=2,
                    spin_coupling="sigma_z"),
    # the reduced chain-depth-4 grids
    "sigx_L4": dict(lam0=0.004, j_max=5, j_max_pair=4, n_z_samples=5, L_max=4),
    "sigz_L4": dict(lam0=0.02, j_max=4, j_max_pair=3, n_z_samples=5, L_max=4,
                    spin_coupling="sigma_z"),
}

# besides the default depth 3
WICK_DEPTHS = (2, 4)

CLI_SETS = ["lam0=0.004", "j_max=4", "j_max_pair=3", "n_z_samples=3", "p_sweep_points=3"]
CLI_COMMANDS = {
    "flow": ["flow"],
    "validate": ["validate"],
    "oracle": ["oracle"],
    "dispersion-pt2": ["dispersion", "--method", "pt2"],
    "first-step-dump": ["first-step", "--dump-kernels"],
}


def _sha(obj) -> str:
    data = obj if isinstance(obj, bytes) else pickle.dumps(obj, protocol=4)
    return hashlib.sha256(data).hexdigest()


def _flow_outputs(params: ModelParams):
    res = run_flow(params)
    family = res.final_family
    return (res.energy, res.e_chain, res.stages,
            [ledger.as_dict() for ledger in res.ledgers], res.series_ratios,
            res.z_nodes, [sequence_to_json(family[k]) for k in range(len(family))],
            family.metas)


def main() -> None:
    for name, kw in GRIDS.items():
        params = ModelParams(**kw)
        print(f"{_sha(_flow_outputs(params))}  run_flow {name}")
        print(f"{_sha(oracle.ground_energy(params))}  oracle {name}")
    print(f"{_sha(wick_reassembly_defect())}  wick_reassembly_defect")
    for depth in WICK_DEPTHS:
        defect = wick_reassembly_defect(ModelParams(L_max=depth))
        print(f"{_sha(defect)}  wick_reassembly_defect L_max={depth}")
    runner = CliRunner()
    sets = [a for kv in CLI_SETS for a in ("--set", kv)]
    for name, args in CLI_COMMANDS.items():
        out = runner.invoke(cli_main, args + sets)
        print(f"{_sha(out.stdout.encode())}  cli {name} (exit {out.exit_code})")


if __name__ == "__main__":
    main()
