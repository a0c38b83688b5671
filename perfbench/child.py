"""Helper processes of the benchmark, started by run.py.

    python3 perfbench/child.py setup WORKLOAD GRID
        prints the set-up time in seconds: importing dipolerg, then building
        the workload's ModelParams, KernelGrid and FockBasis
    python3 perfbench/child.py refs WORKLOAD SEED GRID
        prints a JSON list with the references of each seeded configuration

Both run in their own process so that neither the import cache nor the
memory of the references leaks into the measuring process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def setup_seconds(workload: str, grid: str) -> float:
    t0 = time.perf_counter()
    import dipolerg.rgflow, dipolerg.oracle, dipolerg.selfcheck  # noqa: E401,F401
    from dipolerg.kernels import KernelGrid
    from dipolerg.fockspace import FockBasis
    from workloads import setup_params
    params = setup_params(workload, grid)
    kgrid = KernelGrid(params)
    FockBasis(kgrid.modes, params.N_max)
    return time.perf_counter() - t0


def reference_list(workload: str, seed: int, grid: str) -> list[dict]:
    from workloads import draw_configs, references, config_key
    cache: dict[str, dict] = {}
    out = []
    for cfg in draw_configs(workload, seed):
        key = config_key(workload, cfg, grid)
        if key not in cache:
            cache[key] = references(workload, cfg, grid)
        out.append(cache[key])
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        print(repr(setup_seconds(argv[1], argv[2])))
        return 0
    if len(argv) == 4 and argv[0] == "refs":
        print(json.dumps(reference_list(argv[1], int(argv[2]), argv[3])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
