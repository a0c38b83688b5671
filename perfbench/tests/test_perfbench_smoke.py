"""Tiny-grid smoke runs of the benchmark command.

Each run must pass its output checks and emit every metric named in
BENCHMARK.json, with the unit declared there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--grid", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_metric_tables():
    from metrics import END_TO_END, PER_LAYER, better
    assert [m["name"] for m in SPEC["end_to_end"]] == [m[0] for m in END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [m[:2] for m in END_TO_END]
    assert SPEC["per_layer"] == [{"name": n, "unit": u, "better": better(n)}
                                 for n, u, _src, _why in PER_LAYER]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "flow_sigx", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
