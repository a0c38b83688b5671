"""Fixed-workload benchmark of dipolerg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  One
process runs one workload in a closed loop (one caller, one operation at a
time) for at least S seconds and for at least one pass over the seeded
configurations, checks every output, and prints a report whose last line
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, measured with
tracing off; operation and set-up times are scaled to a fixed host speed
measured by the reference kernel in yardstick.py.  With --trace 1 each
operation runs twice, untraced and then traced, and the metrics are the per-layer metrics taken from the spans of
the traced runs (see spans.py); their spans are written to
.perfbench/spans-WORKLOAD.tsv.  --grid tiny shrinks every grid for a smoke
test.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def cap_blas_threads() -> int:
    """Run BLAS on one thread; returns the cap.

    The benchmark is one closed-loop caller; on a host that lends it a few
    shared CPUs, a BLAS thread per CPU makes its times depend on how the
    host schedules those threads.
    """
    cap = 1
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child(*args: str, timeout: float) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{proc.stderr.strip()}")
    return proc.stdout


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("flow_sigx", "flow_sigz", "matrix_ref"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", choices=("bench", "tiny"), default="bench")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dipolerg" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'dipolerg'}; run from the root "
              "of a dipolerg checkout", file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    from yardstick import Yardstick, scaled
    yardstick = Yardstick()
    try:
        # each probe is scaled by the reference kernel timed around it
        probes, raw_probes = [], []
        slice_before = yardstick.slice_time()
        for _ in range(SETUP_PROBES):
            raw_probes.append(float(child("setup", args.workload, args.grid, timeout=60)))
            slice_after = yardstick.slice_time()
            probes.append(scaled(raw_probes[-1], 0.5 * (slice_before + slice_after)))
            slice_before = slice_after
        refs = json.loads(child("refs", args.workload, str(args.seed), args.grid,
                                timeout=120))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    import numpy as np
    import scipy
    import workloads as wl
    from spans import Tracer
    from metrics import END_TO_END, PER_LAYER, per_layer

    configs = wl.draw_configs(args.workload, args.seed)
    params = [wl.make_params(args.workload, c, args.grid) for c in configs]
    tracer = Tracer() if args.trace else None
    clock = time.perf_counter

    def run_one(k: int, sampled: bool) -> dict:
        """One operation; a sampled one is timed and scaled by the yardstick."""
        op = {"config": k}
        t0 = clock()
        try:
            if "error" in refs[k]:
                raise wl.FlowError(f"reference failed: {refs[k]['error']}")
            call = functools.partial(wl.run_op, args.workload, params[k], refs[k])
            if sampled:
                op["out"], op["wall_s"], op["norm_s"] = yardstick.run(call)
            else:
                op["out"] = call()
        except (wl.FlowError, wl.FirstStepError) as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
        op.setdefault("wall_s", clock() - t0)
        return op

    ops, traced = [], []
    t_begin = clock()
    i = 0
    while i < len(configs) or clock() - t_begin < args.seconds:
        k = i % len(configs)
        ops.append(run_one(k, sampled=tracer is None))
        if tracer is not None:
            tracer.op_id = i
            a = len(tracer)
            with tracer:
                op = run_one(k, sampled=False)
            op.update(span_range=(a, len(tracer)),
                      untraced_wall_s=ops[-1]["wall_s"])
            traced.append(op)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ----- checks
    stored = json.loads((HERE / "reference_values.json").read_text())
    failed, errs, drifts, lines = 0, [], {}, []
    energy_log = []
    for n, op in enumerate(ops + traced):
        k = op["config"]
        if "error" in op:
            failed += 1
            lines.append(f"op {n} config {k}: FAILED {op['error']}")
            continue
        checks, err = wl.check_op(args.workload, op["out"], refs[k])
        errs.append(err)
        bad = [c for c in checks if not c[3]]
        if bad:
            failed += 1
            lines.append(f"op {n} config {k}: FAILED " + ", ".join(
                f"{name}={v:.3e} (limit {lim:g})" for name, v, lim, _ in bad))
        key = wl.config_key(args.workload, configs[k], args.grid)
        for role, e in wl.energies(args.workload, op["out"]).items():
            energy_log.append({"config": key, "role": role, "energy": e})
            ref_e = stored.get(f"{key}|{role}")
            if ref_e is not None:
                drifts[role] = max(drifts.get(role, 0.0), abs(e - ref_e) / abs(ref_e))
    attempted = len(ops) + len(traced)
    correct = failed == 0

    env = {"git_sha": git_sha(ROOT), "python": sys.version.split()[0],
           "numpy": np.__version__, "scipy": scipy.__version__,
           "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_cap}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"energies-{args.workload}-{args.seed}-{args.grid}.json").write_text(
        json.dumps({"env": env, "energies": energy_log}, indent=1))

    # ----- report
    print(f"workload {args.workload}  seed {args.seed}  grid {args.grid}  "
          f"trace {args.trace}  closed loop, 1 caller")
    print("env " + json.dumps(env))
    for k, c in enumerate(configs):
        print(f"config {k}: lam_factor={c['lam_factor']:.6f} p=p_star={c['p']}")
    for line in lines:
        print(line)
    walls = [op["wall_s"] for op in ops]
    print(f"operations: {len(ops)} untraced, {len(traced)} traced; "
          f"wall_s median {statistics.median(walls):.4f} "
          f"min {min(walls):.4f} max {max(walls):.4f}")
    norms: dict[int, list] = {}
    for op in ops:
        if "norm_s" in op:
            norms.setdefault(op["config"], []).append(op["norm_s"])
    # the configurations differ in cost and a run may stop part way through
    # a pass over them, so each configuration's median counts once
    wall_norm_s = statistics.fmean(statistics.median(v) for v in norms.values()) if norms else 0.0
    for k, v in sorted(norms.items()):
        print(f"config {k}: wall_norm_s median {statistics.median(v):.4f} "
              f"min {min(v):.4f} max {max(v):.4f} over {len(v)} operations")
    print(f"setup probes: {len(probes)}; unscaled median {statistics.median(raw_probes):.4f} "
          f"min {min(raw_probes):.4f} max {max(raw_probes):.4f}; setup_s median "
          f"{statistics.median(probes):.4f} min {min(probes):.4f} max {max(probes):.4f}")
    print(f"failed_share {failed / attempted:.6g} ({failed}/{attempted})")
    if drifts:
        print("drift from stored energies (diagnostic): " + ", ".join(
            f"{role} {d:.3e}" for role, d in sorted(drifts.items())))
    else:
        print("drift from stored energies (diagnostic): none stored for these configurations")

    if not errs:
        metrics = {}
    elif tracer is None:
        values = {"wall_norm_s": wall_norm_s, "setup_s": statistics.median(probes),
                  "peak_rss_mb": peak_rss_mb, "energy_err_rel": max(errs)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _what in END_TO_END}
    else:
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv")
        metrics = per_layer(traced, tracer)
        print(f"tracing overhead {metrics['trace.overhead_s']['value']:+.4f} s per operation "
              f"(traced {metrics['trace.wall_s']['value']:.4f} s vs untraced, paired); "
              f"layer self times cover {metrics['trace.coverage']['value']:.1%} of traced wall_s")
        for name, unit, _source, moves in PER_LAYER:
            print(f"  {name:48s} {metrics[name]['value']:<12.6g} {unit:6s} moves {moves}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
