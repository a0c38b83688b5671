"""Metric tables: what each run reports, and what each layer metric predicts.

End-to-end metrics come from untraced operations (`--trace 0`); per-layer
metrics come from spans of traced operations (`--trace 1`).  Each
per-layer metric is a median over the traced operations of a run.  Layer
times are reported as shares of the traced operation's wall time, because
a shared machine's speed drifts between runs and a share mostly cancels
the drift; `trace.wall_s` gives the scale.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, op_summary

END_TO_END = (
    ("wall_norm_s", "s", "wall time of one operation scaled to the reference host speed, tracing off: "
                         "mean over configurations of the median over their operations"),
    ("setup_s", "s", "import dipolerg + ModelParams + KernelGrid + FockBasis, median of probes"),
    ("peak_rss_mb", "MB", "peak resident set size of the measuring process"),
    ("energy_err_rel", "share", "largest |E - E_ref| / |E_ref| against oracle references"),
)

# (metric, unit, source, expectation); a source is a tuple read by _value:
#   ("fn", span, field)            field of every span with that name
#   ("caller", span, layer, field) the same, for spans called from `layer`
#   ("zero", span, "share"|"time") share of calls (or of their time) whose
#                                  result was all zero
#   ("tag_max", span)              largest tag value (basis dimension)
#   ("layer", layer)               self time of all spans of a layer
# A time read from "fn", "caller" or "layer" is divided by the operation's
# wall time; its metric has the unit "share".
#   ("out", key)                   an output of the operation
#   ("run", key)                   computed over the whole run
FIRST = "wall_norm_s on flow_sigx"
STAGE = "wall_norm_s on flow_sigz, about a fifth of it on flow_sigx"
FLOWS = "wall_norm_s on flow_sigx and flow_sigz"
MATRIX = "wall_norm_s on matrix_ref, nothing on the flow workloads"
PER_LAYER = (
    ("firststep.initial_kernels.calls", "count", ("fn", "firststep.initial_kernels", "calls"), FIRST),
    ("firststep.initial_kernels.time_share", "share", ("fn", "firststep.initial_kernels", "time_s"), FIRST),
    ("firststep.initial_kernels.self_share", "share", ("fn", "firststep.initial_kernels", "self_s"), FIRST),
    ("firststep.initial_kernels.per_call_share", "share", ("fn", "firststep.initial_kernels", "per_call_s"), FIRST),
    *[(f"wick.assemble_target.{caller}.{metric}", unit,
       ("caller", "wick.assemble_target", caller, field),
       "wall_norm_s on matrix_ref" if caller == "selfcheck" else FLOWS)
      for caller in ("firststep", "rgflow", "selfcheck")
      for metric, unit, field in (("calls", "count", "calls"),
                                  ("time_share", "share", "time_s"),
                                  ("self_share", "share", "self_s"))],
    ("wick.assemble_target.zero_share", "share", ("zero", "wick.assemble_target", "share"), FLOWS),
    ("wick.assemble_target.zero_time_share", "share", ("zero", "wick.assemble_target", "time"), FLOWS),
    ("wick.pull_shifts.calls", "count", ("fn", "wick.pull_shifts", "calls"), FLOWS),
    ("rgflow.renormalize.calls", "count", ("fn", "rgflow.renormalize", "calls"), STAGE),
    ("rgflow.renormalize.time_share", "share", ("fn", "rgflow.renormalize", "time_s"), STAGE),
    ("rgflow.renormalize.self_share", "share", ("fn", "rgflow.renormalize", "self_s"), STAGE),
    ("rgflow.interpolate_family.time_share", "share", ("fn", "rgflow.interpolate_family", "time_s"), STAGE),
    ("rgflow.stages", "count", ("out", "stages"), STAGE),
    ("rgflow.StageMap.inverse.calls", "count", ("fn", "rgflow.StageMap.inverse", "calls"), STAGE),
    ("kernels.interp_product.calls", "count", ("fn", "kernels.interp_product", "calls"), STAGE),
    ("kernels.interp_product.time_share", "share", ("fn", "kernels.interp_product", "time_s"), STAGE),
    ("oracle.ground_energy.calls", "count", ("fn", "oracle.ground_energy", "calls"), MATRIX),
    ("oracle.ground_energy.self_share", "share", ("fn", "oracle.ground_energy", "self_s"), MATRIX),
    ("oracle.build_fiber_hamiltonian.time_share", "share", ("fn", "oracle.build_fiber_hamiltonian", "time_s"), MATRIX),
    ("fockspace.FockBasis.time_share", "share", ("fn", "fockspace.FockBasis", "time_s"), MATRIX),
    ("fockspace.basis_dim", "count", ("tag_max", "fockspace.FockBasis"), MATRIX),
    ("fockspace.ladder.calls", "count", ("fn", "fockspace.ladder", "calls"), MATRIX),
    ("fockspace.ladder.time_share", "share", ("fn", "fockspace.ladder", "time_s"), MATRIX),
    ("feshbach.feshbach_map.calls", "count", ("fn", "feshbach.feshbach_map", "calls"), "wall_norm_s on matrix_ref"),
    ("feshbach.feshbach_map.time_share", "share", ("fn", "feshbach.feshbach_map", "time_s"), "wall_norm_s on matrix_ref"),
    ("rgflow.ground_state.time_share", "share", ("fn", "rgflow.ground_state", "time_s"), "wall_norm_s on matrix_ref"),
    ("kernels.assemble_operator.calls", "count", ("fn", "kernels.assemble_operator", "calls"), "wall_norm_s on matrix_ref"),
    ("kernels.assemble_operator.time_share", "share", ("fn", "kernels.assemble_operator", "time_s"), "wall_norm_s on matrix_ref"),
    ("selfcheck.wick_reassembly_defect.time_share", "share", ("fn", "selfcheck.wick_reassembly_defect", "time_s"), "wall_norm_s on matrix_ref"),
    ("kernels.KernelGrid.time_share", "share", ("fn", "kernels.KernelGrid", "time_s"), "setup_s on every workload"),
    ("kernels.polydisc_measure.time_share", "share", ("fn", "kernels.polydisc_measure", "time_s"), FLOWS),
    *[(f"layer.{layer}.self_share", "share", ("layer", layer), "wall_norm_s on the workloads that call it")
      for layer in LAYERS],
    ("trace.wall_s", "s", ("run", "traced_wall_s"), "tracing overhead: compare with the untraced wall_s of the report"),
    ("trace.overhead_s", "s", ("run", "overhead_s"), "traced minus untraced wall_s, paired operations"),
    ("trace.coverage", "share", ("run", "coverage"), "layer self times over traced wall_s; should stay >= 0.9"),
)

HIGHER_IS_BETTER = {"trace.coverage"}


def better(metric: str) -> str:
    return "higher" if metric in HIGHER_IS_BETTER else "lower"


def _value(source: tuple, summary: dict, out: dict) -> float:
    kind = source[0]
    empty = {"calls": 0, "time_s": 0.0, "self_s": 0.0, "tags": [], "tag_time": 0.0}
    if kind == "fn" or kind == "caller":
        rec = (summary["names"].get(source[1], empty) if kind == "fn"
               else summary["callers"].get((source[1], source[2]), empty))
        field = source[-1]
        if field == "per_call_s":
            return rec["time_s"] / rec["calls"] if rec["calls"] else 0.0
        return float(rec[field])
    if kind == "zero":
        rec = summary["names"].get(source[1], empty)
        if source[2] == "share":
            return sum(1 for t in rec["tags"] if t) / rec["calls"] if rec["calls"] else 0.0
        return rec["tag_time"] / rec["time_s"] if rec["time_s"] > 0.0 else 0.0
    if kind == "tag_max":
        return float(max(summary["names"].get(source[1], empty)["tags"], default=0))
    if kind == "layer":
        return summary["layers"][source[1]]
    if kind == "out":
        return float(out.get(source[1], 0))
    raise ValueError(f"unknown metric source {source!r}")


def per_layer(traced_ops: list[dict], tracer) -> dict:
    """Per-layer metrics from the spans of traced operations.

    traced_ops: [{"span_range", "wall_s", "untraced_wall_s", "out"}], where
    span_range (a, b) selects the operation's spans in the tracer;
    operations that failed carry no "out" and are left out.
    """
    done = [op for op in traced_ops if "out" in op]
    values: dict[str, list] = {}
    coverage = []
    for op in done:
        summary = op_summary(tracer.spans(*op["span_range"]))
        for name, unit, source, _why in PER_LAYER:
            if source[0] != "run":
                v = _value(source, summary, op["out"])
                if unit == "share" and source[0] in ("fn", "caller", "layer"):
                    v /= op["wall_s"]
                values.setdefault(name, []).append(v)
        coverage.append(sum(summary["layers"].values()) / op["wall_s"])
    run = {
        "traced_wall_s": statistics.median(op["wall_s"] for op in done),
        "overhead_s": statistics.median(op["wall_s"] - op["untraced_wall_s"] for op in done),
        "coverage": statistics.median(coverage),
    }
    result = {}
    for name, unit, source, _why in PER_LAYER:
        v = run[source[1]] if source[0] == "run" else statistics.median(values[name])
        result[name] = {"value": v, "unit": unit}
    return result

