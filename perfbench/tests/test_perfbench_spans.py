"""Self-time arithmetic of the span tracer, on synthetic span trees."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import op_summary, self_times  # noqa: E402


def span(name, start, end, parent=-1, tag=None):
    return (name, start, end, parent, 0, tag)


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    spans = [span("rgflow.run_flow", 0.0, 10.0),
             span("firststep.initial_kernels", 1.0, 3.0, 0),
             span("rgflow.renormalize", 4.0, 8.0, 0),
             span("wick.assemble_target", 5.0, 6.0, 2)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_and_merges_children():
    # overlapping children count once; a child poking out is clipped
    spans = [span("a.f", 0.0, 10.0),
             span("b.g", 2.0, 5.0, 0),
             span("b.h", 4.0, 7.0, 0),
             span("b.k", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_op_summary_totals_and_callers():
    spans = [span("rgflow.run_flow", 0.0, 10.0),
             span("firststep.initial_kernels", 0.0, 4.0, 0),
             span("wick.assemble_target", 0.5, 1.5, 1, tag=True),
             span("wick.assemble_target", 2.0, 4.0, 1, tag=False),
             span("rgflow.renormalize", 5.0, 9.0, 0),
             span("wick.assemble_target", 5.0, 8.0, 4, tag=False)]
    s = op_summary(spans)
    wick = s["names"]["wick.assemble_target"]
    assert wick["calls"] == 3
    assert wick["time_s"] == pytest.approx(6.0)
    assert wick["tag_time"] == pytest.approx(1.0)
    assert s["callers"][("wick.assemble_target", "firststep")]["calls"] == 2
    assert s["callers"][("wick.assemble_target", "rgflow")]["time_s"] == pytest.approx(3.0)
    assert s["layers"]["rgflow"] == pytest.approx(2.0 + 1.0)
    assert s["layers"]["firststep"] == pytest.approx(1.0)
    assert s["layers"]["wick"] == pytest.approx(6.0)
    assert sum(s["layers"].values()) == pytest.approx(10.0)


def test_recursive_span_counts_time_once():
    spans = [span("kernels.f", 0.0, 4.0),
             span("kernels.f", 1.0, 3.0, 0)]
    rec = op_summary(spans)["names"]["kernels.f"]
    assert rec["calls"] == 2
    assert rec["time_s"] == pytest.approx(4.0)
    assert rec["self_s"] == pytest.approx(4.0)
