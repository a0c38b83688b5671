"""The yardstick's in-operation sampling and the scaling of times."""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from yardstick import INTERVAL_S, REF_SLICE_S, Yardstick, scaled  # noqa: E402


def busy(seconds):
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n += 1
    return n


def test_run_takes_slices_out_of_the_wall_time():
    y = Yardstick()
    t0 = time.perf_counter()
    value, wall_s, scaled_s = y.run(lambda: busy(4 * INTERVAL_S) and "done")
    elapsed = time.perf_counter() - t0
    inside = y.samples[1:]
    assert value == "done"
    assert len(inside) >= 2
    assert wall_s + sum(d for _s, d in inside) <= elapsed
    assert wall_s == pytest.approx(4 * INTERVAL_S, rel=0.2)
    assert scaled_s > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_run_stops_sampling_when_the_operation_raises():
    y = Yardstick()

    def fail():
        busy(2 * INTERVAL_S)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        y.run(fail)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_scaled_is_wall_time_at_reference_speed():
    assert scaled(3.0, REF_SLICE_S) == pytest.approx(3.0)
    assert scaled(3.0, 2 * REF_SLICE_S) == pytest.approx(1.5)
