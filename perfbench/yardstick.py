"""Reference kernel that measures how fast the host runs right now.

A shared host's speed for identical work drifts by 1.3x to 2x over
seconds to minutes (see README.md), more than any bound a time metric can
carry.  The benchmark therefore times short slices of this fixed kernel
while an operation runs, and scales the operation's wall time by the
slices' speed.  The kernel imports nothing from dipolerg, so a change to
the program cannot move it; it mixes the kinds of work the program spends
its time on: small-array numpy calls driven from Python (multilinear
interpolation, small complex matrix products) and sparse matrix-vector
products.

The slices run from a SIGALRM handler every INTERVAL_S seconds of the
operation, between two bytecodes of the program (a long call into C
delays the slice until it returns), and their time is taken out of the
operation's wall time.  Sampling inside the operation follows speed
changes that last less than one operation; slices run only between
operations followed them about half as well.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

# seconds one slice takes on the host the benchmark was tuned on (2 vCPU
# Xeon at 2.1 GHz) at its fast steady speed; it only sets the scale of the
# scaled times
REF_SLICE_S = 0.0035
INTERVAL_S = 0.1
# slices timed before and after an interval that is measured from outside
BRACKET_SLICES = 10


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.nodes = np.linspace(0.0, 1.0, 9)
        self.values = rng.standard_normal((9, 9, 4, 4)) + 1j * rng.standard_normal((9, 9, 4, 4))
        self.queries = [rng.random(7), rng.random(7)]
        n = 2000
        self.mat = sp.random(n, n, density=4e-3, random_state=1, format="csr") + sp.eye(n)
        self.vec = rng.standard_normal(n)
        self.samples: list[tuple[float, float]] = []
        self.slice_time()

    def _interp(self, out: np.ndarray) -> np.ndarray:
        for ax, q in enumerate(self.queries):
            idx = np.clip(np.searchsorted(self.nodes, q), 1, len(self.nodes) - 1)
            x0, x1 = self.nodes[idx - 1], self.nodes[idx]
            frac = np.clip((q - x0) / (x1 - x0), 0.0, 1.0)
            shape = [1] * out.ndim
            shape[ax] = len(q)
            out = (np.take(out, idx - 1, axis=ax) * (1.0 - frac).reshape(shape)
                   + np.take(out, idx, axis=ax) * frac.reshape(shape))
        return out

    def slice(self) -> float:
        """Run one fixed slice of the kernel; returns its wall time."""
        t0 = time.perf_counter()
        for i in range(50):
            m = self._interp(self.values)[i % 7, (i + 3) % 7]
            np.trace(m @ m.conj().T @ m)
            {(i, j): j * 0.5 for j in range(12)}
        v = self.vec
        for _ in range(20):
            v = self.mat @ v
            v /= np.linalg.norm(v)
        return time.perf_counter() - t0

    def slice_time(self) -> float:
        """Mean time of BRACKET_SLICES slices."""
        return statistics.fmean(self.slice() for _ in range(BRACKET_SLICES))

    def _on_alarm(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append((start, self.slice()))

    def run(self, fn):
        """Call fn() while sampling; returns (its value, wall_s, scaled_s).

        wall_s is fn's wall time without the slices; scaled_s is wall_s at
        the host speed at which a slice takes REF_SLICE_S, the speed being
        the mean of the slices taken inside fn and one on each side.
        """
        self.samples = [(0.0, self.slice())]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            value = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = [d for s, d in self.samples if t0 <= s < t1]
        wall_s = t1 - t0 - sum(inside)
        speed = statistics.fmean([self.samples[0][1], *inside, self.slice()])
        return value, wall_s, scaled(wall_s, speed)


def scaled(wall_s: float, slice_s: float) -> float:
    """`wall_s` at the host speed at which a slice takes REF_SLICE_S,
    given that one took `slice_s` while `wall_s` was measured."""
    return wall_s * REF_SLICE_S / slice_s
