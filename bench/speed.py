"""Host-speed sampling used to scale measured intervals.

On a shared two-core KVM guest (Xeon, family 6 model 143) the same code ran
at speeds up to 1.8x apart, switching every few seconds with load from
outside the guest (process CPU time tracked wall time, so it is not a
scheduling effect).  A raw wall time then says mostly how much of a run fell
into the slow state.

While sampling, a fixed probe kernel is timed (best of two) every period of
wall time from a SIGALRM handler, so probes land inside long steps too, such
as the 4.5 s Jacobian build of large-mesh; the handler runs between Python
bytecodes, so a long native call delays a probe until it returns.  An
interval is scaled by integrating ref_s / p over it, where p is the mean
probe time at the two ends of each stretch between probes, leaving the
probes' own time out.  The figure then reads in seconds of the host's fast
state.  The probes belong to the benchmark, so program changes do not move
them.  Each workload uses the probe whose speed follows its own hot code:

  HEAT_PROBE  small-array einsum, divide and scatter-add, like phmix's heat
              load kernel that dominates the stepper.  Next to ten midpoint
              residual evaluations its time ratio moved 2 % (16x8x4 mesh) and
              4 % (24x12x4) between fast and slow spells in which the raw
              time moved 35 %.
  SVD_PROBE   a 400 x 200 singular value decomposition, like the dense rank
              check that dominates `phmix verify`.  Next to the Dirac check
              it cut the sample-to-sample variation from 7.1 % to 5.9 %; the
              heat probe made it worse (13 %).
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _heat_kernel() -> Callable[[], None]:
    n_cells, nq = 64, 27
    tables = np.linspace(-1.0, 1.0, nq * 8 * 3).reshape(nq, 8, 3)
    cells = np.linspace(1.0, 2.0, n_cells * 8).reshape(n_cells, 8)
    dofs = (np.arange(n_cells * 8) * 7) % (n_cells * 2)

    def run():
        grad = np.einsum("qbd,cb->cqd", tables, cells)
        vals = np.einsum("qbd,cqd->cb", tables, grad / grad.sum())
        np.bincount(dofs, weights=vals.ravel())
    return run


def _svd_kernel() -> Callable[[], None]:
    matrix = np.random.default_rng(0).random((400, 200))
    return lambda: np.linalg.svd(matrix, compute_uv=False)


@dataclass(frozen=True)
class Probe:
    make_kernel: Callable[[], Callable[[], None]]
    ref_s: float     # best-of-two probe time in the host's fast state
    period_s: float  # wall time between probes


HEAT_PROBE = Probe(_heat_kernel, ref_s=4.0e-4, period_s=0.02)
SVD_PROBE = Probe(_svd_kernel, ref_s=5.5e-3, period_s=0.1)


class HostClock:
    def __init__(self, probe: Probe):
        self.probe = probe
        self._kernel = probe.make_kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.starts.append(start)
        self.times.append(best)
        self.ends.append(time.perf_counter())

    @contextmanager
    def sampling(self):
        period = self.probe.period_s
        self._on_alarm(signal.SIGALRM, None)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._on_alarm(signal.SIGALRM, None)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside probes, in fast-state seconds."""
        times, n = self.times, len(self.times)
        i = bisect.bisect_right(self.ends, t0)  # first probe ending after t0
        cursor, total = t0, 0.0
        if i < n and self.starts[i] <= t0:
            cursor, i = self.ends[i], i + 1
        while cursor < t1:
            stop = min(self.starts[i], t1) if i < n else t1
            p = 0.5 * (times[max(i - 1, 0)] + times[min(i, n - 1)])
            total += (stop - cursor) * self.probe.ref_s / p
            if i >= n or self.starts[i] >= t1:
                break
            cursor, i = self.ends[i], i + 1
        return total


class RawClock:
    """No sampling, no scaling: traced rounds, whose spans are raw."""

    @contextmanager
    def sampling(self):
        yield

    def scaled(self, t0: float, t1: float) -> float:
        return t1 - t0
