"""Host speed index: a fixed pure-Python kernel, timed every 50 ms.

The benchmark runs on shared virtual machines whose speed drifts by 20-50 %
over seconds to minutes, for every process on the machine alike (the
process runs slower; it is not descheduled).  A timed op is therefore
reported in reference-speed seconds: its wall time, less the kernel's own
time inside it, times REFERENCE_S over the mean kernel time of the samples
taken while it ran.  That is the time the op would have taken on a host
where the kernel takes REFERENCE_S.  (The mean of the kernel times, not of
their reciprocals: one sample jitters by about 30 %, and a reciprocal mean
would let the fastest samples dominate.)  A change to the program moves
these times as it moves wall time; a change of host speed does not.  The
kernel is part of the benchmark and never changes.

A SIGALRM timer runs the kernel in the measured process itself, between
bytecodes of whatever the op is doing, so ops that are one long call (a
lemma suite) are sampled all along.  Set-up runs before the timer starts
(kernel samples taken during set-up, mostly imports, were too few and too
erratic), so run.py scales set-up time by the median kernel time of the
run's batches instead.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.05  # one kernel sample every 50 ms of wall time
REFERENCE_S = 1e-3  # kernel time at the reference speed (a round constant)
KERNEL_LOOPS = 7000  # 0.55-0.75 ms on the 2-core Xeon VM the benchmark was tuned on
NEAREST = 10  # samples (half a second) used for an op too short to contain 3


def kernel() -> int:
    """Fixed interpreter work that allocates no tracked objects (no GC pressure)."""
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc += (i * i) % 7
    return acc


class SpeedIndex:
    """Kernel samples of one process, and the normalisation they give."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self._previous = None
        self._running = False

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; stopping twice is harmless."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._running = False

    def rate(self, t0: float, t1: float) -> float:
        """REFERENCE_S / the mean kernel time of the samples taken in [t0, t1].

        An op shorter than three sampling intervals uses the NEAREST
        samples around its midpoint instead.
        """
        i, j = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        if j - i < 3:
            k = bisect_left(self.starts, (t0 + t1) / 2)
            i, j = max(0, k - NEAREST // 2), k + NEAREST // 2
        picked = self.durations[i:j]
        if not picked:
            raise ValueError("no kernel samples: call sample() before timing")
        return REFERENCE_S * len(picked) / sum(picked)

    def kernel_time(self, t0: float, t1: float) -> float:
        """Seconds the kernel itself ran inside [t0, t1]."""
        i, j = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        return sum(self.durations[i:j])

    def normalise(self, t0: float, t1: float) -> tuple:
        """(reference-speed seconds, wall seconds without the kernel) of [t0, t1]."""
        net = t1 - t0 - self.kernel_time(t0, t1)
        return net * self.rate(t0, t1), net

    def median_kernel_s(self) -> float:
        ds = sorted(self.durations)
        return ds[len(ds) // 2]
