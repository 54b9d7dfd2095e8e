"""Host-speed-normalized timing for one worker process.

The benchmark runs on a small VM that shares physical cores with other
tenants.  Their load switches the speed of a vCPU between states that
last from a fraction of a second to minutes, and the slow state runs
the same code about 1.7x slower; process CPU time slows with it, and a
second vCPU's speed does not follow the first.  So a raw wall time says
as much about the neighbours as about etaq.

``HostClock`` measures the host's speed where the work runs, while it
runs: a timer signal interrupts the work every ``PERIOD_S`` seconds and
times a fixed reference computation (``reference``) in the same thread.
Each stretch of work between two ticks is divided by the mean reference
time of those two ticks and multiplied by ``REFERENCE_S``.  The result
is the time the work would have taken on a host where the reference
takes ``REFERENCE_S``: a wall time with the host's momentary speed taken
out.  The ticks themselves are excluded from every interval.

The reference is a small power-series computation in pure Python, the
same mix of work as etaq's kernels: the in-place index loop of
``oracle.direct_eta_product`` and the list-comprehension multiply-add of
``LaurentSeries.__mul__``, on integers of up to about 16 digits.
"""

from __future__ import annotations

import signal
import time

# Interval between the end of one tick and the start of the next.  A
# speed state can last well under a second, and a session request that
# takes 150 ms should see a few ticks.  At 25 ms the ticks cost about 8%
# of the run, and the spread of a session's tail latency between samples
# fell from about 4% with 0.2 s ticks to about 3%.
PERIOD_S = 0.025
# Nominal time of one reference() call: its median time on the 2-vCPU
# Intel Xeon VM the benchmark was written on.  Normalized times are
# expressed at this speed.
REFERENCE_S = 0.0023
REFERENCE_TERMS = 180


def reference(n: int = REFERENCE_TERMS) -> int:
    """A fixed computation: partition numbers to n terms, then a product."""
    c = [0] * n
    c[0] = 1
    for d in range(1, n):
        for i in range(d, n):
            c[i] += c[i - d]
    out = [0] * n
    for i, ai in enumerate(c[:n // 4]):
        out[i:] = [u + ai * v for u, v in zip(out[i:], c)]
    return out[-1]


class HostClock:
    """Ticks the reference while active; converts intervals afterwards.

    Use as a context manager around the timed work.  It ticks on entry
    and on exit, so every interval timed inside lies between two ticks.
    The handler re-arms a one-shot timer, so a slow tick is never
    re-entered.  Meant for a worker process of its own: it takes over
    SIGALRM for good.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.ticks: list[tuple[float, float]] = []  # (start, duration)
        self._active = False

    def _measure(self) -> None:
        start = time.perf_counter()
        reference()
        self.ticks.append((start, time.perf_counter() - start))

    def _tick(self, *_args) -> None:
        # The handler stays installed after exit and then does nothing,
        # so a signal already on its way can never hit a default action.
        if self._active:
            self._measure()
            signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self) -> HostClock:
        signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._tick()
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._measure()

    def work(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalized) seconds of work in [t0, t1], ticks excluded."""
        raw = normalized = 0.0
        for (a, ra), (b, rb) in zip(self.ticks, self.ticks[1:]):
            lo, hi = max(t0, a + ra), min(t1, b)
            if hi > lo:
                raw += hi - lo
                normalized += (hi - lo) * REFERENCE_S / ((ra + rb) / 2)
        return raw, normalized

    def reference_times(self) -> list[float]:
        return [duration for _, duration in self.ticks]
