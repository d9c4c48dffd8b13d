"""Timings scaled to a reference host speed.

On a shared host the same code runs at different speeds from one second
to the next: while a neighbour keeps the sibling hyperthread busy, a
50-road read takes ~0.4 ms instead of ~0.23 ms, and the host switches
between the two every few seconds. A run's median then depends on how
long it spent in each state, not on the program.

So the benchmark times a fixed pure-Python loop right before and right
after every measured operation and reports the operation's time scaled
by ``REFERENCE_S / loop time``: what it would take on a host where the
loop takes ``REFERENCE_S``. The loop slows down with the host, so the
scaled time moves only when the program's own work changes. In one
process over 30 s, read times moved between 0.22 and 0.41 ms while
their ratio to the loop stayed within 2.6-3.2.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

from perfbench.stats import median

#: The loop's time on the reference host (s); scaled timings are on it.
REFERENCE_S = 1e-4


def _loop() -> dict:
    d = {}
    for i in range(400):
        d[i] = (i, i * 1.5, str(i))
    return d


def loop_seconds(repeats: int = 3) -> float:
    """Median time of the loop over ``repeats`` runs, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the loop times around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class Sampled:
    """Times a long block and samples the loop every ``every`` s inside it.

    For calls that last seconds, such as a set-up, the host's speed
    changes while they run, so the loop is timed from a timer signal
    throughout the block and the block's time is scaled by the mean of
    those samples. The handler runs between bytecodes of the main thread
    and costs ~0.3 ms a sample.
    """

    def __init__(self, every: float = 0.2) -> None:
        self.every = every
        self.samples: list[float] = []
        self.seconds = 0.0

    def _tick(self, signum, frame) -> None:
        self.samples.append(loop_seconds())

    def __enter__(self) -> "Sampled":
        self.samples = [loop_seconds()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(loop_seconds())

    @property
    def scaled(self) -> float:
        """The block's time at the reference speed."""
        return self.seconds * REFERENCE_S / statistics.fmean(self.samples)
