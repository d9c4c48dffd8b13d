"""Closed-loop reader: 50-road sweeps sent back to back, each timed.

Every read is one ``get_many`` sweep of 50 roads, the only read the
repository's own readers make (the serving-availability benchmark and
the ``serve`` command), and like them it is sent when the previous one
has come back. Each read's time is also scaled to the reference host
speed (see ``hostspeed``) from the calibration loops timed around it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from perfbench import hostspeed
from perfbench.stats import median

SWEEP_ROADS = 50
ANSWERED = frozenset({"fresh", "stale"})
FAILED = frozenset({"shed", "unavailable"})


@dataclass(slots=True)
class Read:
    seconds: float
    scaled_s: float
    answered: bool
    failed: bool
    shed: bool

    @property
    def ms(self) -> float:
        return 1000.0 * self.seconds

    @property
    def scaled_ms(self) -> float:
        return 1000.0 * self.scaled_s


class ReadPlan:
    """The seed-determined read sequence: which roads each sweep asks for."""

    def __init__(self, network, seed: int, length: int = 256) -> None:
        rng = np.random.default_rng(seed)
        roads = np.array(network.road_ids())
        self.sweeps = [
            rng.choice(roads, size=min(SWEEP_ROADS, len(roads)), replace=False).tolist()
            for _ in range(length)
        ]

    def issue(self, store, i: int) -> dict:
        return store.get_many(self.sweeps[i % len(self.sweeps)])


class ClosedLoopReader:
    """Sends reads back to back from the calling thread.

    Reads accumulate across calls to ``run``.
    """

    def __init__(self, store, plan: ReadPlan):
        self._store = store
        self._plan = plan
        self.reads: list[Read] = []

    def run(self, count: int) -> None:
        """Send ``count`` reads, one after another."""
        store, plan, clock = self._store, self._plan, time.perf_counter
        before = hostspeed.loop_seconds()
        for _ in range(count):
            start = clock()
            answers = plan.issue(store, len(self.reads))
            seconds = clock() - start
            after = hostspeed.loop_seconds()
            statuses = {s.status for s in answers.values()}
            self.reads.append(
                Read(
                    seconds=seconds,
                    scaled_s=hostspeed.scale(seconds, before, after),
                    answered=statuses <= ANSWERED,
                    failed=bool(statuses & FAILED),
                    shed="shed" in statuses,
                )
            )
            before = after


def service_p50_ms(reads) -> float:
    """Median time the store took per read (ms), as measured."""
    return median([r.ms for r in reads]) if reads else 0.0
