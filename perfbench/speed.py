"""Scale the benchmark's times to a fixed reference speed of the machine.

The shared hosts this benchmark runs on change speed by a third or more over
seconds to minutes, for every process on them.  The same round, with the
same inputs, in one process, took 2.7 s and 4.8 s within four minutes
(README.md, "Reference speed").  Ten runs of the same code then spread more
than any useful bound.

So each round also times a probe: a fixed loop of small numpy steps that
uses nothing of the package and resembles its inner loops (a 100x100
matrix-vector product, a normalisation, an argmax).  It runs before and after
every round and, inside a directly driven round, whenever SEGMENT_S of timed
work has passed.  Probes are never inside a timed step.  A round's scaled
time is its raw time multiplied by REFERENCE_PROBE_S / (the mean of the
round's probes): a round that ran while the machine was slow is scaled down
by as much as the probe slowed.  The program's own speed does not enter the
factor, so a change that makes the program twice as fast halves the scaled
time as it halves the raw one.  The raw times stay in the detail line.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_STEPS = 300
PROBE_REPEATS = 5
# About the probe's time on the machine the baseline notes were taken on.  It
# fixes the unit of the scaled times; only their ratios between runs matter.
REFERENCE_PROBE_S = 0.003
# Longest stretch of timed work between two probes inside a round.
SEGMENT_S = 0.5

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((100, 100))
_VECTOR = np.ones(100)


def probe() -> float:
    """The mean of PROBE_REPEATS timings of a fixed loop of small numpy
    steps, in seconds, after one untimed pass to warm the caches."""
    times = []
    for _ in range(PROBE_REPEATS + 1):
        t0 = time.perf_counter()
        for _ in range(PROBE_STEPS):
            x = _MATRIX @ _VECTOR
            x = x / x.sum()
            int(np.argmax(x))
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times[1:])


def scale(probes: list) -> float:
    """Factor that takes raw seconds timed beside `probes` to reference
    seconds."""
    return REFERENCE_PROBE_S / statistics.fmean(probes)


class Clock:
    """Raw time of work timed in short steps, with a probe before the first
    step, after the last (`close`) and whenever SEGMENT_S of timed work has
    passed since the last probe."""

    def __init__(self):
        self.raw_s = 0.0
        self.probes = [probe()]
        self._segment_s = 0.0

    def add(self, raw_s: float) -> None:
        self.raw_s += raw_s
        self._segment_s += raw_s
        if self._segment_s >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        if self._segment_s > 0.0:
            self.probes.append(probe())
            self._segment_s = 0.0
