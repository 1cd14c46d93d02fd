"""The drift probe: a fixed pure-Python reference workload.

The CPU speed of a shared machine drifts by up to ~1.5x over a few
seconds, so raw seconds from two runs of the same code disagree by more
than any regression worth catching. The benchmark therefore runs this
probe between timed operations, only while the system under test is
idle, and scales each timing by :func:`factor`::

    scaled = raw * REFERENCE_S / adjacent_probe_s

where ``adjacent_probe_s`` is the mean of the probes taken just before
and just after the timed interval. Scaled timings are in *reference
seconds*: what the interval would have taken on a machine where one
probe takes ``REFERENCE_S``. Drift that slows the probe and the program
alike cancels out.

The probe does what the unifying search spends its time on: building
fresh tuples of ints, hashing them and looking them up in a dict. It is
run with the garbage collector off (its allocations would otherwise
trigger collections at a period that aliases with the sampling) and
reports the median of a few short repeats: the fastest repeat tracks
the machine's best case, while the program runs at its typical speed,
and the median still ignores one repeat hit by a timer interrupt.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Probe seconds on the reference machine (a 2.1 GHz cloud core). Only
#: the unit of scaled timings depends on it; it must never change, or
#: every scaled figure moves with it.
REFERENCE_S = 0.001

#: Loop iterations of one repeat and the number of repeats per sample.
ITERATIONS = 2500
REPEATS = 7


def _probe_once(iterations: int) -> float:
    table: dict = {}
    started = time.perf_counter()
    for i in range(iterations):
        key = (i % 97, (i * 7) % 101, (i % 13, i & 7))
        table[key] = table.get(key, 0) + 1
        if key in table:
            table[(key, i % 5)] = i
    return time.perf_counter() - started


def sample(iterations: int = ITERATIONS, repeats: int = REPEATS) -> float:
    """One probe reading in seconds: the median of *repeats* short runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_once(iterations) for _ in range(repeats))
    finally:
        if enabled:
            gc.enable()


def factor(before_s: float, after_s: float, reference_s: float = REFERENCE_S) -> float:
    """The multiplier taking raw seconds between two probes to reference seconds."""
    if before_s <= 0.0 or after_s <= 0.0:
        raise ValueError("probe readings must be positive")
    return reference_s / ((before_s + after_s) / 2.0)


class Probe:
    """Takes probe readings and keeps them, so a run can report them raw."""

    def __init__(self) -> None:
        self.readings: list[float] = []

    def sample(self) -> float:
        reading = sample()
        self.readings.append(reading)
        return reading
