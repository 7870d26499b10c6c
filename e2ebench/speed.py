"""Rescale wall times to a nominal machine speed.

The benchmark shares its cores with other work it cannot see, and that work
slows every timing by up to about 2x for stretches of seconds to minutes.
A fixed *reference kernel*, timed now and then through a pass, shows how fast
the machine runs at each moment.  A wall time ``t`` measured at moment ``m``
is reported as ``t * REFERENCE_S / kernel time around m``: the time it would
have taken on a machine that runs the kernel in ``REFERENCE_S``.

The kernel is the benchmark's own code, not the program's, so a change to the
program moves the rescaled times exactly as it moves the wall times.  It mixes
the kinds of work the program does (string-keyed dicts, a heap, a numpy
sort), because a slow spell slows them by different amounts: a kernel of
interpreted integer arithmetic alone tracked the program worse.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Wall time of one ``reference_kernel`` call on the 2-vCPU Xeon box the
#: benchmark was calibrated on, in its fastest spells (13,000 calls in a
#: row: 1st percentile 1.47 ms, 10th 1.56 ms, median 2.41 ms).
REFERENCE_S = 1.5e-3
#: A pass times the kernel again before the first window that starts at
#: least this long after the last sample.
SAMPLE_EVERY_S = 0.1

_KEYS = [f"tenant-{i % 7}/p{i}" for i in range(3_000)]
_VALUES = np.random.default_rng(0).random(20_000)


def reference_kernel() -> int:
    """A fixed amount of work of the kinds the program does."""
    counts: dict[str, float] = {}
    for i, key in enumerate(_KEYS):
        counts[key] = counts.get(key, 0.0) + i * 0.5
    heap = [(value, key) for key, value in counts.items()]
    heapq.heapify(heap)
    for _ in range(500):
        heapq.heappop(heap)
    return len(heap) + int(_VALUES.argsort()[0])


class Speedometer:
    """Reference-kernel timings through one pass."""

    def __init__(self) -> None:
        self.at_s: list[float] = []
        self.took_s: list[float] = []

    def sample(self) -> float:
        """Time the kernel once, after one untimed call that brings its data
        back into the caches, so that its time does not depend on what the
        program did just before.  Returns the wall time both calls took."""
        began = time.perf_counter()
        reference_kernel()
        warm = time.perf_counter()
        reference_kernel()
        ended = time.perf_counter()
        self.at_s.append((warm + ended) / 2)
        self.took_s.append(ended - warm)
        return ended - began

    def due(self, now: float) -> bool:
        return not self.at_s or now - self.at_s[-1] >= SAMPLE_EVERY_S

    def scale(self, at_s) -> np.ndarray:
        """``REFERENCE_S / kernel time`` at each moment in ``at_s``.

        Each sample is first replaced by the median of itself and its two
        neighbours, so that one interrupted sample does not skew the windows
        around it; between samples the kernel time is interpolated linearly.
        """
        took = np.asarray(self.took_s)
        smoothed = [np.median(took[max(0, i - 1) : i + 2]) for i in range(len(took))]
        return REFERENCE_S / np.interp(at_s, self.at_s, smoothed)

    def median_ms(self) -> float:
        return float(np.median(self.took_s)) * 1e3
