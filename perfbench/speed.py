"""Scaling of measured times to a fixed machine speed.

On a shared host the CPU speed seen by one process drifts by tens of
percent over seconds to minutes: a fixed pure-Python loop took 7.2 to
13.8 ms within 150 s on the 2-core machine the benchmark was defined on,
and the same workload's throughput fell by 30 % over five consecutive runs.
Such drift swamps any regression bound.  The benchmark therefore times a
fixed reference kernel, which never touches robustloc, next to the work it
measures, and reports each time ``t`` as ``t * REFERENCE_S / r``, where
``r`` is the median of the three kernel times nearest to the work.  A time so
scaled reads as the time the work would take on a host that runs the kernel
in ``REFERENCE_S``.  A change to the library moves it in proportion to wall
time, while a change of host speed largely cancels.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median kernel time on the machine the benchmark was defined on.
REFERENCE_S = 1.7e-3
# Sample the kernel around timed work once the last sample is this old.
PROBE_EVERY_S = 0.1

_ARRAY = np.random.default_rng(0).random(1 << 14)
_SMALL = np.arange(64.0)
_VALUES = [((i * 7919) % 1009) / 1009.0 for i in range(3000)]


@dataclass(frozen=True)
class _Point:
    a: float
    b: float


def reference_kernel() -> float:
    """Fixed amounts of the kinds of work robustloc does: frozen dataclass
    instances, scalar draws from a numpy generator, list sorts, dict
    inserts, numpy calls on small arrays and one larger numpy sort."""
    rng = np.random.Generator(np.random.PCG64(1))
    points = [_Point(float(rng.uniform(0.0, 1.0)), 0.5) for _ in range(150)]
    total = 0.0
    for x in sorted(p.a for p in points):
        total += abs(x - 0.5)
    index = {x: i for i, x in enumerate(sorted(_VALUES)[:1500])}
    for _ in range(60):
        total += float(np.abs(_SMALL - 0.5).sum())
    return total + len(index) + float(np.sort(_ARRAY)[0])


class SpeedProbe:
    """Tracks the host's speed through timed runs of the reference kernel."""

    def __init__(self):
        self._stamps: list[float] = []
        self._durations: list[float] = []

    def sample(self) -> None:
        # A garbage collection owed by the measured work must not land in
        # the kernel, so collection is held off while it runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._stamps.append((t0 + t1) / 2)
        self._durations.append(t1 - t0)

    def refresh(self) -> None:
        """Sample unless the last sample is less than ``PROBE_EVERY_S`` old."""
        if not self._stamps or time.perf_counter() - self._stamps[-1] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] of wall time expressed at the reference
        speed, judged by the three kernel samples nearest its midpoint."""
        mid = (t0 + t1) / 2
        i = bisect.bisect(self._stamps, mid)
        near = sorted(
            range(max(0, i - 3), min(len(self._stamps), i + 3)),
            key=lambda j: abs(self._stamps[j] - mid),
        )[:3]
        kernel = statistics.median(self._durations[j] for j in near)
        return (t1 - t0) * REFERENCE_S / kernel
