"""Machine-speed calibration for timings taken on a shared host.

On a small shared virtual machine the same work can take 1.7 times longer
for tens of seconds while neighbours load the host. Raw wall times then
spread more between runs than any change worth detecting. The benchmark
therefore times a fixed probe kernel (a pure-Python loop plus small numpy
matrix-vector products, the mix the package's hot loops have) next to the
items, and scales each item's wall time by ``REFERENCE_PROBE_S`` divided by
the probe time around it. Reported times are thus in reference seconds: the
time the item would take on the reference host when it runs at full speed.
The probe is benchmark code; no change to the package moves it. Raw times
are kept in the results file beside the calibrated ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# median probe time on the reference host (a shared 2-core x86 VM) when quiet
REFERENCE_PROBE_S = 0.0038
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.3

_MAT = np.random.default_rng(0).standard_normal((30, 30))
_VEC = np.ones(30)


def _kernel() -> float:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    x = _VEC.copy()
    for _ in range(300):
        x = _MAT @ x
        x /= np.abs(x).max()
    return total + float(x[0])


class SpeedProbe:
    """Probe times on a timeline; ``factor`` converts a raw interval."""

    def __init__(self):
        self.at: list[float] = []
        self.probe_s: list[float] = []

    def probe(self) -> float:
        runs = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - start)
        self.at.append(time.perf_counter())
        self.probe_s.append(statistics.median(runs))
        return self.probe_s[-1]

    def due(self) -> None:
        """Probe unless the last probe is recent."""
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed for the interval [start, end]: the
        mean of the last probe before it and the first probe after it."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        near = [self.probe_s[i] for i in (before, after) if 0 <= i < len(self.at)]
        return REFERENCE_PROBE_S / statistics.fmean(near)
