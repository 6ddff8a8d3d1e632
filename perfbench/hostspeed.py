"""Host speed reference: scales wall times to a fixed reference speed.

On a shared VM the CPU speed this process gets drifts by ±25% over
seconds to minutes: a fixed pure-Python loop ranged 102-161 ms (1.6 s
window means) within 90 s of one process on the 2-vCPU reference VM.
Every timing of the program inherits that drift. To cancel it, the
benchmark runs a fixed reference kernel, independent of the program,
between operations and scales each timing by

    NOMINAL_S / (median kernel time near that moment)

so reported times read as on the reference VM at its nominal speed. A
change to the program moves its timings and leaves the kernel's alone.
The raw timings go to standard error.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Median kernel time (s) on the reference VM; sets the reported scale.
NOMINAL_S = 0.0037
#: Minimum spacing (s) between kernel samples during a timed phase.
CADENCE_S = 0.25
#: Kernel samples nearest in time that make one speed estimate.
WINDOW = 7

_MATRIX = np.random.default_rng(0).random((256, 9))


def kernel() -> None:
    """Fixed work shaped like the optimizer's: dict/tuple churn, a sort,
    and broadcast dominance tests on a small cost matrix."""
    table: dict = {}
    for i in range(1500):
        key = (i % 97, i * 0.5)
        table[key] = table.get(key, 0.0) + i * 1.5
    sorted(table.items(), key=lambda item: item[1])
    for _ in range(4):
        (_MATRIX[None, :64, :] <= _MATRIX[:, None, :] * 1.5).all(axis=2).any(axis=1)


class HostClock:
    """Kernel samples over time and the speed factors derived from them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.times.append((start + end) / 2)
            self.durations.append(end - start)

    def due(self) -> bool:
        """Whether a timed loop should take a sample now."""
        return not self.times or time.perf_counter() - self.times[-1] >= CADENCE_S

    def factor_at(self, moment: float) -> float:
        """Scale factor for a timing taken around ``moment``."""
        index = bisect.bisect(self.times, moment)
        low = max(0, min(index - WINDOW // 2, len(self.times) - WINDOW))
        return NOMINAL_S / statistics.median(self.durations[low:low + WINDOW])

    def factor(self, since: float = float("-inf")) -> float:
        """Scale factor from every sample taken after ``since``."""
        recent = [d for t, d in zip(self.times, self.durations) if t >= since]
        return NOMINAL_S / statistics.median(recent)

    def kernel_ms(self, since: float = float("-inf")) -> float:
        return NOMINAL_S / self.factor(since) * 1e3
