"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared machines whose speed moves by up to 1.5x within
a minute (a fixed fancob op went from 0.29 s to 0.42 s and back on a 2-core
Xeon VM).  Between ops the run times a fixed exact-arithmetic kernel: a
Fraction Gaussian elimination, the same kind of work as fancob's hot path,
that does not touch fancob, so no change to the library can move it.  Each
op's wall time is scaled by REFERENCE_S over the median kernel time within a
few seconds of it, which gives its time at the reference speed: the speed at
which one kernel call takes REFERENCE_S.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010
SAMPLE_EVERY_S = 1.0
WINDOW_S = 5.0

_M = [[(i * 7 + j * 3) % 11 - 5 + 13 * (i == j) for j in range(5)] for i in range(5)]


def kernel() -> None:
    """Solve a fixed 5x5 system by Fraction elimination for 40 right-hand sides."""
    for k in range(40):
        a = [[Fraction(x) for x in row] + [Fraction(k + i)] for i, row in enumerate(_M)]
        for c in range(5):
            p = next(i for i in range(c, 5) if a[i][c] != 0)
            a[c], a[p] = a[p], a[c]
            for i in range(c + 1, 5):
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]


class Calibration:
    """Kernel samples over a run, each the mean of three calls: the ops see the
    machine's average speed, not its best."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        mean = sum(self._timed() for _ in range(3)) / 3
        self.times.append(time.perf_counter())
        self.kernel_s.append(mean)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    @staticmethod
    def _timed() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time of the samples within
        WINDOW_S of [start, end]; single samples swing too much to use alone."""
        i = bisect.bisect_left(self.times, start - WINDOW_S)
        j = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.kernel_s[i:j] or self.kernel_s
        return REFERENCE_S / statistics.median(near)
