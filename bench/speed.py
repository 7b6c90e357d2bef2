"""Host-speed calibration.

On a shared 2-core x86 VM (Intel Xeon, Python 3.11) the same
pure-Python code runs up to 1.6x slower for stretches of seconds to a
minute, in wall and in process CPU time alike, so raw job times spread
10-30% from run to run. So the run samples a fixed calibration loop
between jobs, and every reported time is scaled to a host on which one
loop takes exactly CALIBRATION_NS. The loop does the kinds of work
trilie does but shares no code with it, so no change to trilie moves
it.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter_ns

CALIBRATION_NS = 2_500_000  # reported times assume one loop takes 2.5 ms
SAMPLE_EVERY_NS = 50_000_000  # sample at most this often between jobs
REPS = 3  # loops per sample; a sample is their median

_rng = random.Random(0)
_A = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) if _rng.random() < 0.5
       else Fraction(0) for _ in range(10)] for _ in range(10)]
_KEYS = [x * 7919 % 65521 for x in range(8000)]


def calibration_loop():
    """Three kinds of work trilie mixes, none of it trilie code: scalar
    Fraction arithmetic, a sparse Fraction matrix product, and list and
    dict churn over a larger working set. Their slowdowns on a busy host
    differ, and the mix tracks trilie's better than any one alone."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    n = len(_A)
    product = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        row = product[i]
        for k in range(n):
            a = _A[i][k]
            if a:
                for j, b in enumerate(_A[k]):
                    if b:
                        row[j] += a * b
    keys = sorted(_KEYS)
    index = {x: i for i, x in enumerate(keys[:2000])}
    return total, product, len(index)


class Speed:
    """Calibration samples over one stretch of work.

    `mark()` opens an interval of work (a job or a set-up); `sample()`
    measures the loop. An interval is scaled by the mean of the samples
    just before and just after it, so `close()` samples once more and
    every interval has both.
    """

    def __init__(self):
        self.samples: list[int] = []
        self.opened: list[int] = []  # per interval, the sample before it
        self._last = 0

    def sample(self) -> None:
        if not self.samples:
            calibration_loop()  # warm-up: the first loop in a process runs slow
        times = []
        for _ in range(REPS):
            t0 = perf_counter_ns()
            calibration_loop()
            times.append(perf_counter_ns() - t0)
        self.samples.append(statistics.median(times))
        self._last = perf_counter_ns()

    def mark(self) -> None:
        if not self.samples:
            self.sample()
        self.opened.append(len(self.samples) - 1)

    def maybe_sample(self) -> None:
        if perf_counter_ns() - self._last >= SAMPLE_EVERY_NS:
            self.sample()

    def close(self) -> list[float]:
        """Samples once more; returns each interval's scale factor."""
        self.sample()
        return [
            2 * CALIBRATION_NS / (self.samples[i] + self.samples[i + 1])
            for i in self.opened
        ]

    def median_ms(self) -> float:
        return statistics.median(self.samples) / 1e6
