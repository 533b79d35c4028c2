"""Machine-speed reference for the end-to-end timings.

On the shared 2-core machine this benchmark was written on, the same pass
ran up to 1.7 times slower from one minute to the next.  A run therefore
times a fixed reference kernel, written in the program's style (Fractions,
int tuples, dicts, strings and big ints) but made of benchmark code only,
never the package under test.  The machine's speed swings within a run
as well as between runs, so each timed call is divided by the speed
factor of the kernel samples taken just before and just after it, never
by samples from another part of the run.  It then reads as a time on a
machine where the kernel takes REFERENCE_S.  The kernel runs with the
garbage collector off and frees all it allocates, so it neither triggers
nor absorbs collections that belong to the program.  A change to the
package moves the program's times and not the kernel's.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import oracle

REFERENCE_S = 0.02
SAMPLE_EVERY_S = 0.25
NEAR = 2
_WORD = "abAB" * 64


def kernel() -> None:
    for _ in range(4):
        for mu in (2, 3, 5, 16, 64):
            oracle.word_matrix(_WORD, mu)
        total = Fraction(0)
        for k in range(1, 120):
            total += Fraction(1, k)
        seen = {}
        for word in oracle.cyclically_reduced_words(5):
            seen[oracle.orbit_key(word)] = word


def kernel_factor() -> float:
    """One kernel run's time over REFERENCE_S; above 1 on a slower machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return (perf_counter() - start) / REFERENCE_S
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Kernel samples, taken between timed calls or from a timer signal."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.factors: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.starts.append(perf_counter())
            self.factors.append(kernel_factor())
            self.times.append(perf_counter())

    def between_requests(self) -> None:
        if perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    @contextlib.contextmanager
    def during_requests(self):
        """Sample every SAMPLE_EVERY_S from a SIGALRM handler, which runs
        between two bytecodes of whatever the program is doing."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor_at(self, start: float) -> float:
        """Speed factor for a stretch that started at start: the median of
        the NEAR samples before it and the NEAR samples after it."""
        i = bisect.bisect_right(self.times, start)
        return statistics.median(self.factors[max(0, i - NEAR):i + NEAR])

    def stretches(self, start: float, end: float):
        """(seconds, factor) of each stretch of a call from start to end
        between the kernel samples taken inside it."""
        i = bisect.bisect_right(self.times, start)
        while i < len(self.times) and self.starts[i] < end:
            yield self.starts[i] - start, self.factor_at(start)
            start = self.times[i]
            i += 1
        yield end - start, self.factor_at(start)
