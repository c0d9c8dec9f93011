"""Host speed. On the shared host this benchmark was written on, the same
work ran up to twice as slowly for minutes at a time. A fixed pure-Python
loop, timed all through a run, slows down with it, so the run's timings
are rescaled to the host speed at which the loop takes
REFERENCE_NOMINAL_S. The loop is not otwb code and never changes, so a
change to otwb moves the rescaled times by the same factor as it moves
wall time measured at one host speed.

This module imports nothing from otwb, so that the import of otwb itself
can be timed and rescaled.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

REFERENCE_EVERY_S = 0.1
REFERENCE_NOMINAL_S = 0.0015
REFERENCE_WINDOW = 5  # samples on each side that give an item its local host speed


def reference_work() -> int:
    d: Dict[frozenset, int] = {}
    for i in range(3000):
        k = frozenset((i % 37, i % 11, i % 5))
        d[k] = d.get(k, 0) + len(k)
    return len(d)


def trimmed_mean(samples: Sequence[float]) -> float:
    """Mean without the top and bottom tenth: it follows the mix of fast
    and slow stretches, but not a single long preemption."""
    s = sorted(samples)
    k = len(s) // 10
    return sum(s[k:len(s) - k]) / (len(s) - 2 * k)


def speed_scale(samples: Sequence[float]) -> Tuple[float, float]:
    """(reference time, factor that rescales timings to the nominal host
    speed) over a whole run."""
    ref = trimmed_mean(samples)
    return ref, REFERENCE_NOMINAL_S / ref


class Clock:
    """Times a sequence of items, and between items, untimed, times
    reference_work() at most every `every` seconds. `scaled()` gives each
    item's time at nominal host speed, rescaled by the trimmed mean of the
    reference samples taken around it."""

    def __init__(self, every: float = REFERENCE_EVERY_S):
        self.every = every
        self.times: List[float] = []  # wall time of each item
        self.reference: List[float] = []  # reference_work() times
        self._sample_at: List[int] = []  # per item, the latest sample before it
        self._last = float("-inf")

    @contextmanager
    def item(self, name: str = ""):
        """Time one item; usable as a span factory."""
        if perf_counter() - self._last >= self.every:
            t0 = perf_counter()
            reference_work()
            self._last = perf_counter()
            self.reference.append(self._last - t0)
        self._sample_at.append(len(self.reference) - 1)
        t0 = perf_counter()
        yield
        self.times.append(perf_counter() - t0)

    def scaled(self) -> List[float]:
        w = REFERENCE_WINDOW
        local = [trimmed_mean(self.reference[max(0, j - w):j + w + 1])
                 for j in range(len(self.reference))]
        return [x * REFERENCE_NOMINAL_S / local[j] for x, j in zip(self.times, self._sample_at)]
