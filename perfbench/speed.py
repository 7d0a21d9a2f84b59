"""Machine-speed readings, so that times from a shared machine compare.

The machines this benchmark runs on share cores with other tenants; the
same pure-Python query then takes up to 1.7 times as long for spells of a
second to minutes.  A fixed canary computation, written here and
independent of tropfan, is timed next to every query (at most every
``EVERY_S`` seconds): integer tuples, gcds, dict updates and a few
Fractions, the operations tropfan spends its time on.  The machine's speed
at a moment is the median of three canary times taken within the last
``WINDOW_S`` seconds, and a query's time is scaled by ``REFERENCE_S`` over
the mean of the speeds just before and just after it, which states it at
the speed of a machine whose canary takes ``REFERENCE_S``.  A change to tropfan moves the query times and not
the canary, so scaling keeps every gain and every regression.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from time import perf_counter

REFERENCE_S = 0.004  # canary time at the reference speed
EVERY_S = 0.02       # a reading older than this is refreshed
WINDOW_S = 0.06      # readings older than this no longer count


def canary():
    seen = {}
    acc = 0
    for i in range(1, 1200):
        v = (i % 7 - 3, i % 5 - 2, i % 11 - 5)
        g = 0
        for e in v:
            g = gcd(g, e)
        if g:
            v = tuple(e // g for e in v)
        seen[v] = seen.get(v, 0) + 1
        acc += sum(a * b for a, b in zip(v, (1, -2, 3)))
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i, i + 1)
    return acc, len(seen), f


class Speed:
    """The median of three recent canary times, refreshed when stale."""

    def __init__(self):
        self.recent = []  # (taken at, canary seconds)

    def read(self) -> float:
        now = perf_counter()
        self.recent = [r for r in self.recent[-3:] if now - r[0] < WINDOW_S]
        while len(self.recent) < 3 or now - self.recent[-1][0] > EVERY_S:
            start = perf_counter()
            canary()
            now = perf_counter()
            self.recent.append((now, now - start))
        return sorted(v for _, v in self.recent[-3:])[1]


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between canary readings ``before`` and
    ``after``, stated at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
