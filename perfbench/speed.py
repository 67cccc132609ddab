"""Host-speed calibration: times in reference seconds.

The shared host this benchmark was built on drifts by up to 2x within
seconds (busy neighbours on the same cores); the same container took
195-316 ms within one minute.  ``HostSpeed`` times a fixed pure-Python
loop at *calibration points* — before and after set-up, between passes,
and between jobs once ``EVERY_S`` has passed (in pool workers too) — and
converts a host interval to *reference seconds*: each stretch between two
points is scaled by ``REF_S`` over the mean of the two points' loop
times (the first and last points extend outwards), and the points' own
time is left out.  A reference second is a host second at the speed
where the loop takes ``REF_S``.  The loop is benchmark code, so no change
to the program moves it.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import time
from typing import List, Optional, Tuple

#: (start, end, loop seconds) of one calibration point.
Point = Tuple[float, float, float]


class _Event:
    __slots__ = ("at", "key")

    def __init__(self, at, key):
        self.at, self.key = at, key


@functools.lru_cache(maxsize=1)
def _table():
    """The loop's lookup table, built once per process (forked pool
    workers inherit it)."""
    keys = ["/usr/lib/pkg%05d/file%03d.c" % (i, i % 997)
            for i in range(40_000)]
    return keys, {key: (i, key[:8]) for i, key in enumerate(keys)}


class HostSpeed:
    #: Loop time that defines a reference second (about the loop's
    #: best-of-3 time on a 2-core x86-64 cloud VM, Python 3.11).
    REF_S = 0.010
    #: Minimum host time between two calibration points.
    EVERY_S = 0.2

    def __init__(self, points: Optional[List[Point]] = None):
        self.points: List[Point] = []
        self._ends: List[float] = []
        for point in points or ():
            self.add(point)

    def _loop(self) -> float:
        """Interpreter work shaped like the simulator's: generator
        sends, a heap of small objects and dict lookups over a
        multi-megabyte table of path-like keys.  It tracks the host's
        speed for the program better than a tight arithmetic loop."""
        keys, table = _table()
        t0 = time.perf_counter()

        def guest():
            acc = 0
            while True:
                acc += yield acc

        guests = [guest() for _ in range(16)]
        for g in guests:
            next(g)
        heap, hits = [], 0
        for step in range(3500):
            guests[step & 15].send(step & 7)
            key = keys[(step * 7919) % len(keys)]
            hits += table[key][0] & 1
            heapq.heappush(heap, (step * 37 % 1009, step, _Event(step, key)))
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - t0

    def add(self, point: Point) -> None:
        self.points.append(tuple(point))
        self._ends.append(point[1])

    def point(self) -> Point:
        start = time.perf_counter()
        loop = min(self._loop() for _ in range(3))
        point = (start, time.perf_counter(), loop)
        self.add(point)
        return point

    def maybe_point(self) -> Optional[Point]:
        if not self.points or \
                time.perf_counter() - self.points[-1][1] >= self.EVERY_S:
            return self.point()
        return None

    def calibrating(self, a: float, b: float) -> float:
        """Host seconds spent taking points inside [a, b]."""
        return sum(max(0.0, min(b, e) - max(a, s)) for s, e, _ in self.points)

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds in the host interval [a, b]."""
        pts, ref = self.points, self.REF_S
        first, last = pts[0], pts[-1]
        total = 0.0
        if a < first[0]:
            total += (min(b, first[0]) - a) * ref / first[2]
        if b > last[1]:
            total += (b - max(a, last[1])) * ref / last[2]
        k = max(0, bisect.bisect_right(self._ends, a) - 1)
        while k + 1 < len(pts) and pts[k][1] < b:
            (_s0, e0, c0), (s1, _e1, c1) = pts[k], pts[k + 1]
            lo, hi = max(a, e0), min(b, s1)
            if hi > lo:
                total += (hi - lo) * 2 * ref / (c0 + c1)
            k += 1
        return total
