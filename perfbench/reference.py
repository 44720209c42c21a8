"""A fixed pure-Python loop that measures the machine's current speed.

On a shared host the speed of one core swings by up to 2x within
seconds, with the load of other tenants, and a run's timings follow it.
While the benchmark times anything, a ``Speedometer`` runs this short
loop from a timer signal every ``INTERVAL_S`` seconds, so the loop
samples the machine's speed all through the timed work.  The loop's own
time is taken out of the measurement, and what remains is scaled to a
nominal machine on which one loop takes ``NOMINAL_S``:

    normalised seconds = (measured - loop time) * NOMINAL_S / mean loop seconds

The loop does the kinds of work echelon does (attribute access on small
objects, dict grouping, float geometry, sorting, JSON encoding), so a
slower machine slows it by about the same factor.  It imports nothing
from echelon: a change to the program cannot change it.
"""

from __future__ import annotations

import json
import math
import signal
from time import perf_counter

# Seconds per loop on the nominal machine: about the loop's median on
# one vCPU of a 2.1 GHz Xeon (Sapphire Rapids) when the host is quiet.
NOMINAL_S = 0.002
INTERVAL_S = 0.05


class _Point:
    __slots__ = ("x", "y", "kind", "heading")

    def __init__(self, x: float, y: float, kind: str, heading: float):
        self.x = x
        self.y = y
        self.kind = kind
        self.heading = heading


def _loop() -> int:
    points = [
        _Point(i * 1.7 % 1000.0, i * 3.1 % 1000.0, f"k{i % 20}", i * 7.0 % 360.0)
        for i in range(400)
    ]
    groups: dict[str, list[_Point]] = {}
    for p in points:
        groups.setdefault(p.kind, []).append(p)
    near = 0
    for members in groups.values():
        for a in members:
            for b in members:
                if math.hypot(a.x - b.x, a.y - b.y) < 300.0 and abs(a.heading - b.heading) < 90.0:
                    near += 1
    ranked = sorted(points, key=lambda p: (p.kind, -p.x, p.y))
    text = json.dumps(
        [{"kind": p.kind, "x": round(p.x, 3), "y": round(p.y, 3)} for p in ranked[:100]],
        sort_keys=True,
    )
    return near + len(text)


class Speedometer:
    """Context manager timing a block, with the loop sampled inside it.

    After the block, ``seconds`` is its wall time less the loops' time,
    ``loop_s`` the mean seconds per loop, and ``normalised`` the block's
    seconds on the nominal machine.  Not reentrant; main thread only.
    """

    def __enter__(self) -> Speedometer:
        self._loops = 0
        self._loop_total = 0.0
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # One loop up front, so a block shorter than the interval is scaled too.
        self._sample()
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.loop_s = self._loop_total / self._loops
        self.seconds = wall - (self._loop_total - self._first)
        self.normalised = self.seconds * NOMINAL_S / self.loop_s

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that arrives during a loop is dropped
            return
        self._busy = True
        t0 = perf_counter()
        _loop()
        dt = perf_counter() - t0
        if not self._loops:
            self._first = dt
        self._loops += 1
        self._loop_total += dt
        self._busy = False
