"""A fixed pure-Python computation that measures the machine's speed.

The benchmark runs on shared machines whose speed drifts over tens of
seconds. Measured on a 2-vCPU VM: one fixed solve took 0.24-0.45 s within
a minute, and the mean of identical work over 30-second windows spread by
17% (quartile distance over median). A speed-up or a regression of that
size would be lost in it.

So the benchmark runs this search between items, and scales each time it
reports by NOMINAL_S / (time of this search next to it, as the median of
the nearest samples): the times read as on a machine where this search
takes NOMINAL_S. Over the same windows, times scaled this way spread by
3%. The search shares no
code with satplat, so a change to the library cannot move it; it does the
same kind of work (tuples, a set, a deque) so that it slows with the
machine as the library does.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

NOMINAL_S = 0.010
EVERY_S = 0.5  # seconds between samples during a loop
NEAREST = 3  # samples whose median scales one interval
SIDE = 24
STATES = 4608  # what `search` must find; guards against an edit to it


def search() -> int:
    """BFS over (x, y, bits) on a SIDE x SIDE torus where some cells
    toggle one of three bits; returns the number of states reached."""
    start = (0, 0, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        x, y, bits = queue.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)):
            nx, ny = (x + dx) % SIDE, (y + dy) % SIDE
            nbits = bits ^ (1 << (nx * 7 + ny) % 3) if (nx + ny) % 5 == 0 else bits
            key = (nx, ny, nbits)
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return len(seen)


class Clock:
    """Samples of the reference search, taken through a run, and the
    factor that turns a time measured at some moment into nominal time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)

    def sample(self):
        start = perf_counter()
        states = search()
        end = perf_counter()
        if states != STATES:
            raise RuntimeError(f"reference search found {states} states, not {STATES}")
        self.samples.append((end, end - start))

    def tick(self):
        """Sample if EVERY_S seconds have passed since the last sample."""
        if not self.samples or perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def median(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median of the NEAREST samples taken
        closest to the middle of [start, end]: the machine's speed drifts
        within a run too."""
        middle = (start + end) / 2
        near = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:NEAREST]
        return NOMINAL_S / statistics.median(seconds for _, seconds in near)
