"""In-memory span recording around calls into satplat's public functions.

The benchmark routes every call it makes into the library through a
tracer. `NullTracer` (untraced runs) only forwards the call; `Tracer`
records a span per call, with the enclosing span as its parent and the
current item as its identifier, and writes them out at the end.
Very frequent calls (the public `sim.step` made by `verify`) are timed
in aggregate per item instead of as spans; their time still counts as
covered time of the enclosing span.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int | str | None
    hot: float = 0.0


class NullTracer:
    item: int | str | None = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple, float] = {}
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def count(self, name, amount):
        key = (self.item, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def tally(self, name, fn):
        """Wrap `fn` so each call adds to the `name.calls` and `name.s`
        counters and to the enclosing span's hot time."""
        calls, seconds = name + ".calls", name + ".s"

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.count(calls, 1)
                self.count(seconds, elapsed)
                if self._stack:
                    self.spans[self._stack[-1]].hot += elapsed

        return timed

    def total(self, name, items=None) -> float:
        """Sum of a counter over the given items (all items if None)."""
        return sum(v for (item, n), v in self.counters.items()
                   if n == name and (items is None or item in items))

    def write(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")
