"""In-memory spans and counters around calls into ltlx layers.

A wrapped function records one span per call: (name, start, end, parent
span index, op id).  Spans stay in memory and are written out once, when
the run ends.  Self time is a span's duration minus the time of the spans
it directly contains, accumulated per name as the run goes.

Wrappers are installed on the name a calling module imported a function
by (for example ``ltlx.engine.unify``), so a function's recursive calls
inside its own module are not counted twice.  A name the module no
longer has is skipped and reads as 0 calls.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

_DONE = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.op_id = -1
        self._stack: list = []  # [span index, time covered by child spans]
        self._patched: list = []

    def _span(self, name, fn, args, kwargs):
        stack, spans = self._stack, self.spans
        parent = stack[-1][0] if stack else -1
        index = len(spans)
        spans.append(None)
        frame = [index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name, fn, count_hits=False):
        """A function that calls `fn` inside a span named `name`."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            result = self._span(name, fn, args, kwargs)
            if count_hits and result is not None:
                self.hits[name] += 1
            return result

        return traced

    def wrap_lazy(self, name, fn):
        """Like wrap, for a generator function whose callers may stop early.

        Each resume of the generator is its own span, so time spent by the
        consumer between results is not charged to `name`.
        """

        def traced(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                item = self._span(name, next, (inner, _DONE), {})
                if item is _DONE:
                    return
                yield item

        return traced

    def patch(self, module_name: str, attr: str, name: str, lazy=False, count_hits=False):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self.wrap_lazy(name, original) if lazy else self.wrap(name, original, count_hits)
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line, times in microseconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\t{parent}\t{op}\n")

    def top_level_durations(self, name: str) -> dict:
        """Total duration per op of the spans named `name` that no other span contains."""
        totals: defaultdict = defaultdict(float)
        for span_name, start, end, parent, op in self.spans:
            if span_name == name and parent == -1 and op >= 0:
                totals[op] += end - start
        return totals


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 without two distinct sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
