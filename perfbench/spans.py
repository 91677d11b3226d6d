"""In-memory span and counter recording for the traced benchmark run.

The benchmark wraps library entry points with ``Tracer.wrap``; nothing in the
library itself is changed.  A span is [name, start, end, parent, op]: parent
is the index of the enclosing span (-1 at top level) and op is the index of
the op the span ran under (-1 outside any op).  Spans stay in memory until
``dump`` writes them out at exit.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(counters, args, result)``
        runs after the span closes, so its cost is not billed to the layer."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                note(self.counters, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def dump(self, path, **extra) -> None:
        payload = {"spans": self.spans, "counters": dict(self.counters), **extra}
        with open(path, "w") as fh:
            json.dump(payload, fh)
