"""In-memory spans and the self-time arithmetic over them.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1.  Spans are appended when they open, so a parent
always precedes its children.  A span's self time is its duration minus the
part of its interval that its direct child spans cover.

Only the standard library is used: the traced process imports this module
before it times the import of the package.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Records spans and named counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span named ``name``.

        ``count(counts, args, result)``, when given, updates the counters
        after each call.
        """
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> dict:
    """Total self time per span name."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(idx, []), start, end)
    return dict(out)


def total_times(spans: list) -> dict:
    """Total duration per span name; meant for names whose spans never nest,
    such as one runner or the whole run."""
    out: dict = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)
