"""Spans and counts recorded around the benchmark's calls into each layer.

A span is (id, parent id, name, start ns, end ns); spans stay in memory
and are handed to the caller when the round ends.  With tracing off,
call() is a plain call and nothing is recorded.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args):
        """Run fn(*args), inside a span called name when tracing."""
        if not self.enabled:
            return fn(*args)
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, parent, name, time.perf_counter_ns(), None]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            record[4] = time.perf_counter_ns()

    def count(self, name, amount):
        if self.enabled:
            self.counts[name] += amount


def self_times(spans):
    """Seconds per span name: each span's duration minus what its children cover.

    Child intervals are merged before subtraction and clipped to the
    parent, so overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for span_id, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for span_id, _parent, name, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children[span_id]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start - covered) / 1e9
    return dict(totals)
