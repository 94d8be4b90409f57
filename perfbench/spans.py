"""In-memory spans around the benchmark's calls into potts_lab, and the
statistics the benchmark reports from them.

A span records a name, start and end times, the index of its parent span
and the op it belongs to.  Spans stay in memory until the run ends.  Self
time is a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def span(self, name, op=None):
        return nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records nested spans; the clock is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), None, parent, op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def layer_stats(spans: list[Span], names) -> dict:
    """calls, summed self time (ms) and median duration (ms) per span name;
    names with no spans report zeros."""
    selfs = self_times(spans)
    by_name: dict[str, tuple[list, list]] = {n: ([], []) for n in names}
    for s, st in zip(spans, selfs):
        if s.name in by_name:
            by_name[s.name][0].append(s.end - s.start)
            by_name[s.name][1].append(st)
    return {
        n: {
            "calls": len(d),
            "self_ms": 1e3 * sum(st),
            "p50_ms": 1e3 * statistics.median(d) if d else 0.0,
        }
        for n, (d, st) in by_name.items()
    }


def tail_latency(latencies, min_beyond: int = TAIL_MIN_BEYOND):
    """The latency at the highest percentile that still has `min_beyond`
    samples above it, as (percentile, value, samples beyond), or None when
    that percentile would not lie above the median."""
    n = len(latencies)
    rank = n - min_beyond  # 1-based nearest rank
    if 2 * rank <= n:
        return None
    return 100.0 * rank / n, sorted(latencies)[rank - 1], min_beyond
