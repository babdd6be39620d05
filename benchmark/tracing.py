"""In-memory spans recorded by the benchmark around its calls into eegloop.

A span has a name, a start and an end (``time.perf_counter_ns``), the id
of the span that was open on the same thread when it started (its
parent) and an operation id: the epoch, fold or recording it served.
Spans live in a list until the run ends and are then written as JSON
lines. With tracing off, ``span`` and ``call`` add one attribute test
and nothing else, so untraced runs time the program, not the tracer.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from dataclasses import dataclass

now_ns = time.perf_counter_ns


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    pass_index: int | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans when ``enabled``; otherwise every method is a pass-through."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.pass_index: int | None = None
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: int | None = None, op: int | None = None) -> int:
        """Record a span measured elsewhere, e.g. one that crosses threads."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                Span(span_id, name, start_ns, end_ns, parent, op, self.pass_index)
            )
        return span_id

    @contextlib.contextmanager
    def _open(self, name: str, op: int | None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(len(self.spans), name, now_ns(), 0, parent, op, self.pass_index)
            self.spans.append(span)
        stack.append(span.id)
        try:
            yield span
        finally:
            span.end_ns = now_ns()
            stack.pop()

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._open(name, op)

    def call(self, name: str, op: int | None, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span named ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._open(name, op):
            return fn(*args, **kwargs)


def union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_seconds(spans: list[Span], name: str) -> float:
    """Sum over spans called ``name`` of their duration minus what children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    total = 0
    for s in spans:
        if s.name == name:
            total += (s.end_ns - s.start_ns) - union_ns(children.get(s.id, []))
    return total / 1e9


def durations(spans: list[Span], name: str) -> list[float]:
    """Durations in seconds of the spans called ``name``."""
    return [s.seconds for s in spans if s.name == name]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation, 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
