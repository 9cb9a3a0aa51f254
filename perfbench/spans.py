"""In-memory spans recorded around calls into the program's layers.

A span has a name ``<layer>.<call>``, start and end times, the span that was
open when it started (its parent) and the id of the operation it belongs to.
Spans stay in memory; the benchmark writes them to its result file when the
run ends. A layer's self time is each of its spans' duration minus the time
covered by that span's children.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` costs one branch."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int]] = []   # (span_id, op) of open spans
        self._next_id = 0
        self._next_op = 0

    @contextmanager
    def span(self, name: str, new_op: bool = False):
        """Time the enclosed block; ``new_op`` starts a new operation id."""
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent, op = self._stack[-1] if self._stack else (None, self._next_op)
        if new_op or parent is None:
            op = self._next_op
            self._next_op += 1
        self._stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, op))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.span_id)]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per layer: span duration minus its children's.

    Children of one span never overlap (the harness is single-threaded and
    waits for each child process), so their durations simply add up.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + s.duration - covered.get(s.span_id, 0.0)
    return totals
