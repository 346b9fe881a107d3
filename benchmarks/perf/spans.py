"""In-memory spans recorded around calls into the program's layers.

The benchmark records spans from its own files only; stage timers inside
the program are a later change (ROADMAP item 5) and will feed the same
metric names.  Spans are kept in memory and written out when the traced
pass ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator

__all__ = ["Span", "SpanRecorder"]


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    workload: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans of one traced pass; they share the workload as identifier."""

    def __init__(self, workload: str, clock=time.perf_counter) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._clock = clock
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, parent: Span | None = None) -> Iterator[Span]:
        """Time the block; its parent is ``parent`` or the innermost open span.

        A layer replayed after the fold that contained it names that fold
        as its parent, so the fold's self time excludes it.
        """
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else (self._open[-1] if self._open else None),
            workload=self.workload,
            start=self._clock(),
        )
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._open.pop()

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it its child spans cover."""
        children = sum(child.duration for child in self.spans if child.parent == span.id)
        return span.duration - children

    def write(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump([asdict(span) for span in self.spans], stream, indent=1)
