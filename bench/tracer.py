"""In-memory spans recorded around the benchmark's calls into ``dhp``.

A span is (name, start, end, parent, call id).  Spans are kept in a list
while the workload runs and written out once at the end.  A span's self
time is its duration minus the time its direct children cover; the
children of one span never overlap, because the benchmark makes one call
at a time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, call_id=None):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, call_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, by span index."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def mark(self) -> int:
        """A position to pass to ``self_ms_by_name`` later."""
        return len(self.spans)

    def self_ms_by_name(self, since: int = 0) -> dict[str, float]:
        """Total self time in ms by span name, over spans from ``since`` on."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans[since:], self.self_times()[since:]):
            totals[span[0]] += own * 1e3
        return dict(totals)

    def dump(self, path) -> None:
        own = self.self_times()
        rows = [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "call": call_id,
                "self_ms": o * 1e3,
            }
            for (name, start, end, parent, call_id), o in zip(self.spans, own)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class NullTracer:
    """Tracing off: ``span`` costs one call and records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, call_id=None):
        return self._null


NULL = NullTracer()
