"""Spans recorded around the benchmark's own calls into pilotseq.

A span holds its name, start, end, parent span and the pass (request) it
belongs to.  Spans stay in memory and are written out when the run ends.
The untraced passes use NULL_TRACER, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def totals(self, request: int) -> dict[str, float]:
        """Summed duration per span name within one pass."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["request"] == request:
                out[s["name"]] += s["end"] - s["start"]
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)


class _NullTracer:
    request = None

    def span(self, name: str):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()
