"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is (id, name, solve, start, end, parent).  Spans of one solve carry
the same ``solve`` label; a span without one inherits its parent's.  The
spans are kept in a list and written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans with ``time.perf_counter`` start and end times."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, solve: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if solve is None and parent is not None:
            solve = parent["solve"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "solve": solve,
            "parent": None if parent is None else parent["id"],
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration less its children's.

        Children run one after another inside their parent, so the part of
        the parent's interval they cover is the sum of their durations.
        """
        child_total: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_total[rec["parent"]] += rec["end"] - rec["start"]
        totals: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            totals[rec["name"]] += rec["end"] - rec["start"] - child_total[rec["id"]]
        return dict(totals)

    def root_seconds(self) -> float:
        return sum(r["end"] - r["start"] for r in self.spans if r["parent"] is None)


class NullTracer:
    """Same interface, records nothing: the untraced path."""

    def span(self, name: str, solve: str | None = None):
        return nullcontext()
