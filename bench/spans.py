"""In-memory span recorder for the traced benchmark run.

A span covers one call from the benchmark into a layer of ``ricguard``: its
name, start, end, the span that encloses it, and the id of the tick it
belongs to (-1 outside ticks). A per-record call made many times in one tick
gets a single span with ``count`` set to the number of records. Spans stay
in memory and are written out once, when the run ends.

A disabled tracer hands out one shared no-op span, so untraced runs carry
no recording cost.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

_now = time.perf_counter_ns

# Span record layout: a list, so the context manager can fill it in place.
NAME, START, END, PARENT, TICK, COUNT = range(6)


class _NoSpan:
    """Shared do-nothing span; ``count`` may be set and is ignored."""

    count = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: list) -> None:
        self._tracer = tracer
        self._record = record

    @property
    def count(self) -> int:
        return self._record[COUNT]

    @count.setter
    def count(self, value: int) -> None:
        self._record[COUNT] = value

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._record[PARENT] = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record[START] = _now()
        return self

    def __exit__(self, *exc) -> bool:
        self._record[END] = _now()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Records spans while ``enabled``; otherwise hands out a no-op span."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tick = -1
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, count: int = 1):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, [name, 0, 0, -1, self.tick, count])

    def write(self, path: Path, summary: dict) -> None:
        """Write every span plus the run summary as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "parent", "tick", "count"]
        with open(path, "w") as fh:
            json.dump({"summary": summary, "fields": fields, "spans": self.spans}, fh)


def durations_ns(spans: list[list], name: str) -> list[int]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def per_tick_ns(spans: list[list], name: str, ticks: list[int]) -> list[int]:
    """Total duration of ``name`` spans in each of ``ticks`` (0 when absent)."""
    totals = dict.fromkeys(ticks, 0)
    for s in spans:
        if s[NAME] == name and s[TICK] in totals:
            totals[s[TICK]] += s[END] - s[START]
    return [totals[t] for t in ticks]


def starts_by_tick(spans: list[list], name: str) -> dict[int, int]:
    """Start of the first ``name`` span of each tick."""
    starts: dict[int, int] = {}
    for s in spans:
        if s[NAME] == name and s[TICK] not in starts:
            starts[s[TICK]] = s[START]
    return starts


def counted(spans: list[list], name: str) -> int:
    return sum(s[COUNT] for s in spans if s[NAME] == name)


def self_times_ns(spans: list[list], ticks: set[int]) -> dict[str, int]:
    """Per span name, over the spans of ``ticks``: total duration minus the
    time its child spans cover."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    totals: dict[str, int] = {}
    for s, children in zip(spans, child_ns):
        if s[TICK] in ticks:
            totals[s[NAME]] = totals.get(s[NAME], 0) + (s[END] - s[START]) - children
    return totals
