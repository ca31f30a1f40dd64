"""In-memory span recorder for the traced run.

A span is ``{name, start, end, parent, cycle}``: ``parent`` is the index
of the enclosing span (None for a root), ``cycle`` the id shared by
every span of one decomposed cycle.  Spans are kept in memory and
written once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.cycle = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "cycle": self.cycle}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans,
                       "self_s": self_times(self.spans)}, f)


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.  Children are clipped to
    the parent and merged first, so overlapping children are counted
    once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, edge = 0.0, s["start"]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, edge), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s["end"] - s["start"] - covered)
    return out
