"""Spans recorded by the benchmark around calls into the program.

The program's own recorder stays the default ``NullRecorder``: installing
a flight recorder would switch ``EstimateStore.get_many`` onto its traced
branch and the traced run would time a different program. Spans live
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

from perfbench.stats import self_times


class NullTracer:
    """Tracing off: every span is a no-op."""

    enabled = False

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Collects ``(id, parent, name, start, end)`` spans of nested calls.

    The benchmark runs on one thread, so one stack tracks the open spans.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            )

    def with_self_time(self) -> list[dict]:
        """Every span with a ``self`` field: duration minus its children."""
        spans = self.spans
        own = self_times(
            [(s["id"], s["parent"], s["start"], s["end"]) for s in spans]
        )
        return [dict(s, self=own[s["id"]]) for s in spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.with_self_time(), out)


def layer_totals(spans, root: str) -> list[dict[str, float]]:
    """Per ``root`` span: layer name -> summed self time of its subtree.

    The root's own self time is reported under the root's name, so the
    values of one entry add up to the root's duration.
    """
    by_parent: dict[int, list[dict]] = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out = []
    for top in (s for s in spans if s["name"] == root):
        totals: dict[str, float] = {}
        todo = [top]
        while todo:
            s = todo.pop()
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["self"]
            todo.extend(by_parent.get(s["id"], ()))
        out.append(totals)
    return out
