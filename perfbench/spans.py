"""In-memory span recorder used by the traced runs.

A span is one timed call into a layer: its name, start and end (seconds
on ``time.perf_counter``), the id of the span that was open when it began
(its parent), and the point or request id it belongs to.  Spans are kept
in a list and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List


class SpanRecorder:
    """Records nested spans; the parent is the innermost open span of the
    calling thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, ident: Any = None, **tags: Any) -> Iterator[Dict[str, Any]]:
        """Time the body as span ``name``; yields the record so the body can
        add tags (e.g. hit or miss) before it closes.  Without ``ident`` the
        span inherits its parent's point or request id."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record: Dict[str, Any] = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "ident": ident if ident is not None or parent is None else parent["ident"],
            **tags,
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn, ident_of=None, tag_result=None):
        """``fn`` timed as span ``name`` on every call.

        ``ident_of(*args)`` names the span's id; ``tag_result(result)``
        returns extra tags recorded from the return value.
        """

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            ident = ident_of(*args) if ident_of is not None else None
            with self.span(name, ident) as record:
                result = fn(*args, **kwargs)
                if tag_result is not None:
                    record.update(tag_result(result))
                return result

        return wrapped

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def durations(spans: List[Dict[str, Any]], name: str, **tags: Any) -> List[float]:
    """Durations (s) of the spans called ``name`` that carry ``tags``."""
    return [
        span["end"] - span["start"]
        for span in spans
        if span["name"] == name and all(span.get(k) == v for k, v in tags.items())
    ]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def totals_by_name(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time (s)."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[span["id"]]
    return out
