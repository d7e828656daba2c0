"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own code: either around a call
site (:meth:`Tracer.span`) or by wrapping a public method of the
program for the life of the traced phase (:meth:`Tracer.wrap`), which
puts a span around every call the program makes to it.  Nothing is
written until the run ends (:meth:`Tracer.dump`).

A span is ``[name, start, end, parent, child_seconds, tag]``; times
are ``perf_counter`` seconds, ``parent`` is the index of the enclosing
span (or -1) and ``child_seconds`` the time covered by its direct
children, so self time is ``end - start - child``.  Spans are opened
and closed on one thread; a client thread's timings are added after
the fact with :meth:`Tracer.add`.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, CHILD, TAG = range(6)


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, perf_counter(), None, stack[-1] if stack else -1, 0.0, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()
        if record[PARENT] >= 0:
            self.spans[record[PARENT]][CHILD] += record[END] - record[START]

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def add(self, name: str, start: float, end: float, tag=None) -> None:
        """Record a span measured elsewhere (e.g. by a client thread)."""
        self.spans.append([name, start, end, -1, 0.0, tag])

    def wrap(self, owner, attribute: str, name: str, tag=None) -> None:
        """Replace ``owner.attribute`` by a spanned call until
        :meth:`unwrap`.  ``tag(result)`` may label the span from the
        call's return value."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if tag is not None:
                record[TAG] = tag(result)
            return result

        setattr(owner, attribute, spanned)
        self._patches.append((owner, attribute, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- summaries -----------------------------------------------------
    def durations(self, name: str, tag=None, self_time: bool = False) -> list[float]:
        """Durations (seconds) of every closed span called ``name``,
        optionally only those tagged ``tag``, optionally self time."""
        out = []
        for span in self.spans:
            if span[NAME] != name or span[END] is None:
                continue
            if tag is not None and span[TAG] != tag:
                continue
            value = span[END] - span[START]
            out.append(value - span[CHILD] if self_time else value)
        return out

    def median_ms(self, name: str, **kwargs) -> float:
        values = self.durations(name, **kwargs)
        return 1e3 * statistics.median(values) if values else 0.0

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds."""
        table: dict[str, dict] = {}
        for span in self.spans:
            if span[END] is None:
                continue
            row = table.setdefault(
                span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span[END] - span[START]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - span[CHILD]
        return table

    def dump(self, path, extra: dict | None = None) -> None:
        """Write totals and every span as JSON (times relative to the
        first span)."""
        origin = min((s[START] for s in self.spans), default=0.0)
        document = {
            "totals": self.totals(),
            "spans": [
                [s[NAME], s[START] - origin, (s[END] or s[START]) - origin, s[PARENT], s[TAG]]
                for s in self.spans
            ],
        }
        if extra:
            document.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
