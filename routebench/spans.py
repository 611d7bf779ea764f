"""In-memory spans recorded from the benchmark's own files.

Each span has a name, start, end, the span that caused it and the id of
the request it belongs to.  Spans stay in memory and are written out as
JSON Lines when the run ends.  With tracing off, :meth:`Spans.span` is a
shared no-op context, so the untraced run pays one attribute check per
boundary.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from typing import List, Optional


class _Span:
    __slots__ = ("owner", "name", "request", "parent", "start", "end", "id")

    def __init__(self, owner: "Spans", name: str, request,
                 parent: Optional[int] = None, start: float = 0.0,
                 end: float = 0.0) -> None:
        self.owner = owner
        self.name = name
        self.request = request
        self.parent = parent
        self.start = start
        self.end = end
        self.id = -1

    def __enter__(self) -> "_Span":
        owner = self.owner
        mark = time.perf_counter()
        self.parent = owner.stack[-1].id if owner.stack else None
        owner.append(self)
        owner.stack.append(self)
        self.start = time.perf_counter()
        owner.overhead += self.start - mark
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.owner.stack.pop()
        self.owner.overhead += time.perf_counter() - self.end

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """Span recorder for one run.

    :meth:`span` nests through a stack and serves the single-threaded
    loops; :meth:`record` appends an already finished span and is what
    the service's sender threads use (``list.append`` is atomic).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[_Span] = []
        self.stack: List[_Span] = []
        #: Seconds spent on tracing-only work (bookkeeping and the
        #: extra calls a traced run makes), for ``trace.overhead_ratio``.
        self.overhead = 0.0
        self._ids = itertools.count()

    def append(self, span: _Span) -> None:
        span.id = next(self._ids)
        self.records.append(span)

    def span(self, name: str, request=None):
        if not self.enabled:
            return contextlib.nullcontext()
        return _Span(self, name, request)

    def record(self, name: str, start: float, end: float,
               request=None) -> None:
        if self.enabled:
            self.append(_Span(self, name, request, None, start, end))

    @contextlib.contextmanager
    def extra(self):
        """Time work done only because tracing is on."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.overhead += time.perf_counter() - start

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.records if s.name == name)

    def write(self, path: str, run: str) -> None:
        with open(path, "w") as handle:
            for s in self.records:
                handle.write(json.dumps({
                    "run": run, "id": s.id, "parent": s.parent,
                    "name": s.name, "request": s.request,
                    "start": s.start, "end": s.end}) + "\n")
