"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer's public functions; nothing inside ``src/`` is instrumented
and ``repro.obs`` stays off.  Spans are kept in memory and written out
once, when the traced run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Recorder", "covered", "self_times"]


@dataclass
class Span:
    """One timed call: ``parent`` is the span that caused it, ``op_id``
    is shared by every span of one op, ``kind`` is ``"op"`` for a call
    that is part of the decomposed op and ``"probe"`` for a call timed
    in isolation beside it."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: Optional[int]
    kind: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; safe to use from simmpi rank threads (each
    thread keeps its own parent stack, ``list.append`` is atomic)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op_id: Optional[int] = None
        self.kind = "probe"
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str,
             parent: Optional[int] = None) -> Iterator[int]:
        """Time the block; ``parent`` overrides the enclosing span of
        this thread (rank threads start with an empty stack)."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   self.op_id, self.kind))

    @contextmanager
    def op(self, op_id: int) -> Iterator[int]:
        """The root span of one decomposed op."""
        self.op_id, self.kind = op_id, "op"
        try:
            with self.span("op") as sid:
                yield sid
        finally:
            self.op_id, self.kind = None, "probe"

    def durations(self, name: str, kind: Optional[str] = None
                  ) -> List[float]:
        return [s.duration for s in self.spans
                if s.name == name and (kind is None or s.kind == kind)]

    def to_json(self) -> List[dict]:
        self_s = self_times(self.spans)
        return [
            {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op_id": s.op_id, "kind": s.kind,
             "self_s": self_s[s.sid]}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]


def covered(span: Span, children: List[Span]) -> float:
    """Length of the part of ``span``'s interval its children cover
    (children on different rank threads overlap: count the union)."""
    total = 0.0
    edge = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, edge)
        hi = min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            edge = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """A span's self time: its duration minus the interval its
    children cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.sid: s.duration - covered(s, children.get(s.sid, []))
        for s in spans
    }
