"""Structured JSONL event log (``obs.events``).

Spans answer *where time went*; events answer *what happened*: one
append-only JSON-lines file of leveled, timestamped, span-correlated
records emitted at the pipeline's state changes — phase boundaries,
exchange retries, injected faults, native-cache misses, autotune
accept/reject steps.  A run's event log is the narration the
``repro monitor`` dashboard tails, and it survives the process (unlike
the in-memory flight ring).

Emission is **off by default** and free when off: :func:`emit` is one
``None`` check until a sink is installed (:func:`repro.obs.session`
installs ``--event-log FILE``, else ``$REPRO_EVENT_LOG``).  Each
record carries::

    {"ts": <wall seconds>, "level": "info", "event": "comm.retry",
     "span": "comm.exchange", "span_id": 42, "rank": 1, ...fields}

``ts`` is derived from the tracer's anchored (wall, monotonic) clock
pair, so events and exported spans share one timebase.  ``span``/
``span_id`` bind the event to the innermost span open on the emitting
thread (when tracing is live), and thread-scope attrs such as ``rank``
are folded in under the explicit fields.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterator, List, Optional, TextIO

from .trace import tracer

__all__ = [
    "EventLog",
    "emit",
    "install",
    "uninstall",
    "current",
    "read_events",
    "ENV_EVENT_LOG",
    "ENV_EVENT_LOG_MAX_BYTES",
]

#: environment variable naming the default event-log path
ENV_EVENT_LOG = "REPRO_EVENT_LOG"
#: size cap in bytes; exceeding it rolls the file over to ``<path>.1``
ENV_EVENT_LOG_MAX_BYTES = "REPRO_EVENT_LOG_MAX_BYTES"

_LEVELS = {"debug": 10, "info": 20, "warn": 30, "error": 40}


def _max_bytes_from_env() -> Optional[int]:
    raw = os.environ.get(ENV_EVENT_LOG_MAX_BYTES, "")
    try:
        cap = int(raw)
    except ValueError:
        return None
    return cap if cap > 0 else None


class EventLog:
    """One append-only JSONL sink (thread-safe, line-buffered).

    With a size cap (``max_bytes`` argument, default from
    ``REPRO_EVENT_LOG_MAX_BYTES``) the file rolls over **once**: when
    the next record would push it past the cap, the current file is
    renamed to ``<path>.1`` (replacing any previous rollover) and
    emission continues into a fresh ``<path>`` — so an unattended run
    keeps at most ``2 × max_bytes`` of narration, newest always in
    ``<path>``.
    """

    def __init__(self, path: str, min_level: str = "debug",
                 max_bytes: Optional[int] = None):
        if min_level not in _LEVELS:
            raise ValueError(f"unknown event level {min_level!r}")
        self.path = path
        self.min_level = min_level
        self.max_bytes = (max_bytes if max_bytes is not None
                          else _max_bytes_from_env())
        self._threshold = _LEVELS[min_level]
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = open(path, "a", encoding="utf-8")
        try:
            self._size = os.path.getsize(path)
        except OSError:
            self._size = 0
        self._count = 0
        self._rotations = 0

    @property
    def count(self) -> int:
        """Records written through this sink."""
        return self._count

    @property
    def rotations(self) -> int:
        """How many times the file has rolled over to ``<path>.1``."""
        return self._rotations

    def _rotate_locked(self) -> None:
        assert self._fh is not None
        self._fh.close()
        os.replace(self.path, self.path + ".1")
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self._rotations += 1

    def emit(self, event: str, level: str = "info", **fields: Any) -> None:
        """Append one record (no-op below ``min_level`` or when closed)."""
        lvl = _LEVELS.get(level)
        if lvl is None:
            raise ValueError(f"unknown event level {level!r}")
        if lvl < self._threshold or self._fh is None:
            return
        tr = tracer()
        record: Dict[str, Any] = {
            "ts": round(tr.wall_time_s(tr.now_s()), 6),
            "level": level,
            "event": event,
        }
        cur = tr.current_span()
        if cur is not None:
            record["span"] = cur.name
            record["span_id"] = cur.span_id
        # thread-scope attrs (rank= etc.) under the explicit fields
        ctx = getattr(tr._tls, "ctx", None)
        if ctx:
            for k, v in ctx.items():
                record.setdefault(k, v)
        for k, v in fields.items():
            record[k] = v
        line = json.dumps(record, default=str, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                return
            nbytes = len(line.encode("utf-8")) + 1
            if (self.max_bytes is not None and self._size > 0
                    and self._size + nbytes > self.max_bytes):
                self._rotate_locked()
            self._fh.write(line + "\n")
            self._fh.flush()  # tailers must see records promptly
            self._size += nbytes
            self._count += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


_SINK: Optional[EventLog] = None


def install(path: str, min_level: str = "debug") -> EventLog:
    """Open ``path`` as the process-global event sink (replaces any)."""
    global _SINK
    if _SINK is not None:
        _SINK.close()
    _SINK = EventLog(path, min_level=min_level)
    return _SINK


def uninstall() -> None:
    """Close and detach the global sink (emit() becomes free again)."""
    global _SINK
    if _SINK is not None:
        _SINK.close()
        _SINK = None


def current() -> Optional[EventLog]:
    """The installed global sink, or ``None``."""
    return _SINK


def emit(event: str, level: str = "info", **fields: Any) -> None:
    """Emit one record to the global sink (free no-op when none)."""
    sink = _SINK
    if sink is None:
        return
    sink.emit(event, level=level, **fields)


def read_events(path: str, tolerant: bool = True) -> Iterator[Dict[str, Any]]:
    """Iterate records from a JSONL event log.

    ``tolerant=True`` (the default, for tailing live files) skips a
    truncated final line instead of raising; any *earlier* malformed
    line still raises, since that means the file is not an event log.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines: List[str] = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            if tolerant and i == len(lines) - 1:
                return  # mid-write tail of a live file
            raise ValueError(
                f"{path}:{i + 1}: not a JSONL event log record: {line[:80]!r}"
            ) from None
