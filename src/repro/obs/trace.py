"""Hierarchical execution tracing (the ``repro.obs`` span layer).

A *span* is one timed region of the pipeline — ``codegen.sunway``,
``comm.pack``, ``autotune.trial`` — with arbitrary key/value attributes
and parent/child nesting.  Spans are recorded by a process-global
:class:`Tracer` that is **disabled by default**: every instrumentation
site calls :func:`span`, and when tracing is off that call returns one
shared, stateless no-op context manager, so the instrumented hot paths
(``distributed_run`` steps, halo exchanges, annealing trials) pay only
a flag check and allocate nothing.

The tracer is thread-safe: the simulated MPI runtime runs every rank on
its own thread, and each thread keeps its own span stack (so nesting is
per rank) while finished spans land in one shared record list.

Typical use::

    from repro.obs import span, enable, tracer

    enable()
    with span("codegen.sunway", stencil="3d7pt_star") as sp:
        ...
        sp.set(files=6)
    print(len(tracer().records))
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional

__all__ = [
    "Span",
    "FlightRecorder",
    "Tracer",
    "tracer",
    "span",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "attach_flow",
    "enable_flight",
    "disable_flight",
    "flight",
    "flight_default",
    "preserved",
]

#: default flight-recorder ring capacity (spans)
DEFAULT_FLIGHT_CAPACITY = 2048


def flight_default() -> Optional[int]:
    """The flight ring a command runs with: ``None`` when
    ``REPRO_FLIGHT`` opts out, else ``REPRO_FLIGHT_CAPACITY`` spans
    (default :data:`DEFAULT_FLIGHT_CAPACITY`)."""
    if os.environ.get("REPRO_FLIGHT", "1").lower() in ("0", "off", "false",
                                                       "no"):
        return None
    try:
        return max(1, int(os.environ["REPRO_FLIGHT_CAPACITY"]))
    except (KeyError, ValueError):
        return DEFAULT_FLIGHT_CAPACITY


@dataclass
class Span:
    """One finished span (times are seconds since the tracer epoch)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_s: float
    thread: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


class FlightRecorder:
    """Bounded ring buffer of completed spans (the *flight recorder*).

    Full tracing (:meth:`Tracer.enable`) keeps every span in an
    unbounded list — right for one bounded run that exports a file at
    the end, wrong for a long-lived service.  The flight recorder is
    the always-on alternative: completed spans land in a ring of fixed
    ``capacity``; once full, the oldest span is evicted and counted
    under ``obs.dropped_spans``, so memory never grows past the
    configured bound no matter how long the run lives.

    ``sample`` maps span names to a keep-1-in-N rate
    (``{"runtime.kernel_eval": 16}``): only every Nth completed span of
    that name enters the ring (deterministic per-name counters, no
    RNG), which keeps hot inner loops from flushing out the rare
    interesting spans.  Sampled-out spans are accounted separately
    from ring evictions.

    All methods are thread-safe; the recorder is attached to a
    :class:`Tracer` via :meth:`Tracer.enable_flight`.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY,
                 sample: Optional[Mapping[str, int]] = None):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be >= 1")
        self.capacity = capacity
        self.sample: Dict[str, int] = {}
        for name, n in (sample or {}).items():
            n = int(n)
            if n < 1:
                raise ValueError(
                    f"sample rate for {name!r} must be >= 1, got {n}"
                )
            self.sample[str(name)] = n
        self._lock = threading.Lock()
        # maxlen is a hard backstop: even a bookkeeping bug can never
        # grow the ring past capacity
        self._ring: Deque[Span] = deque(maxlen=capacity)
        self._seen = 0
        self._kept = 0
        self._dropped = 0
        self._sampled_out = 0
        self._name_counts: Dict[str, int] = {}

    # -- recording -------------------------------------------------------
    def record(self, record: Span) -> None:
        """Offer one completed span to the ring."""
        with self._lock:
            self._seen += 1
            rate = self.sample.get(record.name, 1)
            if rate > 1:
                seq = self._name_counts.get(record.name, 0)
                self._name_counts[record.name] = seq + 1
                if seq % rate:
                    self._sampled_out += 1
                    return
            if len(self._ring) == self.capacity:
                self._dropped += 1
                dropped = True
            else:
                dropped = False
            self._ring.append(record)
            self._kept += 1
        if dropped:
            # mirror the eviction into the metrics registry so scrapes
            # see drop pressure; the local counter above is the source
            # of truth and never depends on the registry being enabled
            from .metrics import counter as _counter

            _counter("obs.dropped_spans")

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._seen = self._kept = 0
            self._dropped = self._sampled_out = 0
            self._name_counts = {}

    # -- accounting ------------------------------------------------------
    @property
    def seen(self) -> int:
        """Completed spans offered to the recorder."""
        return self._seen

    @property
    def kept(self) -> int:
        """Spans that entered the ring (≤ seen)."""
        return self._kept

    @property
    def dropped(self) -> int:
        """Ring evictions (the ``obs.dropped_spans`` count)."""
        return self._dropped

    @property
    def sampled_out(self) -> int:
        """Spans skipped by per-name sampling (not evictions)."""
        return self._sampled_out

    def counts(self) -> Dict[str, int]:
        """One consistent accounting snapshot."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "buffered": len(self._ring),
                "seen": self._seen,
                "kept": self._kept,
                "dropped": self._dropped,
                "sampled_out": self._sampled_out,
            }

    # -- reading ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self) -> List[Span]:
        """Buffered spans, oldest first (a consistent copy)."""
        with self._lock:
            return list(self._ring)

    def top(self, k: int = 5, by: str = "total") -> List[Dict[str, Any]]:
        """Hottest span names over the buffered window.

        ``by`` is ``"total"`` (aggregate duration) or ``"count"``.
        Each entry carries name/count/total_s/max_s/avg_s.
        """
        if by not in ("total", "count"):
            raise ValueError(f"unknown top-k ordering {by!r}")
        agg: Dict[str, Dict[str, Any]] = {}
        for s in self.snapshot():
            node = agg.setdefault(
                s.name, {"name": s.name, "count": 0, "total_s": 0.0,
                         "max_s": 0.0}
            )
            node["count"] += 1
            node["total_s"] += s.duration_s
            node["max_s"] = max(node["max_s"], s.duration_s)
        for node in agg.values():
            node["avg_s"] = node["total_s"] / node["count"]
        key = "total_s" if by == "total" else "count"
        ordered = sorted(agg.values(), key=lambda n: -n[key])
        return ordered[:max(0, int(k))]

    def span_rate(self, window_s: float, now_s: float) -> float:
        """Spans/second completed in the trailing window.

        ``now_s`` is the caller's current tracer-epoch offset (pair it
        with ``time.perf_counter() - epoch``); only buffered spans are
        visible, so the rate saturates once the window outlives the
        ring.
        """
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        lo = now_s - window_s
        n = sum(1 for s in self.snapshot() if s.end_s >= lo)
        return n / window_s


class _NoopSpan:
    """The active-span stand-in when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


class _NoopContext:
    """Shared, stateless no-op context manager (safe to re-enter)."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP_CONTEXT = _NoopContext()


class _ActiveSpan:
    """A span currently open on some thread's stack."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "t0")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 attrs: Dict[str, Any]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attrs", "_active")

    def __init__(self, tr: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tr
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> _ActiveSpan:
        tr = self._tracer
        ctx = getattr(tr._tls, "ctx", None)
        if ctx:
            # thread-context attrs (e.g. rank=) under explicit ones
            merged = dict(ctx)
            merged.update(self._attrs)
            self._attrs = merged
        stack = tr._stack()
        parent = stack[-1].span_id if stack else None
        with tr._lock:
            sid = tr._next_id
            tr._next_id += 1
        active = _ActiveSpan(sid, parent, self._name, self._attrs)
        stack.append(active)
        self._active = active
        active.t0 = time.perf_counter()
        return active

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        tr = self._tracer
        active = self._active
        stack = tr._stack()
        # tolerate out-of-order exits (e.g. enable() raced a live span)
        if stack and stack[-1] is active:
            stack.pop()
        if exc_type is not None:
            active.attrs["error"] = exc_type.__name__
        record = Span(
            span_id=active.span_id,
            parent_id=active.parent_id,
            name=active.name,
            start_s=active.t0 - tr._epoch,
            duration_s=t1 - active.t0,
            thread=threading.current_thread().name,
            attrs=active.attrs,
        )
        if tr._keep_all:
            with tr._lock:
                tr.records.append(record)
        fl = tr._flight
        if fl is not None:
            fl.record(record)
        return False


class Tracer:
    """Thread-safe in-memory span recorder.

    Disabled by default; :meth:`span` is a no-op until :meth:`enable`.
    """

    def __init__(self) -> None:
        self._enabled = False
        #: full recording on (every span appended to ``records``)
        self._keep_all = False
        #: attached :class:`FlightRecorder`, or ``None``
        self._flight: Optional[FlightRecorder] = None
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_id = 1
        self._anchor()
        #: finished spans, appended at span exit
        self.records: List[Span] = []

    def _anchor(self) -> None:
        """Capture one (wall, monotonic) clock pair.

        All span timestamps are offsets of ``time.perf_counter()`` from
        ``self._epoch``; the *only* wall-clock read is the paired
        ``time.time()`` taken here.  Exported wall timestamps are always
        derived as ``epoch_wall + monotonic offset``, so an NTP step
        mid-run cannot make the trace drift or go backwards.
        """
        self._epoch_wall = time.time()
        self._epoch = time.perf_counter()

    # -- state -----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        """Turn on full recording (every completed span kept)."""
        # re-anchor the clock pair on a fresh recording only: records
        # already taken must keep their epoch
        if not self._enabled and not self.records:
            self._anchor()
        self._keep_all = True
        self._sync()

    def disable(self) -> None:
        """Turn off full recording (an attached flight ring stays live)."""
        self._keep_all = False
        self._sync()

    def _sync(self) -> None:
        # spans are produced while either consumer is attached; the
        # single `_enabled` flag keeps the span() fast path one check
        self._enabled = self._keep_all or self._flight is not None

    # -- flight recorder ------------------------------------------------
    @property
    def flight(self) -> Optional[FlightRecorder]:
        """The attached :class:`FlightRecorder`, or ``None``."""
        return self._flight

    def enable_flight(self, capacity: int = DEFAULT_FLIGHT_CAPACITY,
                      sample: Optional[Mapping[str, int]] = None,
                      ) -> FlightRecorder:
        """Attach a flight recorder (bounded ring of completed spans).

        Independent of :meth:`enable`: the ring can run alone (the
        always-on default for services) or alongside full recording.
        Re-attaching replaces the previous ring.
        """
        if not self._enabled and not self.records:
            self._anchor()
        fl = FlightRecorder(capacity=capacity, sample=sample)
        self._flight = fl
        self._sync()
        return fl

    def disable_flight(self) -> None:
        """Detach (and discard) the flight recorder, if any."""
        self._flight = None
        self._sync()

    def now_s(self) -> float:
        """Current offset from the tracer epoch (pairs with span times)."""
        return time.perf_counter() - self._epoch

    def reset(self) -> None:
        """Drop all records and restart the clock epoch."""
        with self._lock:
            self.records = []
            self._next_id = 1
            self._anchor()
        self._tls = threading.local()
        fl = self._flight
        if fl is not None:
            fl.clear()

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[_ActiveSpan]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, **attrs: Any):
        """Open a span; returns a context manager yielding the span.

        When the tracer is disabled this returns a shared no-op context
        manager and records nothing.
        """
        if not self._enabled:
            return _NOOP_CONTEXT
        return _SpanContext(self, name, attrs)

    def current_span(self) -> Optional[_ActiveSpan]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def scope(self, **attrs: Any):
        """Auto-tag every span opened on this thread inside the block.

        Context attrs sit *under* a span's explicit attrs (explicit
        wins); scopes nest, the inner block shadowing key-by-key.  The
        simulated MPI runtime binds ``scope(rank=r)`` around each rank
        thread so all spans it emits carry per-rank attribution.
        """
        prev = getattr(self._tls, "ctx", None)
        merged = dict(prev) if prev else {}
        merged.update(attrs)
        self._tls.ctx = merged
        try:
            yield
        finally:
            self._tls.ctx = prev

    def attach_flow(self, direction: str, flow_id: str) -> None:
        """Append a message-flow id to the innermost open span.

        ``direction`` is ``"send"`` or ``"recv"``; the id lands in the
        span's ``flows_out``/``flows_in`` list attribute, from which the
        Chrome exporter emits ``ph: "s"/"f"`` flow events and the
        critical-path extractor builds cross-rank edges.  No-op while
        disabled or when no span is open on the calling thread.
        """
        if not self._enabled:
            return
        cur = self.current_span()
        if cur is None:
            return
        key = "flows_out" if direction == "send" else "flows_in"
        cur.attrs.setdefault(key, []).append(flow_id)

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    @property
    def epoch_wall_s(self) -> float:
        """Wall-clock time (``time.time``) of the tracer epoch.

        Captured as one atomic pair with the monotonic epoch at
        construction/:meth:`reset`/first :meth:`enable`; combine with a
        span's monotonic ``start_s`` via :meth:`wall_time_s`.
        """
        return self._epoch_wall

    def wall_time_s(self, offset_s: float) -> float:
        """Wall-clock timestamp of a monotonic offset (e.g. ``start_s``)."""
        return self._epoch_wall + offset_s


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-global tracer singleton."""
    return _TRACER


def span(name: str, **attrs: Any):
    """Open a span on the global tracer (no-op while disabled)."""
    if not _TRACER._enabled:
        return _NOOP_CONTEXT
    return _SpanContext(_TRACER, name, attrs)


def enable() -> None:
    _TRACER.enable()


def disable() -> None:
    _TRACER.disable()


def is_enabled() -> bool:
    return _TRACER._enabled


def reset() -> None:
    _TRACER.reset()


def attach_flow(direction: str, flow_id: str) -> None:
    """Record a message-flow id on the global tracer's current span."""
    _TRACER.attach_flow(direction, flow_id)


def enable_flight(capacity: int = DEFAULT_FLIGHT_CAPACITY,
                  sample: Optional[Mapping[str, int]] = None,
                  ) -> FlightRecorder:
    """Attach a flight recorder to the global tracer."""
    return _TRACER.enable_flight(capacity=capacity, sample=sample)


def disable_flight() -> None:
    """Detach the global tracer's flight recorder."""
    _TRACER.disable_flight()


def flight() -> Optional[FlightRecorder]:
    """The global tracer's flight recorder, or ``None``."""
    return _TRACER._flight


@contextmanager
def preserved():
    """Hand back, on exit, the tracer's full-recording flag, its flight
    ring and the metrics registry's enabled flag as the block found
    them (records and the clock are left as they are)."""
    from .metrics import registry

    reg = registry()
    keep_all, fl, reg_on = _TRACER._keep_all, _TRACER._flight, reg.enabled
    try:
        yield
    finally:
        _TRACER._keep_all, _TRACER._flight = keep_all, fl
        _TRACER._sync()
        reg.enable() if reg_on else reg.disable()
