"""Labeled metrics (the ``repro.obs`` counter/gauge/histogram layer).

A :class:`MetricsRegistry` holds named series of three kinds:

- **counters** — monotonically accumulated sums
  (``comm.bytes_sent{rank=3,dim=0}``),
- **gauges** — last-written values (``machine.spm_utilisation``),
- **histograms** — full value distributions summarised as
  count/mean/p50/p90/p99/max (``autotune.trial_time_s``).

Series are identified by a metric name plus a label set; labels are
arbitrary keyword arguments (``counter("comm.messages", rank=3)``).
Like the tracer, the global registry is **disabled by default** so the
instrumented code paths are free when observability is off.

The module also holds the one copy of the robust statistics every
``obs`` layer shares: :func:`percentile`, :func:`median`, :func:`mad`
and the bench runner's :func:`aggregate`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Any, Dict, List, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "observe",
    "format_series",
    "percentile",
    "median",
    "mad",
    "aggregate",
]

_SeriesKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _key(name: str, labels: Dict[str, Any]) -> _SeriesKey:
    return (name, tuple(sorted(labels.items())))


def format_series(key: _SeriesKey) -> str:
    """Render a series key as ``name{k=v,...}`` (plain name if unlabeled)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linearly-interpolated percentile of an already-sorted list.

    Nearest-rank is badly biased for the handful of observations the
    bench runner records (p90 of 5 repeats would just be the max), so
    interpolate between the two bracketing order statistics — the same
    convention as ``numpy.percentile(..., method="linear")``.
    """
    if not ordered:
        raise ValueError("percentile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    """Median of unsorted values (mean of the middle two for even n)."""
    return percentile(sorted(values), 0.5)


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median (the noise scale)."""
    med = median(values)
    return median([abs(v - med) for v in values])


def aggregate(values: Sequence[float]) -> Dict[str, Any]:
    """Robust summary of one metric's repeat values.

    ``ci95`` is a notch-style interval for the median,
    ``median ± 1.57 × IQR / sqrt(n)`` (McGill et al.): zero-width for
    deterministic values and for a single observation.
    """
    if not values:
        raise ValueError("aggregate of no values")
    ordered = sorted(values)
    n = len(ordered)
    med = percentile(ordered, 0.5)
    iqr = percentile(ordered, 0.75) - percentile(ordered, 0.25)
    half = 1.57 * iqr / math.sqrt(n)
    return {
        "n": n,
        "median": med,
        "mad": mad(ordered),
        "mean": sum(ordered) / n,
        "min": ordered[0],
        "max": ordered[-1],
        "ci95": [med - half, med + half],
    }


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._enabled = False
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._counters: Dict[_SeriesKey, float] = {}
        self._gauges: Dict[_SeriesKey, float] = {}
        self._hists: Dict[_SeriesKey, List[float]] = {}

    def _merged(self, labels: Dict[str, Any]) -> Dict[str, Any]:
        """Thread-context labels under the explicit ones (explicit wins)."""
        ctx = getattr(self._tls, "ctx", None)
        if not ctx:
            return labels
        merged = dict(ctx)
        merged.update(labels)
        return merged

    @contextmanager
    def scope(self, **labels: Any):
        """Auto-label every metric written on this thread in the block.

        Mirror of :meth:`Tracer.scope`: the simulated MPI runtime binds
        ``scope(rank=r)`` per rank thread so counters emitted deep in
        the exchange stack carry per-rank series labels.
        """
        prev = getattr(self._tls, "ctx", None)
        merged = dict(prev) if prev else {}
        merged.update(labels)
        self._tls.ctx = merged
        try:
            yield
        finally:
            self._tls.ctx = prev

    # -- state -----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._hists = {}

    # -- writing ---------------------------------------------------------
    def counter(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to the counter series (no-op while disabled)."""
        if not self._enabled:
            return
        key = _key(name, self._merged(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge series to ``value`` (no-op while disabled)."""
        if not self._enabled:
            return
        key = _key(name, self._merged(labels))
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation (no-op while disabled)."""
        if not self._enabled:
            return
        key = _key(name, self._merged(labels))
        with self._lock:
            self._hists.setdefault(key, []).append(value)

    # -- reading ---------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0 if never written)."""
        return self._counters.get(_key(name, labels), 0)

    def gauge_value(self, name: str, **labels: Any) -> float:
        return self._gauges.get(_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of one counter metric across all label series."""
        return sum(
            v for (n, _), v in self._counters.items() if n == name
        )

    def counter_by_label(self, name: str, label: str) -> Dict[Any, float]:
        """Per-label-value sums of one counter metric.

        ``counter_by_label("comm.bytes_sent", "rank")`` returns
        ``{0: ..., 1: ...}`` — the per-rank traffic regardless of any
        other labels on the series.  Series without the label are
        skipped.
        """
        out: Dict[Any, float] = {}
        with self._lock:
            for (n, labels), v in self._counters.items():
                if n != name:
                    continue
                for k, val in labels:
                    if k == label:
                        out[val] = out.get(val, 0) + v
                        break
        return out

    def histogram_values(self, name: str, **labels: Any) -> List[float]:
        return list(self._hists.get(_key(name, labels), ()))

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._hists)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time copy, histogram series summarised."""
        with self._lock:
            counters = {
                format_series(k): v for k, v in self._counters.items()
            }
            gauges = {format_series(k): v for k, v in self._gauges.items()}
            hists = {}
            for k, values in self._hists.items():
                ordered = sorted(values)
                hists[format_series(k)] = {
                    "count": len(ordered),
                    "sum": sum(ordered),
                    "mean": sum(ordered) / len(ordered),
                    "p50": percentile(ordered, 0.50),
                    "p90": percentile(ordered, 0.90),
                    "p99": percentile(ordered, 0.99),
                    "max": ordered[-1],
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
        }

    def raw_snapshot(self) -> Dict[str, Dict[_SeriesKey, Any]]:
        """Point-in-time copy keyed by ``(name, labels)`` tuples.

        Unlike :meth:`snapshot` nothing is formatted or summarised —
        histogram series keep their raw observation lists — so the
        OpenMetrics exporter can aggregate on its own terms.  Taken
        under the registry lock: never torn.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: list(v) for k, v in self._hists.items()},
            }

    def to_openmetrics(self) -> str:
        """Render current state as OpenMetrics text (ends in ``# EOF``)."""
        from .openmetrics import render

        return render(self.raw_snapshot())


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry singleton."""
    return _REGISTRY


def counter(name: str, value: float = 1, **labels: Any) -> None:
    _REGISTRY.counter(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    _REGISTRY.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    _REGISTRY.observe(name, value, **labels)
