"""The one on-disk trace format and its readers.

``--trace FILE`` writes the Chrome ``trace_event`` document
(:func:`export_chrome`): complete events (``ph: "X"``) loadable in
``chrome://tracing`` or Perfetto, one track (tid) per recording thread,
so simulated MPI ranks show as parallel timelines.  :func:`load_trace`
reads it back losslessly into the in-memory span dict of
:func:`trace_to_dict` (also the layout of native files written by
earlier versions, which it still reads), and :func:`ascii_summary`
renders the span tree aggregated by call path (count / total / self /
avg time) followed by the metrics, as ``repro trace FILE`` prints it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry, registry
from .trace import Tracer, tracer

__all__ = [
    "fmt_time",
    "trace_to_dict",
    "export_chrome",
    "ascii_summary",
    "write_trace",
    "load_trace",
]

NATIVE_FORMAT = "repro-trace"
NATIVE_VERSION = 1


# -- span dict -------------------------------------------------------------
def trace_to_dict(tr: Optional[Tracer] = None,
                  reg: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
    """Sorted span records + metrics: what :func:`load_trace` returns."""
    tr = tr or tracer()
    reg = reg or registry()
    spans = sorted(tr.records, key=lambda s: (s.start_s, s.span_id))
    return {
        "format": NATIVE_FORMAT,
        "version": NATIVE_VERSION,
        "epoch_wall_s": tr.epoch_wall_s,
        "spans": [s.to_dict() for s in spans],
        "metrics": reg.snapshot(),
    }


# -- Chrome trace_event format -------------------------------------------
def export_chrome(tr: Optional[Tracer] = None,
                  reg: Optional[MetricsRegistry] = None) -> str:
    """Chrome ``trace_event`` JSON (open in chrome://tracing/Perfetto).

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps; each recording thread gets its own ``tid`` plus a
    ``thread_name`` metadata event.  Spans carrying message-flow ids
    (``flows_out``/``flows_in`` attrs, see ``Tracer.attach_flow``)
    additionally emit flow events (``ph: "s"``/``"f"``) so Perfetto
    draws send→recv arrows between rank tracks.

    Each X event also carries the native span identity as top-level
    ``sid``/``spid``/``t0``/``d`` fields — unknown to viewers, ignored
    by them, but enough for :func:`load_trace` to round-trip the file
    losslessly (exact ids, parents and float timestamps, no interval
    guessing).  The metrics snapshot and tracer epoch ride along under
    ``otherData``.
    """
    tr = tr or tracer()
    reg = reg or registry()
    spans = sorted(tr.records, key=lambda s: (s.start_s, s.span_id))
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    flows: List[Dict[str, Any]] = []
    for s in spans:
        if s.thread not in tids:
            tid = tids[s.thread] = len(tids)
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": s.thread},
            })
        tid = tids[s.thread]
        events.append({
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": s.start_s * 1e6,
            "dur": s.duration_s * 1e6,
            "pid": 0,
            "tid": tid,
            "sid": s.span_id,
            "spid": s.parent_id,
            "t0": s.start_s,
            "d": s.duration_s,
            "args": {str(k): v for k, v in s.attrs.items()},
        })
        # flow events bind to the slice enclosing their ts on the same
        # track; the midpoint is strictly inside for any dur > 0
        mid_us = (s.start_s + s.duration_s / 2) * 1e6
        for fid in s.attrs.get("flows_out", ()):
            flows.append({
                "name": "msg", "cat": "flow", "ph": "s", "id": fid,
                "ts": mid_us, "pid": 0, "tid": tid,
            })
        for fid in s.attrs.get("flows_in", ()):
            flows.append({
                "name": "msg", "cat": "flow", "ph": "f", "bp": "e",
                "id": fid, "ts": mid_us, "pid": 0, "tid": tid,
            })
    doc = {
        "traceEvents": events + flows,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": NATIVE_FORMAT,
            "version": NATIVE_VERSION,
            "epoch_wall_s": tr.epoch_wall_s,
            "metrics": reg.snapshot(),
        },
    }
    return json.dumps(doc, indent=2)


# -- ASCII summary -------------------------------------------------------
def fmt_time(seconds: float) -> str:
    """``1.23s`` / ``4.56ms`` / ``7.8us`` (sign kept); exactly 0 is ``0``.

    The one time formatter of every ``obs`` table: trace summaries,
    per-rank and critical-path reports, bench reports and run diffs.
    """
    if seconds == 0:
        return "0"
    if abs(seconds) >= 1.0:
        return f"{seconds:.2f}s"
    if abs(seconds) >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _aggregate(spans: List[Dict[str, Any]]) -> Dict[tuple, Dict[str, Any]]:
    """Group span dicts by their root→leaf name path."""
    from .phases import self_times

    by_id = {s["span_id"]: s for s in spans}
    paths: Dict[int, tuple] = {}

    def path_of(s: Dict[str, Any]) -> tuple:
        sid = s["span_id"]
        cached = paths.get(sid)
        if cached is not None:
            return cached
        parent = by_id.get(s.get("parent_id"))
        p = (path_of(parent) if parent is not None else ()) + (s["name"],)
        paths[sid] = p
        return p

    agg: Dict[tuple, Dict[str, Any]] = {}
    for s, self_s in self_times(spans):
        node = agg.setdefault(path_of(s),
                              {"count": 0, "total": 0.0, "self": 0.0})
        node["count"] += 1
        node["total"] += s["duration_s"]
        node["self"] += self_s
    return agg


def _summarize(spans: List[Dict[str, Any]],
               metrics: Dict[str, Dict[str, Any]]) -> str:
    lines: List[str] = []
    if not spans and not metrics:
        return ("TRACE SUMMARY  (empty: 0 spans)\n"
                "(no spans recorded — was tracing enabled?)")
    threads = {s["thread"] for s in spans if s.get("thread")}
    total = sum(
        s["duration_s"] for s in spans if s.get("parent_id") is None
    )
    lines.append(
        f"TRACE SUMMARY  ({len(spans)} spans, {len(threads)} "
        f"threads, root total {fmt_time(total)})"
    )
    if spans:
        agg = _aggregate(spans)
        header = f"{'span':44s} {'count':>7s} {'total':>10s} " \
                 f"{'self':>10s} {'avg':>10s}"
        lines.append(header)
        lines.append("-" * len(header))
        for p in sorted(agg, key=lambda q: (q[:-1], -agg[q]["total"])):
            node = agg[p]
            label = "  " * (len(p) - 1) + p[-1]
            if len(label) > 44:
                label = label[:41] + "..."
            lines.append(
                f"{label:44s} {node['count']:>7d} "
                f"{fmt_time(node['total']):>10s} "
                f"{fmt_time(node['self']):>10s} "
                f"{fmt_time(node['total'] / node['count']):>10s}"
            )
    else:
        lines.append("(no spans recorded — was tracing enabled?)")
    for kind in ("counters", "gauges"):
        series = metrics.get(kind) or {}
        if series:
            lines.append("")
            lines.append(f"{kind.upper()}")
            for name in sorted(series):
                value = series[name]
                shown = f"{value:g}" if isinstance(value, float) else value
                lines.append(f"  {name:50s} {shown}")
    hists = metrics.get("histograms") or {}
    if hists:
        lines.append("")
        lines.append("HISTOGRAMS")
        for name in sorted(hists):
            h = hists[name]
            line = (
                f"  {name:40s} n={h['count']} mean={h['mean']:.4g} "
                f"p50={h['p50']:.4g} p90={h['p90']:.4g}"
            )
            if "p99" in h:  # absent from traces saved before v1 p99
                line += f" p99={h['p99']:.4g}"
            lines.append(line + f" max={h['max']:.4g}")
    return "\n".join(lines)


def ascii_summary(tr: Optional[Tracer] = None,
                  reg: Optional[MetricsRegistry] = None) -> str:
    """Aggregated span tree + metrics for the live tracer/registry."""
    doc = trace_to_dict(tr, reg)
    return _summarize(doc["spans"], doc["metrics"])


# -- file I/O ------------------------------------------------------------
def write_trace(path: str, tr: Optional[Tracer] = None,
                reg: Optional[MetricsRegistry] = None) -> None:
    """Write the recorded trace to ``path`` as a Chrome trace_event file."""
    text = export_chrome(tr, reg)
    with open(path, "w") as fh:
        fh.write(text)


def _spans_from_chrome(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rebuild span records (with parents) from chrome X events.

    Files written by :func:`export_chrome` carry the native span
    identity as top-level ``sid``/``spid``/``t0``/``d`` fields; those
    round-trip losslessly.  Foreign chrome files fall back to per-track
    interval containment: events on one tid are sorted by start time
    and nested with a stack.
    """
    tid_names: Dict[Any, str] = {}
    xs = []
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            tid_names[ev.get("tid")] = ev.get("args", {}).get("name", "")
        elif ev.get("ph") == "X":
            xs.append(ev)
    if xs and all("sid" in ev for ev in xs):
        spans = [
            {
                "span_id": ev["sid"],
                "parent_id": ev.get("spid"),
                "name": ev["name"],
                "start_s": ev["t0"],
                "duration_s": ev["d"],
                "thread": tid_names.get(
                    ev.get("tid", 0), f"tid-{ev.get('tid', 0)}"
                ),
                "attrs": dict(ev.get("args", {})),
            }
            for ev in xs
        ]
        spans.sort(key=lambda s: (s["start_s"], s["span_id"]))
        return spans
    xs.sort(key=lambda e: (e.get("tid", 0), e["ts"], -e.get("dur", 0)))
    spans: List[Dict[str, Any]] = []
    stack: List[Dict[str, Any]] = []  # open spans on the current tid
    cur_tid: Any = object()
    for i, ev in enumerate(xs):
        tid = ev.get("tid", 0)
        if tid != cur_tid:
            stack = []
            cur_tid = tid
        start = ev["ts"] / 1e6
        end = start + ev.get("dur", 0) / 1e6
        while stack and start >= stack[-1]["_end"] - 1e-12:
            stack.pop()
        rec = {
            "span_id": i + 1,
            "parent_id": stack[-1]["span_id"] if stack else None,
            "name": ev["name"],
            "start_s": start,
            "duration_s": end - start,
            "thread": tid_names.get(tid, f"tid-{tid}"),
            "attrs": dict(ev.get("args", {})),
            "_end": end,
        }
        spans.append(rec)
        stack.append(rec)
    for rec in spans:
        rec.pop("_end", None)
    return spans


def load_trace(path: str) -> Dict[str, Any]:
    """Load a saved trace file (chrome, or native from earlier versions)
    into the :func:`trace_to_dict` layout."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path} is not a trace file (invalid JSON at line "
                f"{exc.lineno}: {exc.msg}) — a --trace file is Chrome "
                f"trace_event JSON"
            ) from None
    if isinstance(doc, dict) and doc.get("format") == NATIVE_FORMAT:
        return doc
    if isinstance(doc, dict) and "traceEvents" in doc:
        other = doc.get("otherData") or {}
        native: Dict[str, Any] = {
            "format": NATIVE_FORMAT,
            "version": other.get("version", NATIVE_VERSION),
            "spans": _spans_from_chrome(doc["traceEvents"]),
            "metrics": other.get("metrics") or {},
        }
        if "epoch_wall_s" in other:
            native["epoch_wall_s"] = other["epoch_wall_s"]
        return native
    # a bare chrome event array is also legal trace_event JSON
    if isinstance(doc, list):
        return {
            "format": NATIVE_FORMAT,
            "version": NATIVE_VERSION,
            "spans": _spans_from_chrome(doc),
            "metrics": {},
        }
    raise ValueError(
        f"{path} is neither a repro trace nor a Chrome trace_event file"
    )
