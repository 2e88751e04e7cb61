"""``repro monitor`` — a refreshing ASCII dashboard over a live run.

Two sources, one frame:

- **scrape endpoint** (``repro monitor http://127.0.0.1:9100``): pulls
  ``/metrics`` (strict-parsed OpenMetrics), ``/flight`` and ``/series``
  from a run started with ``--serve-metrics``;
- **event log** (``repro monitor run.events.jsonl``): replays the JSONL
  narration written via ``--event-log``/``REPRO_EVENT_LOG``.

Either way the dashboard shows the current phase, span throughput,
top-k hot spans from the flight recorder, comm byte/message rates, and
per-rank skew whenever rank labels are present.  ``--once`` renders a
single frame and exits (CI smoke mode); otherwise the frame redraws
every ``--interval`` seconds until interrupted.

The frame pipeline is deliberately pure: ``collect_*`` builds a plain
state dict, :func:`render` turns it into text.  Tests drive both
without a terminal or a clock.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from .events import read_events
from .openmetrics import parse as parse_openmetrics

__all__ = [
    "collect_from_url",
    "collect_from_events",
    "collect",
    "render",
    "run_monitor",
]

#: counter families surfaced as rate lines, in display order
_COMM_RATES = (
    ("comm_bytes_sent", "comm bytes/s"),
    ("comm_messages", "comm msgs/s"),
    ("native_cache_hit", "native cache hits"),
    ("native_cache_miss", "native cache misses"),
    ("obs_dropped_spans", "flight drops"),
)


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

def _fetch(url: str, timeout: float) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def collect_from_url(base_url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """One dashboard state dict scraped from a telemetry endpoint."""
    base = base_url.rstrip("/")
    families = parse_openmetrics(
        _fetch(base + "/metrics", timeout).decode("utf-8")
    )
    state: Dict[str, Any] = {
        "source": base,
        "mode": "scrape",
        "counters": {},
        "per_rank_bytes": {},
        "rates": {},
        "phase": None,
        "events": None,
    }
    for fam in families.values():
        if fam.type != "counter":
            continue
        total = sum(s.value for s in fam.samples)
        state["counters"][fam.name] = total
        if fam.name == "comm_bytes_sent":
            for s in fam.samples:
                rank = s.labels.get("rank")
                if rank is not None:
                    state["per_rank_bytes"][rank] = (
                        state["per_rank_bytes"].get(rank, 0.0) + s.value
                    )
    try:
        state["flight"] = json.loads(_fetch(base + "/flight", timeout))
    except (urllib.error.URLError, OSError, ValueError):
        state["flight"] = None
    try:
        series = json.loads(_fetch(base + "/series", timeout))
    except (urllib.error.URLError, OSError, ValueError):
        series = {}
    # fold windowed per-series rates up to the family level
    for name, stats in series.items():
        if stats.get("kind") != "counter":
            continue
        fam = name.split("{", 1)[0].replace(".", "_")
        state["rates"][fam] = state["rates"].get(fam, 0.0) + stats["rate"]
    return state


def collect_from_events(path: str) -> Dict[str, Any]:
    """One dashboard state dict replayed from a JSONL event log."""
    state: Dict[str, Any] = {
        "source": path,
        "mode": "events",
        "counters": {},
        "per_rank_bytes": {},
        "rates": {},
        "phase": None,
        "flight": None,
        "events": {"total": 0, "by_level": {}, "by_event": {},
                   "last_ts": None, "first_ts": None, "per_rank": {}},
    }
    ev = state["events"]
    for rec in read_events(path):
        ev["total"] += 1
        lvl = rec.get("level", "info")
        ev["by_level"][lvl] = ev["by_level"].get(lvl, 0) + 1
        name = rec.get("event", "?")
        ev["by_event"][name] = ev["by_event"].get(name, 0) + 1
        ts = rec.get("ts")
        if ts is not None:
            if ev["first_ts"] is None:
                ev["first_ts"] = ts
            ev["last_ts"] = ts
        rank = rec.get("rank")
        if rank is not None:
            key = str(rank)
            ev["per_rank"][key] = ev["per_rank"].get(key, 0) + 1
        if name.startswith("phase."):
            # phase.enter/phase.exit records carry phase=
            if name == "phase.enter":
                state["phase"] = rec.get("phase")
            elif name == "phase.exit" and state["phase"] == rec.get("phase"):
                state["phase"] = None
    span = ev["last_ts"], ev["first_ts"]
    if None not in span and ev["last_ts"] > ev["first_ts"]:
        state["rates"]["events"] = ev["total"] / (
            ev["last_ts"] - ev["first_ts"]
        )
    return state


def collect(source: str, timeout: float = 5.0) -> Dict[str, Any]:
    """Dispatch on the source: URL → scrape, anything else → event log."""
    if source.startswith(("http://", "https://")):
        return collect_from_url(source, timeout=timeout)
    return collect_from_events(source)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _human(n: float) -> str:
    for unit in ("", "K", "M", "G"):
        if abs(n) < 1000:
            return f"{n:.1f}{unit}" if unit else f"{n:.0f}"
        n /= 1000.0
    return f"{n:.1f}T"


def _bar(frac: float, width: int = 20) -> str:
    frac = max(0.0, min(1.0, frac))
    fill = int(round(frac * width))
    return "#" * fill + "." * (width - fill)


def render(state: Dict[str, Any], width: int = 78) -> str:
    """Render one dashboard frame (pure text, no terminal control)."""
    rule = "-" * width
    lines: List[str] = []
    lines.append(f"repro monitor · {state['mode']} · {state['source']}")
    lines.append(rule)

    phase = state.get("phase")
    lines.append(f"phase: {phase if phase else '(idle / not reported)'}")

    fl = state.get("flight")
    if fl and fl.get("attached"):
        lines.append(
            "flight: "
            f"{fl['buffered']}/{fl['capacity']} spans buffered, "
            f"{fl['dropped']} dropped, {fl['sampled_out']} sampled out, "
            f"{fl.get('span_rate', 0.0):.1f} span/s"
        )
        top = fl.get("top") or []
        if top:
            lines.append("hot spans (by total time in window):")
            t_max = max(t["total_s"] for t in top) or 1.0
            for t in top[:5]:
                lines.append(
                    f"  {t['name']:<28} {_bar(t['total_s'] / t_max)} "
                    f"{t['total_s'] * 1e3:8.2f} ms x{t['count']}"
                )

    rates = state.get("rates") or {}
    rate_lines = []
    for fam, label in _COMM_RATES:
        if fam in rates and rates[fam] > 0:
            rate_lines.append(f"  {label:<22} {_human(rates[fam])}/s")
    if "events" in rates:
        rate_lines.append(f"  {'event rate':<22} {rates['events']:.1f}/s")
    if rate_lines:
        lines.append("rates (windowed):")
        lines.extend(rate_lines)

    counters = state.get("counters") or {}
    totals = [(f, counters[f]) for f, _ in _COMM_RATES if f in counters]
    if totals:
        lines.append("totals: " + "  ".join(
            f"{f}={_human(v)}" for f, v in totals
        ))

    per_rank = state.get("per_rank_bytes") or {}
    ev = state.get("events")
    if not per_rank and ev and ev.get("per_rank"):
        per_rank = {k: float(v) for k, v in ev["per_rank"].items()}
        rank_unit = "events"
    else:
        rank_unit = "bytes"
    if len(per_rank) >= 2:
        vals = list(per_rank.values())
        mean = sum(vals) / len(vals)
        skew = (max(vals) / mean) if mean else 0.0
        lines.append(
            f"per-rank {rank_unit} (skew max/mean = {skew:.2f}):"
        )
        v_max = max(vals) or 1.0
        for rank in sorted(per_rank, key=lambda r: (len(r), r)):
            v = per_rank[rank]
            lines.append(
                f"  rank {rank:>3} {_bar(v / v_max)} {_human(v)}"
            )

    if ev:
        lines.append(
            f"events: {ev['total']} total "
            + " ".join(f"{k}={v}" for k, v in sorted(ev["by_level"].items()))
        )
        hot = sorted(ev["by_event"].items(), key=lambda kv: -kv[1])[:5]
        for name, count in hot:
            lines.append(f"  {name:<28} x{count}")

    lines.append(rule)
    return "\n".join(lines)


def run_monitor(source: str, once: bool = False, interval: float = 1.0,
                timeout: float = 5.0, out=None) -> int:
    """Drive the dashboard loop; returns a process exit code."""
    out = out if out is not None else sys.stdout
    while True:
        try:
            state = collect(source, timeout=timeout)
        except (urllib.error.URLError, OSError) as exc:
            print(f"monitor: cannot reach {source}: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"monitor: bad telemetry from {source}: {exc}",
                  file=sys.stderr)
            return 1
        frame = render(state)
        if once:
            print(frame, file=out)
            return 0
        # clear + home between frames; plain ANSI keeps it stdlib-only
        print("\x1b[2J\x1b[H" + frame, file=out, flush=True)
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover
            return 0
