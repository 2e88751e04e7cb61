"""Trace-diff and longitudinal history analysis (``repro.obs.diff``).

Two query surfaces over comparable run data:

- :func:`diff_runs` — ``repro diff A B``: align two runs by the stable phase taxonomy and span names, judge
  every phase and metric delta with the one regression rule (below),
  and render an ASCII *waterfall* attributing the total delta to
  phases, followed by the metrics that moved, the span-level movers
  and a **config drift** section listing every fingerprint field that
  differs.
- :func:`history_report` — ``repro history <workload>``: per-metric
  trend over a workload's ledger rows with a deterministic
  change-point detector (:func:`detect_change_point`, a sliding
  median split — no randomness) flagging the first run where a gated
  metric shifted.

A *run* here is either of two sources (:func:`load_views`):

- a **ledger id** (``7`` or ``ledger:7``) — a row of
  :mod:`repro.obs.ledger`,
- a **trace file** (``--trace`` output, native or chrome) — spans are
  folded through :func:`repro.obs.phases.attribute`, counters
  become gated zero-CI metric points.

The regression rule: only *gated* metrics and *deterministic*
(modelled) phases can regress — host wall phases ride along as
information.  A gated delta regresses when its median is worse than
the baseline by more than the noise ``threshold`` (default 10%,
direction-aware) *and* lies outside the baseline's 95% CI (zero-width
for deterministic values, so any above-threshold move trips it).
``repro diff`` exits 1 iff a regression survives that rule.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .export import fmt_time
from .metrics import mad, median

__all__ = [
    "Delta",
    "worse_frac",
    "outside_ci",
    "RunView",
    "RunDiff",
    "DiffReport",
    "ChangePoint",
    "MetricHistory",
    "HistoryReport",
    "load_views",
    "RemovedFormatError",
    "diff_runs",
    "detect_change_point",
    "history_report",
    "DEFAULT_THRESHOLD",
]

DEFAULT_THRESHOLD = 0.10

HISTORY_FORMAT = "repro-history"
HISTORY_VERSION = 1

_LEDGER_REF = re.compile(r"^(?:ledger:|lg:)?(\d+)$")


# ---------------------------------------------------------------------------
# the regression rule
# ---------------------------------------------------------------------------

@dataclass
class Delta:
    """One compared quantity."""

    workload: str
    kind: str  # "metric" | "phase" | "phase-host"
    name: str
    base: float
    current: float
    #: direction-adjusted fractional change; positive = worse
    worse_frac: float
    gated: bool
    regressed: bool = False
    improved: bool = False

    @property
    def label(self) -> str:
        what = f"phase '{self.name}'" if "phase" in self.kind \
            else self.name
        return f"{self.workload}: {what}"

    @property
    def status(self) -> str:
        return ("REGRESSED" if self.regressed
                else "improved" if self.improved
                else "ok" if self.gated else "info")


def worse_frac(base: float, cur: float, direction: str) -> float:
    """Fractional change with positive = worse for the direction."""
    delta = cur - base if direction == "lower" else base - cur
    if base == 0:
        if delta == 0:
            return 0.0
        return math.inf if delta > 0 else -math.inf
    return delta / abs(base)


def outside_ci(cur: float, ci: Sequence[float], direction: str) -> bool:
    """Does ``cur`` lie beyond the worse end of the baseline CI?"""
    lo, hi = ci
    return cur > hi if direction == "lower" else cur < lo


def _delta(workload: str, kind: str, name: str, base: float, cur: float,
           threshold: float, gated: bool, direction: str = "lower",
           ci: Optional[Sequence[float]] = None) -> Delta:
    """Judge one quantity: the regressed/improved decision.

    ``ci`` is the baseline metric's 95% interval; a modelled phase has
    none (its value is deterministic), so only the threshold applies.
    """
    worse = worse_frac(base, cur, direction)
    d = Delta(workload, kind, name, base, cur, worse, gated)
    d.regressed = (gated and worse > threshold
                   and (ci is None or outside_ci(cur, ci, direction)))
    d.improved = gated and worse < -threshold
    return d


# ---------------------------------------------------------------------------
# run views
# ---------------------------------------------------------------------------

@dataclass
class RunView:
    """One comparable run: phases + metric aggregates + fingerprints."""

    label: str
    workload: str
    config: Dict[str, Any] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=dict)
    #: deterministic modelled phases (regression-eligible)
    phases_sim: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: host phases (informational)
    phases_host: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per-span-name self-times (host, informational)
    spans: Dict[str, float] = field(default_factory=dict)
    #: metric name -> aggregate dict (median/mad/ci95/gate/direction)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def waterfall_phases(self) -> Tuple[Dict[str, Dict[str, float]], bool]:
        """(phases to diff, deterministic?) — modelled when available."""
        if self.phases_sim:
            return self.phases_sim, True
        return self.phases_host, False


def _view_from_ledger_row(row: Mapping[str, Any], label: str) -> RunView:
    return RunView(
        label=label,
        workload=row.get("workload") or row.get("command") or label,
        config=dict(row.get("config", {})),
        environment=dict(row.get("environment", {})),
        phases_sim=dict(row.get("phases_sim", {})),
        phases_host=dict(row.get("phases_host", {})),
        spans=dict(row.get("spans", {})),
        metrics=dict(row.get("metrics", {})),
    )


def _strip_labels(series: str) -> str:
    return series.split("{", 1)[0]


def _view_from_trace(doc: Mapping[str, Any], label: str) -> RunView:
    from .ledger import fold_spans, metric_point

    spans = doc.get("spans", [])
    phases_host, span_times = fold_spans(spans)
    metrics: Dict[str, Any] = {}
    counters = (doc.get("metrics") or {}).get("counters", {})
    totals: Dict[str, float] = {}
    for series, value in counters.items():
        name = _strip_labels(series)
        totals[name] = totals.get(name, 0.0) + float(value)
    for name, total in totals.items():
        # counters are exact model/protocol counts: deterministic for a
        # fixed config, hence eligible for the regression verdict
        metrics[name] = metric_point(total, unit="", direction="lower",
                                     gate=True)
    return RunView(
        label=label,
        workload=label,
        phases_host=phases_host,
        spans=span_times,
        metrics=metrics,
    )


def load_views(source: str,
               ledger_dir: Optional[str] = None) -> List[RunView]:
    """Resolve one ``repro diff`` operand into run views.

    Pure digits (optionally ``ledger:``-prefixed) name a ledger row;
    otherwise the source must be a trace file.
    """
    m = _LEDGER_REF.match(source)
    if m:
        from .ledger import ledger_path, open_ledger

        run_id = int(m.group(1))
        path = ledger_path(ledger_dir)
        if not os.path.exists(path):
            raise ValueError(f"no run ledger at {path}")
        with open_ledger(ledger_dir) as ledger:
            row = ledger.get(run_id)
        if row is None:
            raise ValueError(f"ledger has no run #{run_id} ({path})")
        return [_view_from_ledger_row(row, f"ledger:{run_id}")]

    if not os.path.exists(source):
        raise ValueError(
            f"{source!r} is neither a ledger id nor an existing file"
        )
    from .export import load_trace

    try:
        doc = load_trace(source)
    except ValueError:
        if _json_format(source) == "repro-bench":
            raise RemovedFormatError(
                f"{source} is a repro-bench document: `repro bench` was "
                "removed; diff ledger ids or --trace files instead"
            ) from None
        raise
    return [_view_from_trace(doc, os.path.basename(source))]


class RemovedFormatError(ValueError):
    """A ``repro diff`` operand in a format no command writes any more."""


def _json_format(path: str) -> Optional[str]:
    """The ``format`` field of a JSON object file, if it has one."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc.get("format") if isinstance(doc, dict) else None


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------

@dataclass
class RunDiff:
    """One aligned pair of run views."""

    workload: str
    base_label: str
    current_label: str
    #: phase waterfall rows: (phase, base_s, cur_s)
    waterfall: List[Tuple[str, float, float]] = field(default_factory=list)
    #: waterfall built from deterministic modelled phases?
    deterministic: bool = False
    #: metric + phase deltas (perf-compare :class:`Delta` objects)
    deltas: List[Delta] = field(default_factory=list)
    #: span-level movers: (name, base_s, cur_s)
    span_moves: List[Tuple[str, float, float]] = field(default_factory=list)
    #: config/environment drift rows: (field, base, current)
    drift: List[Tuple[str, Any, Any]] = field(default_factory=list)

    @property
    def total_base_s(self) -> float:
        return sum(b for _, b, _ in self.waterfall)

    @property
    def total_current_s(self) -> float:
        return sum(c for _, _, c in self.waterfall)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def attributed_phase(self) -> Optional[str]:
        """The regressed phase driving the largest share of the delta."""
        worst, worst_delta = None, 0.0
        for d in self.deltas:
            if d.kind == "phase" and d.regressed:
                delta = d.current - d.base
                if delta > worst_delta:
                    worst, worst_delta = d.name, delta
        return worst

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "base": self.base_label,
            "current": self.current_label,
            "deterministic_phases": self.deterministic,
            "total_base_s": self.total_base_s,
            "total_current_s": self.total_current_s,
            "attributed_phase": self.attributed_phase,
            "phases": [
                {"phase": p, "base_s": b, "current_s": c}
                for p, b, c in self.waterfall
            ],
            "regressions": [
                {"kind": d.kind, "name": d.name, "base": d.base,
                 "current": d.current, "worse_frac": d.worse_frac}
                for d in self.regressions
            ],
            "drift": [
                {"field": f, "base": b, "current": c}
                for f, b, c in self.drift
            ],
        }


@dataclass
class DiffReport:
    """All aligned pairs of one ``repro diff`` invocation."""

    base_label: str
    current_label: str
    threshold: float
    diffs: List[RunDiff] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def deltas(self) -> List[Delta]:
        return [d for rd in self.diffs for d in rd.deltas]

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base_label,
            "current": self.current_label,
            "threshold": self.threshold,
            "ok": self.ok,
            "runs": [rd.to_dict() for rd in self.diffs],
            "notes": list(self.notes),
        }

    def format(self) -> str:
        lines = [
            f"RUN DIFF  {self.current_label} vs {self.base_label}  "
            f"(threshold {self.threshold:.0%})"
        ]
        for rd in self.diffs:
            lines.append("")
            lines.extend(_format_run_diff(rd, self.threshold))
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        if self.regressions:
            lines.append(f"{len(self.regressions)} REGRESSION(S)")
            for rd in self.diffs:
                phase = rd.attributed_phase
                if phase is not None:
                    d = next(d for d in rd.deltas
                             if d.kind == "phase" and d.name == phase)
                    lines.append(
                        f"  {rd.workload}: regression attributed to "
                        f"phase '{phase}' ({d.worse_frac:+.1%}, "
                        f"{fmt_time(d.base)} -> "
                        f"{fmt_time(d.current)})"
                    )
            for d in self.regressions:
                if d.kind != "phase":
                    lines.append(
                        f"  {d.label}: {d.base:.6g} -> {d.current:.6g} "
                        f"({d.worse_frac:+.1%} worse)"
                    )
        else:
            lines.append("runs are equivalent within the gate "
                         "(no regressions)")
        return "\n".join(lines)


_BAR_WIDTH = 28


def _format_run_diff(rd: RunDiff, threshold: float) -> List[str]:
    total_b, total_c = rd.total_base_s, rd.total_current_s
    total_delta = total_c - total_b
    pct = f"{total_delta / total_b:+.1%}" if total_b else "n/a"
    kind = "modelled" if rd.deterministic else "host"
    lines = [
        f"{rd.workload}: total {kind} phase time "
        f"{fmt_time(total_b)} -> {fmt_time(total_c)} ({pct})"
    ]
    rows = sorted(rd.waterfall, key=lambda r: -abs(r[2] - r[1]))
    max_abs = max((abs(c - b) for _, b, c in rows), default=0.0)
    header = (f"  {'phase':12s} {'base':>10s} {'current':>10s} "
              f"{'delta':>10s}  waterfall")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for phase, b, c in rows:
        delta = c - b
        if max_abs > 0:
            n = int(round(_BAR_WIDTH * abs(delta) / max_abs))
            bar = ("+" if delta > 0 else "-") * n
        else:
            bar = ""
        share = (f" {delta / total_delta:>5.1%}"
                 if total_delta and delta else "")
        lines.append(
            f"  {phase:12s} {fmt_time(b):>10s} {fmt_time(c):>10s} "
            f"{fmt_time(delta):>10s}  |{bar}{share}"
        )
    # metrics, plus the host phases a modelled waterfall leaves out
    moved = [d for d in rd.deltas
             if (d.kind == "metric"
                 or (rd.deterministic and d.kind == "phase-host"))
             and (d.regressed or d.improved or abs(d.worse_frac) > 0.02)]
    if moved:
        lines.append("  metrics that moved:")
        for d in sorted(moved, key=lambda d: -abs(d.worse_frac)):
            name = d.name if d.kind == "metric" else f"host phase {d.name}"
            pct = ("n/a" if math.isinf(d.worse_frac)
                   else f"{d.worse_frac:+.1%}")
            lines.append(
                f"    {name:28s} {d.base:>12.6g} {d.current:>12.6g} "
                f"{pct:>8s}  {d.status}"
            )
    movers = sorted(rd.span_moves, key=lambda r: -abs(r[2] - r[1]))[:5]
    movers = [m for m in movers if abs(m[2] - m[1]) > 0]
    if movers:
        lines.append("  span-level movers (host self-time):")
        for name, b, c in movers:
            lines.append(
                f"    {name:28s} {fmt_time(b):>10s} -> {fmt_time(c):>10s} "
                f"({fmt_time(c - b):>9s})"
            )
    if rd.drift:
        lines.append(f"  config drift ({len(rd.drift)} field(s)):")
        for key, b, c in rd.drift:
            lines.append(f"    {key}: {b!r} -> {c!r}")
    else:
        lines.append("  config drift: none")
    return lines


def _pair_views(base: Sequence[RunView], current: Sequence[RunView]
                ) -> Tuple[List[Tuple[RunView, RunView]], List[str]]:
    notes: List[str] = []
    by_name = {v.workload: v for v in base}
    pairs: List[Tuple[RunView, RunView]] = []
    matched_base, matched_cur = set(), set()
    for cur in current:
        if cur.workload in by_name:
            pairs.append((by_name[cur.workload], cur))
            matched_base.add(cur.workload)
            matched_cur.add(cur.workload)
    if not pairs and len(base) == 1 and len(current) == 1:
        # single-run sources always compare, whatever they are named
        pairs.append((base[0], current[0]))
        matched_base.add(base[0].workload)
        matched_cur.add(current[0].workload)
        notes.append(f"no workload in common: comparing "
                     f"{current[0].workload!r} with {base[0].workload!r}")
    for v in base:
        if v.workload not in matched_base:
            notes.append(f"workload {v.workload!r} only in base run")
    for v in current:
        if v.workload not in matched_cur:
            notes.append(f"workload {v.workload!r} only in current run")
    return pairs, notes


_DRIFT_IGNORE = ("executable",)


def _config_drift(base: RunView, cur: RunView) -> List[Tuple[str, Any, Any]]:
    drift: List[Tuple[str, Any, Any]] = []
    for prefix, a, b in (("", base.config, cur.config),
                         ("env.", base.environment, cur.environment)):
        for key in sorted(set(a) | set(b)):
            if key in _DRIFT_IGNORE:
                continue
            va, vb = a.get(key), b.get(key)
            if va != vb:
                drift.append((prefix + key, va, vb))
    return drift


def _diff_pair(base: RunView, cur: RunView, threshold: float) -> RunDiff:
    base_ph, base_det = base.waterfall_phases
    cur_ph, cur_det = cur.waterfall_phases
    deterministic = base_det and cur_det
    rd = RunDiff(
        workload=cur.workload,
        base_label=base.label,
        current_label=cur.label,
        deterministic=deterministic,
    )
    # phase alignment through the shared taxonomy (absent phase = 0)
    from .phases import PHASES

    names = [p for p in PHASES
             if p in base_ph or p in cur_ph]
    names += sorted((set(base_ph) | set(cur_ph)) - set(PHASES))
    for phase in names:
        b = float(base_ph.get(phase, {}).get("time_s", 0.0))
        c = float(cur_ph.get(phase, {}).get("time_s", 0.0))
        if b == 0 and c == 0:
            continue
        rd.waterfall.append((phase, b, c))
        rd.deltas.append(_delta(
            cur.workload, "phase" if deterministic else "phase-host",
            phase, b, c, threshold, gated=deterministic,
        ))
    if deterministic:
        # host phases stay informational beside the modelled waterfall
        for phase in sorted(set(base.phases_host) & set(cur.phases_host)):
            rd.deltas.append(_delta(
                cur.workload, "phase-host", phase,
                float(base.phases_host[phase]["time_s"]),
                float(cur.phases_host[phase]["time_s"]),
                threshold, gated=False,
            ))

    for name in sorted(set(base.metrics) & set(cur.metrics)):
        bm, cm = base.metrics[name], cur.metrics[name]
        if not isinstance(bm, Mapping) or not isinstance(cm, Mapping):
            continue
        b, c = float(bm["median"]), float(cm["median"])
        rd.deltas.append(_delta(
            cur.workload, "metric", name, b, c, threshold,
            gated=bool(bm.get("gate")) and bool(cm.get("gate")),
            direction=cm.get("direction", "lower"),
            ci=bm.get("ci95") or (b, b),
        ))

    # span-name alignment below the taxonomy
    for name in sorted(set(base.spans) & set(cur.spans)):
        rd.span_moves.append(
            (name, float(base.spans[name]), float(cur.spans[name]))
        )

    rd.drift = _config_drift(base, cur)
    return rd


def diff_runs(base: Sequence[RunView], current: Sequence[RunView],
              threshold: float = DEFAULT_THRESHOLD,
              base_label: Optional[str] = None,
              current_label: Optional[str] = None) -> DiffReport:
    """Align two runs' views and compute the attribution report."""
    pairs, notes = _pair_views(base, current)
    report = DiffReport(
        base_label=base_label or (base[0].label if base else "?"),
        current_label=current_label or (current[0].label if current
                                        else "?"),
        threshold=threshold,
    )
    report.notes = notes
    for b, c in pairs:
        report.diffs.append(_diff_pair(b, c, threshold))
    if not pairs:
        report.notes.append("no workloads in common — nothing compared")
    return report


# ---------------------------------------------------------------------------
# change-point detection + history
# ---------------------------------------------------------------------------

@dataclass
class ChangePoint:
    """The first index where a metric series shifted."""

    index: int  # first index of the shifted (right) segment
    before: float  # left-segment median
    after: float  # right-segment median
    shift_frac: float  # direction-adjusted; positive = worse
    verdict: str  # "regression" | "improvement"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "before": self.before,
            "after": self.after,
            "shift_frac": self.shift_frac,
            "verdict": self.verdict,
        }


def detect_change_point(values: Sequence[float],
                        direction: str = "lower",
                        threshold: float = DEFAULT_THRESHOLD,
                        min_segment: int = 2) -> Optional[ChangePoint]:
    """Deterministic sliding-median-split change-point detector.

    Every split position is scored by the summed absolute deviation of
    each segment from its own median (the cost of explaining the series
    as two flat levels); the minimum-cost split wins, ties broken by
    the larger level shift, then the earliest index.  The winning split
    is a change point only if the medians differ by more than the
    relative ``threshold`` *and* by more than 3x the noisier segment's
    MAD — so a deterministic step always flags and pure jitter never
    does.  No randomness anywhere: equal inputs give equal output.
    """
    n = len(values)
    if n < 2 * min_segment:
        return None
    best: Optional[Tuple[float, float, int, float, float]] = None
    for i in range(min_segment, n - min_segment + 1):
        left, right = values[:i], values[i:]
        ml, mr = median(left), median(right)
        cost = (sum(abs(v - ml) for v in left)
                + sum(abs(v - mr) for v in right))
        shift = abs(mr - ml)
        key = (cost, -shift, i)
        if best is None or key < (best[0], -best[1], best[2]):
            best = (cost, shift, i, ml, mr)
    assert best is not None
    _, shift, index, ml, mr = best
    scale = max(abs(ml), abs(mr))
    if scale == 0 or shift <= threshold * scale:
        return None
    noise = max(mad(values[:index]), mad(values[index:]))
    if shift <= 3 * noise:
        return None
    worse = worse_frac(ml, mr, direction)
    return ChangePoint(
        index=index,
        before=ml,
        after=mr,
        shift_frac=worse,
        verdict="regression" if worse > 0 else "improvement",
    )


@dataclass
class MetricHistory:
    """One metric's trend over a workload's ledger rows."""

    metric: str
    unit: str
    direction: str
    gate: bool
    #: (run_id, ts, value, outcome) per row carrying the metric
    series: List[Tuple[int, float, float, str]]
    change_point: Optional[ChangePoint] = None

    @property
    def change_run_id(self) -> Optional[int]:
        if self.change_point is None:
            return None
        return self.series[self.change_point.index][0]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "metric": self.metric,
            "unit": self.unit,
            "direction": self.direction,
            "gate": self.gate,
            "series": [
                {"id": rid, "ts": ts, "value": v, "outcome": outcome}
                for rid, ts, v, outcome in self.series
            ],
            "change_point": None,
        }
        if self.change_point is not None:
            cp = self.change_point.to_dict()
            cp["run_id"] = self.change_run_id
            out["change_point"] = cp
        return out


@dataclass
class HistoryReport:
    """``repro history`` output for one workload."""

    workload: str
    runs: int
    metrics: List[MetricHistory] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": HISTORY_FORMAT,
            "version": HISTORY_VERSION,
            "workload": self.workload,
            "runs": self.runs,
            "metrics": {m.metric: m.to_dict() for m in self.metrics},
        }

    def format(self) -> str:
        import datetime

        lines = [f"RUN HISTORY  {self.workload}  ({self.runs} run(s))"]
        if not self.metrics:
            lines.append("(no gated metrics recorded for this workload)")
            return "\n".join(lines)
        for mh in self.metrics:
            better = ("lower" if mh.direction == "lower" else "higher")
            lines.append("")
            lines.append(
                f"{mh.metric}  ({mh.unit or 'unitless'}, "
                f"{better} is better)"
            )
            header = (f"  {'id':>5s}  {'when':16s} {'value':>14s}  "
                      f"{'outcome':10s} note")
            lines.append(header)
            lines.append("  " + "-" * (len(header) - 2))
            for pos, (rid, ts, value, outcome) in enumerate(mh.series):
                when = datetime.datetime.fromtimestamp(ts).strftime(
                    "%Y-%m-%d %H:%M"
                )
                note = ""
                cp = mh.change_point
                if cp is not None and pos == cp.index:
                    note = (f"<-- change point: {cp.shift_frac:+.1%} "
                            f"{cp.verdict} since this run")
                lines.append(
                    f"  {rid:>5d}  {when:16s} {value:>14.6g}  "
                    f"{outcome:10s} {note}"
                )
        flagged = [m for m in self.metrics if m.change_point is not None]
        lines.append("")
        if flagged:
            for m in flagged:
                cp = m.change_point
                lines.append(
                    f"{cp.verdict.upper()}: {m.metric} shifted "
                    f"{cp.shift_frac:+.1%} at run #{m.change_run_id} "
                    f"({cp.before:.6g} -> {cp.after:.6g})"
                )
        else:
            lines.append("no change points detected")
        return "\n".join(lines)


def history_report(rows: Sequence[Mapping[str, Any]], workload: str,
                   metric: Optional[str] = None,
                   threshold: float = DEFAULT_THRESHOLD) -> HistoryReport:
    """Build the per-metric trend + change-point report.

    ``rows`` are ledger rows (ascending id).  Without an explicit
    ``metric``, every *gated* metric seen in the rows is tracked.
    """
    report = HistoryReport(workload=workload, runs=len(rows))
    names: List[str] = []
    for row in rows:
        for name, agg in row.get("metrics", {}).items():
            if name in names or not isinstance(agg, Mapping):
                continue
            if metric is not None:
                if name == metric:
                    names.append(name)
            elif agg.get("gate"):
                names.append(name)
    if metric is not None and metric not in names and rows:
        raise ValueError(
            f"metric {metric!r} was never recorded for {workload!r}"
        )
    for name in names:
        series: List[Tuple[int, float, float, str]] = []
        unit, direction, gate = "", "lower", False
        for row in rows:
            agg = row.get("metrics", {}).get(name)
            if not isinstance(agg, Mapping) or "median" not in agg:
                continue
            unit = agg.get("unit", unit)
            direction = agg.get("direction", direction)
            gate = bool(agg.get("gate", gate))
            series.append((int(row["id"]), float(row["ts"]),
                           float(agg["median"]),
                           str(row.get("outcome", "?"))))
        if not series:
            continue
        cp = detect_change_point([v for _, _, v, _ in series],
                                 direction=direction,
                                 threshold=threshold)
        report.metrics.append(MetricHistory(
            metric=name, unit=unit, direction=direction, gate=gate,
            series=series, change_point=cp,
        ))
    return report


def annotate_history(ledger: Any, report: HistoryReport) -> List[str]:
    """Write each change-point verdict back into its ledger row.

    Returns the annotation strings applied (``repro history`` prints
    them); annotation is idempotent — re-running history does not stack
    duplicate verdicts.
    """
    applied: List[str] = []
    for mh in report.metrics:
        cp = mh.change_point
        if cp is None or mh.change_run_id is None:
            continue
        verdict = (f"{cp.verdict}:{mh.metric}"
                   f"{cp.shift_frac:+.0%}")
        if ledger.annotate(mh.change_run_id, verdict):
            applied.append(f"run #{mh.change_run_id}: {verdict}")
    return applied


def _history_json(report: HistoryReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
