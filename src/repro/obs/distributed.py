"""Distributed-trace analysis: merged timelines, flow edges, critical path.

A distributed run records one span tree per simulated MPI rank (each
rank thread opens a ``runtime.rank`` root under :func:`~repro.obs.rank_scope`)
plus message-flow identities stamped by the transport: every tracked
message carries a ``(src, dst, tag, seq)`` id recorded as ``flows_out``
on the span that sent it and ``flows_in`` on the span that consumed it.
This module merges those per-rank timelines into one DAG — program
order within a rank, flow edges across ranks — and answers the
questions the paper's scaling claims hinge on:

- :class:`DistributedTrace` — the merged model: per-rank span lists,
  matched flow edges, and structural validation (orphan inbound edges,
  dangling parents — the malformed-DAG conditions ``repro trace``
  exits non-zero on);
- :func:`extract_critical_path` — the longest dependency chain through
  the DAG with per-phase composition (which rank/phase actually gates
  the run), plus deterministic structural chain stats for regression
  gating;
- :func:`imbalance_report` — per-rank phase self-times, max/median
  skew, the gating rank per exchange, and per-rank traffic skew;
- :func:`format_by_rank` / :func:`format_critical_path` — the ASCII
  tables ``repro trace`` prints for a trace of two or more ranks.

Two kinds of path metrics coexist on purpose: the **wall-clock** walk
reports where time actually went (informative, but timing jitters run
to run), while the **structural chain** counts spans and rank
crossings on the longest logical chain — program-deterministic under
fixed seeds, so a test can pin it exactly.

Dropped messages (fault injection) legally leave *dangling outbound*
flows — a send whose strip nobody consumed.  An *orphan inbound* flow
(a span claims to have consumed a message nobody sent) can only come
from a corrupted or hand-edited trace and fails validation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .export import fmt_time, trace_to_dict
from .metrics import MetricsRegistry, median
from .phases import PHASES, phase_of, self_times
from .trace import Tracer

__all__ = [
    "DistributedTrace",
    "FlowEdge",
    "CriticalPath",
    "PathSegment",
    "ImbalanceReport",
    "extract_critical_path",
    "imbalance_report",
    "format_by_rank",
    "format_critical_path",
]

_RANK_THREAD_PREFIX = "simmpi-rank-"


def _parse_series(series: str) -> Tuple[str, Dict[str, str]]:
    """Split a ``name{k=v,...}`` metrics-series key (see format_series)."""
    if "{" not in series:
        return series, {}
    name, _, rest = series.partition("{")
    labels: Dict[str, str] = {}
    for item in rest.rstrip("}").split(","):
        if not item:
            continue
        k, _, v = item.partition("=")
        labels[k] = v
    return name, labels


@dataclass(frozen=True)
class FlowEdge:
    """One matched message edge: producing span → consuming span."""

    flow_id: str
    src_span: int
    dst_span: int
    src_rank: Optional[int]
    dst_rank: Optional[int]

    @property
    def crosses_ranks(self) -> bool:
        return (
            self.src_rank is not None
            and self.dst_rank is not None
            and self.src_rank != self.dst_rank
        )


class DistributedTrace:
    """Merged cross-rank view of one recorded trace.

    Build from a loaded trace document (:meth:`from_doc`, any on-disk
    format via :func:`~repro.obs.export.load_trace`) or from the live
    tracer/registry (:meth:`from_live`).
    """

    def __init__(self, spans: List[Dict[str, Any]],
                 counters: Optional[Mapping[str, float]] = None):
        self.spans = spans
        self.counters: Dict[str, float] = dict(counters or {})
        self.by_id: Dict[int, Dict[str, Any]] = {
            s["span_id"]: s for s in spans
        }
        # flow id -> producing span id (first producer wins; a flow id
        # names one physical message, so duplicates are malformed)
        self.producers: Dict[str, int] = {}
        self._dup_producers: List[str] = []
        # flow id -> consuming span ids (an injected duplicate delivers
        # the same physical copy twice, so two consumers are legal)
        self.consumers: Dict[str, List[int]] = {}
        for s in spans:
            attrs = s.get("attrs") or {}
            for fid in attrs.get("flows_out", ()):
                if fid in self.producers:
                    self._dup_producers.append(fid)
                else:
                    self.producers[fid] = s["span_id"]
            for fid in attrs.get("flows_in", ()):
                self.consumers.setdefault(fid, []).append(s["span_id"])
        self.edges: List[FlowEdge] = []
        for fid, dsts in self.consumers.items():
            src = self.producers.get(fid)
            if src is None:
                continue
            for dst in dsts:
                self.edges.append(FlowEdge(
                    fid, src, dst,
                    self.rank_of(self.by_id[src]),
                    self.rank_of(self.by_id[dst]),
                ))

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "DistributedTrace":
        metrics = doc.get("metrics") or {}
        return cls(list(doc.get("spans") or []),
                   metrics.get("counters") or {})

    @classmethod
    def from_live(cls, tr: Optional[Tracer] = None,
                  reg: Optional[MetricsRegistry] = None
                  ) -> "DistributedTrace":
        doc = trace_to_dict(tr, reg)
        return cls.from_doc(doc)

    # -- rank attribution ------------------------------------------------
    @staticmethod
    def rank_of(span: Mapping[str, Any]) -> Optional[int]:
        """A span's rank: the ``rank=`` attr, else its thread name."""
        rank = (span.get("attrs") or {}).get("rank")
        if isinstance(rank, bool):
            return None
        if isinstance(rank, int):
            return rank
        thread = span.get("thread") or ""
        if thread.startswith(_RANK_THREAD_PREFIX):
            tail = thread[len(_RANK_THREAD_PREFIX):]
            if tail.isdigit():
                return int(tail)
        return None

    @property
    def ranks(self) -> List[int]:
        """Sorted ranks that contributed at least one span."""
        return sorted({
            r for r in (self.rank_of(s) for s in self.spans)
            if r is not None
        })

    @property
    def dangling_out(self) -> List[str]:
        """Flows sent but never consumed (legal: dropped messages)."""
        return sorted(
            fid for fid in self.producers if fid not in self.consumers
        )

    @property
    def orphan_in(self) -> List[str]:
        """Flows consumed but never produced (malformed)."""
        return sorted(
            fid for fid in self.consumers if fid not in self.producers
        )

    # -- validation ------------------------------------------------------
    def validate(self) -> List[str]:
        """Structural problems, empty when the DAG is well-formed.

        Checks: parent links must resolve, span ids must be unique,
        every inbound flow must have a producer, and no flow id may be
        produced twice.  Dangling *outbound* flows are not an error —
        fault injection drops messages.
        """
        problems: List[str] = []
        seen: set = set()
        for s in self.spans:
            sid = s["span_id"]
            if sid in seen:
                problems.append(f"duplicate span id {sid}")
            seen.add(sid)
        for s in self.spans:
            pid = s.get("parent_id")
            if pid is not None and pid not in self.by_id:
                problems.append(
                    f"span {s['span_id']} ({s['name']}) has dangling "
                    f"parent id {pid}"
                )
        for fid in self.orphan_in:
            dsts = ", ".join(str(d) for d in self.consumers[fid])
            problems.append(
                f"orphan inbound flow {fid} (consumed by span {dsts}, "
                "never produced)"
            )
        for fid in sorted(set(self._dup_producers)):
            problems.append(f"flow {fid} produced by more than one span")
        return problems


# -- critical path ---------------------------------------------------------
@dataclass
class PathSegment:
    """One hop of the wall-clock critical path (chronological order)."""

    span_id: int
    name: str
    rank: Optional[int]
    phase: str
    #: how this span was reached: "start", "program" or "flow"
    edge: str
    flow_id: Optional[str]
    contribution_s: float
    count: int = 1  # collapsed consecutive same-shaped hops


@dataclass
class CriticalPath:
    """The longest dependency chain through a merged distributed trace."""

    #: wall-clock gating walk, chronological, consecutive same-shaped
    #: hops collapsed
    segments: List[PathSegment] = field(default_factory=list)
    total_s: float = 0.0
    #: rank changes via flow edges along the wall path
    crossings: int = 0
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: deterministic structural stats (zero-MAD under fixed seeds)
    chain_spans: int = 0
    chain_crossings: int = 0
    flow_edges: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_s": self.total_s,
            "crossings": self.crossings,
            "phase_times": dict(self.phase_times),
            "chain_spans": self.chain_spans,
            "chain_crossings": self.chain_crossings,
            "flow_edges": self.flow_edges,
            "segments": [
                {
                    "span_id": seg.span_id, "name": seg.name,
                    "rank": seg.rank, "phase": seg.phase,
                    "edge": seg.edge, "flow": seg.flow_id,
                    "time_s": seg.contribution_s, "count": seg.count,
                }
                for seg in self.segments
            ],
        }


def _wall_walk(dt: DistributedTrace) -> Tuple[List[PathSegment], float,
                                              int, Dict[str, float]]:
    """Gating backward walk from the last span to finish.

    At each span the *gating predecessor* is whichever dependency
    finished latest: its last child (a span cannot close before its
    children), the previous span to finish on its thread (program
    order), or the producer of a message it consumed (flow edge).  The
    stretch between the predecessor's end and the span's own end is
    credited to the span's phase.
    """
    spans = dt.spans
    if not spans:
        return [], 0.0, 0, {}
    end_of = {s["span_id"]: s["start_s"] + s["duration_s"] for s in spans}
    # per-thread completion order, for binary-searching "latest span to
    # end at or before t"
    by_thread: Dict[str, List[Dict[str, Any]]] = {}
    for s in spans:
        by_thread.setdefault(s.get("thread") or "", []).append(s)
    thread_ends: Dict[str, List[float]] = {}
    for th, ss in by_thread.items():
        ss.sort(key=lambda s: (end_of[s["span_id"]], s["span_id"]))
        thread_ends[th] = [end_of[s["span_id"]] for s in ss]
    last_child: Dict[int, Dict[str, Any]] = {}
    for s in spans:
        pid = s.get("parent_id")
        if pid is None:
            continue
        cur = last_child.get(pid)
        if cur is None or end_of[s["span_id"]] > end_of[cur["span_id"]]:
            last_child[pid] = s
    # rank-thread root spans (runtime.rank) have no parent link; the
    # main-thread span that joins those threads still cannot finish
    # before them — model the join as a dependency on any other
    # thread's root temporally contained in the current span
    roots = [s for s in spans if s.get("parent_id") is None]

    def program_pred(s: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        th = s.get("thread") or ""
        idx = bisect_right(thread_ends[th], s["start_s"] + 1e-12) - 1
        return by_thread[th][idx] if idx >= 0 else None

    # thread-spawn fallback: the first span on a rank thread depends on
    # whatever ran last before the thread started (the spawning code)
    all_by_end = sorted(spans, key=lambda s: (end_of[s["span_id"]],
                                              s["span_id"]))
    all_ends = [end_of[s["span_id"]] for s in all_by_end]

    def spawn_pred(s: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        idx = bisect_right(all_ends, s["start_s"] + 1e-12) - 1
        return all_by_end[idx] if idx >= 0 else None

    cur = max(spans, key=lambda s: (end_of[s["span_id"]], s["span_id"]))
    segments: List[PathSegment] = []
    crossings = 0
    phase_times: Dict[str, float] = {}
    guard = len(spans) + len(dt.edges) + 1
    while guard > 0:
        guard -= 1
        cur_end = end_of[cur["span_id"]]
        candidates: List[Tuple[float, int, str, Optional[str],
                               Dict[str, Any]]] = []
        child = last_child.get(cur["span_id"])
        if child is not None:
            candidates.append((
                end_of[child["span_id"]], child["span_id"],
                "program", None, child,
            ))
        prog = program_pred(cur)
        if prog is not None:
            candidates.append((
                end_of[prog["span_id"]], prog["span_id"],
                "program", None, prog,
            ))
        cur_thread = cur.get("thread") or ""
        for r in roots:
            if (r is cur or (r.get("thread") or "") == cur_thread):
                continue
            if (r["start_s"] >= cur["start_s"] - 1e-12
                    and end_of[r["span_id"]] <= cur_end + 1e-12):
                candidates.append((
                    end_of[r["span_id"]], r["span_id"],
                    "program", None, r,
                ))
        for fid in (cur.get("attrs") or {}).get("flows_in", ()):
            src = dt.producers.get(fid)
            if src is None:
                continue
            producer = dt.by_id[src]
            if end_of[src] < cur_end:
                # flow sorts above a program pred ending at the same
                # instant: surface the cross-rank dependency
                candidates.append((end_of[src], src, "flow", fid,
                                   producer))
        if not candidates:
            spawn = spawn_pred(cur)
            if spawn is not None:
                candidates.append((
                    end_of[spawn["span_id"]], spawn["span_id"],
                    "program", None, spawn,
                ))
        pred = max(candidates, default=None,
                   key=lambda c: (c[0], c[2] == "flow", c[1]))
        if pred is None:
            contribution = cur["duration_s"]
        else:
            contribution = max(0.0, cur_end - pred[0])
        phase = phase_of(cur["name"])
        # a segment's edge names how it was reached from the previous
        # (chronologically earlier) segment — i.e. from this pred
        segments.append(PathSegment(
            span_id=cur["span_id"], name=cur["name"],
            rank=dt.rank_of(cur), phase=phase,
            edge="start" if pred is None else pred[2],
            flow_id=None if pred is None else pred[3],
            contribution_s=contribution,
        ))
        phase_times[phase] = phase_times.get(phase, 0.0) + contribution
        if pred is None:
            break
        if (pred[2] == "flow"
                and dt.rank_of(pred[4]) != dt.rank_of(cur)):
            crossings += 1
        if pred[0] >= cur_end and pred[1] >= cur["span_id"]:
            break  # zero-width tie: stop rather than loop
        cur = pred[4]
    segments.reverse()
    total = sum(seg.contribution_s for seg in segments)
    return segments, total, crossings, phase_times


def _collapse(segments: List[PathSegment]) -> List[PathSegment]:
    """Merge consecutive same (rank, name, program-edge) hops."""
    out: List[PathSegment] = []
    for seg in segments:
        prev = out[-1] if out else None
        if (prev is not None and seg.edge == "program"
                and prev.name == seg.name and prev.rank == seg.rank):
            prev.contribution_s += seg.contribution_s
            prev.count += 1
        else:
            out.append(seg)
    return out


def _chain_stats(dt: DistributedTrace) -> Tuple[int, int]:
    """Longest structural chain: (span count, rank crossings).

    Unit-weight DP over the logical DAG — program-order edges between
    consecutive spans opened on one thread plus matched flow edges —
    maximising ``(length, crossings)`` lexicographically.  Span open
    order per thread and flow matching are both program-deterministic
    under fixed seeds, so these numbers carry no timing noise (the
    exactness ``tests/test_perf.py`` pins).  A back edge from a
    malformed input is skipped rather than recursed into.
    """
    spans = dt.spans
    if not spans:
        return 0, 0
    by_thread: Dict[str, List[int]] = {}
    for s in sorted(spans, key=lambda s: s["span_id"]):
        by_thread.setdefault(s.get("thread") or "", []).append(
            s["span_id"]
        )
    succs: Dict[int, List[Tuple[int, bool]]] = {
        s["span_id"]: [] for s in spans
    }
    for ids in by_thread.values():
        for a, b in zip(ids, ids[1:]):
            succs[a].append((b, False))
    for edge in sorted(dt.edges,
                       key=lambda e: (e.src_span, e.dst_span)):
        succs[edge.src_span].append(
            (edge.dst_span, edge.crosses_ranks)
        )
    best: Dict[int, Tuple[int, int]] = {}
    on_stack: set = set()

    def longest(sid: int) -> Tuple[int, int]:
        cached = best.get(sid)
        if cached is not None:
            return cached
        on_stack.add(sid)
        tail = (0, 0)
        for nxt, crosses in succs[sid]:
            if nxt in on_stack:
                continue
            length, cross = longest(nxt)
            cand = (length, cross + (1 if crosses else 0))
            if cand > tail:
                tail = cand
        on_stack.discard(sid)
        best[sid] = (tail[0] + 1, tail[1])
        return best[sid]

    # iterative-friendly order: spans late in id order first, so the
    # recursion depth stays shallow for long per-thread chains
    result = (0, 0)
    for s in sorted(spans, key=lambda s: -s["span_id"]):
        result = max(result, longest(s["span_id"]))
    return result


def extract_critical_path(dt: DistributedTrace) -> CriticalPath:
    """Walk the merged DAG and report the run's gating chain."""
    segments, total, crossings, phase_times = _wall_walk(dt)
    chain_spans, chain_crossings = _chain_stats(dt)
    return CriticalPath(
        segments=_collapse(segments),
        total_s=total,
        crossings=crossings,
        phase_times=phase_times,
        chain_spans=chain_spans,
        chain_crossings=chain_crossings,
        flow_edges=len(dt.edges),
    )


# -- load imbalance --------------------------------------------------------
@dataclass
class ImbalanceReport:
    """Per-rank work distribution of one distributed trace."""

    #: rank -> phase -> self time (only ranked spans contribute)
    per_rank: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: rank -> total self time across phases
    totals: Dict[int, float] = field(default_factory=dict)
    #: phase -> max/median self time across ranks
    phase_skew: Dict[str, float] = field(default_factory=dict)
    #: max/median of per-rank totals
    total_skew: float = 1.0
    #: rank -> number of exchanges it finished last in (gated)
    gating: Dict[int, int] = field(default_factory=dict)
    #: rank -> comm.bytes_sent, from the metrics snapshot
    bytes_by_rank: Dict[int, float] = field(default_factory=dict)
    #: max/median of per-rank bytes (deterministic under fixed seeds)
    bytes_skew: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "per_rank": {
                str(r): dict(p) for r, p in self.per_rank.items()
            },
            "totals": {str(r): t for r, t in self.totals.items()},
            "phase_skew": dict(self.phase_skew),
            "total_skew": self.total_skew,
            "gating": {str(r): n for r, n in self.gating.items()},
            "bytes_by_rank": {
                str(r): b for r, b in self.bytes_by_rank.items()
            },
            "bytes_skew": self.bytes_skew,
        }


def _skew(values: List[float]) -> float:
    """max/median, 1.0 when degenerate (".0 of nothing is balanced")."""
    if len(values) < 2:
        return 1.0
    med = median(values)
    if med <= 0:
        return 1.0
    return max(values) / med


def imbalance_report(dt: DistributedTrace) -> ImbalanceReport:
    """Fold a merged trace into the per-rank load-imbalance view."""
    rep = ImbalanceReport()
    for s, self_s in self_times(dt.spans):
        rank = dt.rank_of(s)
        if rank is None:
            continue
        phase = phase_of(s["name"])
        per = rep.per_rank.setdefault(rank, {})
        per[phase] = per.get(phase, 0.0) + self_s
        rep.totals[rank] = rep.totals.get(rank, 0.0) + self_s
    ranks = sorted(rep.per_rank)
    for phase in PHASES:
        values = [rep.per_rank[r].get(phase, 0.0) for r in ranks]
        if any(v > 0 for v in values):
            rep.phase_skew[phase] = _skew(values)
    rep.total_skew = _skew([rep.totals[r] for r in ranks])
    # which rank finished each exchange last (the one the others'
    # subsequent receives implicitly waited on)
    by_seq: Dict[Any, List[Dict[str, Any]]] = {}
    for s in dt.spans:
        if s["name"] != "comm.exchange":
            continue
        seq = (s.get("attrs") or {}).get("seq")
        by_seq.setdefault(seq, []).append(s)
    for seq, group in by_seq.items():
        if len(group) < 2:
            continue
        gate = max(
            group,
            key=lambda s: (s["start_s"] + s["duration_s"], s["span_id"]),
        )
        rank = dt.rank_of(gate)
        if rank is not None:
            rep.gating[rank] = rep.gating.get(rank, 0) + 1
    for series, value in dt.counters.items():
        name, labels = _parse_series(series)
        if name != "comm.bytes_sent" or "rank" not in labels:
            continue
        try:
            rank = int(labels["rank"])
        except ValueError:
            continue
        rep.bytes_by_rank[rank] = rep.bytes_by_rank.get(rank, 0.0) + value
    rep.bytes_skew = _skew(list(rep.bytes_by_rank.values()))
    return rep


# -- rendering -------------------------------------------------------------
def format_by_rank(dt: DistributedTrace,
                   rep: Optional[ImbalanceReport] = None) -> str:
    """Per-rank phase self-time table with a skew column."""
    rep = rep or imbalance_report(dt)
    ranks = sorted(rep.per_rank)
    if not ranks:
        return "PER-RANK SUMMARY\n(no rank-attributed spans in trace)"
    phases = [
        p for p in PHASES
        if any(rep.per_rank[r].get(p, 0.0) > 0 for r in ranks)
    ]
    lines = [f"PER-RANK SUMMARY  ({len(ranks)} ranks)"]
    header = "rank " + "".join(f"{p:>11s}" for p in phases)
    header += f"{'total':>11s}{'skew':>7s}"
    lines.append(header)
    lines.append("-" * len(header))
    med_total = median([rep.totals[r] for r in ranks])
    for r in ranks:
        row = f"{r:<5d}"
        for p in phases:
            row += f"{fmt_time(rep.per_rank[r].get(p, 0.0)):>11s}"
        total = rep.totals[r]
        skew = total / med_total if med_total > 0 else 1.0
        row += f"{fmt_time(total):>11s}{skew:>6.2f}x"
        lines.append(row)
    skew_row = "skew "
    for p in phases:
        skew_row += f"{rep.phase_skew.get(p, 1.0):>10.2f}x"
    skew_row += f"{rep.total_skew:>10.2f}x"
    lines.append(skew_row)
    if rep.gating:
        gates = ", ".join(
            f"rank {r}: {n}" for r, n in sorted(rep.gating.items())
        )
        total_ex = sum(rep.gating.values())
        lines.append(f"exchange gating ranks ({total_ex} exchanges): "
                     f"{gates}")
    if rep.bytes_by_rank:
        lines.append(
            "bytes sent: "
            + ", ".join(
                f"rank {r}: {int(b)}"
                for r, b in sorted(rep.bytes_by_rank.items())
            )
            + f"  (skew {rep.bytes_skew:.2f}x)"
        )
    return "\n".join(lines)


def format_critical_path(cp: CriticalPath) -> str:
    """Human-readable rendering of one extracted critical path."""
    lines = [
        f"CRITICAL PATH  (wall {fmt_time(cp.total_s)}, "
        f"{cp.crossings} rank crossings, "
        f"chain {cp.chain_spans} spans / {cp.chain_crossings} crossings, "
        f"{cp.flow_edges} flow edges)"
    ]
    for seg in cp.segments:
        rank = f"rank {seg.rank}" if seg.rank is not None else "main"
        label = seg.name + (f" x{seg.count}" if seg.count > 1 else "")
        via = ""
        if seg.edge == "flow" and seg.flow_id:
            via = f"  <- flow {seg.flow_id}"
        took = fmt_time(seg.contribution_s)
        lines.append(f"  {rank:>8s}  {label:36s} {took:>10s}{via}")
    if cp.phase_times:
        total = sum(cp.phase_times.values()) or 1.0
        comp = "  ".join(
            f"{p} {cp.phase_times[p] / total * 100:.0f}%"
            for p in PHASES if cp.phase_times.get(p, 0.0) > 0
        )
        lines.append(f"phase composition: {comp}")
    return "\n".join(lines)
