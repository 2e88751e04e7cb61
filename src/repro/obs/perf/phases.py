"""Span-based phase attribution.

Folds a recorded trace tree into a **stable phase taxonomy** so runs
can be compared across PRs even when the underlying span names evolve:

========== ====================================================
phase       what it covers (span-name prefixes)
========== ====================================================
frontend    MSC source parsing (``frontend.*``)
lower       schedule lowering (``schedule.*``,
            ``machine.lower_schedule``)
analysis    static legality checks (``analysis.*``)
codegen     AOT code generation (``codegen.*``), native-backend
            compilation (``native.compile``) and the plan memo
            around both (``native.plan``: a few µs on a hit, the
            generator set-up and library load on a miss)
compute     arithmetic: the simulators' compute model, the
            runtime's kernel evaluation and the native backend's
            in-process execution (``native.exec`` / ``native.run``)
spm-dma     memory system: SPM allocation, DMA model, cache model
halo-pack   halo strip packing (``comm.pack``)
send-wait   message send/wait/retry/relay (``comm.send`` etc.)
unpack      halo strip unpacking (``comm.unpack``)
tune        auto-tuner sampling/annealing (``autotune.*``)
runtime     distributed-run orchestration (``runtime.*``)
other       everything unmapped (CLI shell, bench harness, ...)
========== ====================================================

Attribution is by **self time**: each span's duration minus its direct
children's durations is credited to the span's phase, so the per-phase
times sum to the trace's total root time (no double counting across
the tree).  Span ``bytes`` attributes accumulate per phase the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

__all__ = [
    "PHASES",
    "PhaseStats",
    "PhaseAttribution",
    "phase_of",
    "self_times",
    "attribute",
]

#: the stable taxonomy, in report order
PHASES: Tuple[str, ...] = (
    "frontend", "lower", "analysis", "codegen", "compute", "spm-dma",
    "halo-pack", "send-wait", "unpack", "tune", "runtime", "other",
)

# exact span names first, then prefixes (longest match wins)
_EXACT = {
    "machine.lower_schedule": "lower",
    "machine.compute_model": "compute",
    "machine.cache_model": "spm-dma",
    "machine.dma_model": "spm-dma",
    "machine.spm_alloc": "spm-dma",
    "runtime.kernel_eval": "compute",
    "native.exec": "compute",
    "native.run": "compute",
    "native.compile": "codegen",
    "native.plan": "codegen",
    "comm.pack": "halo-pack",
    "comm.unpack": "unpack",
}

_PREFIXES = (
    ("frontend.", "frontend"),
    ("schedule.", "lower"),
    ("analysis.", "analysis"),
    ("codegen.", "codegen"),
    ("comm.", "send-wait"),  # send/wait/retry/relay/exchange shell
    ("autotune.", "tune"),
    ("runtime.", "runtime"),
    ("machine.", "other"),  # simulator orchestration shells
    ("native.", "other"),  # cache lookups and executor shell
)


def phase_of(name: str) -> str:
    """Map one span name onto the stable taxonomy."""
    mapped = _EXACT.get(name)
    if mapped is not None:
        return mapped
    for prefix, phase in _PREFIXES:
        if name.startswith(prefix):
            return phase
    return "other"


@dataclass
class PhaseStats:
    """Accumulated attribution for one phase."""

    phase: str
    time_s: float = 0.0
    count: int = 0
    bytes: float = 0.0
    #: achieved arithmetic rate, when the caller can supply flops
    gflops: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "count": self.count,
            "bytes": self.bytes,
            "gflops": self.gflops,
        }


@dataclass
class PhaseAttribution:
    """Per-phase fold of one trace."""

    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    #: sum of root-span durations (the trace's wall coverage)
    total_s: float = 0.0
    #: span name -> summed self time, below the taxonomy
    by_name: Dict[str, float] = field(default_factory=dict, init=False)

    def share(self, phase: str) -> float:
        """Fraction of total span time credited to ``phase``."""
        if self.total_s <= 0:
            return 0.0
        stats = self.phases.get(phase)
        return stats.time_s / self.total_s if stats else 0.0

    @property
    def attributed_s(self) -> float:
        """Sum of per-phase times (should ≈ ``total_s``)."""
        return sum(p.time_s for p in self.phases.values())

    @property
    def coverage(self) -> float:
        """attributed / total — the acceptance bar is ≥ 0.95."""
        if self.total_s <= 0:
            return 1.0
        return min(1.0, self.attributed_s / self.total_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_s": self.total_s,
            "coverage": self.coverage,
            "phases": {
                name: self.phases[name].to_dict()
                for name in PHASES if name in self.phases
            },
        }


def self_times(spans: Iterable[Any]) -> List[Tuple[Mapping[str, Any], float]]:
    """Each span (as a dict) with its self time.

    Self time is the span's duration minus its direct children's
    durations, floored at zero: the one child-time fold behind
    :func:`attribute` (and so the ledger's span-name map), the trace
    summary's per-path table and the per-rank imbalance report.
    """
    records = [s if isinstance(s, Mapping) else s.to_dict() for s in spans]
    child_time: Dict[Any, float] = {}
    for s in records:
        pid = s.get("parent_id")
        if pid is not None:
            child_time[pid] = child_time.get(pid, 0.0) + s["duration_s"]
    return [
        (s, max(0.0, s["duration_s"] - child_time.get(s["span_id"], 0.0)))
        for s in records
    ]


def attribute(spans: Iterable[Any]) -> PhaseAttribution:
    """Fold spans (``Span`` objects or their dicts) into phases.

    Self-time attribution: a parent is credited only with the time its
    direct children do not cover, so nested instrumentation never
    counts twice and the phase times sum to the root total.
    """
    attr = PhaseAttribution()
    for s, self_s in self_times(spans):
        if s.get("parent_id") is None:
            attr.total_s += s["duration_s"]
        phase = phase_of(s["name"])
        stats = attr.phases.get(phase)
        if stats is None:
            stats = attr.phases[phase] = PhaseStats(phase)
        stats.time_s += self_s
        stats.count += 1
        nbytes = s.get("attrs", {}).get("bytes")
        if isinstance(nbytes, (int, float)):
            stats.bytes += nbytes
        attr.by_name[s["name"]] = attr.by_name.get(s["name"], 0.0) + self_s
    return attr
