"""Statistical benchmark runner.

Runs a workload ``warmup + repeats`` times under the :mod:`repro.obs`
tracer, folds each repeat's trace into the stable phase taxonomy, and
aggregates every metric across repeats with *robust* statistics:

- **median** — the reported central value,
- **MAD** — median absolute deviation (the noise scale),
- **ci95** — a notch-style 95% interval for the median,
  ``median ± 1.57 × IQR / sqrt(n)`` (McGill et al.), degenerate
  (zero-width) for deterministic model outputs,
- mean/min/max for context.

Workload metrics split into two classes, recorded per metric in the
schema:

- ``gate=True`` — *deterministic model outputs* (simulated step time,
  modelled DMA time, halo traffic bytes).  Fixed seeds make them
  reproducible bit-for-bit, so the regression gate can compare them
  across machines and CI runs without noise heuristics.
- ``gate=False`` — *host measurements* (wall time per repeat, host
  phase attribution).  Reported for trend-watching, never gated.
"""

from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .. import capture
from ..events import emit
from ..metrics import aggregate, median
from .phases import PhaseAttribution, PhaseStats, attribute
from .schema import BENCH_FORMAT, BENCH_VERSION

__all__ = [
    "MetricSpec",
    "Workload",
    "WorkloadOutput",
    "run_workload",
    "run_bench",
    "environment_fingerprint",
]


@dataclass(frozen=True)
class MetricSpec:
    """How one metric is aggregated and compared."""

    unit: str = "s"
    #: "lower" (times) or "higher" (rates) is better
    direction: str = "lower"
    #: deterministic model output → eligible for the regression gate
    gate: bool = False


@dataclass
class WorkloadOutput:
    """What one workload invocation hands back to the runner."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: modelled per-phase attribution (deterministic; gated)
    phases_sim: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: roofline placement per kernel (``RooflinePoint.to_dict()`` form)
    roofline: Dict[str, Dict[str, Any]] = field(default_factory=dict)


@dataclass
class Workload:
    """A benchmarkable unit of pipeline work."""

    name: str
    #: ``fn(seed) -> WorkloadOutput``; runs under an enabled tracer
    fn: Callable[[int], WorkloadOutput]
    metric_specs: Dict[str, MetricSpec] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def spec_for(self, metric: str) -> MetricSpec:
        return self.metric_specs.get(metric, MetricSpec())


def _perf_counter() -> float:
    import time

    return time.perf_counter()


def run_workload(workload: Workload, repeats: int = 5, warmup: int = 1,
                 seed: int = 0) -> Dict[str, Any]:
    """Run one workload and return its schema fragment."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    emit("phase.enter", phase="bench.workload", workload=workload.name,
         repeats=repeats, warmup=warmup)
    for _ in range(warmup):
        workload.fn(seed)

    samples: List[Dict[str, float]] = []
    host_attrs: List[PhaseAttribution] = []
    out: Optional[WorkloadOutput] = None
    for rep in range(repeats):
        with capture() as (tr, _reg):
            t0 = _perf_counter()
            out = workload.fn(seed)
            wall = _perf_counter() - t0
        host_attrs.append(attribute(tr.records))
        sample = dict(out.metrics)
        sample["host.wall_s"] = wall
        samples.append(sample)
        emit("bench.repeat", level="debug", workload=workload.name,
             repeat=rep, wall_s=round(wall, 6))
    assert out is not None
    emit("phase.exit", phase="bench.workload", workload=workload.name)

    specs = dict(workload.metric_specs)
    specs.setdefault("host.wall_s", MetricSpec(unit="s", gate=False))
    metrics: Dict[str, Any] = {}
    for name in samples[-1]:
        values = [s[name] for s in samples if name in s]
        spec = specs.get(name, MetricSpec())
        metrics[name] = aggregate(values) | {
            "unit": spec.unit,
            "direction": spec.direction,
            "gate": spec.gate,
        }

    # host phase attribution: median time/bytes per phase over repeats
    phases_host: Dict[str, Any] = {}
    for pname in sorted({p for a in host_attrs for p in a.phases}):
        stats = [a.phases.get(pname, PhaseStats(pname)) for a in host_attrs]
        phases_host[pname] = {
            "time_s": median([st.time_s for st in stats]),
            "bytes": median([st.bytes for st in stats]),
            "count": int(median([st.count for st in stats])),
        }
    coverage = median([a.coverage for a in host_attrs])
    total_host = median([a.total_s for a in host_attrs])

    return {
        "meta": dict(workload.meta),
        "samples": repeats,
        "warmup": warmup,
        "seed": seed,
        "metrics": metrics,
        "phases_host": phases_host,
        "phase_total_host_s": total_host,
        "phase_coverage": coverage,
        "phases_sim": {k: dict(v) for k, v in out.phases_sim.items()},
        "roofline": {k: dict(v) for k, v in out.roofline.items()},
    }


def environment_fingerprint() -> Dict[str, Any]:
    """Where/how this bench ran (informational; never gated)."""
    import numpy

    fp: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "executable": sys.executable,
    }
    # git state is load-bearing for the run ledger: always present (so
    # ledger rows line up column-wise), "unknown" when rev-parse fails,
    # and a dirty-tree bool so historical rows from uncommitted trees
    # are distinguishable from clean ones.
    fp["git"] = "unknown"
    try:
        import subprocess

        cwd = os.path.dirname(os.path.abspath(__file__))
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            fp["git"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True, text=True, timeout=5, cwd=cwd,
            )
            if status.returncode == 0:
                fp["git_dirty"] = bool(status.stdout.strip())
    except Exception:  # noqa: BLE001 - fingerprint stays best-effort
        pass
    return fp


def run_bench(workloads: List[Workload], name: str, repeats: int = 5,
              warmup: int = 1, seed: int = 0) -> Dict[str, Any]:
    """Run a workload list into one versioned bench document."""
    if not workloads:
        raise ValueError("no workloads to bench")
    doc: Dict[str, Any] = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "name": name,
        "repeats": repeats,
        "warmup": warmup,
        "seed": seed,
        "workloads": {},
        "environment": environment_fingerprint(),
    }
    for w in workloads:
        doc["workloads"][w.name] = run_workload(
            w, repeats=repeats, warmup=warmup, seed=seed
        )
    return doc
