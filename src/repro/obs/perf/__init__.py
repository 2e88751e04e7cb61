"""``repro.obs.perf`` — the performance observatory.

Turns the raw :mod:`repro.obs` spans/metrics into durable, comparable
performance data (the role Devito's "performance mode" plays for that
DSL):

- :mod:`~repro.obs.perf.runner` — statistical bench runner: warmup +
  N repeats, median/MAD/95% CI, fixed seeds, environment fingerprint;
- :mod:`~repro.obs.perf.phases` — span-based phase attribution into a
  stable taxonomy (frontend/lower/codegen/compute/spm-dma/halo-pack/
  send-wait/unpack/tune/...);
- :mod:`~repro.obs.perf.schema` — the versioned ``BENCH_<name>.json``
  document format;
- :mod:`~repro.obs.perf.report` — ASCII phase/roofline rendering;
- :mod:`~repro.obs.perf.workloads` — built-in ``<bench>@<machine>``
  and ``exchange:<bench>`` workloads.

Driven by ``repro bench [--compare BASELINE.json]``; the comparison
runs through :func:`repro.obs.diff.diff_runs`, the same code as
``repro diff``.  See ``docs/PERF.md`` for the schema and methodology.
"""

from __future__ import annotations

from ..metrics import aggregate
from .phases import PHASES, PhaseAttribution, PhaseStats, attribute, phase_of
from .report import format_bench, format_workload
from .runner import (
    MetricSpec,
    Workload,
    WorkloadOutput,
    environment_fingerprint,
    run_bench,
    run_workload,
)
from .schema import (
    BENCH_FORMAT,
    BENCH_VERSION,
    bench_filename,
    load_artifact,
    load_bench,
    write_bench,
)
from .workloads import (
    DEFAULT_WORKLOADS,
    available_workloads,
    resolve_workloads,
    workload_by_name,
)

__all__ = [
    "BENCH_FORMAT",
    "BENCH_VERSION",
    "DEFAULT_WORKLOADS",
    "MetricSpec",
    "PHASES",
    "PhaseAttribution",
    "PhaseStats",
    "Workload",
    "WorkloadOutput",
    "aggregate",
    "attribute",
    "available_workloads",
    "bench_filename",
    "environment_fingerprint",
    "format_bench",
    "format_workload",
    "load_artifact",
    "load_bench",
    "phase_of",
    "resolve_workloads",
    "run_bench",
    "run_workload",
    "workload_by_name",
    "write_bench",
]
