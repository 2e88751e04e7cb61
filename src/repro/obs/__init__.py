"""``repro.obs`` — end-to-end tracing and metrics for the MSC pipeline.

The paper's evaluation (Figs. 7-14) is an exercise in knowing *where
time goes*: DMA vs. compute on the SW26010, pack/send/wait in the halo
exchange, trial-by-trial convergence of the annealing tuner.  This
package is the measurement substrate for those claims:

- :mod:`repro.obs.trace`   — hierarchical spans with attributes, plus
  the bounded :class:`~repro.obs.trace.FlightRecorder` ring,
- :mod:`repro.obs.metrics` — labeled counters/gauges/histograms,
- :mod:`repro.obs.export`  — JSON, Chrome ``trace_event`` and ASCII
  summary exporters,
- :mod:`repro.obs.openmetrics` — OpenMetrics text exposition + strict
  parser (the ``/metrics`` scrape payload),
- :mod:`repro.obs.events`  — structured JSONL event log
  (``--event-log`` / ``REPRO_EVENT_LOG``),
- :mod:`repro.obs.live`    — metrics time-series sampler + localhost
  scrape server (``--serve-metrics``),
- :mod:`repro.obs.monitor` — the ``repro monitor`` ASCII dashboard,
- :mod:`repro.obs.perf`    — the performance observatory: statistical
  bench runner, span-based phase attribution and roofline reports
  (import explicitly: ``from repro.obs import perf``),
- :mod:`repro.obs.ledger`  — the append-only sqlite *run ledger*
  every ``run``/``simulate``/``tune``/``bench``/``verify`` invocation
  records into by default (``REPRO_LEDGER=0`` opts out),
- :mod:`repro.obs.diff`    — the one regression rule: ``repro diff``
  and ``repro bench --compare`` (two-run comparison with waterfall
  regression attribution) and ``repro history`` (longitudinal trends
  + change-point detection over the ledger).

Full recording is **off by default** and free when off: instrumentation
sites cost one flag check and record nothing until :func:`enable` is
called (the CLI's ``--trace`` flag, or :func:`capture` in tests).  The
*flight recorder* is the always-on middle ground: :func:`enable_flight`
keeps the last N completed spans in a fixed ring (drops accounted via
``obs.dropped_spans``) without ever growing memory, cheap enough for
long-lived service runs.

Instrumented subsystems (span name prefixes):

========== ==================================================
prefix      where
========== ==================================================
frontend    MSC source parsing (``frontend.parse``)
schedule    schedule lowering (``schedule.lower``)
analysis    static legality checks (``analysis.check``)
codegen     AOT C/Sunway/MPI generation (``codegen.*``)
machine     architectural simulators + DMA model (``machine.*``)
comm        halo exchange pack/send/wait/unpack/retry (``comm.*``)
runtime     distributed execution steps (``runtime.*``)
faults      injected message/rank faults (``faults.*`` counters)
autotune    sampling, annealing trials (``autotune.*``)
native      compiled-C backend build/exec + artifact cache
            (``native.*`` spans, ``native.cache.*`` counters)
cli         top-level command spans (``cli.*``)
========== ==================================================
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import (
    MetricsRegistry,
    counter,
    gauge,
    observe,
    registry,
)
from .trace import (
    FlightRecorder,
    Span,
    Tracer,
    attach_flow,
    disable_flight,
    enable_flight,
    flight,
    is_enabled,
    span,
    tracer,
)

__all__ = [
    "INSTRUMENTED_SUBSYSTEMS",
    "FlightRecorder",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "attach_flow",
    "capture",
    "counter",
    "disable",
    "disable_flight",
    "enable",
    "enable_flight",
    "flight",
    "gauge",
    "is_enabled",
    "observe",
    "rank_scope",
    "registry",
    "reset",
    "span",
    "tracer",
]

#: span-name prefixes emitted by the instrumented pipeline stages
INSTRUMENTED_SUBSYSTEMS = (
    "frontend", "schedule", "analysis", "codegen", "machine", "comm",
    "runtime", "autotune", "faults", "native", "cli",
)


def enable() -> None:
    """Turn on both the tracer and the metrics registry."""
    tracer().enable()
    registry().enable()


def disable() -> None:
    """Turn off both the tracer and the metrics registry."""
    tracer().disable()
    registry().disable()


def reset() -> None:
    """Drop all recorded spans and metrics (state stays on/off as-is)."""
    tracer().reset()
    registry().reset()


@contextmanager
def rank_scope(rank: int, **extra):
    """Tag every span and metric written on this thread with ``rank=``.

    Bound by ``run_ranks`` around each simulated MPI rank thread so
    distributed traces carry per-rank attribution end to end (see
    :mod:`repro.obs.distributed`).  Explicit ``rank=`` attrs/labels at
    an instrumentation site win over the scope's value.

    ``extra`` attrs (e.g. ``backend=``, ``exchange_mode=``) join the
    **span** scope only — metric series keep their exact historical
    label sets so ``counter_value(name, rank=r)`` lookups stay stable.
    """
    with tracer().scope(rank=rank, **extra), registry().scope(rank=rank):
        yield


@contextmanager
def capture():
    """Record everything inside the block::

        with obs.capture() as (tr, reg):
            prog.simulate("sunway")
        assert tr.records

    Resets, enables on entry; disables on exit (records are kept so the
    caller can export them).
    """
    reset()
    enable()
    try:
        yield tracer(), registry()
    finally:
        disable()
