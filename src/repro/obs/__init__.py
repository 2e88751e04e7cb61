"""``repro.obs`` — end-to-end tracing and metrics for the MSC pipeline.

The paper's evaluation (Figs. 7-14) is an exercise in knowing *where
time goes*: DMA vs. compute on the SW26010, pack/send/wait in the halo
exchange, trial-by-trial convergence of the annealing tuner.  This
package is the measurement substrate for those claims:

- :mod:`repro.obs.trace`   — hierarchical spans with attributes, plus
  the bounded :class:`~repro.obs.trace.FlightRecorder` ring,
- :mod:`repro.obs.metrics` — labeled counters/gauges/histograms,
- :mod:`repro.obs.export`  — the Chrome ``trace_event`` trace file
  (``--trace``), its loader and the ASCII summary,
- :mod:`repro.obs.openmetrics` — OpenMetrics text exposition + strict
  parser (the ``/metrics`` scrape payload),
- :mod:`repro.obs.events`  — structured JSONL event log
  (``--event-log`` / ``REPRO_EVENT_LOG``),
- :mod:`repro.obs.live`    — localhost scrape server
  (``--serve-metrics``),
- :mod:`repro.obs.distributed` — merged cross-rank timelines, flow
  edges and the critical path (``repro trace``),
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

:func:`session` is the one place a command's telemetry is set up and
torn down: the flight default, the ledger row, the event sink, the
``--serve-metrics`` server and the ``--trace`` file, all handed back
to the caller's state on exit.

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

from contextlib import ExitStack, contextmanager

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
    flight_default,
    is_enabled,
    preserved,
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
    "session",
    "Session",
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

    Resets and enables on entry; on exit the caller's on/off state comes
    back (records are kept so the caller can export them).
    """
    with preserved():
        reset()
        enable()
        yield tracer(), registry()


class Session:
    """What :func:`session` yields: set ``rc`` to the command's exit
    code (a trace file that cannot be written turns it to 1)."""

    rc = 0


@contextmanager
def session(command: str, *, trace=None, serve=None, linger: float = 0.0,
            event_log=None):
    """Run one command under the CLI's telemetry; yields a :class:`Session`.

    It turns the flight ring on (:func:`~repro.obs.trace.flight_default`),
    records every span under ``trace`` and writes them there as a Chrome
    ``trace_event`` file on exit, installs the ``event_log`` (else
    ``$REPRO_EVENT_LOG``) sink, serves metrics on port ``serve`` until
    ``linger`` seconds after the block, and writes a ledger row for a
    :data:`~repro.obs.ledger.LEDGED_COMMANDS` command unless
    ``REPRO_LEDGER=0``.  The caller's tracer, flight and registry state
    come back on exit.
    """
    import os

    from . import events, ledger

    run = Session()
    try:
        with preserved(), ExitStack() as stack:
            if trace:
                reset()
                enable()
            capacity = flight_default()
            if capacity:
                enable_flight(capacity=capacity)
            event_log = event_log or os.environ.get(events.ENV_EVENT_LOG)
            if event_log:
                events.install(event_log)
                stack.callback(events.uninstall)
            if serve is not None:
                stack.enter_context(_serving(serve, linger))
            row = None
            if command in ledger.LEDGED_COMMANDS and ledger.enabled():
                row = stack.enter_context(ledger.recording(command))
            try:
                with span(f"cli.{command}"):
                    events.emit("cli.start", command=command)
                    yield run
                    events.emit("cli.exit", command=command, rc=run.rc)
            finally:
                if row is not None:  # an exception makes its rc 1
                    fl = flight()
                    row.rc = run.rc
                    row.spans = (list(tracer().records) if trace
                                 else fl.snapshot() if fl else None)
    finally:
        if trace:
            import sys

            from .export import write_trace

            try:
                write_trace(trace)
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                run.rc = 1
            else:
                print(f"trace written to {trace} (chrome trace_event, "
                      f"{len(tracer().records)} spans)")


@contextmanager
def _serving(port: int, linger: float):
    """The ``--serve-metrics`` server around a command.

    A port that cannot be bound is a :class:`ValueError` naming it,
    raised before the command runs."""
    import time

    from .live import TelemetryServer

    registry().enable()
    try:
        server = TelemetryServer(port=port)  # binds here
    except (OSError, OverflowError) as exc:
        raise ValueError(f"cannot serve telemetry on 127.0.0.1:{port}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None
    server.start()
    print(f"serving telemetry on {server.url}/metrics (also /flight)")
    try:
        yield
    finally:
        if linger > 0:
            print(f"telemetry endpoint lingering {linger:g}s "
                  f"at {server.url} ...")
            time.sleep(linger)
        server.stop()
