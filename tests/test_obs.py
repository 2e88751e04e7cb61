"""Tests for the observability layer: spans, metrics, exporters, and
the guarantee that instrumentation is free while disabled."""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck as _HealthCheck
from hypothesis import given as _given
from hypothesis import settings as _settings
from hypothesis import strategies as _st

from repro import obs
from repro.obs import (
    INSTRUMENTED_SUBSYSTEMS,
    MetricsRegistry,
    Span,
    Tracer,
    capture,
    registry,
    span,
    tracer,
)
from repro.obs.export import (
    ascii_summary,
    export_chrome,
    load_trace,
    trace_to_dict,
    write_trace,
)
from repro.obs.metrics import format_series
from repro.obs.trace import _NOOP_CONTEXT


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpans:
    def test_disabled_records_nothing(self):
        with span("a"):
            with span("b"):
                pass
        assert tracer().records == []

    def test_disabled_returns_shared_noop(self):
        # the hot-path contract: no allocation while disabled
        assert span("a") is span("b") is _NOOP_CONTEXT

    def test_nesting_and_parents(self):
        obs.enable()
        with span("outer"):
            with span("inner"):
                pass
        by_name = {s.name: s for s in tracer().records}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_attrs_and_set(self):
        obs.enable()
        with span("s", x=1) as sp:
            sp.set(y=2)
        rec = tracer().records[0]
        assert rec.attrs == {"x": 1, "y": 2}

    def test_exception_recorded_and_propagated(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        rec = tracer().records[0]
        assert rec.attrs["error"] == "RuntimeError"

    def test_duration_positive_and_ordered(self):
        obs.enable()
        with span("t"):
            time.sleep(0.002)
        rec = tracer().records[0]
        assert rec.duration_s >= 0.002
        assert rec.end_s == pytest.approx(rec.start_s + rec.duration_s)

    def test_threads_have_independent_stacks(self):
        obs.enable()

        def worker():
            with span("child-root"):
                pass

        with span("main-root"):
            t = threading.Thread(target=worker, name="w-0")
            t.start()
            t.join()
        recs = {s.name: s for s in tracer().records}
        # the other thread's span is a root, not a child of main-root
        assert recs["child-root"].parent_id is None
        assert recs["child-root"].thread == "w-0"

    def test_reset_drops_records(self):
        obs.enable()
        with span("a"):
            pass
        assert len(tracer()) == 1
        obs.reset()
        assert len(tracer()) == 0

    def test_capture_contextmanager(self):
        with capture() as (tr, reg):
            with span("inside"):
                pass
            obs.counter("c")
        assert not tr.enabled
        assert [s.name for s in tr.records] == ["inside"]
        assert reg.counter_value("c") == 1

    def test_span_to_dict_roundtrip(self):
        s = Span(span_id=1, parent_id=None, name="n", start_s=0.5,
                 duration_s=0.25, thread="MainThread", attrs={"k": "v"})
        d = s.to_dict()
        assert d["name"] == "n" and d["attrs"] == {"k": "v"}

    def test_private_tracer_independent(self):
        tr = Tracer()
        tr.enable()
        with tr.span("x"):
            pass
        assert len(tr) == 1
        assert tracer().records == []


class TestWallAnchor:
    def test_wall_time_derives_from_epoch_pair(self):
        tr = Tracer()
        tr.enable()
        before = time.time()
        with tr.span("a"):
            pass
        after = time.time()
        rec = tr.records[0]
        wall = tr.wall_time_s(rec.start_s)
        # the epoch pair was taken before the span started; the derived
        # wall timestamp must land inside the observed wall window
        assert before - 1.0 <= wall <= after + 1.0
        assert tr.wall_time_s(rec.end_s) >= wall

    def test_reset_re_anchors(self):
        tr = Tracer()
        e0 = tr.epoch_wall_s
        time.sleep(0.002)
        tr.reset()
        assert tr.epoch_wall_s >= e0

    def test_enable_re_anchors_only_fresh_recordings(self):
        tr = Tracer()
        tr.enable()
        with tr.span("a"):
            pass
        anchored = tr.epoch_wall_s
        tr.disable()
        time.sleep(0.002)
        # records exist: re-enabling must NOT move their epoch
        tr.enable()
        assert tr.epoch_wall_s == anchored
        tr.disable()
        tr.reset()
        time.sleep(0.002)
        tr.enable()  # fresh recording: re-anchoring is allowed
        assert tr.epoch_wall_s > anchored


class TestMetrics:
    def test_disabled_is_noop(self):
        obs.counter("c")
        obs.gauge("g", 1.0)
        obs.observe("h", 1.0)
        assert len(registry()) == 0

    def test_counter_accumulates(self):
        obs.enable()
        obs.counter("c")
        obs.counter("c", 4)
        assert registry().counter_value("c") == 5

    def test_labels_separate_series(self):
        obs.enable()
        obs.counter("msgs", rank=0)
        obs.counter("msgs", rank=1)
        obs.counter("msgs", rank=1)
        assert registry().counter_value("msgs", rank=0) == 1
        assert registry().counter_value("msgs", rank=1) == 2
        assert registry().counter_total("msgs") == 3

    def test_gauge_last_write_wins(self):
        obs.enable()
        obs.gauge("g", 1.0)
        obs.gauge("g", 7.0)
        assert registry().gauge_value("g") == 7.0

    def test_histogram_summary(self):
        obs.enable()
        for v in range(1, 11):
            obs.observe("h", float(v))
        snap = registry().snapshot()["histograms"]["h"]
        assert snap["count"] == 10
        assert snap["mean"] == pytest.approx(5.5)
        assert snap["p50"] == pytest.approx(5.5)  # interpolated on 1..10
        assert snap["p90"] == pytest.approx(9.1)
        assert snap["p99"] == pytest.approx(9.91)
        assert snap["max"] == 10.0

    def test_percentile_interpolation_small_n(self):
        # the bench runner's repeat counts are tiny; nearest-rank would
        # collapse p90 onto the max for n=5
        obs.enable()
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            obs.observe("r", v)
        snap = registry().snapshot()["histograms"]["r"]
        assert snap["p90"] == pytest.approx(4.6)
        assert snap["p99"] == pytest.approx(4.96)
        assert snap["p50"] == pytest.approx(3.0)

    def test_percentile_empty_raises(self):
        from repro.obs.metrics import percentile

        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_format_series(self):
        obs.enable()
        obs.counter("c", rank=3, dim=0)
        names = list(registry().snapshot()["counters"])
        assert names == ["c{dim=0,rank=3}"]
        assert format_series(("plain", ())) == "plain"

    def test_private_registry(self):
        reg = MetricsRegistry()
        reg.enable()
        reg.counter("c")
        assert reg.counter_value("c") == 1
        assert registry().counter_value("c") == 0


def _record_sample():
    """A small trace: two threads, nesting, metrics."""
    obs.enable()
    with span("root", kind="test"):
        with span("child"):
            time.sleep(0.001)
        with span("child"):
            pass

    def worker():
        with span("other-root"):
            pass

    t = threading.Thread(target=worker, name="rank-1")
    t.start()
    t.join()
    obs.counter("msgs", 3, rank=0)
    obs.gauge("util", 0.5)
    obs.observe("lat", 0.25)
    obs.disable()


class TestExporters:
    def test_native_dict_shape(self):
        _record_sample()
        doc = trace_to_dict()
        assert doc["format"] == "repro-trace"
        assert len(doc["spans"]) == 4
        assert doc["metrics"]["counters"]["msgs{rank=0}"] == 3
        # sorted by start time
        starts = [s["start_s"] for s in doc["spans"]]
        assert starts == sorted(starts)

    def test_export_json_is_valid_json(self, tmp_path):
        _record_sample()
        path = tmp_path / "t.json"
        write_trace(str(path))
        doc = json.loads(path.read_text())
        assert {e["name"] for e in doc["traceEvents"]
                if e["ph"] == "X"} == {"root", "child", "other-root"}

    def test_chrome_events_valid(self):
        _record_sample()
        doc = json.loads(export_chrome())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == 4
        # one thread_name metadata event per recording thread
        assert {m["args"]["name"] for m in metas} >= {"rank-1"}
        for ev in xs:
            assert ev["ts"] >= 0 and ev["dur"] >= 0  # microseconds
            assert isinstance(ev["tid"], int)
        assert doc["otherData"]["metrics"]["gauges"]["util"] == 0.5

    def test_ascii_summary_renders(self):
        _record_sample()
        text = ascii_summary()
        assert "TRACE SUMMARY" in text
        assert "root" in text and "child" in text
        assert "COUNTERS" in text and "msgs{rank=0}" in text
        assert "HISTOGRAMS" in text

    def test_empty_summary_hint(self):
        assert "was tracing enabled?" in ascii_summary()

    @pytest.mark.parametrize("fmt", ["json", "chrome"])
    def test_file_roundtrip(self, fmt, tmp_path, capsys):
        """``chrome`` is what ``--trace`` writes; ``json`` is the native
        layout earlier versions wrote, which ``load_trace`` still reads."""
        from repro.cli import main

        _record_sample()
        path = str(tmp_path / f"trace.{fmt}")
        if fmt == "chrome":
            write_trace(path)
        else:
            with open(path, "w") as fh:
                json.dump(trace_to_dict(), fh)
        doc = load_trace(path)
        spans = doc["spans"]
        assert {s["name"] for s in spans} == {
            "root", "child", "other-root"
        }
        # parenthood survives both formats
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], s)
        root_id = by_name["root"]["span_id"]
        children = [s for s in spans if s["name"] == "child"]
        assert all(c["parent_id"] == root_id for c in children)
        assert by_name["other-root"]["parent_id"] is None
        assert doc["metrics"]["counters"]["msgs{rank=0}"] == 3
        assert main(["trace", path]) == 0
        assert "TRACE SUMMARY" in capsys.readouterr().out

    def test_bare_event_list_loads(self, tmp_path):
        path = str(tmp_path / "bare.json")
        with open(path, "w") as fh:
            json.dump([
                {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0,
                 "pid": 0, "tid": 0},
                {"name": "b", "ph": "X", "ts": 1.0, "dur": 5.0,
                 "pid": 0, "tid": 0},
            ], fh)
        doc = load_trace(path)
        assert [s["name"] for s in doc["spans"]] == ["a", "b"]
        assert doc["spans"][1]["parent_id"] == doc["spans"][0]["span_id"]

    def test_not_a_trace_rejected(self, tmp_path):
        path = str(tmp_path / "x.json")
        with open(path, "w") as fh:
            json.dump({"hello": 1}, fh)
        with pytest.raises(ValueError, match="neither"):
            load_trace(path)


class TestInstrumentation:
    """The real pipeline emits spans from every advertised subsystem."""

    def test_subsystem_list(self):
        assert set(INSTRUMENTED_SUBSYSTEMS) >= {
            "frontend", "schedule", "codegen", "machine", "comm",
            "runtime", "autotune",
        }

    def test_simulate_pipeline_spans(self):
        from repro.evalsuite.harness import build_with_schedule
        from repro.ir.dtypes import f64

        with capture() as (tr, reg):
            prog, _ = build_with_schedule("3d7pt_star", "sunway", f64)
            prog.compile_to_source_code("x", target="sunway")
            prog.simulate("sunway")
        prefixes = {s.name.split(".", 1)[0] for s in tr.records}
        assert prefixes >= {"schedule", "codegen", "machine"}
        assert reg.counter_total("machine.dma.gets") > 0
        assert 0 < reg.gauge_value(
            "machine.spm_utilisation", machine="SW26010-CG"
        ) <= 1.0

    def test_distributed_run_spans(self):
        from repro.frontend.stencils import benchmark_by_name
        from repro.ir.dtypes import f64
        from repro.runtime.executor import distributed_run

        bench = benchmark_by_name("2d9pt_star")
        shape = (16, 16)
        prog, _ = bench.build(grid=shape, dtype=f64,
                              boundary="periodic")
        rng = np.random.default_rng(0)
        need = prog.ir.required_time_window - 1
        init = [rng.random(shape) for _ in range(need)]
        with capture() as (tr, reg):
            distributed_run(prog.ir, init, 2, (2, 2),
                            boundary="periodic")
        names = {s.name for s in tr.records}
        assert {"runtime.distributed_run", "runtime.step",
                "comm.exchange", "comm.pack", "comm.wait",
                "comm.unpack"} <= names
        # per-rank spans land on the rank threads
        threads = {s.thread for s in tr.records
                   if s.name == "runtime.step"}
        assert len(threads) == 4
        assert reg.counter_total("comm.messages") > 0

    def test_frontend_parse_span(self):
        from repro.frontend.lang import parse_program

        src = """
        const N = 8;
        DefVar(j, i32); DefVar(i, i32);
        DefTensor2D(U, 1, f64, N, N);
        Kernel k((j,i), 0.5*U[j,i]);
        Stencil s((j,i), U[t] << k[t-1]);
        """
        with capture() as (tr, _):
            parse_program(src)
        rec = next(s for s in tr.records if s.name == "frontend.parse")
        assert rec.attrs["kernels"] == 1

    def test_autotune_spans(self):
        from repro.autotune import AutoTuner
        from repro.frontend.stencils import benchmark_by_name
        from repro.ir.dtypes import f64

        bench = benchmark_by_name("3d7pt_star")
        prog, _ = bench.build(grid=(128, 64, 64), dtype=f64)
        tuner = AutoTuner(prog.ir, (128, 64, 64), nprocs=8)
        with capture() as (tr, reg):
            tuner.tune(iterations=200, seed=0, n_samples=20)
        names = {s.name for s in tr.records}
        assert {"autotune.tune", "autotune.sample", "autotune.fit",
                "autotune.trial", "autotune.anneal",
                "autotune.remeasure"} <= names
        assert reg.gauge_value("autotune.best_time_s") > 0


class TestNoopIsFree:
    """Satellite (c): with tracing disabled, instrumented paths record
    nothing and add no measurable overhead."""

    def test_distributed_run_records_nothing(self):
        from repro.frontend.stencils import benchmark_by_name
        from repro.ir.dtypes import f64
        from repro.runtime.executor import distributed_run

        bench = benchmark_by_name("2d9pt_star")
        shape = (16, 16)
        prog, _ = bench.build(grid=shape, dtype=f64,
                              boundary="periodic")
        rng = np.random.default_rng(0)
        need = prog.ir.required_time_window - 1
        init = [rng.random(shape) for _ in range(need)]
        assert not obs.is_enabled()
        distributed_run(prog.ir, init, 2, (2, 2), boundary="periodic")
        assert tracer().records == []
        assert len(registry()) == 0

    def test_disabled_span_overhead_bounded(self):
        # the disabled fast path must stay within a small constant
        # factor of a bare function call (flag check + return of a
        # shared singleton; no allocation)
        def bare():
            pass

        n = 20000

        def timed(fn):
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(n):
                    fn()
                best = min(best, time.perf_counter() - t0)
            return best

        base = timed(bare)
        disabled = timed(lambda: span("x"))
        # generous bound: CI machines are noisy, but a recording path
        # (allocation + lock) would be >50x a bare call
        assert disabled < base * 25 + 5e-3


class TestChromeRoundTripProperty:
    """``load_trace`` of a chrome export equals ``trace_to_dict``.

    The chrome writer stamps every X event with the native span
    identity (``sid``/``spid``/``t0``/``d``), so the round trip must be
    *lossless* — exact ids, parents, float timestamps, attrs and
    metrics — for any trace, not just ones our pipeline happens to
    produce.
    """

    @staticmethod
    def _fresh_pair():
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        tr = Tracer()
        reg = MetricsRegistry()
        reg.enable()
        return tr, reg

    @_given(_st.data())
    @_settings(
        max_examples=60, deadline=None,
        suppress_health_check=[
            _HealthCheck.too_slow, _HealthCheck.function_scoped_fixture,
        ],
    )
    def test_chrome_export_round_trips_losslessly(self, data):
        import tempfile

        from repro.obs.trace import Span

        attr_values = _st.one_of(
            _st.integers(-1000, 1000),
            _st.floats(allow_nan=False, allow_infinity=False,
                       width=32).map(float),
            _st.text("xyz_", max_size=6),
            _st.booleans(),
            _st.none(),
            _st.lists(_st.text("0123456789>:#", min_size=1, max_size=8),
                      max_size=3),
        )
        # keys stay clear of the reserved flows_out/flows_in, whose
        # values must be flow-id lists
        attrs = _st.dictionaries(
            _st.text("abcdef", min_size=1, max_size=4), attr_values,
            max_size=3,
        )
        threads = _st.sampled_from(
            ["MainThread", "simmpi-rank-0", "simmpi-rank-1"]
        )

        tr, reg = self._fresh_pair()
        n = data.draw(_st.integers(0, 12), label="n_spans")
        for sid in range(1, n + 1):
            a = data.draw(attrs, label=f"attrs{sid}")
            if data.draw(_st.booleans(), label=f"flow{sid}"):
                a["flows_out"] = data.draw(
                    _st.lists(_st.sampled_from(["0>1:5#0", "1>0:5#1"]),
                              max_size=2),
                    label=f"flows{sid}",
                )
            tr.records.append(Span(
                span_id=sid,
                parent_id=data.draw(
                    _st.one_of(_st.none(), _st.integers(1, max(1, sid))),
                    label=f"parent{sid}",
                ),
                name=data.draw(_st.text("abc.", min_size=1, max_size=8),
                               label=f"name{sid}"),
                start_s=data.draw(
                    _st.floats(0, 100, allow_nan=False), label=f"t{sid}"
                ),
                duration_s=data.draw(
                    _st.floats(0, 10, allow_nan=False), label=f"d{sid}"
                ),
                thread=data.draw(threads, label=f"th{sid}"),
                attrs=a,
            ))
        for i in range(data.draw(_st.integers(0, 3), label="n_ctr")):
            reg.counter(f"c{i}", data.draw(_st.integers(0, 99),
                                           label=f"v{i}"))

        with tempfile.NamedTemporaryFile(
            "w", suffix=".chrome.json", delete=False
        ) as fh:
            fh.write(export_chrome(tr, reg))
        assert load_trace(fh.name) == json.loads(
            json.dumps(trace_to_dict(tr, reg)))


def test_import_repro_loads_only_core_obs_modules():
    """``import repro`` pulls in no ``obs`` module beyond the hot path:
    every other one is imported where it is used."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys, repro; print(' '.join(sorted("
            "m for m in sys.modules if m.startswith('repro.obs'))))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert out == ["repro.obs", "repro.obs.metrics", "repro.obs.trace"]
