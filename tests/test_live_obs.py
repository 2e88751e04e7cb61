"""Tests for the live-telemetry layer: flight recorder, OpenMetrics
exposition, event log, and the ``--serve-metrics`` scrape server."""

import importlib.util
import json
import os
import socket
import threading
import urllib.request

import pytest

from repro import obs
from repro.cli import main
from repro.machine.report import TimingReport
from repro.obs import (
    FlightRecorder,
    registry,
    span,
    tracer,
)
from repro.obs import events as obs_events
from repro.obs import openmetrics
from repro.obs.events import EventLog, install, read_events, uninstall
from repro.obs.export import load_trace, write_trace
from repro.obs.live import TelemetryServer
from repro.obs.openmetrics import OpenMetricsError
from repro.obs.trace import Span


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with all obs surfaces off and empty."""
    obs.disable()
    obs.disable_flight()
    uninstall()
    obs.reset()
    yield
    obs.disable()
    obs.disable_flight()
    uninstall()
    obs.reset()


def _mkspan(sid, name, start, dur, **attrs):
    return Span(span_id=sid, parent_id=None, name=name, start_s=start,
                duration_s=dur, thread="t0", attrs=attrs)


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_never_exceeds_capacity(self):
        fl = FlightRecorder(capacity=4)
        for i in range(11):
            fl.record(_mkspan(i, "s", float(i), 0.001))
        assert len(fl) == 4
        assert fl.seen == 11
        assert fl.kept == 11
        assert fl.dropped == 7
        # oldest evicted first: the ring holds the last four
        assert [s.span_id for s in fl.snapshot()] == [7, 8, 9, 10]

    def test_counts_are_consistent(self):
        fl = FlightRecorder(capacity=3, sample={"hot": 2})
        for i in range(10):
            fl.record(_mkspan(i, "hot" if i % 2 else "cold", float(i), 0.1))
        c = fl.counts()
        assert c["seen"] == 10
        assert c["seen"] == c["kept"] + c["sampled_out"]
        assert c["buffered"] == c["kept"] - c["dropped"]
        assert c["buffered"] <= c["capacity"]

    def test_per_name_sampling_is_deterministic(self):
        fl = FlightRecorder(capacity=100, sample={"hot": 4})
        for i in range(16):
            fl.record(_mkspan(i, "hot", float(i), 0.1))
        # keep-1-in-4: spans 0, 4, 8, 12 survive
        assert [s.span_id for s in fl.snapshot()] == [0, 4, 8, 12]
        assert fl.sampled_out == 12
        assert fl.dropped == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(capacity=8, sample={"x": 0})

    def test_evictions_mirror_into_registry(self):
        reg = registry()
        reg.enable()
        fl = FlightRecorder(capacity=1)
        for i in range(3):
            fl.record(_mkspan(i, "s", float(i), 0.1))
        assert reg.counter_value("obs.dropped_spans") == 2

    def test_top_by_total_and_count(self):
        fl = FlightRecorder(capacity=100)
        for i in range(3):
            fl.record(_mkspan(i, "many", float(i), 0.001))
        fl.record(_mkspan(9, "big", 0.0, 1.0))
        by_total = fl.top(k=2, by="total")
        assert by_total[0]["name"] == "big"
        assert by_total[0]["avg_s"] == pytest.approx(1.0)
        by_count = fl.top(k=2, by="count")
        assert by_count[0]["name"] == "many"
        assert by_count[0]["count"] == 3
        with pytest.raises(ValueError):
            fl.top(by="duration")

    def test_span_rate_windowed(self):
        fl = FlightRecorder(capacity=100)
        for i in range(10):
            fl.record(_mkspan(i, "s", float(i), 0.0))
        # spans end at t=0..9; a 4s window at now=9 sees ends in [5, 9]
        assert fl.span_rate(4.0, 9.0) == pytest.approx(5 / 4.0)
        with pytest.raises(ValueError):
            fl.span_rate(0.0, 9.0)

    def test_clear_resets_accounting(self):
        fl = FlightRecorder(capacity=2)
        for i in range(5):
            fl.record(_mkspan(i, "s", float(i), 0.1))
        fl.clear()
        assert len(fl) == 0
        assert fl.counts() == {"capacity": 2, "buffered": 0, "seen": 0,
                               "kept": 0, "dropped": 0, "sampled_out": 0}


class TestTracerFlightMode:
    def test_flight_records_without_full_recording(self):
        fl = obs.enable_flight(capacity=8)
        with span("a"):
            with span("b"):
                pass
        # the ring has both spans; the unbounded record list stays empty
        assert sorted(s.name for s in fl.snapshot()) == ["a", "b"]
        assert tracer().records == []
        assert obs.flight() is fl

    def test_flight_and_full_recording_coexist(self):
        obs.enable()
        fl = obs.enable_flight(capacity=8)
        with span("a"):
            pass
        assert [s.name for s in fl.snapshot()] == ["a"]
        assert [s.name for s in tracer().records] == ["a"]

    def test_disable_flight_detaches(self):
        obs.enable_flight(capacity=8)
        obs.disable_flight()
        with span("a"):
            pass
        assert obs.flight() is None
        assert tracer().records == []

    def test_reset_clears_flight_ring(self):
        fl = obs.enable_flight(capacity=8)
        with span("a"):
            pass
        obs.reset()
        assert len(fl) == 0

    def test_telemetry_overhead_measures(self):
        # the A/B arms of tools/telemetry_overhead.py run and record; the
        # budget verdict is host timing, so it is the script's (CI), not
        # tier-1's
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "tools", "telemetry_overhead.py")
        spec = importlib.util.spec_from_file_location("telemetry_overhead",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        m = tool.measure()
        assert set(m) == {"overhead_frac", "median_on_s", "median_off_s",
                          "flight_spans", "flight_dropped"}
        assert m["flight_spans"] > 0
        # the caller's telemetry state comes back
        assert obs.flight() is None and not registry().enabled


# ---------------------------------------------------------------------------
# thread-safety under concurrent writers (satellite: barrier-based)
# ---------------------------------------------------------------------------

class TestConcurrentObs:
    N_RANKS = 4
    PER_RANK = 200

    def test_no_lost_updates_no_torn_snapshots(self):
        """Rank threads hammer counter/observe/span while registry
        snapshots (what ``/metrics`` renders) are taken concurrently:
        exact totals, monotone counter series, bounded ring.
        Synchronisation is a start barrier + joins — no sleeps, and
        every assertion is on deterministic final state."""
        reg = registry()
        reg.enable()
        fl = obs.enable_flight(capacity=64)
        snapshots = []

        def snapshot():
            # what /metrics renders: counters plus histogram counts
            raw = reg.raw_snapshot()
            counts = dict(raw["counters"])
            counts.update({("count", key): len(values)
                           for key, values in raw["histograms"].items()})
            snapshots.append(counts)

        start = threading.Barrier(self.N_RANKS + 1)
        done = threading.Event()

        def worker(rank):
            start.wait()
            for i in range(self.PER_RANK):
                with obs.rank_scope(rank):
                    reg.counter("ts.ops")
                    reg.observe("ts.lat", float(i))
                    with span("ts.work"):
                        pass

        threads = [threading.Thread(target=worker, args=(r,))
                   for r in range(self.N_RANKS)]
        for t in threads:
            t.start()
        start.wait()  # release all ranks at once
        # snapshot as fast as possible while the writers run
        while not done.is_set():
            snapshot()
            if all(not t.is_alive() for t in threads):
                done.set()
        for t in threads:
            t.join()
        snapshot()  # closing snapshot sees the final totals

        total = self.N_RANKS * self.PER_RANK
        # no lost counter increments, per rank or in aggregate
        assert reg.counter_total("ts.ops") == total
        for r in range(self.N_RANKS):
            assert reg.counter_value("ts.ops", rank=r) == self.PER_RANK
            assert len(reg.histogram_values("ts.lat", rank=r)) == self.PER_RANK
        # no lost spans: every completion was offered to the ring, and
        # the ring never grew past its bound
        assert fl.seen == total
        assert len(fl) <= 64
        c = fl.counts()
        assert c["buffered"] == c["kept"] - c["dropped"]
        # no torn snapshots: counters and histogram counts only grow,
        # so every series must be monotone non-decreasing over time
        for key in snapshots[-1]:
            values = [snap.get(key, 0) for snap in snapshots]
            assert values == sorted(values), f"non-monotone series {key}"
        # the final snapshot observed the exact totals
        per_rank = [v for key, v in snapshots[-1].items()
                    if key[0] == "ts.ops"]
        assert len(per_rank) == self.N_RANKS
        assert sum(per_rank) == total


# ---------------------------------------------------------------------------
# OpenMetrics exposition
# ---------------------------------------------------------------------------

class TestOpenMetrics:
    def test_registry_roundtrip_with_hostile_labels(self):
        reg = registry()
        reg.enable()
        nasty = '3d7pt "q"\nx\\y'
        reg.counter("comm.bytes_sent", 768, rank=0, stencil=nasty)
        reg.counter("comm.bytes_sent", 896, rank=1, stencil=nasty)
        reg.gauge("machine.efficiency", 0.37, machine="sw26010")
        reg.observe("machine.step_s", 0.004, machine="sw26010")
        text = reg.to_openmetrics()
        assert text.endswith("# EOF\n")
        fams = openmetrics.parse(text)
        sent = fams["comm_bytes_sent"]
        assert sent.type == "counter"
        assert sent.value(rank="0", stencil=nasty) == 768.0
        assert sent.value(rank="1", stencil=nasty) == 896.0
        assert fams["machine_efficiency"].type == "gauge"
        # histograms expose as summaries with quantiles + _sum/_count
        step = fams["machine_step_s"]
        assert step.type == "summary"
        labels = {s.labels.get("quantile") for s in step.samples}
        assert {"0.5", "0.9", "0.99"} <= labels

    def test_counter_names_get_total_suffix(self):
        reg = registry()
        reg.enable()
        reg.counter("runtime.runs", backend="numpy", exchange_mode="diag")
        text = reg.to_openmetrics()
        assert ('runtime_runs_total{backend="numpy",exchange_mode="diag"} 1'
                in text)

    @pytest.mark.parametrize("payload, fragment", [
        ("x_total 1\n# EOF\n", "TYPE"),                      # no family
        ("# TYPE x counter\nx_total 1\n", "EOF"),            # missing EOF
        ("# TYPE x counter\nx_total 1\nx_total 1\n# EOF\n",
         "duplicate"),                                       # dup sample
        ("# TYPE x counter\nx_total nan_nope\n# EOF\n",
         "value"),                                           # bad float
        ("# TYPE x counter\n\nx_total 1\n# EOF\n", "blank"),  # blank line
    ])
    def test_strict_parser_rejects(self, payload, fragment):
        with pytest.raises(OpenMetricsError) as err:
            openmetrics.parse(payload)
        assert fragment.lower() in str(err.value).lower()

    def test_sanitize_name(self):
        assert openmetrics.sanitize_name("comm.bytes_sent") == (
            "comm_bytes_sent"
        )
        assert openmetrics.sanitize_name("9lives!") == "_9lives_"

    def test_validator_cli(self, tmp_path, capsys):
        reg = registry()
        reg.enable()
        reg.counter("a.b", 2)
        good = tmp_path / "good.txt"
        good.write_text(reg.to_openmetrics())
        assert openmetrics._main([str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.txt"
        bad.write_text("free text\n")
        assert openmetrics._main([str(bad)]) == 1


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------

class TestEventLog:
    def test_emit_and_read(self, tmp_path):
        path = str(tmp_path / "run.events.jsonl")
        install(path)
        obs_events.emit("phase.enter", phase="tune")
        obs_events.emit("comm.retry", level="warn", rank=1, attempt=2)
        uninstall()
        recs = list(read_events(path))
        assert [r["event"] for r in recs] == ["phase.enter", "comm.retry"]
        assert recs[0]["phase"] == "tune"
        assert recs[1]["level"] == "warn"
        assert recs[1]["rank"] == 1
        assert all("ts" in r for r in recs)

    def test_emit_without_sink_is_noop(self):
        obs_events.emit("anything", field=1)  # must not raise

    def test_min_level_filters(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        log = install(path, min_level="warn")
        obs_events.emit("quiet", level="debug")
        obs_events.emit("normal")          # info < warn: filtered
        obs_events.emit("loud", level="error")
        assert log.count == 1
        uninstall()
        assert [r["event"] for r in read_events(path)] == ["loud"]

    def test_unknown_level_rejected(self, tmp_path):
        log = EventLog(str(tmp_path / "e.jsonl"))
        with pytest.raises(ValueError):
            log.emit("x", level="fatal")
        with pytest.raises(ValueError):
            EventLog(str(tmp_path / "e2.jsonl"), min_level="verbose")
        log.close()

    def test_span_and_scope_correlation(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        obs.enable_flight()
        install(path)
        with obs.rank_scope(2):
            with span("comm.exchange"):
                obs_events.emit("comm.retry", attempt=1)
        uninstall()
        (rec,) = read_events(path)
        assert rec["span"] == "comm.exchange"
        assert rec["rank"] == 2

    def test_tolerant_truncated_tail(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"event":"a","ts":1}\n{"event":"b","ts"')
        recs = list(read_events(str(path)))
        assert [r["event"] for r in recs] == ["a"]
        # strict mode raises on the same file
        with pytest.raises(ValueError):
            list(read_events(str(path), tolerant=False))

    def test_earlier_garbage_always_raises(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('not json\n{"event":"a","ts":1}\n')
        with pytest.raises(ValueError):
            list(read_events(str(path)))

    def test_install_from_env(self, tmp_path, monkeypatch):
        """obs.session() installs ``$REPRO_EVENT_LOG`` for its block
        only; an explicit ``event_log`` wins over the variable."""
        from repro.obs import session

        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv(obs_events.ENV_EVENT_LOG, path)
        with session("list"):
            assert obs_events.current() is not None
            obs_events.emit("hello")
        assert obs_events.current() is None
        assert [r["event"] for r in read_events(path)] == [
            "cli.start", "hello", "cli.exit"]
        explicit = str(tmp_path / "flag.jsonl")
        with session("list", event_log=explicit):
            pass
        assert len(list(read_events(path))) == 3
        assert len(list(read_events(explicit))) == 2
        monkeypatch.delenv(obs_events.ENV_EVENT_LOG)
        with session("list"):
            assert obs_events.current() is None


# ---------------------------------------------------------------------------
# telemetry server
# ---------------------------------------------------------------------------

class TestTelemetryServer:
    def test_scrape_metrics_flight_series(self):
        reg = registry()
        reg.enable()
        reg.counter("comm.bytes_sent", 100, rank=0)
        reg.counter("comm.bytes_sent", 300, rank=1)
        fl = obs.enable_flight(capacity=4)
        with span("runtime.step"):
            pass
        reg.counter("comm.bytes_sent", 100, rank=0)
        server = TelemetryServer(port=0, reg=reg, recorder=fl)
        server.start()
        try:
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                ctype = resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            assert "openmetrics-text" in ctype
            fams = openmetrics.parse(body)  # strict: must round-trip
            assert fams["comm_bytes_sent"].value(rank="0") == 200.0
            flight = json.loads(
                urllib.request.urlopen(server.url + "/flight").read()
            )
            assert flight["attached"] is True
            assert flight["buffered"] == 1
            assert flight["top"][0]["name"] == "runtime.step"
            # there is no /series route: /metrics is read at request time
            for path in ("/series", "/nope"):
                with pytest.raises(urllib.error.HTTPError):
                    urllib.request.urlopen(server.url + path)
            assert server.scrapes == 4
        finally:
            server.stop()

    def test_series_404_without_sampler_and_detached_flight(self):
        server = TelemetryServer(port=0, reg=registry())
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + "/series")
            payload = json.loads(
                urllib.request.urlopen(server.url + "/flight").read()
            )
            assert payload == {"attached": False}
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

class TestCLILiveFlags:
    def test_event_log_flag_writes_narration(self, tmp_path, capsys):
        path = str(tmp_path / "sim.jsonl")
        assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                     "--event-log", path]) == 0
        events = [r["event"] for r in read_events(path)]
        assert events[0] == "cli.start"
        assert "cli.exit" in events
        # the run-ledger append is narrated after cli.exit (it happens
        # as obs.session() closes, once the outcome is known)
        assert events[-1] == "ledger.record"
        assert "phase.enter" in events and "phase.exit" in events
        # the sink is detached once the command returns
        assert obs_events.current() is None

    def test_flight_state_restored_after_main(self, capsys):
        prior = obs.enable_flight(capacity=7)
        assert main(["simulate", "2d9pt_box", "--machine", "cpu"]) == 0
        assert tracer().flight is prior
        assert tracer().flight.capacity == 7

    def test_flight_opt_out_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT", "0")
        assert main(["simulate", "2d9pt_box", "--machine", "cpu"]) == 0
        assert tracer().flight is None

    def test_serve_metrics_prints_url_and_restores(self, capsys):
        registry().disable()
        assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                     "--serve-metrics", "0"]) == 0
        out = capsys.readouterr().out
        assert "http://127.0.0.1:" in out
        # server is shut down and prior obs state restored
        assert obs_events.current() is None
        assert not registry().enabled

    def test_serve_metrics_port_out_of_range_is_a_usage_error(self,
                                                               capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "2d9pt_box", "--machine", "cpu",
                  "--serve-metrics", "70000"])
        assert exc.value.code == 2
        assert "'70000' is not a port in 0..65535" in capsys.readouterr().err

    def test_serve_metrics_port_in_use_fails_cleanly(self, capsys):
        prior = obs.enable_flight(capacity=7)
        registry().disable()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                         "--serve-metrics", str(port)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot serve telemetry on 127.0.0.1:{port}: " in err
        assert "Traceback" not in err
        # the caller's tracer, flight and registry state come back
        assert tracer().flight is prior
        assert not registry().enabled
        with pytest.raises(ValueError, match="cannot serve telemetry"):
            with obs.session("list", serve=70000):
                pass
        assert tracer().flight is prior and not registry().enabled


# ---------------------------------------------------------------------------
# friendly empty-handling satellites
# ---------------------------------------------------------------------------

class TestEmptyHandling:
    def test_trace_summary_of_empty_trace(self, tmp_path, capsys):
        obs.enable()  # enabled but nothing recorded
        path = str(tmp_path / "empty.json")
        write_trace(path)
        assert main(["trace", path]) == 0
        text = capsys.readouterr().out
        assert "0 spans" in text
        assert "no spans recorded" in text

    def test_summary_of_non_trace_file_is_friendly(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("TRACE SUMMARY (this is prose, not JSON)\n")
        with pytest.raises(ValueError) as err:
            load_trace(str(path))
        assert "not a trace file" in str(err.value)
        assert "Chrome trace_event" in str(err.value)

    def test_timing_report_zero_work_has_no_phases(self):
        rep = TimingReport(machine="m", stencil="s", precision="f64",
                           timesteps=0, compute_s=0.0, memory_s=0.0)
        assert rep.phases() == {}
        assert rep.to_dict()["phases"] == {}
