"""Tests for the append-only run ledger (``repro.obs.ledger``)."""

from __future__ import annotations

import collections
import dataclasses
import json
import multiprocessing
import os
import threading

import pytest

from repro.cli import main
from repro.obs import ledger
from repro.obs.events import read_events
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    fold_spans,
    machine_spec_hash,
    metric_point,
    open_ledger,
)


@pytest.fixture
def store(tmp_path):
    led = RunLedger(str(tmp_path / "ledger.db"))
    yield led
    led.close()


@pytest.fixture
def own_ledger_dir(tmp_path, monkeypatch):
    """Point the CLI hooks at a fresh per-test store."""
    d = str(tmp_path / "ledger")
    monkeypatch.setenv("REPRO_LEDGER_DIR", d)
    return d


WRITERS = 6
ROWS_EACH = 25


def _append_rows(directory: str, writer: str) -> None:
    """One concurrent writer: ``ROWS_EACH`` appends on its own store."""
    with open_ledger(directory) as led:
        for _ in range(ROWS_EACH):
            led.record(RunRecord(command="run", workload=writer))


class TestStore:
    def test_record_get_roundtrip(self, store):
        rec = RunRecord(
            command="simulate", workload="3d7pt_star@sunway",
            outcome="ok", rc=0,
            config={"benchmark": "3d7pt_star", "machine": "sunway"},
            environment={"python": "3.x", "git": "unknown"},
            phases_sim={"spm-dma": {"time_s": 0.05}},
            phases_host={"other": {"time_s": 0.1, "count": 2.0,
                                   "bytes": 0.0}},
            spans={"cli.simulate": 0.1},
            metrics={"sim.step_s": metric_point(0.05, unit="s",
                                                gate=True)},
        )
        rid = store.record(rec)
        assert rid == 1
        row = store.get(rid)
        assert row["command"] == "simulate"
        assert row["workload"] == "3d7pt_star@sunway"
        assert row["outcome"] == "ok"
        assert row["config"]["benchmark"] == "3d7pt_star"
        assert row["environment"]["git"] == "unknown"
        assert row["phases_sim"]["spm-dma"]["time_s"] == 0.05
        assert row["phases_host"]["other"]["count"] == 2.0
        assert row["spans"]["cli.simulate"] == 0.1
        assert row["metrics"]["sim.step_s"]["gate"] is True
        assert row["metrics"]["sim.step_s"]["ci95"] == [0.05, 0.05]

    def test_ids_are_append_only(self, store):
        ids = [store.record(RunRecord(command="bench", workload="w"))
               for _ in range(3)]
        assert ids == [1, 2, 3]
        assert len(store) == 3

    def test_get_missing_is_none(self, store):
        assert store.get(99) is None

    def test_query_filters_and_limit(self, store):
        for wl in ("a", "b", "a", "a"):
            store.record(RunRecord(command="bench", workload=wl))
        rows = store.query(workload="a")
        assert [r["id"] for r in rows] == [1, 3, 4]
        # limit keeps the newest N, still ascending
        rows = store.query(workload="a", limit=2)
        assert [r["id"] for r in rows] == [3, 4]
        assert store.query(command="bench", workload="b")[0]["id"] == 2

    def test_query_limit_zero_keeps_no_rows(self, store):
        for _ in range(3):
            store.record(RunRecord(command="bench", workload="a"))
        assert store.query(workload="a", limit=0) == []
        assert len(store.query(workload="a", limit=5)) == 3

    def test_workloads_listing(self, store):
        for wl in ("a", "b", "a", None):
            store.record(RunRecord(command="run", workload=wl))
        assert store.workloads() == [("a", 2), ("b", 1)]

    def test_annotate_merges_and_is_idempotent(self, store):
        rid = store.record(RunRecord(command="bench", workload="w"))
        assert store.annotate(rid, "regression:sim.step_s+12%")
        assert store.get(rid)["verdict"] == "regression:sim.step_s+12%"
        # same verdict again does not stack
        assert store.annotate(rid, "regression:sim.step_s+12%")
        assert store.get(rid)["verdict"] == "regression:sim.step_s+12%"
        assert store.annotate(rid, "improvement:sim.gflops+5%")
        assert store.get(rid)["verdict"] == (
            "regression:sim.step_s+12%; improvement:sim.gflops+5%"
        )
        assert not store.annotate(999, "nope")

    def test_concurrent_writers_lose_no_rows(self, tmp_path):
        # processes, then threads, each with its own connection: every
        # append lands and ids stay unique
        d = str(tmp_path)
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_append_rows, args=(d, f"p{i}"))
                 for i in range(WRITERS)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        assert [p.exitcode for p in procs] == [0] * WRITERS
        threads = [threading.Thread(target=_append_rows, args=(d, f"t{i}"))
                   for i in range(WRITERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        with open_ledger(d) as led:
            rows = led.query()
        assert len(rows) == 2 * WRITERS * ROWS_EACH
        assert len({r["id"] for r in rows}) == len(rows)
        per_writer = collections.Counter(r["workload"] for r in rows)
        assert per_writer == {f"{kind}{i}": ROWS_EACH for kind in "pt"
                              for i in range(WRITERS)}

    def test_persists_across_open(self, tmp_path):
        with open_ledger(str(tmp_path)) as led:
            led.record(RunRecord(command="tune", workload="t"))
        with open_ledger(str(tmp_path)) as led:
            assert len(led) == 1
            assert led.get(1)["command"] == "tune"


class TestHelpers:
    def test_metric_point_matches_aggregate_shape(self):
        p = metric_point(2.5, unit="s", direction="lower", gate=True)
        assert p["n"] == 1 and p["median"] == 2.5
        assert p["mad"] == 0.0 and p["ci95"] == [2.5, 2.5]
        assert p["gate"] is True and p["direction"] == "lower"

    def test_machine_spec_hash_tracks_perturbation(self):
        from repro.machine.spec import machine_by_name

        spec = machine_by_name("sunway")
        h = machine_spec_hash(spec)
        assert h == machine_spec_hash(machine_by_name("sunway"))
        assert len(h) == 12
        assert h != machine_spec_hash(dataclasses.replace(
            spec, dma_startup_us=spec.dma_startup_us * 10))

    def test_fold_spans_self_times(self):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "cli.run",
             "start_s": 0.0, "duration_s": 1.0, "attrs": {}},
            {"span_id": 2, "parent_id": 1, "name": "machine.dma_model",
             "start_s": 0.1, "duration_s": 0.4, "attrs": {}},
        ]
        phases, names = fold_spans(spans)
        assert phases["spm-dma"]["time_s"] == pytest.approx(0.4)
        # parent self-time excludes the child
        assert phases["other"]["time_s"] == pytest.approx(0.6)
        assert names["cli.run"] == pytest.approx(0.6)
        assert names["machine.dma_model"] == pytest.approx(0.4)

    def test_enabled_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert ledger.enabled()
        for off in ("0", "off", "no", "FALSE"):
            monkeypatch.setenv("REPRO_LEDGER", off)
            assert not ledger.enabled()
        monkeypatch.setenv("REPRO_LEDGER", "1")
        assert ledger.enabled()

    def test_ledger_dir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "x"))
        assert ledger.ledger_dir() == str(tmp_path / "x")
        monkeypatch.delenv("REPRO_LEDGER_DIR")
        monkeypatch.setenv("XDG_STATE_HOME", str(tmp_path / "state"))
        assert ledger.ledger_dir() == str(tmp_path / "state" / "repro")
        monkeypatch.delenv("XDG_STATE_HOME")
        assert ledger.ledger_dir().endswith(
            os.path.join(".local", "state", "repro")
        )

    def test_environment_fingerprint_always_has_git(self):
        fp = ledger.environment_fingerprint()
        assert "git" in fp  # "unknown" when rev-parse fails, never absent
        if fp["git"] != "unknown":
            assert isinstance(fp.get("git_dirty"), bool)


class TestCollector:
    def test_note_without_begin_is_noop(self, own_ledger_dir):
        ledger.note(workload="w", config={"a": 1})
        assert not os.path.exists(
            ledger.ledger_path(own_ledger_dir)
        )

    def test_begin_note_finish_writes_row(self, own_ledger_dir):
        with ledger.recording("simulate") as rec:
            ledger.note(workload="b@m", config={"benchmark": "b"},
                        metrics={"m": metric_point(1.0)},
                        phases_sim={"compute": {"time_s": 0.5}})
            rec.spans = [
                {"span_id": 1, "parent_id": None, "name": "cli.simulate",
                 "start_s": 0.0, "duration_s": 0.2, "attrs": {}},
            ]
        assert rec.id == 1
        with open_ledger(own_ledger_dir) as led:
            row = led.get(rec.id)
        assert row["workload"] == "b@m"
        assert row["outcome"] == "ok" and row["rc"] == 0
        assert row["phases_sim"]["compute"]["time_s"] == 0.5
        assert row["phases_host"]  # folded from the spans
        assert row["environment"]  # fingerprint filled in on exit
        ledger.note(workload="late")  # the block is closed: a no-op
        with open_ledger(own_ledger_dir) as led:
            assert len(led) == 1

    def test_finish_outcomes(self, own_ledger_dir):
        with ledger.recording("run") as err:
            ledger.note(workload="w")
            err.rc = 3
        with ledger.recording("simulate") as reg:
            ledger.note(workload="w",
                        verdict="regression vs base: 1 delta(s)")
            reg.rc = 1
        with pytest.raises(RuntimeError):
            with ledger.recording("run") as raised:
                raise RuntimeError("boom")
        with open_ledger(own_ledger_dir) as led:
            assert led.get(err.id)["outcome"] == "error"
            assert led.get(err.id)["rc"] == 3
            assert led.get(raised.id)["rc"] == 1
            row = led.get(reg.id)
        assert row["outcome"] == "regression"
        assert row["verdict"].startswith("regression vs base")

    def test_finish_swallows_broken_store(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        with ledger.recording("run",
                              directory=str(blocker / "sub")) as rec:
            ledger.note(workload="w")
        assert rec.id is None
        assert "run ledger write failed" in capsys.readouterr().err


MSC_SMALL = """
const N = 12;
DefVar(j, i32); DefVar(i, i32);
DefTensor2D_TimeWin(A, 2, 1, f64, N, N);
Kernel S((j,i), 0.5*A[j,i] + 0.25*A[j,i-1] + 0.25*A[j,i+1]);
Stencil st((j,i), A[t] << S[t-1]);
"""


class TestCLIRecording:
    def test_simulate_records_run(self, own_ledger_dir):
        assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                     "--skip-pipeline"]) == 0
        with open_ledger(own_ledger_dir) as led:
            assert len(led) == 1
            row = led.get(1)
        assert row["command"] == "simulate"
        assert row["workload"] == "2d9pt_box@cpu"
        assert row["outcome"] == "ok"
        cfg = row["config"]
        assert cfg["benchmark"] == "2d9pt_box"
        assert len(cfg["machine_spec"]) == 12
        assert "ir_fp" in cfg
        assert row["metrics"]["sim.step_s"]["gate"] is True
        assert row["phases_sim"]
        # host phases come from the flight ring fold
        assert row["phases_host"]
        assert row["environment"]["git"]

    def test_run_records_row(self, own_ledger_dir, tmp_path):
        src = tmp_path / "prog.msc"
        src.write_text(MSC_SMALL)
        assert main(["run", str(src), "--steps", "2"]) == 0
        with open_ledger(own_ledger_dir) as led:
            row = led.get(1)
        assert row["workload"] == "run:prog"
        assert row["config"]["steps"] == 2
        assert "run.result_l2" in row["metrics"]

    def test_error_run_recorded_with_error_outcome(self, own_ledger_dir):
        assert main(["simulate", "no_such_benchmark",
                     "--machine", "cpu"]) == 1
        with open_ledger(own_ledger_dir) as led:
            row = led.get(1)
        assert row["outcome"] == "error" and row["rc"] == 1

    def test_opt_out_leaves_store_untouched(self, own_ledger_dir,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                     "--skip-pipeline"]) == 0
        assert not os.path.exists(ledger.ledger_path(own_ledger_dir))

    def test_non_ledged_commands_do_not_record(self, own_ledger_dir):
        assert main(["list"]) == 0
        assert main(["report", "table4"]) == 0
        assert not os.path.exists(ledger.ledger_path(own_ledger_dir))

    def test_ledger_record_event_emitted(self, own_ledger_dir,
                                         tmp_path):
        log = tmp_path / "events.jsonl"
        assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                     "--skip-pipeline", "--event-log", str(log)]) == 0
        recs = [r for r in read_events(str(log))
                if r["event"] == "ledger.record"]
        assert len(recs) == 1
        assert recs[0]["run_id"] == 1
        assert recs[0]["workload"] == "2d9pt_box@cpu"
        assert recs[0]["outcome"] == "ok"


class TestEventLogRotation:
    def test_rollover_at_cap(self, tmp_path):
        from repro.obs.events import EventLog

        path = str(tmp_path / "ev.jsonl")
        log = EventLog(path, max_bytes=400)
        for i in range(40):
            log.emit("tick", i=i)
        log.close()
        assert log.rotations >= 1
        assert os.path.getsize(path) <= 400
        assert os.path.getsize(path + ".1") <= 400
        # both generations stay valid JSONL; newest records in <path>
        old = [json.loads(line) for line in
               open(path + ".1", encoding="utf-8").read().splitlines()]
        new = [json.loads(line) for line in
               open(path, encoding="utf-8").read().splitlines()]
        assert old and new
        assert new[-1]["i"] == 39
        assert old[-1]["i"] < new[0]["i"]

    def test_single_rollover_only(self, tmp_path):
        from repro.obs.events import EventLog

        path = str(tmp_path / "ev.jsonl")
        log = EventLog(path, max_bytes=200)
        for i in range(100):
            log.emit("tick", i=i)
        log.close()
        assert not os.path.exists(path + ".2")
        assert sorted(os.listdir(tmp_path)) == ["ev.jsonl",
                                                "ev.jsonl.1"]

    def test_cap_from_env(self, tmp_path, monkeypatch):
        from repro.obs.events import EventLog

        monkeypatch.setenv("REPRO_EVENT_LOG_MAX_BYTES", "123")
        log = EventLog(str(tmp_path / "a.jsonl"))
        assert log.max_bytes == 123
        log.close()
        monkeypatch.setenv("REPRO_EVENT_LOG_MAX_BYTES", "junk")
        log = EventLog(str(tmp_path / "b.jsonl"))
        assert log.max_bytes is None
        log.close()

    def test_uncapped_by_default(self, tmp_path, monkeypatch):
        from repro.obs.events import EventLog

        monkeypatch.delenv("REPRO_EVENT_LOG_MAX_BYTES", raising=False)
        path = str(tmp_path / "ev.jsonl")
        log = EventLog(path)
        for i in range(50):
            log.emit("tick", i=i)
        log.close()
        assert not os.path.exists(path + ".1")
