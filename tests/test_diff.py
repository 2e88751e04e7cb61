"""Tests for ``repro diff`` / ``repro history`` (``repro.obs.diff``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.diff import (
    detect_change_point,
    diff_runs,
    history_report,
    load_views,
)
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    ledger_path,
    metric_point,
    open_ledger,
)


@pytest.fixture
def own_ledger_dir(tmp_path, monkeypatch):
    d = str(tmp_path / "ledger")
    monkeypatch.setenv("REPRO_LEDGER_DIR", d)
    return d


# sunway: its SPM DMA model actually consumes dma_startup_us, so the
# --perturb runs move the spm-dma phase
WORKLOAD = "3d7pt_star@sunway"


def _bench(out, *extra):
    return main(["bench", WORKLOAD, "--repeats", "1",
                 "--warmup", "0", "--out", str(out), *extra])


class TestLoadViews:
    def test_rejects_nonsense_source(self):
        with pytest.raises(ValueError, match="neither a ledger id"):
            load_views("/no/such/file.json")

    def test_missing_ledger_id(self, own_ledger_dir):
        with open_ledger(own_ledger_dir) as led:
            led.record(RunRecord(command="bench", workload="w"))
        with pytest.raises(ValueError, match="no run #42"):
            load_views("42", ledger_dir=own_ledger_dir)

    def test_ledger_id_forms(self, own_ledger_dir):
        with open_ledger(own_ledger_dir) as led:
            led.record(RunRecord(
                command="bench", workload="w",
                metrics={"m": metric_point(1.0, gate=True)},
            ))
        for ref in ("1", "ledger:1"):
            (view,) = load_views(ref, ledger_dir=own_ledger_dir)
            assert view.workload == "w"
            assert view.metrics["m"]["median"] == 1.0

    def test_bench_doc_views(self, own_ledger_dir, tmp_path):
        doc = tmp_path / "b.json"
        assert _bench(doc) == 0
        (view,) = load_views(str(doc))
        assert view.workload == WORKLOAD
        assert view.phases_sim
        assert view.metrics["sim.step_s"]["gate"] is True

    def test_trace_views(self, own_ledger_dir, tmp_path):
        tr = tmp_path / "t.json"
        assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                     "--skip-pipeline", "--trace", str(tr)]) == 0
        (view,) = load_views(str(tr))
        assert view.phases_host
        assert view.spans


class TestDiff:
    def test_same_config_diffs_clean(self, own_ledger_dir, tmp_path,
                                     capsys):
        assert _bench(tmp_path / "a.json") == 0
        assert _bench(tmp_path / "b.json") == 0
        assert main(["diff", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "config drift: none" in out

    def test_perturbed_dma_attributed_to_spm_dma(self, own_ledger_dir,
                                                 tmp_path, capsys):
        assert _bench(tmp_path / "a.json") == 0
        assert _bench(tmp_path / "b.json",
                      "--perturb", "dma_startup_us=10") == 0
        assert main(["diff", "1", "2"]) == 1
        out = capsys.readouterr().out
        assert "regression attributed to phase 'spm-dma'" in out
        assert "REGRESSION" in out
        assert "dma_startup_us" in out  # config drift names the cause

    def test_diff_bench_documents_directly(self, own_ledger_dir,
                                           tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert _bench(a) == 0
        assert _bench(b, "--perturb", "dma_startup_us=10") == 0
        assert main(["diff", str(a), str(b)]) == 1
        assert "spm-dma" in capsys.readouterr().out
        # the reverse direction is an improvement, not a regression
        assert main(["diff", str(b), str(a)]) == 0

    def test_diff_json_output(self, own_ledger_dir, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert _bench(a) == 0
        assert _bench(b, "--perturb", "dma_startup_us=10") == 0
        capsys.readouterr()  # drop the bench runs' own stdout
        assert main(["diff", str(a), str(b), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        (run,) = doc["runs"]
        assert run["attributed_phase"] == "spm-dma"
        assert any(d["field"] == "perturb" for d in run["drift"])

    def test_diff_traces(self, own_ledger_dir, tmp_path, capsys):
        t1, t2 = tmp_path / "1.json", tmp_path / "2.json"
        for t in (t1, t2):
            assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                         "--skip-pipeline", "--trace", str(t)]) == 0
        # host-only phases never gate: wall jitter must not fail this
        assert main(["diff", str(t1), str(t2)]) == 0
        out = capsys.readouterr().out
        assert "host phase time" in out

    def test_diff_unknown_source_fails(self, own_ledger_dir, capsys):
        assert main(["diff", "/no/such.json", "/none.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_threshold_respected(self):
        from repro.obs.diff import RunView

        base = RunView(label="a", workload="w", phases_sim={
            "compute": {"time_s": 1.0}})
        cur = RunView(label="b", workload="w", phases_sim={
            "compute": {"time_s": 1.05}})
        assert diff_runs([base], [cur], threshold=0.10).ok
        assert not diff_runs([base], [cur], threshold=0.01).ok


class TestChangePoint:
    def test_detects_step(self):
        cp = detect_change_point([1.0, 1.0, 1.0, 10.0, 10.0])
        assert cp is not None
        assert cp.index == 3
        assert cp.before == 1.0 and cp.after == 10.0
        assert cp.verdict == "regression"

    def test_direction_aware(self):
        cp = detect_change_point([10.0, 10.0, 30.0, 30.0],
                                 direction="higher")
        assert cp is not None and cp.verdict == "improvement"
        cp = detect_change_point([30.0, 30.0, 10.0, 10.0],
                                 direction="higher")
        assert cp is not None and cp.verdict == "regression"

    def test_jitter_is_not_a_change_point(self):
        assert detect_change_point(
            [1.0, 1.02, 0.98, 1.01, 0.99, 1.03]) is None

    def test_below_threshold_shift_ignored(self):
        assert detect_change_point([1.0, 1.0, 1.05, 1.05]) is None

    def test_too_short_series(self):
        assert detect_change_point([1.0, 2.0, 3.0]) is None

    def test_deterministic(self):
        series = [1.0, 1.1, 0.9, 5.0, 5.2, 4.9, 5.1]
        a = detect_change_point(series)
        b = detect_change_point(series)
        assert a is not None and a.index == b.index == 3


class TestHistory:
    def _seed_rows(self, directory, values, gate=True):
        with RunLedger(ledger_path(directory)) as led:
            for v in values:
                led.record(RunRecord(
                    command="bench", workload="w@x",
                    metrics={"sim.step_s": metric_point(
                        v, unit="s", direction="lower", gate=gate)},
                    ts=1700000000.0,
                ))

    def test_trend_and_change_point(self, own_ledger_dir, capsys):
        self._seed_rows(own_ledger_dir,
                        [1.0, 1.0, 1.0, 1.5, 1.5, 1.5])
        assert main(["history", "w@x"]) == 0
        out = capsys.readouterr().out
        assert "RUN HISTORY  w@x" in out
        assert "change point" in out
        assert "REGRESSION: sim.step_s" in out
        assert "run #4" in out

    def test_verdict_annotated_back(self, own_ledger_dir):
        self._seed_rows(own_ledger_dir, [1.0, 1.0, 1.5, 1.5])
        assert main(["history", "w@x"]) == 0
        with open_ledger(own_ledger_dir) as led:
            verdict = led.get(3)["verdict"]
        assert verdict and verdict.startswith("regression:sim.step_s")
        # re-running must not stack duplicate verdicts
        assert main(["history", "w@x"]) == 0
        with open_ledger(own_ledger_dir) as led:
            assert led.get(3)["verdict"] == verdict

    def test_no_annotate_flag(self, own_ledger_dir):
        self._seed_rows(own_ledger_dir, [1.0, 1.0, 1.5, 1.5])
        assert main(["history", "w@x", "--no-annotate"]) == 0
        with open_ledger(own_ledger_dir) as led:
            assert led.get(3)["verdict"] is None

    def test_json_schema(self, own_ledger_dir, capsys):
        self._seed_rows(own_ledger_dir, [1.0, 1.0, 1.5, 1.5])
        assert main(["history", "w@x", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-history"
        assert doc["version"] == 1
        assert doc["workload"] == "w@x"
        assert doc["runs"] == 4
        series = doc["metrics"]["sim.step_s"]["series"]
        assert [p["value"] for p in series] == [1.0, 1.0, 1.5, 1.5]
        cp = doc["metrics"]["sim.step_s"]["change_point"]
        assert cp["run_id"] == 3 and cp["verdict"] == "regression"

    def test_ungated_metrics_not_tracked_by_default(self,
                                                    own_ledger_dir,
                                                    capsys):
        self._seed_rows(own_ledger_dir, [1.0, 1.5], gate=False)
        assert main(["history", "w@x"]) == 0
        assert "no gated metrics" in capsys.readouterr().out

    def test_explicit_metric_filter(self, own_ledger_dir, capsys):
        self._seed_rows(own_ledger_dir, [1.0, 1.5], gate=False)
        assert main(["history", "w@x", "--metric", "sim.step_s"]) == 0
        assert "sim.step_s" in capsys.readouterr().out

    def test_unknown_metric_errors(self, own_ledger_dir, capsys):
        self._seed_rows(own_ledger_dir, [1.0])
        assert main(["history", "w@x", "--metric", "nope"]) == 1
        assert "never recorded" in capsys.readouterr().err

    def test_unknown_workload_errors(self, own_ledger_dir, capsys):
        self._seed_rows(own_ledger_dir, [1.0])
        assert main(["history", "zzz"]) == 1
        assert "no ledger runs" in capsys.readouterr().err

    def test_listing_without_workload(self, own_ledger_dir, capsys):
        self._seed_rows(own_ledger_dir, [1.0, 2.0])
        assert main(["history"]) == 0
        out = capsys.readouterr().out
        assert "w@x" in out and "2 run(s)" in out

    def test_missing_store(self, own_ledger_dir, capsys):
        assert main(["history", "w@x"]) == 1
        assert "no run ledger" in capsys.readouterr().err

    def test_limit(self, own_ledger_dir, capsys):
        self._seed_rows(own_ledger_dir, [1.0, 1.0, 1.0, 9.0])
        assert main(["history", "w@x", "--limit", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 2

    def test_limit_zero_shows_no_runs(self, own_ledger_dir, capsys):
        self._seed_rows(own_ledger_dir, [1.0, 1.0, 1.0, 9.0])
        assert main(["history", "w@x", "--limit", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 0 and doc["metrics"] == {}

    def test_history_report_direct(self):
        rows = [
            {"id": i + 1, "ts": 1.0 * i, "outcome": "ok",
             "metrics": {"m": metric_point(v, gate=True)}}
            for i, v in enumerate([2.0, 2.0, 3.0, 3.0])
        ]
        rep = history_report(rows, "w")
        assert rep.runs == 4
        (mh,) = rep.metrics
        assert mh.change_point is not None
        assert mh.change_run_id == 3
