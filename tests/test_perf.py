"""Tests for the performance observatory (``repro.obs.perf``)."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.obs import perf
from repro.obs.diff import (
    DEFAULT_THRESHOLD,
    diff_runs,
    views_from_bench,
    worse_frac,
)
from repro.obs.perf.runner import MetricSpec, Workload, WorkloadOutput


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# -- phase attribution ---------------------------------------------------
class TestPhases:
    def test_taxonomy_mapping(self):
        assert perf.phase_of("frontend.parse") == "frontend"
        assert perf.phase_of("schedule.lower") == "lower"
        assert perf.phase_of("machine.lower_schedule") == "lower"
        assert perf.phase_of("codegen.sunway.slave") == "codegen"
        assert perf.phase_of("machine.compute_model") == "compute"
        assert perf.phase_of("runtime.kernel_eval") == "compute"
        assert perf.phase_of("machine.dma_model") == "spm-dma"
        assert perf.phase_of("machine.cache_model") == "spm-dma"
        assert perf.phase_of("machine.spm_alloc") == "spm-dma"
        assert perf.phase_of("comm.pack") == "halo-pack"
        assert perf.phase_of("comm.send") == "send-wait"
        assert perf.phase_of("comm.wait") == "send-wait"
        assert perf.phase_of("comm.retry") == "send-wait"
        assert perf.phase_of("comm.unpack") == "unpack"
        assert perf.phase_of("autotune.trial") == "tune"
        assert perf.phase_of("runtime.step") == "runtime"
        assert perf.phase_of("cli.simulate") == "other"
        assert perf.phase_of("machine.sunway_sim") == "other"

    def test_every_mapping_lands_in_taxonomy(self):
        from repro.obs.perf.phases import _EXACT, _PREFIXES

        for phase in list(_EXACT.values()) + [p for _, p in _PREFIXES]:
            assert phase in perf.PHASES

    def test_self_time_attribution(self):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "machine.sunway_sim",
             "duration_s": 1.0, "attrs": {}},
            {"span_id": 2, "parent_id": 1, "name": "machine.dma_model",
             "duration_s": 0.6, "attrs": {}},
            {"span_id": 3, "parent_id": 1, "name": "machine.compute_model",
             "duration_s": 0.3, "attrs": {}},
        ]
        attr = perf.attribute(spans)
        assert attr.total_s == pytest.approx(1.0)
        assert attr.phases["spm-dma"].time_s == pytest.approx(0.6)
        assert attr.phases["compute"].time_s == pytest.approx(0.3)
        # the parent keeps only its self time
        assert attr.phases["other"].time_s == pytest.approx(0.1)
        assert attr.attributed_s == pytest.approx(1.0)
        assert attr.coverage == pytest.approx(1.0)

    def test_bytes_accumulate_per_phase(self):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "comm.send",
             "duration_s": 0.1, "attrs": {"bytes": 100}},
            {"span_id": 2, "parent_id": None, "name": "comm.send",
             "duration_s": 0.1, "attrs": {"bytes": 50}},
        ]
        attr = perf.attribute(spans)
        assert attr.phases["send-wait"].bytes == 150
        assert attr.phases["send-wait"].count == 2

    def test_attribution_from_live_trace(self):
        with obs.capture() as (tr, _):
            with obs.span("runtime.step"):
                with obs.span("comm.pack"):
                    pass
                with obs.span("runtime.kernel_eval"):
                    pass
        attr = perf.attribute(tr.records)
        assert set(attr.phases) >= {"runtime", "halo-pack", "compute"}
        assert attr.coverage >= 0.95

    def test_share_and_empty(self):
        attr = perf.attribute([])
        assert attr.total_s == 0.0
        assert attr.coverage == 1.0
        assert attr.share("compute") == 0.0

    def test_to_dict_orders_phases(self):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "comm.unpack",
             "duration_s": 0.1, "attrs": {}},
            {"span_id": 2, "parent_id": None, "name": "frontend.parse",
             "duration_s": 0.2, "attrs": {}},
        ]
        doc = perf.attribute(spans).to_dict()
        assert list(doc["phases"]) == ["frontend", "unpack"]
        assert doc["coverage"] == pytest.approx(1.0)


# -- statistical aggregation ---------------------------------------------
class TestAggregate:
    def test_median_mad_ci(self):
        agg = perf.aggregate([1.0, 2.0, 3.0, 4.0, 100.0])
        assert agg["median"] == 3.0
        assert agg["mad"] == 1.0  # robust to the outlier
        assert agg["n"] == 5
        assert agg["min"] == 1.0 and agg["max"] == 100.0
        lo, hi = agg["ci95"]
        assert lo < 3.0 < hi

    def test_deterministic_values_zero_width(self):
        agg = perf.aggregate([5.0, 5.0, 5.0])
        assert agg["mad"] == 0.0
        assert agg["ci95"] == [5.0, 5.0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            perf.aggregate([])


# -- runner ---------------------------------------------------------------
def _toy_workload(value: float = 1.0, gate: bool = True) -> Workload:
    def fn(seed):
        with obs.span("machine.dma_model"):
            pass
        return WorkloadOutput(
            metrics={"m": value},
            phases_sim={"spm-dma": {"time_s": value}},
        )

    return Workload(
        name="toy",
        fn=fn,
        metric_specs={"m": MetricSpec("s", "lower", gate=gate)},
        meta={"kind": "toy"},
    )


class TestRunner:
    def test_run_workload_shape(self):
        wl = _toy_workload()
        res = perf.run_workload(wl, repeats=3, warmup=1, seed=7)
        assert res["samples"] == 3
        assert res["seed"] == 7
        assert res["metrics"]["m"]["median"] == 1.0
        assert res["metrics"]["m"]["gate"] is True
        assert res["metrics"]["host.wall_s"]["gate"] is False
        assert res["phases_sim"]["spm-dma"]["time_s"] == 1.0
        assert "spm-dma" in res["phases_host"]
        assert res["phase_coverage"] >= 0.95

    def test_run_workload_validates(self):
        wl = _toy_workload()
        with pytest.raises(ValueError):
            perf.run_workload(wl, repeats=0)
        with pytest.raises(ValueError):
            perf.run_workload(wl, warmup=-1)

    def test_run_bench_document(self):
        doc = perf.run_bench([_toy_workload()], "t", repeats=2)
        assert doc["format"] == perf.BENCH_FORMAT
        assert doc["version"] == perf.BENCH_VERSION
        assert "toy" in doc["workloads"]
        assert doc["environment"]["python"]

    def test_run_bench_empty_raises(self):
        with pytest.raises(ValueError):
            perf.run_bench([], "t")

    def test_environment_fingerprint(self):
        fp = perf.environment_fingerprint()
        assert "python" in fp and "numpy" in fp and "platform" in fp


# -- schema ---------------------------------------------------------------
class TestSchema:
    def test_roundtrip(self, tmp_path):
        doc = perf.run_bench([_toy_workload()], "rt", repeats=2)
        path = str(tmp_path / perf.bench_filename("rt"))
        perf.write_bench(path, doc)
        loaded = perf.load_bench(path)
        assert loaded["workloads"]["toy"]["metrics"]["m"]["median"] == 1.0

    def test_bench_filename_sanitised(self):
        assert perf.bench_filename("a b/c") == "BENCH_a_b_c.json"

    def test_load_rejects_wrong_format(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError, match="not a repro-bench"):
            perf.load_bench(str(p))

    def test_load_rejects_wrong_version(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps(
            {"format": "repro-bench", "version": 999, "workloads": {}}
        ))
        with pytest.raises(ValueError, match="version"):
            perf.load_bench(str(p))

    def test_write_rejects_non_bench(self, tmp_path):
        with pytest.raises(ValueError):
            perf.write_bench(str(tmp_path / "x.json"), {"format": "no"})

    def test_load_artifact(self, tmp_path):
        p = tmp_path / "fig.json"
        p.write_text(json.dumps({
            "format": "repro-bench-artifact", "version": 1,
            "name": "fig", "data": [{"r": 1}], "text": "t",
        }))
        doc = perf.load_artifact(str(p))
        assert doc["data"] == [{"r": 1}]
        p.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            perf.load_artifact(str(p))


# -- comparison / regression gate -----------------------------------------
def _bench_doc(value: float, name: str = "doc") -> dict:
    return perf.run_bench([_toy_workload(value)], name, repeats=3)


def _compare(current: dict, baseline: dict,
             threshold: float = DEFAULT_THRESHOLD):
    """What ``repro bench --compare`` runs on two bench documents."""
    return diff_runs(views_from_bench(baseline, "base"),
                     views_from_bench(current, "cur"), threshold)


class TestCompare:
    def test_identical_no_regression(self):
        base = _bench_doc(1.0, "base")
        cur = _bench_doc(1.0, "cur")
        cmp = _compare(cur, base)
        assert cmp.ok
        assert cmp.regressions == []
        assert "no regressions" in cmp.format()

    def test_slowdown_regresses_and_names_phase(self):
        base = _bench_doc(1.0, "base")
        cur = _bench_doc(1.5, "cur")
        cmp = _compare(cur, base)
        assert not cmp.ok
        names = {(d.kind, d.name) for d in cmp.regressions}
        assert ("metric", "m") in names
        assert ("phase", "spm-dma") in names
        assert "phase 'spm-dma'" in cmp.format()

    def test_small_change_within_threshold_ok(self):
        base = _bench_doc(1.0, "base")
        cur = _bench_doc(1.05, "cur")
        assert _compare(cur, base, threshold=0.10).ok

    def test_improvement_flagged_not_failed(self):
        base = _bench_doc(1.0, "base")
        cur = _bench_doc(0.5, "cur")
        cmp = _compare(cur, base)
        assert cmp.ok
        assert any(d.improved for d in cmp.deltas)

    def test_ungated_metric_never_regresses(self):
        base = perf.run_bench(
            [_toy_workload(1.0, gate=False)], "base", repeats=2
        )
        cur = perf.run_bench(
            [_toy_workload(10.0, gate=False)], "cur", repeats=2
        )
        cmp = _compare(cur, base)
        # the modelled phase still gates; drop it to isolate the metric
        metric_deltas = [d for d in cmp.regressions if d.kind == "metric"]
        assert metric_deltas == []

    def test_higher_is_better_direction(self):
        assert worse_frac(10.0, 5.0, "higher") == pytest.approx(0.5)
        assert worse_frac(10.0, 20.0, "higher") == pytest.approx(-1.0)
        assert worse_frac(0.0, 0.0, "lower") == 0.0
        assert worse_frac(0.0, 1.0, "lower") == float("inf")

    def test_missing_workloads_noted(self):
        base = _bench_doc(1.0, "base")
        cur = _bench_doc(1.0, "cur")
        cur["workloads"]["new"] = cur["workloads"]["toy"]
        base["workloads"]["gone"] = base["workloads"]["toy"]
        cmp = _compare(cur, base)
        text = "\n".join(cmp.notes)
        assert "new" in text and "gone" in text

    def test_single_workloads_with_different_names_noted(self):
        base = _bench_doc(1.0, "base")
        cur = _bench_doc(1.5, "cur")
        cur["workloads"] = {"renamed": cur["workloads"]["toy"]}
        cmp = _compare(cur, base)
        # the single-run fallback still compares the pair ...
        assert ("phase", "spm-dma") in {
            (d.kind, d.name) for d in cmp.regressions
        }
        # ... and one note says which two workloads it paired
        (note,) = [ln for ln in cmp.format().splitlines()
                   if ln.startswith("note:")]
        assert "'renamed'" in note and "'toy'" in note


# -- built-in workloads ----------------------------------------------------
class TestWorkloads:
    def test_resolve_defaults(self):
        wls, name = perf.resolve_workloads([])
        assert name == "perf_smoke"
        assert [w.name for w in wls] == list(perf.DEFAULT_WORKLOADS)

    def test_resolve_explicit_name(self):
        wls, name = perf.resolve_workloads(["3d7pt_star@sunway"])
        assert name == "3d7pt_star_sunway"
        assert wls[0].meta["kind"] == "simulate"

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            perf.workload_by_name("3d7pt_star@gpu")
        with pytest.raises(ValueError, match="cannot parse"):
            perf.workload_by_name("nonsense")
        with pytest.raises(ValueError, match="exchange"):
            perf.workload_by_name("exchange:3d7pt_star",
                                  perturb={"dma_startup_us": 2.0})

    def test_perturb_validation(self):
        wl = perf.workload_by_name(
            "3d7pt_star@sunway", perturb={"no_such_field": 2.0}
        )
        with pytest.raises(ValueError, match="no field"):
            wl.fn(0)
        wl = perf.workload_by_name(
            "3d7pt_star@sunway", perturb={"name": 2.0}
        )
        with pytest.raises(ValueError, match="not numeric"):
            wl.fn(0)

    def test_available_workloads_resolve(self):
        names = perf.available_workloads()
        assert "3d7pt_star@sunway" in names
        assert "exchange:2d9pt_box" in names

    def test_simulate_workload_end_to_end(self):
        wl = perf.workload_by_name("3d7pt_star@sunway")
        res = perf.run_workload(wl, repeats=2, warmup=0)
        m = res["metrics"]
        assert m["sim.step_s"]["gate"] and m["sim.step_s"]["median"] > 0
        assert m["sim.step_s"]["mad"] == 0.0  # deterministic model
        assert res["phases_sim"]["spm-dma"]["time_s"] > 0
        assert res["phases_sim"]["spm-dma"]["bytes"] > 0
        assert res["phase_coverage"] >= 0.95
        pt = res["roofline"]["3d7pt_star"]
        assert 0.0 < pt["utilization"] <= 1.0
        assert pt["bound"] in ("memory", "compute")

    def test_perturbed_dma_regresses_named_phase(self):
        base_wl = perf.workload_by_name("3d7pt_star@sunway")
        slow_wl = perf.workload_by_name(
            "3d7pt_star@sunway", perturb={"dma_startup_us": 10.0}
        )
        base = perf.run_bench([base_wl], "base", repeats=2)
        cur = perf.run_bench([slow_wl], "cur", repeats=2)
        cmp = _compare(cur, base)
        assert not cmp.ok
        assert any(d.kind == "phase" and d.name == "spm-dma"
                   for d in cmp.regressions)
        # compute phase is untouched by a DMA slowdown
        assert all(d.name != "compute" for d in cmp.regressions)

    def test_exchange_workload_deterministic(self):
        wl = perf.workload_by_name("exchange:2d9pt_box")
        res = perf.run_workload(wl, repeats=2, warmup=0)
        m = res["metrics"]
        assert m["comm.bytes_sent"]["median"] > 0
        assert m["comm.bytes_sent"]["mad"] == 0.0
        assert m["comm.messages"]["gate"]
        assert {"halo-pack", "send-wait", "unpack"} <= set(
            res["phases_host"]
        )

    def test_exchange_mode_specs_resolve(self):
        names = perf.available_workloads()
        for mode in ("basic", "diag", "overlap"):
            spec = f"exchange:2d9pt_box@{mode}"
            assert spec in names
            wl = perf.workload_by_name(spec)
            assert wl.name == f"exchange:2d9pt_box@{mode}"
            assert wl.meta["exchange_mode"] == mode
        assert perf.workload_by_name(
            "exchange:2d9pt_box"
        ).meta["exchange_mode"] == "compare"
        with pytest.raises(ValueError, match="unknown exchange mode"):
            perf.workload_by_name("exchange:2d9pt_box@warp")

    def test_exchange_comparative_metrics(self):
        wl = perf.workload_by_name("exchange:2d9pt_box")
        res = perf.run_workload(wl, repeats=2, warmup=0)
        m = res["metrics"]
        # diag coalesces corners into direct messages: strictly fewer
        assert m["comm.messages.diag"]["gate"]
        assert m["comm.messages.diag"]["median"] < m["comm.messages"]["median"]
        assert m["diag.msg_saving"]["median"] > 0
        # every mode is bitwise-transparent
        assert m["exchange.modes_bitwise_equal"]["median"] == 1.0
        # all three modes take the zero-copy clean path: no pool staging
        assert m["comm.pool_bytes"]["median"] == 0.0
        assert m["comm.pool_bytes"]["gate"]

    def test_exchange_single_mode_workload(self):
        wl = perf.workload_by_name("exchange:2d9pt_box@diag")
        res = perf.run_workload(wl, repeats=2, warmup=0)
        m = res["metrics"]
        assert m["comm.bytes_sent"]["median"] > 0
        assert m["comm.pool_bytes"]["median"] == 0.0
        # per-mode workloads skip the cross-mode comparison metrics
        assert "diag.msg_saving" not in m


# -- CLI -------------------------------------------------------------------
class TestBenchCLI:
    def test_list_workloads(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "3d7pt_star@sunway" in out

    def test_bench_writes_document(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "3d7pt_star@sunway",
                   "--repeats", "2", "--warmup", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "roofline 3d7pt_star" in out
        path = tmp_path / "BENCH_3d7pt_star_sunway.json"
        assert path.exists()
        doc = perf.load_bench(str(path))
        wl = doc["workloads"]["3d7pt_star@sunway"]
        assert wl["samples"] == 2
        assert wl["phase_coverage"] >= 0.95

    def test_bench_compare_self_is_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "3d7pt_star@sunway",
                     "--repeats", "2", "--warmup", "0"]) == 0
        assert main([
            "bench", "3d7pt_star@sunway", "--repeats", "2",
            "--warmup", "0",
            "--compare", "BENCH_3d7pt_star_sunway.json",
        ]) == 0

    def test_bench_compare_regression_exits_nonzero(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "3d7pt_star@sunway",
                     "--repeats", "2", "--warmup", "0"]) == 0
        rc = main([
            "bench", "3d7pt_star@sunway", "--repeats", "2",
            "--warmup", "0", "--perturb", "dma_startup_us=10",
            "--name", "slow",
            "--compare", "BENCH_3d7pt_star_sunway.json",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "spm-dma" in out

    def test_bench_compare_never_rewrites_its_baseline(
            self, tmp_path, monkeypatch, capsys):
        """``--compare FILE`` with the default ``--out`` (= FILE) used
        to overwrite FILE first and then compare it with itself."""
        monkeypatch.chdir(tmp_path)
        os.makedirs("benchmarks/results")
        assert main(["bench", "3d7pt_star@sunway",
                     "--repeats", "2", "--warmup", "0"]) == 0
        base = tmp_path / "BENCH_3d7pt_star_sunway.json"
        mirror = tmp_path / "benchmarks/results/3d7pt_star_sunway.json"
        before = base.read_bytes(), mirror.read_bytes()
        capsys.readouterr()
        # same name, so the default --out is the baseline itself
        rc = main([
            "bench", "3d7pt_star@sunway", "--repeats", "2",
            "--warmup", "0", "--perturb", "dma_startup_us=10",
            "--compare", "BENCH_3d7pt_star_sunway.json",
        ])
        out = capsys.readouterr().out
        assert rc == 1 and "REGRESSION" in out
        assert "not written" in out and "--compare baseline" in out
        assert (base.read_bytes(), mirror.read_bytes()) == before
        # report-only keeps its exit code semantics, and the file
        assert main([
            "bench", "3d7pt_star@sunway", "--repeats", "2",
            "--warmup", "0", "--perturb", "dma_startup_us=10",
            "--report-only", "--compare",
            str(tmp_path / "benchmarks/results/3d7pt_star_sunway.json"),
        ]) == 0
        assert (base.read_bytes(), mirror.read_bytes()) == before

    def test_bench_report_only_exits_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "3d7pt_star@sunway",
                     "--repeats", "2", "--warmup", "0"]) == 0
        rc = main([
            "bench", "3d7pt_star@sunway", "--repeats", "2",
            "--warmup", "0", "--perturb", "dma_startup_us=10",
            "--name", "slow", "--report-only",
            "--compare", "BENCH_3d7pt_star_sunway.json",
        ])
        assert rc == 0

    def test_bench_mirrors_into_results_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.makedirs("benchmarks/results")
        assert main(["bench", "3d7pt_star@sunway",
                     "--repeats", "2", "--warmup", "0"]) == 0
        assert (tmp_path / "benchmarks" / "results"
                / "3d7pt_star_sunway.json").exists()

    def test_bench_bad_perturb(self, capsys):
        assert main(["bench", "--perturb", "oops"]) == 2

    def test_bench_bad_workload(self, capsys):
        assert main(["bench", "bogus@sunway"]) == 1


# -- figure-artefact JSON (benchmarks/_common.py) --------------------------
class TestEmitArtifact:
    def _load_common(self, tmp_path, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "bench_common", os.path.join(root, "benchmarks", "_common.py")
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        monkeypatch.setattr(mod, "RESULTS_DIR", str(tmp_path))
        return mod

    def test_emit_writes_txt_and_json(self, tmp_path, monkeypatch):
        common = self._load_common(tmp_path, monkeypatch)
        common.emit("figX", "some table",
                    data=[{"benchmark": "3d7pt_star", "speedup": 2.0}])
        assert (tmp_path / "figX.txt").read_text() == "some table\n"
        doc = perf.load_artifact(str(tmp_path / "figX.json"))
        assert doc["name"] == "figX"
        assert doc["data"][0]["speedup"] == 2.0
        assert doc["text"] == "some table"

    def test_emit_without_data(self, tmp_path, monkeypatch):
        common = self._load_common(tmp_path, monkeypatch)
        common.emit("figY", "text only")
        doc = perf.load_artifact(str(tmp_path / "figY.json"))
        assert doc["data"] is None
