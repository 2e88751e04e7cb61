"""Phase attribution, the regression rule over run views, and the
deterministic performance-model figures pinned exactly."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.obs import phases
from repro.obs.diff import RunView, diff_runs, worse_frac
from repro.obs import ledger
from repro.obs.ledger import metric_point
from repro.obs.metrics import aggregate


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
        assert phases.phase_of("frontend.parse") == "frontend"
        assert phases.phase_of("schedule.lower") == "lower"
        assert phases.phase_of("machine.lower_schedule") == "lower"
        assert phases.phase_of("codegen.sunway.slave") == "codegen"
        assert phases.phase_of("machine.compute_model") == "compute"
        assert phases.phase_of("runtime.kernel_eval") == "compute"
        assert phases.phase_of("machine.dma_model") == "spm-dma"
        assert phases.phase_of("machine.cache_model") == "spm-dma"
        assert phases.phase_of("machine.spm_alloc") == "spm-dma"
        assert phases.phase_of("comm.pack") == "halo-pack"
        assert phases.phase_of("comm.send") == "send-wait"
        assert phases.phase_of("comm.wait") == "send-wait"
        assert phases.phase_of("comm.retry") == "send-wait"
        assert phases.phase_of("comm.unpack") == "unpack"
        assert phases.phase_of("autotune.trial") == "tune"
        assert phases.phase_of("runtime.step") == "runtime"
        assert phases.phase_of("cli.simulate") == "other"
        assert phases.phase_of("machine.sunway_sim") == "other"

    def test_every_mapping_lands_in_taxonomy(self):
        for phase in (list(phases._EXACT.values())
                      + [p for _, p in phases._PREFIXES]):
            assert phase in phases.PHASES

    def test_self_time_attribution(self):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "machine.sunway_sim",
             "duration_s": 1.0, "attrs": {}},
            {"span_id": 2, "parent_id": 1, "name": "machine.dma_model",
             "duration_s": 0.6, "attrs": {}},
            {"span_id": 3, "parent_id": 1, "name": "machine.compute_model",
             "duration_s": 0.3, "attrs": {}},
        ]
        attr = phases.attribute(spans)
        assert attr.total_s == pytest.approx(1.0)
        assert attr.phases["spm-dma"].time_s == pytest.approx(0.6)
        assert attr.phases["compute"].time_s == pytest.approx(0.3)
        # the parent keeps only its self time
        assert attr.phases["other"].time_s == pytest.approx(0.1)
        assert sum(p.time_s for p in attr.phases.values()) == \
            pytest.approx(attr.total_s)

    def test_bytes_accumulate_per_phase(self):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "comm.send",
             "duration_s": 0.1, "attrs": {"bytes": 100}},
            {"span_id": 2, "parent_id": None, "name": "comm.send",
             "duration_s": 0.1, "attrs": {"bytes": 50}},
        ]
        attr = phases.attribute(spans)
        assert attr.phases["send-wait"].bytes == 150
        assert attr.phases["send-wait"].count == 2

    def test_attribution_from_live_trace(self):
        with obs.capture() as (tr, _):
            with obs.span("runtime.step"):
                with obs.span("comm.pack"):
                    pass
                with obs.span("runtime.kernel_eval"):
                    pass
        attr = phases.attribute(tr.records)
        assert set(attr.phases) >= {"runtime", "halo-pack", "compute"}
        attributed = sum(p.time_s for p in attr.phases.values())
        assert attributed >= 0.95 * attr.total_s


# -- statistical aggregation ---------------------------------------------
class TestAggregate:
    def test_median_mad_ci(self):
        agg = aggregate([1.0, 2.0, 3.0, 4.0, 100.0])
        assert agg["median"] == 3.0
        assert agg["mad"] == 1.0  # robust to the outlier
        assert agg["n"] == 5
        assert agg["min"] == 1.0 and agg["max"] == 100.0
        lo, hi = agg["ci95"]
        assert lo < 3.0 < hi

    def test_deterministic_values_zero_width(self):
        agg = aggregate([5.0, 5.0, 5.0])
        assert agg["mad"] == 0.0
        assert agg["ci95"] == [5.0, 5.0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([])


# -- the regression rule ----------------------------------------------------
def _view(value: float, workload: str = "toy",
          gate: bool = True) -> RunView:
    """A run with one metric ``m`` and one modelled phase, both ``value``."""
    return RunView(
        label=workload, workload=workload,
        phases_sim={"spm-dma": {"time_s": value}},
        metrics={"m": metric_point(value, unit="s", gate=gate)},
    )


class TestCompare:
    def test_identical_no_regression(self):
        cmp = diff_runs([_view(1.0)], [_view(1.0)])
        assert cmp.ok
        assert cmp.regressions == []
        assert "no regressions" in cmp.format()

    def test_slowdown_regresses_and_names_phase(self):
        cmp = diff_runs([_view(1.0)], [_view(1.5)])
        assert not cmp.ok
        names = {(d.kind, d.name) for d in cmp.regressions}
        assert ("metric", "m") in names
        assert ("phase", "spm-dma") in names
        assert "phase 'spm-dma'" in cmp.format()

    def test_small_change_within_threshold_ok(self):
        assert diff_runs([_view(1.0)], [_view(1.05)], threshold=0.10).ok

    def test_improvement_flagged_not_failed(self):
        cmp = diff_runs([_view(1.0)], [_view(0.5)])
        assert cmp.ok
        assert any(d.improved for d in cmp.deltas)

    def test_ungated_metric_never_regresses(self):
        cmp = diff_runs([_view(1.0, gate=False)], [_view(10.0, gate=False)])
        # the modelled phase still gates; drop it to isolate the metric
        metric_deltas = [d for d in cmp.regressions if d.kind == "metric"]
        assert metric_deltas == []

    def test_higher_is_better_direction(self):
        assert worse_frac(10.0, 5.0, "higher") == pytest.approx(0.5)
        assert worse_frac(10.0, 20.0, "higher") == pytest.approx(-1.0)
        assert worse_frac(0.0, 0.0, "lower") == 0.0
        assert worse_frac(0.0, 1.0, "lower") == float("inf")

    def test_missing_workloads_noted(self):
        cmp = diff_runs([_view(1.0), _view(1.0, "gone")],
                        [_view(1.0), _view(1.0, "new")])
        text = "\n".join(cmp.notes)
        assert "new" in text and "gone" in text

    def test_single_workloads_with_different_names_noted(self):
        cmp = diff_runs([_view(1.0)], [_view(1.5, "renamed")])
        # the single-run fallback still compares the pair ...
        assert ("phase", "spm-dma") in {
            (d.kind, d.name) for d in cmp.regressions
        }
        # ... and one note says which two workloads it paired
        (note,) = [ln for ln in cmp.format().splitlines()
                   if ln.startswith("note:")]
        assert "'renamed'" in note and "'toy'" in note


# -- pinned model outputs ----------------------------------------------------
#: ``<bench>@<machine>`` at its small grid, one timestep: every figure
#: the simulator reports, exact.  A change here is a change to the
#: performance model, not noise.
SIMULATED = {
    "3d7pt_star@sunway": {
        "grid": (24, 24, 24),
        "sim.step_s": 6.823213719343536e-05,
        "sim.total_s": 6.823213719343536e-05,
        "sim.compute_s": 1.625078369905956e-06,
        "sim.memory_s": 6.66070588235294e-05,
        "sim.gflops": 5.47026687646991,
        "phases_sim": {
            "compute": {"time_s": 1.625078369905956e-06, "gflops": 229.68},
            "spm-dma": {"time_s": 6.66070588235294e-05, "bytes": 820224.0},
        },
    },
    "2d9pt_box@matrix": {
        "grid": (64, 64),
        "sim.step_s": 1.344837606837607e-05,
        "sim.total_s": 1.344837606837607e-05,
        "sim.compute_s": 4.666666666666667e-08,
        "sim.memory_s": 1.3401709401709402e-05,
        "sim.gflops": 10.660023133730759,
        "phases_sim": {
            "compute": {"time_s": 4.666666666666667e-08, "gflops": 3072.0},
            "spm-dma": {"time_s": 1.3401709401709402e-05},
        },
    },
}

#: per-mode halo traffic of ``exchange:2d9pt_box`` (2x2 periodic ranks,
#: 24x20, two steps): messages and bytes are exact protocol counts
EXCHANGE = {
    "basic": {"comm.messages": 64.0, "comm.bytes_sent": 6656.0},
    "diag": {"comm.messages": 48.0, "comm.bytes_sent": 6144.0},
    "overlap": {"comm.messages": 48.0, "comm.bytes_sent": 6144.0},
}

_COUNTERS = ("comm.bytes_sent", "comm.messages", "comm.pool_bytes")


def _simulate(workload: str, **perturb):
    """The ``<bench>@<machine>`` simulator report at its pinned grid, on
    the machine spec with each of ``perturb``'s fields scaled by its
    factor."""
    from repro.evalsuite.harness import build_with_schedule
    from repro.ir.dtypes import f64
    from repro.machine.matrix_sim import CacheMachineSimulator
    from repro.machine.spec import machine_by_name
    from repro.machine.sunway_sim import SunwaySimulator

    bench, machine = workload.split("@")
    prog, handle = build_with_schedule(
        bench, machine, f64, grid=SIMULATED[workload]["grid"])
    spec = machine_by_name(machine)
    spec = dataclasses.replace(spec, **{
        key: getattr(spec, key) * factor for key, factor in perturb.items()
    })
    sim = (SunwaySimulator(spec) if spec.cacheless
           else CacheMachineSimulator(spec))
    return sim.run(prog.ir, handle.schedule, timesteps=1)


def _exchange(modes):
    """Run ``2d9pt_box`` over 2x2 periodic ranks once per mode; returns
    the results and the per-mode counter deltas."""
    from repro.frontend.stencils import benchmark_by_name
    from repro.runtime.executor import distributed_run

    demo, _ = benchmark_by_name("2d9pt_box").build(
        grid=(24, 20), boundary="periodic")
    rng = np.random.default_rng(0)
    init = [rng.random((24, 20))
            for _ in range(demo.ir.required_time_window - 1)]
    reg = obs.registry()
    results, deltas = {}, {}
    for mode in modes:
        before = {k: reg.counter_total(k) for k in _COUNTERS}
        results[mode] = distributed_run(demo.ir, init, 2, (2, 2),
                                        boundary="periodic",
                                        exchange_mode=mode)
        deltas[mode] = {k: reg.counter_total(k) - before[k]
                        for k in _COUNTERS}
    return results, deltas


class TestWorkloads:
    @pytest.mark.parametrize("workload", sorted(SIMULATED))
    def test_simulated_figures_pinned(self, workload):
        want = SIMULATED[workload]
        report = _simulate(workload)
        assert report.step_s == want["sim.step_s"]
        assert report.total_s == want["sim.total_s"]
        assert report.compute_s == want["sim.compute_s"]
        assert report.memory_s == want["sim.memory_s"]
        assert report.gflops == want["sim.gflops"]
        modelled = {p: {"time_s": t} for p, t in report.phases().items()
                    if t > 0}
        compute_s = modelled["compute"]["time_s"]
        modelled["compute"]["gflops"] = (
            report.flops_per_step * report.timesteps / compute_s / 1e9)
        if report.dma is not None:
            modelled["spm-dma"]["bytes"] = float(report.dma.total_bytes)
        assert modelled == want["phases_sim"]

    def test_perturbed_dma_regresses_named_phase(self):
        def view(label, **perturb):
            report = _simulate("3d7pt_star@sunway", **perturb)
            return RunView(
                label=label, workload="3d7pt_star@sunway",
                phases_sim={p: {"time_s": t}
                            for p, t in report.phases().items()},
                metrics={"sim.step_s": metric_point(report.step_s,
                                                    unit="s", gate=True)},
            )

        cmp = diff_runs([view("base")], [view("slow", dma_startup_us=10.0)])
        assert not cmp.ok
        assert any(d.kind == "phase" and d.name == "spm-dma"
                   for d in cmp.regressions)
        # compute phase is untouched by a DMA slowdown
        assert all(d.name != "compute" for d in cmp.regressions)

    def test_exchange_comparative_metrics(self):
        from repro.obs.distributed import (
            DistributedTrace,
            extract_critical_path,
            imbalance_report,
        )

        with obs.capture() as (tr, reg):
            results, deltas = _exchange(list(EXCHANGE))
        for mode, want in EXCHANGE.items():
            got = deltas[mode]
            assert {k: got[k] for k in want} == want, mode
            # the zero-copy clean path: no pool staging in any mode
            assert got["comm.pool_bytes"] == 0.0, mode
        # diag coalesces corners into direct messages: strictly fewer
        assert (deltas["diag"]["comm.messages"]
                < deltas["basic"]["comm.messages"])
        # every mode is bitwise-transparent
        for mode in EXCHANGE:
            assert results[mode].tobytes() == results["basic"].tobytes()
        # the structural critical path over all three runs is
        # program-deterministic
        dt = DistributedTrace.from_live(tr, reg)
        cp = extract_critical_path(dt)
        assert (cp.chain_spans, cp.chain_crossings, cp.flow_edges) == \
            (204, 10, 169)
        assert imbalance_report(dt).bytes_skew == 1.0

    def test_exchange_workload_deterministic(self):
        with obs.capture() as (tr, _):
            first, a = _exchange(["basic"])
            second, b = _exchange(["basic"])
        assert a == b
        assert first["basic"].tobytes() == second["basic"].tobytes()
        assert {"halo-pack", "send-wait", "unpack"} <= set(
            phases.attribute(tr.records).phases)

    def test_exchange_single_mode_workload(self):
        # one mode run on its own counts what it counts beside the others
        with obs.capture():
            _, deltas = _exchange(["diag"])
        assert deltas["diag"] == dict(EXCHANGE["diag"],
                                      **{"comm.pool_bytes": 0.0})


# -- figure artefacts (benchmarks/_common.py) --------------------------------
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

    def test_emit_writes_txt_and_json(self, tmp_path, monkeypatch, capsys):
        # the .txt half of the old .txt + .json pair: the artefact is
        # printed under its banner and persisted; the JSON twin is gone
        # (test_emit_without_data checks that none is written)
        common = self._load_common(tmp_path, monkeypatch)
        common.emit("figX", "some table")
        assert capsys.readouterr().out == "\n===== figX =====\nsome table\n"
        assert (tmp_path / "figX.txt").read_text() == "some table\n"
        common.emit("figX", "new table")
        assert (tmp_path / "figX.txt").read_text() == "new table\n"

    def test_emit_without_data(self, tmp_path, monkeypatch):
        common = self._load_common(tmp_path, monkeypatch)
        common.emit("figY", "some table")
        assert (tmp_path / "figY.txt").read_text() == "some table\n"
        assert os.listdir(tmp_path) == ["figY.txt"]


# -- what a recorded run carries about its host ------------------------------
class TestRunner:
    def test_environment_fingerprint(self):
        fp = ledger.environment_fingerprint()
        assert "python" in fp and "numpy" in fp and "platform" in fp
        # a ledger row stores it as JSON text
        assert json.loads(json.dumps(fp)) == fp


# -- the benchmark's compare gate (benchmarks/host/run.py --compare) ---------
def _hostbench_doc(op_s: float) -> dict:
    """A one-workload hostbench result document with ``op_s`` as its
    operation time and every other end-to-end metric at 1."""
    metrics = {m: {"value": 1.0, "unit": "x"} for m in
               ("setup_s", "op_tail_s", "mpts_per_s", "peak_rss_mb")}
    metrics["op_s"] = {"value": op_s, "unit": "s"}
    return {"format": "hostbench/1", "quick": False, "seconds": 12,
            "workloads": {"star3d": {"end_to_end": {
                "attempted": 10, "failed": 0, "metrics": metrics}}}}


class TestBenchCLI:
    @pytest.fixture
    def hostbench(self, tmp_path):
        """``benchmarks/host/run.py`` as a module, and a writer of result
        documents under ``tmp_path``."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "hostbench_run", os.path.join(root, "benchmarks", "host", "run.py")
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        def write(name: str, op_s: float) -> str:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(_hostbench_doc(op_s)))
            return str(path)

        return mod, write

    def test_bench_compare_self_is_clean(self, hostbench, capsys):
        run, write = hostbench
        base = write("base", 1.0)
        assert run.main(["--compare", base, base]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5  # one per end-to-end metric of BENCHMARK.json
        assert all(row.endswith("  ok") for row in rows)

    def test_bench_compare_regression_exits_nonzero(self, hostbench, capsys):
        run, write = hostbench
        assert run.main(["--compare", write("base", 1.0),
                         write("slow", 2.0)]) == 1
        (row,) = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.endswith(" worse")]
        assert row.split()[:2] == ["star3d", "op_s"]
