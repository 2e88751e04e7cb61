"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main

MSC_DISTRIBUTED = """
const N = 12;
DefVar(k, i32); DefVar(j, i32); DefVar(i, i32);
DefTensor3D_TimeWin(B, 3, 1, f64, N, N, N);
Kernel S((k,j,i), 0.4*B[k,j,i] + 0.1*B[k,j,i-1] + 0.1*B[k,j,i+1]
         + 0.1*B[k-1,j,i] + 0.1*B[k+1,j,i]
         + 0.1*B[k,j-1,i] + 0.1*B[k,j+1,i]);
Stencil st((k,j,i), B[t] << 0.6*S[t-1] + 0.4*S[t-2]);
DefShapeMPI3D(mpi, 2, 1, 2);
"""

MSC_SUNWAY = """
const N = 16;
DefVar(k, i32); DefVar(j, i32); DefVar(i, i32);
DefTensor3D_TimeWin(B, 3, 1, f64, N, N, N);
Kernel S((k,j,i), 0.5*B[k,j,i] + 0.25*B[k,j,i-1] + 0.25*B[k,j,i+1]);
S.tile(4, 8, 16, xo, xi, yo, yi, zo, zi);
S.reorder(xo, yo, zo, xi, yi, zi);
S.cache_read(B, br, "global");
S.cache_write(bw, "global");
S.compute_at(br, zo);
S.compute_at(bw, zo);
S.parallel(xo, 64);
Stencil st((k,j,i), B[t] << S[t-1]);
"""


@pytest.fixture
def msc_file(tmp_path):
    path = tmp_path / "prog.msc"
    path.write_text(MSC_DISTRIBUTED)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_report_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "fig99"])

    def test_bench_is_not_a_command(self, capsys):
        # perf claims go through benchmarks/host; gates are tier-1 tests
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestRun:
    def test_run_distributed(self, msc_file, capsys):
        assert main(["run", msc_file, "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "distributed over (2, 1, 2)" in out
        assert "l2=" in out

    def test_run_serial_flag(self, msc_file, capsys):
        assert main(["run", msc_file, "--steps", "3", "--serial"]) == 0
        assert "single-node" in capsys.readouterr().out

    def test_run_saves_npy(self, msc_file, tmp_path, capsys):
        out = tmp_path / "res.npy"
        assert main(["run", msc_file, "--steps", "2",
                     "--out", str(out)]) == 0
        data = np.load(str(out))
        assert data.shape == (12, 12, 12)

    def test_run_deterministic_under_seed(self, msc_file, capsys):
        main(["run", msc_file, "--steps", "2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["run", msc_file, "--steps", "2", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.msc"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_exchange_mode_bitwise_stable(self, msc_file, capsys):
        outputs = {}
        for mode in ("basic", "diag", "overlap"):
            assert main(["run", msc_file, "--steps", "3", "--seed", "5",
                         "--exchange-mode", mode]) == 0
            outputs[mode] = capsys.readouterr().out
            assert "distributed over" in outputs[mode]
        # the printed norms are identical: the mode never changes numerics
        assert outputs["basic"] == outputs["diag"] == outputs["overlap"]

    def test_run_reports_numpy_plans(self, msc_file, capsys):
        """The numpy counterpart of the ``native: plan ...`` line — on
        stderr, because it differs by exchange mode and stdout is the
        mode-independent result report."""
        assert main(["run", msc_file, "--steps", "4",
                     "--exchange-mode", "basic"]) == 0
        # 4 ranks x (whole block x 2 terms x 3 window rotations), then
        # the fourth step re-uses the first step's plans
        assert ("numpy: lowered 1 kernel(s), 24 binds, 8 reuses\n"
                in capsys.readouterr().err)
        assert main(["run", msc_file, "--steps", "4", "--serial",
                     "--backend", "numpy"]) == 0
        assert ("numpy: lowered 1 kernel(s), 6 binds, 2 reuses\n"
                in capsys.readouterr().err)

    def test_run_exchange_mode_rejected_by_parser(self, msc_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", msc_file, "--exchange-mode", "warp"]
            )


class TestMalformedSource:
    @pytest.mark.parametrize("command", ["run", "check", "compile"])
    def test_syntax_error_is_one_diagnostic(self, command, tmp_path,
                                            capsys):
        path = tmp_path / "bad.msc"
        path.write_text("stencil foo(")
        argv = [command, str(path)]
        if command == "compile":
            argv += ["-o", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ") and err.count("\n") == 1


class TestCompile:
    def test_sunway_bundle(self, tmp_path, capsys):
        src = tmp_path / "s.msc"
        src.write_text(MSC_SUNWAY)
        out = tmp_path / "bundle"
        assert main(["compile", str(src), "--target", "sunway",
                     "-o", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        assert files == {
            "st_master.c", "st_slave.c", "st_common.c", "st.h",
            "msc_athread_stub.h", "Makefile",
        }

    def test_cpu_bundle_with_name(self, msc_file, tmp_path):
        out = tmp_path / "cpu"
        assert main(["compile", msc_file, "--target", "cpu",
                     "-o", str(out), "--name", "myprog"]) == 0
        assert (out / "myprog.c").exists()

    def test_illegal_sunway_schedule_reported(self, msc_file, tmp_path,
                                              capsys):
        # the distributed program has no SPM staging -> sunway illegal
        assert main(["compile", msc_file, "--target", "sunway",
                     "-o", str(tmp_path)]) == 1
        assert "illegal schedule" in capsys.readouterr().err


class TestSimulateAndReport:
    def test_simulate_sunway(self, capsys):
        assert main(["simulate", "3d7pt_star", "--machine", "sunway"]) == 0
        out = capsys.readouterr().out
        assert "GFlops" in out and "tiles_per_cpe" in out

    def test_simulate_unknown_benchmark(self, capsys):
        assert main(["simulate", "5d_monster"]) == 1

    def test_simulate_exchange_mode_labelled(self, capsys):
        assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                     "--exchange-mode", "diag"]) == 0
        assert "distributed exchange [diag]" in capsys.readouterr().out

    def test_simulate_with_injected_drops(self, capsys):
        assert main([
            "simulate", "2d9pt_box", "--machine", "cpu",
            "--inject-faults", "drop:p=0.2", "--fault-seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "injected faults (seed 7)" in out
        assert "drop=" in out

    def test_simulate_with_injected_crash_fails(self, capsys):
        assert main([
            "simulate", "2d9pt_box", "--machine", "cpu",
            "--inject-faults", "crash:rank=1:step=4",
        ]) == 1
        out = capsys.readouterr().out
        assert "FAILED under injected faults" in out
        assert "rank 1 crashed" in out

    def test_simulate_bad_fault_spec(self, capsys):
        assert main([
            "simulate", "2d9pt_box", "--machine", "cpu",
            "--inject-faults", "jitter:p=0.5",
        ]) == 1
        assert "unknown fault kind" in capsys.readouterr().err

    def test_simulate_faults_ignored_with_skip_pipeline(self, capsys):
        assert main([
            "simulate", "2d9pt_box", "--machine", "cpu",
            "--skip-pipeline", "--inject-faults", "drop:p=0.5",
        ]) == 0
        assert "no effect" in capsys.readouterr().err

    def test_simulate_faulty_trace_records_retries(self, tmp_path,
                                                   capsys):
        path = tmp_path / "faulty.json"
        assert main([
            "simulate", "2d9pt_box", "--machine", "cpu",
            "--inject-faults", "drop:p=0.25", "--fault-seed", "7",
            "--trace", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "retries:" in out
        from repro.obs import registry

        assert registry().counter_total("comm.retry") > 0

    def test_report_table4(self, capsys):
        assert main(["report", "table4"]) == 0
        out = capsys.readouterr().out
        assert "3d7pt_star" in out and "56" in out

    def test_report_fig10(self, capsys):
        assert main(["report", "fig10"]) == 0
        assert "3d7pt_star" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "2d121pt_box" in out and "fig14" in out


class TestTune:
    def test_tune_small(self, capsys):
        assert main([
            "tune", "3d7pt_star", "--nprocs", "8",
            "--shape", "512,128,128", "--iterations", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out


class TestVerify:
    def test_verify_all_paths_pass(self, capsys):
        assert main(["verify", "3d7pt_star", "--timesteps", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 3
        assert "FAIL" not in out

    def test_verify_fp32_tolerance(self, capsys):
        assert main(["verify", "2d9pt_star", "--precision", "fp32",
                     "--timesteps", "2"]) == 0
        assert "1e-05" in capsys.readouterr().out


MSC_PIPELINE = """
const N = 16;
DefVar(j, i32); DefVar(i, i32);
DefTensor2D(U, 1, f64, N, N);
DefTensor2D(R, 1, f64, N, N);
Kernel smooth((j,i), 0.5*U[j,i] + 0.125*U[j,i-1] + 0.125*U[j,i+1]
              + 0.125*U[j-1,i] + 0.125*U[j+1,i]);
Kernel resid((j,i), 4.0*U[j,i] - U[j,i-1] - U[j,i+1] - U[j-1,i]
             - U[j+1,i]);
Stencil s1((j,i), U[t] << smooth[t-1]);
Stencil s2((j,i), R[t] << resid[t-1]);
DefShapeMPI2D(mpi, 2, 2);
"""


class TestPipelineCLI:
    @pytest.fixture
    def pipe_file(self, tmp_path):
        path = tmp_path / "pipe.msc"
        path.write_text(MSC_PIPELINE)
        return str(path)

    def test_run_distributed_pipeline(self, pipe_file, capsys):
        assert main(["run", pipe_file, "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "StagePipeline(U -> R)" in out
        assert "distributed over (2, 2)" in out
        assert out.count("l2=") == 2

    def test_run_serial_pipeline_saves_npz(self, pipe_file, tmp_path,
                                           capsys):
        dest = tmp_path / "res.npz"
        assert main(["run", pipe_file, "--steps", "2", "--serial",
                     "--out", str(dest)]) == 0
        data = np.load(str(dest))
        assert set(data.files) == {"U", "R"}

    def test_compile_writes_the_pipeline_program(self, pipe_file, tmp_path,
                                                 capsys):
        out = tmp_path / "bundle"
        assert main(["compile", pipe_file, "-o", str(out)]) == 0
        src = (out / "s1.c").read_text()
        assert src.index("sweep_0_smooth(dst_U,") < src.index(
            "fill_halo_U(dst_U);") < src.index("sweep_1_resid(dst_R,")
        assert "all: s1" in (out / "Makefile").read_text()

    @pytest.mark.parametrize("target", ["sunway", "mpi"])
    def test_single_stencil_targets_name_the_stage_count(
            self, pipe_file, tmp_path, capsys, target):
        assert main(["compile", pipe_file, "--target", target,
                     "-o", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2-stage pipeline" in err

    def test_check_covers_every_stage(self, pipe_file, tmp_path, capsys):
        path = tmp_path / "pipe_par.msc"
        path.write_text(MSC_PIPELINE.replace(
            "DefShapeMPI2D", "resid.parallel(j, 4096);\nDefShapeMPI2D"))
        assert main(["check", str(path), "--machine", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "PAR001" in out and "(resid/j)" in out  # the second stage
        assert "s1: schedule is legal on" in out

    @pytest.fixture
    def race_file(self, tmp_path):
        path = tmp_path / "race.msc"
        path.write_text(MSC_PIPELINE.replace(
            "DefShapeMPI2D", "resid.tile(3, 3, xo, xi, yo, yi);\n"
            "resid.parallel(xi, 4);\nDefShapeMPI2D"))
        return str(path)

    @pytest.mark.parametrize("command", [
        ["run", "--steps", "2"], ["run", "--steps", "2", "--serial"],
        ["compile", "-o", "bundle"],
    ])
    def test_illegal_pipeline_stopped_at_the_gate(self, race_file, tmp_path,
                                                  capsys, command):
        argv = [command[0], race_file, *command[1:]]
        if command[0] == "compile":
            argv[-1] = str(tmp_path / "bundle")
        assert main(argv) == 1
        assert "RACE001" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("extra", [[], ["--serial"]])
    def test_native_pipeline_rejected(self, pipe_file, capsys, extra):
        assert main(["run", pipe_file, "--backend", "native",
                     *extra]) == 1
        assert capsys.readouterr().err.startswith(
            "error: native x pipeline: ")

    def test_declared_schedules_tile_the_run(self, pipe_file, tmp_path,
                                             capsys):
        tiled = tmp_path / "tiled.msc"
        tiled.write_text(MSC_PIPELINE.replace(
            "DefShapeMPI2D", "resid.tile(4, 8, xo, xi, yo, yi);\n"
            "DefShapeMPI2D"))
        main(["run", pipe_file, "--serial", "--steps", "3"])
        plain = capsys.readouterr()
        main(["run", str(tiled), "--serial", "--steps", "3"])
        got = capsys.readouterr()
        assert got.out.splitlines()[1:] == plain.out.splitlines()[1:]
        # resid runs in 2x4 tiles: 8 bound plans where one was
        assert "lowered 2 kernel(s), 4 binds" in plain.err
        assert "lowered 2 kernel(s), 18 binds" in got.err

    def test_example_file_is_this_program(self):
        from pathlib import Path

        from repro.frontend.lang import parse_program

        example = Path(__file__).parent.parent / "examples" / "smoother.msc"
        got = parse_program(example.read_text()).program
        want = parse_program(MSC_PIPELINE).program
        assert got.ir.fingerprint == want.ir.fingerprint
        assert got.mpi_grid == want.mpi_grid == (2, 2)

    def test_serial_matches_distributed(self, pipe_file, capsys):
        main(["run", pipe_file, "--steps", "3", "--seed", "2"])
        dist = capsys.readouterr().out.splitlines()[1:]
        main(["run", pipe_file, "--steps", "3", "--seed", "2",
              "--serial"])
        serial = capsys.readouterr().out.splitlines()[1:]
        assert dist == serial


class TestTraceCLI:
    def _simulate_traced(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc = main(["simulate", "3d7pt_star", "--machine", "sunway",
                   "--trace", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"trace written to {path}" in out
        return path, out

    def test_simulate_trace_json(self, tmp_path, capsys):
        from repro.obs.export import load_trace

        path, out = self._simulate_traced(tmp_path, capsys)
        assert "codegen [sunway]" in out
        assert "distributed exchange" in out
        assert "(chrome trace_event, " in out
        doc = load_trace(str(path))
        prefixes = {s["name"].split(".", 1)[0] for s in doc["spans"]}
        # the acceptance bar: spans from codegen, machine sim, comm
        # and the distributed runtime in one command
        assert {"codegen", "machine", "comm", "runtime"} <= prefixes
        assert doc["metrics"]["counters"]

    def test_simulate_trace_chrome(self, tmp_path, capsys):
        import json

        path, _ = self._simulate_traced(tmp_path, capsys)
        doc = json.loads(path.read_text())
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert xs and all("ts" in e and "dur" in e for e in xs)
        # nested spans: comm.pack sits under comm.exchange by interval
        names = {e["name"] for e in xs}
        assert {"cli.simulate", "comm.exchange", "comm.pack"} <= names
        # simulated ranks appear as separate tracks
        tids = {e["tid"] for e in xs}
        assert len(tids) >= 2

    def test_trace_command_summarizes(self, tmp_path, capsys):
        path, _ = self._simulate_traced(tmp_path, capsys)
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TRACE SUMMARY" in out
        assert "comm.exchange" in out
        assert "COUNTERS" in out
        # the 2x2 exchange stage makes it a multi-rank trace
        assert "PER-RANK SUMMARY" in out
        assert "CRITICAL PATH" in out

    def test_trace_command_reads_chrome(self, tmp_path, capsys):
        import json

        # a trace file that lacks the span identity fields, as other
        # Chrome trace_event writers produce it
        path, _ = self._simulate_traced(tmp_path, capsys)
        doc = json.loads(path.read_text())
        for ev in doc["traceEvents"]:
            for key in ("sid", "spid", "t0", "d"):
                ev.pop(key, None)
        path.write_text(json.dumps(doc))
        assert main(["trace", str(path)]) == 0
        assert "TRACE SUMMARY" in capsys.readouterr().out

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent-trace.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_with_trace(self, msc_file, tmp_path, capsys):
        from repro.obs.export import load_trace

        path = tmp_path / "run.json"
        assert main(["run", msc_file, "--steps", "2",
                     "--trace", str(path)]) == 0
        doc = load_trace(str(path))
        names = {s["name"] for s in doc["spans"]}
        assert {"cli.run", "frontend.parse", "runtime.step"} <= names

    def test_no_trace_flag_records_nothing(self, capsys):
        from repro.obs import is_enabled, tracer

        assert main(["simulate", "3d7pt_star", "--machine", "sunway",
                     "--skip-pipeline"]) == 0
        assert not is_enabled()
        out = capsys.readouterr().out
        assert "trace written" not in out

    def test_trace_hands_back_caller_telemetry_state(self, tmp_path,
                                                      capsys):
        """An in-process ``main([... "--trace", f])`` leaves the
        caller's registry flag, full recording and flight ring as it
        found them."""
        from repro import obs

        tr, reg = obs.tracer(), obs.registry()
        path = str(tmp_path / "t.json")
        argv = ["simulate", "2d9pt_box", "--machine", "cpu",
                "--skip-pipeline", "--trace", path]
        try:
            # caller: registry on, a flight ring of its own, no recording
            reg.enable()
            ring = obs.enable_flight(capacity=16)
            assert main(argv) == 0
            assert reg.enabled and tr.flight is ring
            obs.disable_flight()
            assert not obs.is_enabled()  # full recording is off again
            # caller: full recording on, registry off, no flight ring
            tr.enable()
            reg.disable()
            assert main(argv) == 0
            assert tr.flight is None and not reg.enabled
            with obs.span("caller.after"):
                pass
            assert tr.records[-1].name == "caller.after"
        finally:
            obs.disable()
            obs.disable_flight()
        assert "trace written to" in capsys.readouterr().out

    def test_unwritable_trace_fails_the_command(self, msc_file, tmp_path,
                                                capsys):
        path = tmp_path / "missing-dir" / "t.json"
        assert main(["run", msc_file, "--steps", "1",
                     "--trace", str(path)]) == 1
        captured = capsys.readouterr()
        assert "error: cannot write trace:" in captured.err
        assert "trace written" not in captured.out

    def test_list_shows_exporters(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "trace file: Chrome trace_event" in out
        assert "instrumented subsystems:" in out
        assert "autotune" in out

    def test_skip_pipeline_omits_stages(self, capsys):
        assert main(["simulate", "3d7pt_star", "--machine", "sunway",
                     "--skip-pipeline"]) == 0
        out = capsys.readouterr().out
        assert "codegen [" not in out
        assert "distributed exchange" not in out


class TestCritpathCLI:
    """The distributed views of ``repro trace``: DAG validation, the
    per-rank table, flow-edge counts and the critical path."""

    @pytest.fixture
    def dist_trace(self, tmp_path):
        """A merged 2x2 distributed trace file."""
        import numpy as np

        from repro import obs
        from repro.comm.exchange import AsyncHaloExchanger
        from repro.comm.halo import HaloSpec
        from repro.obs import capture
        from repro.obs.export import write_trace
        from repro.runtime.simmpi import run_ranks

        def rank_main(comm):
            spec = HaloSpec((12, 12), (1, 1))
            ex = AsyncHaloExchanger(comm, spec)
            plane = np.full(spec.padded_shape, float(comm.rank))
            for _ in range(2):
                ex.exchange(plane)
            return comm.gather(float(plane.sum()))

        try:
            with capture() as (tr, reg):
                run_ranks(4, rank_main, cart_dims=(2, 2),
                          periods=(True, True))
            path = tmp_path / "dist.json"
            write_trace(str(path), tr, reg)
        finally:
            obs.disable()
            obs.reset()
        return str(path)

    def test_critpath_reports_cross_rank_path(self, dist_trace, capsys):
        assert main(["trace", dist_trace]) == 0
        out = capsys.readouterr().out
        assert "CRITICAL PATH" in out
        assert "<- flow" in out  # the path crosses ranks via messages
        assert "PER-RANK SUMMARY" in out

    def test_critpath_json(self, dist_trace, capsys):
        import json

        assert main(["trace", dist_trace, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ranks"] == [0, 1, 2, 3]
        cp = doc["critical_path"]
        assert cp["flow_edges"] > 0
        assert cp["chain_crossings"] >= 1
        path_ranks = {
            seg["rank"] for seg in cp["segments"]
            if seg["rank"] is not None
        }
        assert len(path_ranks) >= 2  # the acceptance bar
        assert doc["imbalance"]["bytes_skew"] == 1.0

    def test_critpath_rejects_malformed_dag(self, tmp_path, capsys):
        import json

        # a two-rank trace with an inbound flow nobody sent: a
        # malformed (orphan) edge
        doc = {
            "format": "repro-trace", "version": 1,
            "spans": [{
                "span_id": 1, "parent_id": None, "name": "comm.wait",
                "start_s": 0.0, "duration_s": 1.0,
                "thread": "simmpi-rank-0",
                "attrs": {"rank": 0, "flows_in": ["9>0:5#0"]},
            }, {
                "span_id": 2, "parent_id": None, "name": "comm.send",
                "start_s": 0.0, "duration_s": 1.0,
                "thread": "simmpi-rank-1", "attrs": {"rank": 1},
            }],
            "metrics": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["trace", str(path)]) == 1
        assert main(["trace", str(path), "--json"]) == 1
        err = capsys.readouterr().err
        assert "malformed" in err and "orphan" in err

    def test_critpath_missing_file(self, capsys):
        assert main(["trace", "/nonexistent-trace.json", "--json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_trace_by_rank_table_only(self, dist_trace):
        # the by-rank table `repro trace` prints, rendered on its own
        from repro.obs.distributed import DistributedTrace, format_by_rank
        from repro.obs.export import load_trace

        dt = DistributedTrace.from_doc(load_trace(dist_trace))
        out = format_by_rank(dt)
        assert "PER-RANK SUMMARY  (4 ranks)" in out
        assert "TRACE SUMMARY" not in out
        rows = [line.split()[0] for line in out.splitlines()[3:7]]
        assert rows == ["0", "1", "2", "3"]

    def test_trace_default_appends_by_rank_when_multirank(
            self, dist_trace, capsys):
        assert main(["trace", dist_trace]) == 0
        out = capsys.readouterr().out
        assert "TRACE SUMMARY" in out
        assert "PER-RANK SUMMARY" in out
        # the by-rank table follows the summary and carries the
        # imbalance annotations
        assert out.index("PER-RANK SUMMARY") > out.index("TRACE SUMMARY")
        assert "skew" in out and "exchange gating ranks" in out

    def test_trace_distributed_adds_critical_path(self, dist_trace,
                                                  capsys):
        assert main(["trace", dist_trace]) == 0
        out = capsys.readouterr().out
        assert "CRITICAL PATH" in out
        assert "flow edges" in out

    def test_trace_of_faulty_run_is_well_formed(self, tmp_path, capsys):
        # dropped messages leave dangling outbound flows, which are legal
        path = str(tmp_path / "faulty.json")
        assert main(["simulate", "2d9pt_box", "--machine", "cpu",
                     "--inject-faults", "drop:p=0.2",
                     "--trace", path]) == 0
        capsys.readouterr()
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "PER-RANK SUMMARY" in out and "CRITICAL PATH" in out
        assert "0 orphan inbound" in out

    def test_single_rank_trace_stays_plain(self, tmp_path, capsys):
        from repro import obs
        from repro.obs import capture, span
        from repro.obs.export import write_trace

        try:
            with capture() as (tr, reg):
                with span("app.work"):
                    pass
            path = tmp_path / "solo.json"
            write_trace(str(path), tr, reg)
        finally:
            obs.disable()
            obs.reset()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TRACE SUMMARY" in out
        assert "PER-RANK SUMMARY" not in out
        assert "CRITICAL PATH" not in out


MSC_SINGLE_NODE = """
const N = 12;
DefVar(j, i32); DefVar(i, i32);
DefTensor2D_TimeWin(A, 2, 1, f64, N, N);
Kernel S((j,i), 0.5*A[j,i] + 0.125*A[j,i-1] + 0.125*A[j,i+1]
         + 0.125*A[j-1,i] + 0.125*A[j+1,i]);
Stencil st((j,i), A[t] << S[t-1]);
"""


@pytest.fixture
def single_node_file(tmp_path):
    path = tmp_path / "single.msc"
    path.write_text(MSC_SINGLE_NODE)
    return str(path)


class TestRunBackend:
    def test_backend_numpy_requested(self, single_node_file, capsys):
        assert main(["run", single_node_file, "--steps", "2",
                     "--backend", "numpy"]) == 0
        assert "backend: numpy (requested)" in capsys.readouterr().out

    def test_backend_auto_reports_choice(self, single_node_file, capsys):
        assert main(["run", single_node_file, "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "backend: " in out and "auto" in out

    def test_backend_native_matches_numpy(self, single_node_file,
                                          tmp_path, capsys):
        import shutil

        if shutil.which("gcc") is None:
            pytest.skip("gcc not available")
        a = tmp_path / "native.npy"
        b = tmp_path / "numpy.npy"
        assert main(["run", single_node_file, "--steps", "3",
                     "--backend", "native", "--out", str(a)]) == 0
        assert "backend: native" in capsys.readouterr().out
        assert main(["run", single_node_file, "--steps", "3",
                     "--backend", "numpy", "--out", str(b)]) == 0
        np.testing.assert_array_equal(np.load(str(a)), np.load(str(b)))

    def test_backend_native_unavailable_errors(self, single_node_file,
                                               capsys, monkeypatch):
        from repro.backend import native as native_mod

        monkeypatch.setattr(native_mod, "which_cc", lambda cc=None: None)
        assert main(["run", single_node_file, "--backend",
                     "native"]) == 1
        assert "error" in capsys.readouterr().err

    def test_distributed_rejects_native(self, msc_file, capsys):
        assert main(["run", msc_file, "--steps", "2",
                     "--backend", "native"]) == 1
        captured = capsys.readouterr()
        assert "distributed over (2, 1, 2)" in captured.out
        assert captured.err.startswith("error: native x MPI grid: ")

    def test_distributed_auto_runs_numpy(self, msc_file, capsys):
        assert main(["run", msc_file, "--steps", "2"]) == 0
        assert "backend: numpy (auto: native x MPI grid: " in (
            capsys.readouterr().out)

    def test_exchange_mode_on_one_node_rejected(self, msc_file, capsys):
        assert main(["run", msc_file, "--steps", "2", "--serial",
                     "--exchange-mode", "overlap"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: exchange_mode x single node: ")

    def test_unknown_scalar_rejected(self, single_node_file, capsys):
        assert main(["run", single_node_file, "--scalar", "foo=3"]) == 1
        err = capsys.readouterr().err
        assert "'foo'" in err and "free scalars are []" in err
