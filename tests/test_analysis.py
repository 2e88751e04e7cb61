"""Unit tests for the static schedule-legality analyzer (repro.analysis).

Every diagnostic code in ``DIAGNOSTIC_CODES`` gets at least one test
that triggers it, and — where the runtime misbehaviour is observable —
a *witness* test showing what actually goes wrong when the rejected
program is executed anyway.  The CLI ``repro check`` subcommand and the
pipeline gates (``--no-check`` escape hatch) are covered at the end.
"""

import numpy as np
import pytest

from repro.analysis import (
    DIAGNOSTIC_CODES,
    CheckReport,
    Diagnostic,
    DiagnosticError,
    SPM_UTILISATION_FLOOR,
    binding_footprints,
    check_config,
    check_decomposition,
    check_exchange_mode,
    check_kernel_schedule,
    check_program,
    check_stencil_ir,
    enforce,
)
from repro.cli import main
from repro.comm import decompose
from repro.ir import Kernel, SpNode, Stencil, VarExpr, f64
from repro.ir.validate import ValidationError, validate_stencil
from repro.machine.spec import CPU_E5_2680V4, MATRIX_SN, SUNWAY_CG
from repro.runtime.executor import distributed_run
from repro.schedule import Schedule
from repro.schedule.legality import LegalityError, check_schedule
from repro.schedule.schedule import ScheduleError
from tests.conftest import make_2d5pt, make_3d7pt


def build_stencil(time_window=3, shape=(16, 16, 16)):
    tensor, kern = make_3d7pt(shape=shape, time_window=time_window)
    t = Stencil.t
    if time_window >= 3:
        comb = 0.6 * kern[t - 1] + 0.4 * kern[t - 2]
    else:
        comb = kern[t - 1]
    return Stencil(tensor, comb), kern


def sunway_staged(kern, factors=(4, 8, 16)):
    """The paper's canonical Sunway schedule: tile + stage + parallel."""
    sched = Schedule(kern)
    sched.tile(*factors, "xo", "xi", "yo", "yi", "zo", "zi")
    sched.reorder("xo", "yo", "zo", "xi", "yi", "zi")
    sched.cache_read(kern.input_tensors[0], "br", "global")
    sched.cache_write("bw", "global")
    sched.compute_at("br", "zo")
    sched.compute_at("bw", "zo")
    return sched


# ---------------------------------------------------------------------------
# diagnostics plumbing
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_registry_covers_every_emitted_code(self):
        assert len(DIAGNOSTIC_CODES) == 21
        assert all(v for v in DIAGNOSTIC_CODES.values())

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic("SPM001", "fatal", "boom")

    def test_format_includes_code_primitive_and_location(self):
        d = Diagnostic("SPM001", "error", "too big",
                       primitive="cache_read", kernel="S", axis="zo")
        assert d.format() == "error SPM001 [cache_read] (S/zo): too big"

    def test_report_queries(self):
        rep = CheckReport()
        rep.add("TILE002", "warning", "w")
        rep.add("SPM001", "error", "e")
        assert not rep.ok
        assert rep.codes() == ["TILE002", "SPM001"]
        assert len(rep.by_code("SPM001")) == 1
        assert len(rep) == 2
        assert "1 error(s), 1 warning(s)" in rep.format()

    def test_raise_if_errors_carries_diagnostics(self):
        rep = CheckReport()
        rep.add("RACE001", "error", "race")
        with pytest.raises(DiagnosticError, match="illegal schedule:") as ei:
            rep.raise_if_errors()
        assert ei.value.diagnostics[0].code == "RACE001"


# ---------------------------------------------------------------------------
# one trigger per diagnostic code
# ---------------------------------------------------------------------------

class TestScheduleCodes:
    def test_sched001_plain_lowering_failure(self):
        stencil, kern = build_stencil()

        class Boom:
            def lower(self, shape):
                raise ScheduleError("boom")

        rep = check_program(stencil, {kern.name: Boom()})
        assert rep.by_code("SCHED001")
        assert "boom" in rep.by_code("SCHED001")[0].message

    def test_shape001_rank_mismatch(self):
        stencil, kern = build_stencil()
        rep = check_program(stencil, shape=(8, 8))
        (d,) = rep.by_code("SHAPE001")
        assert d.severity == "error"
        assert d.kernel == kern.name
        assert "2 dims" in d.message and "3-D" in d.message

    def test_tile001_factor_exceeds_extent(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            32, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        )
        rep = check_program(stencil, {kern.name: sched})
        (d,) = rep.by_code("TILE001")
        assert d.severity == "error"
        assert "exceeds extent" in d.message

    def test_tile002_remainder_tiles_warn(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            5, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        )
        rep = check_program(stencil, {kern.name: sched})
        (d,) = rep.by_code("TILE002")
        assert d.severity == "warning"
        assert d.primitive == "tile" and d.axis == "k"
        assert rep.ok  # warnings alone keep the schedule legal

    def test_tile003_fewer_tiles_than_threads(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            16, 16, 16, "xo", "xi", "yo", "yi", "zo", "zi"
        ).parallel("xo", 4)
        rep = check_program(stencil, {kern.name: sched},
                            machine=CPU_E5_2680V4)
        (d,) = rep.by_code("TILE003")
        assert d.severity == "warning"
        assert "idle" in d.message

    def test_vec001_non_innermost_vectorize(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            4, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        ).vectorize("yo")
        rep = check_program(stencil, {kern.name: sched})
        (d,) = rep.by_code("VEC001")
        assert d.severity == "error"

    def test_vec002_vectorize_and_unroll_one_axis(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            4, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        ).vectorize("zi").unroll("zi", 4)
        for machine in (CPU_E5_2680V4, MATRIX_SN):
            rep = check_program(stencil, {kern.name: sched},
                                machine=machine)
            (d,) = rep.by_code("VEC002")
            assert d.severity == "error"
            assert d.axis == "zi" and d.primitive == "unroll"
        # only the cached-CPU printer puts both pragmas on one loop
        for machine in (None, SUNWAY_CG):
            assert not check_program(stencil, {kern.name: sched},
                                     machine=machine).by_code("VEC002")
        sched = Schedule(kern).tile(
            4, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        ).vectorize("zi").unroll("yi", 4)
        assert not check_program(stencil, {kern.name: sched},
                                 machine=CPU_E5_2680V4).by_code("VEC002")

    def test_ord001_warning_without_spm(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            4, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        ).reorder("xi", "xo", "yo", "yi", "zo", "zi")
        rep = check_program(stencil, {kern.name: sched})
        (d,) = rep.by_code("ORD001")
        assert d.severity == "warning"
        assert d.axis == "xi"

    def test_ord001_error_with_spm(self):
        stencil, kern = build_stencil()
        sched = sunway_staged(kern)
        sched.reorder("xi", "xo", "yo", "yi", "zo", "zi")
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        assert any(d.severity == "error" for d in rep.by_code("ORD001"))

    def test_par001_error_on_cacheless(self):
        stencil, kern = build_stencil()
        sched = sunway_staged(kern)
        sched.parallel("xo", 128)
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        (d,) = rep.by_code("PAR001")
        assert d.severity == "error"
        assert "64 cores" in d.message

    def test_par001_warning_on_cached(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            2, 2, 2, "xo", "xi", "yo", "yi", "zo", "zi"
        ).parallel("xo", 48)
        rep = check_program(stencil, {kern.name: sched},
                            machine=MATRIX_SN)
        (d,) = rep.by_code("PAR001")
        assert d.severity == "warning"

    def test_race001_parallel_on_inner_axis(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            4, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        ).parallel("xi", 4)
        rep = check_program(stencil, {kern.name: sched})
        (d,) = rep.by_code("RACE001")
        assert d.severity == "error"
        assert d.axis == "xi"

    def test_race002_write_buffer_outside_parallel_loop(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern)
        sched.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.reorder("xo", "yo", "zo", "xi", "yi", "zi")
        sched.cache_write("bw", "global")
        sched.compute_at("bw", "xo")
        sched.parallel("yo", 2)
        rep = check_program(stencil, {kern.name: sched})
        (d,) = rep.by_code("RACE002")
        assert d.severity == "error"
        assert "write race" in d.message

    def test_race002_silent_when_staged_inside(self):
        stencil, kern = build_stencil()
        sched = sunway_staged(kern)  # bw at zo, parallel at xo
        sched.parallel("xo", 8)
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        assert not rep.by_code("RACE002")
        assert rep.ok

    def test_spm001_capacity_overflow_with_breakdown(self):
        stencil, kern = build_stencil()
        sched = sunway_staged(kern, factors=(16, 16, 16))
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        (d,) = rep.by_code("SPM001")
        assert d.severity == "error"
        assert "br[read]=" in d.message and "bw[write]=" in d.message
        assert f"{SUNWAY_CG.spm_bytes} B" in d.message

    def test_spm002_no_staging_at_all(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern).tile(
            4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi"
        )
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        (d,) = rep.by_code("SPM002")
        assert "no data cache" in d.message

    def test_spm002_missing_input_read(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern)
        sched.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.cache_write("bw", "global")
        sched.compute_at("bw", "zo")
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        msgs = [d.message for d in rep.by_code("SPM002")]
        assert any("not cache_read-bound" in m for m in msgs)

    def test_spm002_missing_write_buffer(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern)
        sched.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.cache_read(kern.input_tensors[0], "br", "global")
        sched.compute_at("br", "zo")
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        msgs = [d.message for d in rep.by_code("SPM002")]
        assert any("no cache_write" in m for m in msgs)

    def test_spm003_underutilised_tile(self):
        stencil, kern = build_stencil()
        sched = sunway_staged(kern, factors=(2, 2, 2))
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        (d,) = rep.by_code("SPM003")
        assert d.severity == "warning"
        assert "%" in d.message

    def test_ca001_compute_at_inner_axis(self):
        stencil, kern = build_stencil()
        sched = Schedule(kern)
        sched.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.cache_read(kern.input_tensors[0], "br", "global")
        sched.cache_write("bw", "global")
        sched.compute_at("br", "zi")
        sched.compute_at("bw", "zo")
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        (d,) = rep.by_code("CA001")
        assert d.severity == "error"
        assert d.axis == "zi"

    def test_legal_table5_schedule_is_clean_on_sunway(self):
        stencil, kern = build_stencil()
        sched = sunway_staged(kern)
        sched.parallel("xo", 4)
        rep = check_program(stencil, {kern.name: sched},
                            machine=SUNWAY_CG)
        assert rep.ok and not rep.warnings, rep.format()


class TestIRAndDecompositionCodes:
    def _radius2_halo1(self):
        j, i = VarExpr("j"), VarExpr("i")
        B = SpNode("B", (12, 12), f64, halo=(1, 1), time_window=2)
        kern = Kernel("S", (j, i), B[j, i - 2] + B[j, i + 2])
        return Stencil(B, kern[Stencil.t - 1])

    def test_halo001_radius_exceeds_halo(self):
        rep = check_stencil_ir(self._radius2_halo1())
        (d,) = rep.by_code("HALO001")
        assert d.severity == "error"

    def test_ir001_mixed_dtypes(self):
        from repro.ir import f32

        j, i = VarExpr("j"), VarExpr("i")
        B = SpNode("B", (8, 8), f64, halo=(1, 1), time_window=2)
        C = SpNode("C", (8, 8), f32, halo=(1, 1), time_window=2)
        kern = Kernel("S", (j, i), B[j, i] + C[j, i])
        stencil = Stencil(B, kern[Stencil.t - 1])
        rep = check_stencil_ir(stencil)
        (d,) = rep.by_code("IR001")
        assert "mixed dtypes" in d.message

    def test_halo002_subdomain_narrower_than_halo(self):
        j, i = VarExpr("j"), VarExpr("i")
        B = SpNode("B", (10, 10), f64, halo=(2, 2), time_window=2)
        kern = Kernel("S", (j, i), B[j, i - 2] + B[j, i + 2])
        stencil = Stencil(B, kern[Stencil.t - 1])
        rep = check_decomposition(stencil, (10, 10), (6, 1))
        (d,) = rep.by_code("HALO002")
        assert d.severity == "error"
        assert "narrower than halo" in d.message

    def test_mpi001_rank_mismatch(self):
        stencil, _ = build_stencil()
        rep = check_decomposition(stencil, (16, 16, 16), (2, 2))
        assert rep.by_code("MPI001")

    def test_mpi001_nonpositive_extent(self):
        stencil, _ = build_stencil()
        rep = check_decomposition(stencil, (16, 16, 16), (0, 1, 1))
        assert rep.by_code("MPI001")

    def test_mpi001_oversplit(self):
        stencil, _ = build_stencil()
        rep = check_decomposition(stencil, (16, 16, 16), (32, 1, 1))
        assert rep.by_code("MPI001")

    def test_check_program_routes_mpi_grid(self):
        stencil, _ = build_stencil()
        rep = check_program(stencil, mpi_grid=(32, 1, 1))
        assert rep.by_code("MPI001")


class TestExchangeModeCodes:
    def _stencil2d(self):
        tensor, kern = make_2d5pt(shape=(32, 32))
        return Stencil(tensor, kern[Stencil.t - 1])

    def test_exch002_unknown_mode(self):
        rep = check_exchange_mode(self._stencil2d(), "warp", (2, 2),
                                  (32, 32))
        (d,) = rep.by_code("EXCH002")
        assert "unknown exchange mode" in d.message

    def test_basic_and_diag_always_legal(self):
        st = self._stencil2d()
        for mode in ("basic", "diag"):
            assert check_exchange_mode(st, mode, (16, 1), (32, 32)).ok

    def test_exch001_overlap_without_core_block(self):
        # 32 split 16 ways -> sub extent 2 == 2*halo: CORE is empty
        rep = check_exchange_mode(self._stencil2d(), "overlap", (16, 1),
                                  (32, 32))
        (d,) = rep.by_code("EXCH001")
        assert "no CORE block" in d.message

    def test_overlap_legal_on_roomy_grid(self):
        rep = check_exchange_mode(self._stencil2d(), "overlap", (4, 4),
                                  (32, 32))
        assert rep.ok

    def test_exch001_overlap_halo_below_radius(self):
        j, i = VarExpr("j"), VarExpr("i")
        B = SpNode("B", (32, 32), f64, halo=(0, 0), time_window=2)
        kern = Kernel("S", (j, i), B[j, i - 1] + B[j, i + 1])
        st = Stencil(B, kern[Stencil.t - 1])
        rep = check_exchange_mode(st, "overlap", (1, 2), (32, 32))
        (d,) = rep.by_code("EXCH001")
        assert "halo" in d.message

    def test_check_config_routes_exchange_mode(self):
        st = self._stencil2d()
        rep = check_config(st, (8, 8), (2, 2), (32, 32), CPU_E5_2680V4,
                           exchange_mode="nope")
        assert rep.by_code("EXCH002")
        rep = check_config(st, (8, 8), (2, 2), (32, 32), CPU_E5_2680V4,
                           exchange_mode="diag")
        assert rep.ok


# ---------------------------------------------------------------------------
# differential witnesses: the rejected programs really do misbehave
# ---------------------------------------------------------------------------

class TestWitnesses:
    def test_halo001_witness_validation_rejects(self):
        bad = TestIRAndDecompositionCodes()._radius2_halo1()
        with pytest.raises(ValidationError):
            validate_stencil(bad)

    def test_halo002_witness_distributed_run_rejects(self):
        j, i = VarExpr("j"), VarExpr("i")
        B = SpNode("B", (10, 10), f64, halo=(2, 2), time_window=2)
        kern = Kernel(
            "S", (j, i), 0.25 * (B[j, i - 2] + B[j, i + 2]
                                 + B[j - 2, i] + B[j + 2, i]),
        )
        stencil = Stencil(B, kern[Stencil.t - 1])
        init = [np.zeros((10, 10))]
        with pytest.raises(ValueError, match="narrower than halo"):
            distributed_run(stencil, init, 1, grid=(6, 1))

    def test_mpi001_witness_decompose_rejects(self):
        with pytest.raises(ValueError, match="cannot split"):
            decompose((16, 16, 16), (32, 1, 1))

    def test_spm001_witness_legacy_checker_rejects(self):
        _, kern = build_stencil()
        sched = sunway_staged(kern, factors=(16, 16, 16))
        nest = sched.lower((16, 16, 16))
        with pytest.raises(LegalityError, match="SPM"):
            check_schedule(sched, nest, SUNWAY_CG)

    def test_par001_witness_legacy_checker_rejects_even_cached(self):
        _, kern = build_stencil()
        sched = Schedule(kern).tile(
            2, 2, 2, "xo", "xi", "yo", "yi", "zo", "zi"
        ).parallel("xo", 48)
        nest = sched.lower((16, 16, 16))
        with pytest.raises(LegalityError, match="cores"):
            check_schedule(sched, nest, MATRIX_SN)

    def test_tile001_witness_lower_raises_with_diagnostic(self):
        _, kern = build_stencil()
        sched = Schedule(kern).tile(
            32, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        )
        with pytest.raises(ScheduleError) as ei:
            sched.lower((16, 16, 16))
        assert ei.value.diagnostic.code == "TILE001"

    def test_shape001_witness_names_kernel(self):
        _, kern = build_stencil()
        with pytest.raises(ScheduleError, match=kern.name) as ei:
            Schedule(kern).lower((8, 8))
        assert ei.value.diagnostic.code == "SHAPE001"

    def test_vec001_witness_lower_raises_with_diagnostic(self):
        _, kern = build_stencil()
        sched = Schedule(kern).tile(
            4, 4, 4, "xo", "xi", "yo", "yi", "zo", "zi"
        ).vectorize("xo")
        with pytest.raises(ScheduleError, match="innermost") as ei:
            sched.lower((16, 16, 16))
        assert ei.value.diagnostic.code == "VEC001"


# ---------------------------------------------------------------------------
# footprint model + autotuner pruning predicate
# ---------------------------------------------------------------------------

class TestFootprints:
    def test_read_buffers_include_halo(self):
        _, kern = build_stencil()
        sched = sunway_staged(kern, factors=(4, 4, 4))
        fps = dict(
            (b.buffer, nbytes) for b, nbytes in
            binding_footprints(kern, (4, 4, 4), sched.cache_bindings())
        )
        assert fps["br"] == 6 * 6 * 6 * 8  # tile + 2*radius, f64
        assert fps["bw"] == 4 * 4 * 4 * 8  # bare tile

    def test_check_config_matches_tuner_model(self):
        stencil, _ = build_stencil(shape=(128, 128, 128))
        # (16, 16, 256) clips to the 64-wide sub-domain and overflows
        rep = check_config(stencil, (16, 16, 64), (2, 2, 2),
                           (128, 128, 128), SUNWAY_CG)
        assert rep.by_code("SPM001")
        rep2 = check_config(stencil, (4, 8, 16), (2, 2, 2),
                            (128, 128, 128), SUNWAY_CG)
        assert rep2.ok

    def test_check_config_sees_decomposition_errors(self):
        stencil, _ = build_stencil()
        rep = check_config(stencil, (4, 4, 4), (32, 1, 1),
                           (16, 16, 16), SUNWAY_CG)
        assert rep.by_code("MPI001")


class TestTunerPruning:
    def test_tuner_prunes_illegal_points_and_logs_metric(self):
        from repro import obs
        from repro.autotune.tuner import AutoTuner
        from repro.frontend import build_benchmark

        prog, _ = build_benchmark("3d25pt_star", grid=(128, 128, 128))
        tuner = AutoTuner(prog.ir, (128, 128, 128), nprocs=8)
        with obs.capture() as (_, reg):
            result = tuner.tune(iterations=200, seed=0, n_samples=10)
        assert result.pruned > 0
        snap = reg.snapshot()
        assert snap["counters"]["autotune.pruned_illegal"] == result.pruned
        assert snap["gauges"]["autotune.pruned_total"] == result.pruned
        # the winning configuration itself passes the checker
        assert tuner.check_config(result.best).ok

    def test_annealer_rejects_illegal_initial_state(self):
        from repro.autotune.annealing import simulated_annealing

        with pytest.raises(ValueError, match="initial_state"):
            simulated_annealing(
                [[1, 2], [3, 4]], lambda *v: 1.0, iterations=5, seed=0,
                prune=lambda *v: True,
            )

    def test_annealer_counts_pruned_proposals(self):
        from repro.autotune.annealing import simulated_annealing

        # everything except the start point is illegal: every proposal
        # that moves away gets pruned, none measured
        res = simulated_annealing(
            [[1, 2, 3]], lambda v: float(v), iterations=50, seed=0,
            initial_state=(0,), prune=lambda v: v != 1,
        )
        assert res.pruned > 0
        assert res.best_state == (0,)


class TestEnforce:
    def test_enforce_logs_warnings_and_passes(self):
        import io

        rep = CheckReport()
        rep.add("TILE002", "warning", "remainder", kernel="S")
        buf = io.StringIO()
        enforce(rep, where="simulate[sunway]", stream=buf)
        assert "repro-check simulate[sunway]:" in buf.getvalue()
        assert "TILE002" in buf.getvalue()

    def test_enforce_raises_on_errors(self):
        import io

        rep = CheckReport()
        rep.add("SPM001", "error", "too big")
        with pytest.raises(DiagnosticError, match="SPM001"):
            enforce(rep, stream=io.StringIO())


# ---------------------------------------------------------------------------
# CLI: repro check + the --no-check escape hatch
# ---------------------------------------------------------------------------

MSC_OVERFLOW = """
const N = 16;
DefVar(k, i32); DefVar(j, i32); DefVar(i, i32);
DefTensor3D_TimeWin(B, 3, 1, f64, N, N, N);
Kernel S((k,j,i), 0.5*B[k,j,i] + 0.25*B[k,j,i-1] + 0.25*B[k,j,i+1]);
S.tile(16, 16, 16, xo, xi, yo, yi, zo, zi);
S.reorder(xo, yo, zo, xi, yi, zi);
S.cache_read(B, br, "global");
S.cache_write(bw, "global");
S.compute_at(br, xo);
S.compute_at(bw, xo);
S.parallel(xo, 64);
Stencil st((k,j,i), B[t] << S[t-1]);
"""

MSC_LEGAL = """
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
def overflow_msc(tmp_path):
    path = tmp_path / "overflow.msc"
    path.write_text(MSC_OVERFLOW)
    return str(path)


@pytest.fixture
def legal_msc(tmp_path):
    path = tmp_path / "legal.msc"
    path.write_text(MSC_LEGAL)
    return str(path)


class TestCheckCLI:
    def test_check_rejects_spm_overflow(self, overflow_msc, capsys):
        assert main(["check", overflow_msc, "--machine", "sunway"]) == 1
        out = capsys.readouterr().out
        assert "SPM001" in out and "ILLEGAL" in out

    def test_check_accepts_legal_schedule(self, legal_msc, capsys):
        assert main(["check", legal_msc, "--machine", "sunway"]) == 0
        assert "legal" in capsys.readouterr().out

    def test_check_benchmark_by_name(self, capsys):
        assert main(["check", "3d7pt_star"]) == 0
        assert "legal" in capsys.readouterr().out

    def test_check_machine_independent_without_flag(self, overflow_msc,
                                                    capsys):
        # without --machine only structural checks run; the overflow
        # is a machine (SPM) property, so the file passes
        assert main(["check", overflow_msc]) == 0

    def test_check_list_codes(self, capsys):
        assert main(["check", "--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in DIAGNOSTIC_CODES:
            assert code in out

    def test_check_mpi_grid_override(self, legal_msc, capsys):
        rc = main(["check", legal_msc, "--mpi-grid", "32,1,1"])
        assert rc == 1
        assert "MPI001" in capsys.readouterr().out


class TestGates:
    def test_simulate_gate_blocks_overflow(self):
        from repro.frontend import parse_program

        prog = parse_program(MSC_OVERFLOW).program
        with pytest.raises(DiagnosticError, match="SPM001"):
            prog.simulate("sunway", timesteps=1)

    def test_simulate_no_check_reaches_backend(self):
        from repro.frontend import parse_program

        prog = parse_program(MSC_OVERFLOW).program
        # the backend's own legacy guard still trips, but without the
        # analyzer's structured diagnostics
        with pytest.raises(ValueError) as ei:
            prog.simulate("sunway", timesteps=1, check=False)
        assert not isinstance(ei.value, DiagnosticError)

    def test_compile_gate_blocks_overflow(self, overflow_msc, tmp_path,
                                          capsys):
        rc = main(["compile", overflow_msc, "--target", "sunway",
                   "-o", str(tmp_path)])
        assert rc == 1
        assert "SPM001" in capsys.readouterr().err

    def test_compile_no_check_escape_hatch(self, overflow_msc, tmp_path,
                                           capsys):
        rc = main(["compile", overflow_msc, "--target", "sunway",
                   "-o", str(tmp_path), "--no-check"])
        captured = capsys.readouterr()
        assert "SPM001" not in captured.err

    def test_legal_program_simulates(self):
        from repro.frontend import parse_program

        prog = parse_program(MSC_LEGAL).program
        report = prog.simulate("sunway", timesteps=1)
        assert report.step_s > 0
