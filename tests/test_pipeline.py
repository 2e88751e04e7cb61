"""Tests for multi-stage pipelines (STELLA-style, Sec. 2.4)."""

import numpy as np
import pytest

from repro.frontend import StencilProgram
from repro.ir import (
    Kernel,
    SpNode,
    StagePipeline,
    Stencil,
    ValidationError,
    VarExpr,
    f64,
)


def _tensors(shape=(16, 16)):
    U = SpNode("U", shape, f64, halo=(1, 1), time_window=2)
    R = SpNode("R", shape, f64, halo=(1, 1), time_window=2)
    return U, R


def _run(pipe, seeds, steps, boundary="zero", grid=None, inputs=None):
    """``steps`` of ``pipe`` through the one run entry,
    ``StencilProgram.run`` (distributed over ``grid`` when given)."""
    prog = StencilProgram.of(pipe, boundary).set_initial(seeds)
    for name, data in (inputs or {}).items():
        prog.set_input(name, data)
    if grid is not None:
        prog.set_mpi_grid(grid)
    return prog.run(steps)


def _smoother_residual(shape=(16, 16)):
    """HPGMG-style two-stage pipeline: Jacobi smooth, then residual."""
    U, R = _tensors(shape)
    j, i = VarExpr("j"), VarExpr("i")
    smooth = Kernel(
        "smooth", (j, i),
        0.5 * U[j, i] + 0.125 * (U[j, i - 1] + U[j, i + 1]
                                 + U[j - 1, i] + U[j + 1, i]),
    )
    resid = Kernel(
        "resid", (j, i),
        4.0 * U[j, i] - (U[j, i - 1] + U[j, i + 1]
                         + U[j - 1, i] + U[j + 1, i]),
    )
    t = Stencil.t
    return StagePipeline((
        Stencil(U, smooth[t - 1]),
        Stencil(R, resid[t - 1]),
    ))


class TestValidation:
    def test_valid_pipeline(self):
        pipe = _smoother_residual()
        assert pipe.nstages == 2
        assert [o.name for o in pipe.outputs] == ["U", "R"]

    def test_required_history(self):
        pipe = _smoother_residual()
        assert pipe.required_history() == {"U": 1, "R": 0}

    def test_duplicate_outputs_rejected(self):
        U, _ = _tensors()
        j, i = VarExpr("j"), VarExpr("i")
        k = Kernel("k", (j, i), U[j, i])
        s = Stencil(U, k[Stencil.t - 1])
        with pytest.raises(ValueError, match="distinct"):
            StagePipeline((s, s))

    def test_forward_reference_rejected(self):
        # stage 1 reads stage 2's current-step output
        U, R = _tensors()
        j, i = VarExpr("j"), VarExpr("i")
        uses_r = Kernel("uses_r", (j, i), R[j, i] + U[j, i])
        makes_r = Kernel("makes_r", (j, i), 1.0 * U[j, i])
        t = Stencil.t
        with pytest.raises(ValidationError, match="runs later"):
            StagePipeline((
                Stencil(U, uses_r[t - 1]),
                Stencil(R, makes_r[t - 1]),
            ))

    def test_previous_step_cross_read_allowed(self):
        # stage 1 may read stage 2's *previous* output (offset -1)
        U, R = _tensors()
        j, i = VarExpr("j"), VarExpr("i")
        uses_r_old = Kernel(
            "uses_r_old", (j, i), R.at(-1)[j, i] + U[j, i]
        )
        makes_r = Kernel("makes_r", (j, i), 1.0 * U[j, i])
        t = Stencil.t
        pipe = StagePipeline((
            Stencil(U, uses_r_old[t - 1]),
            Stencil(R, makes_r[t - 1]),
        ))
        assert pipe.required_history() == {"U": 1, "R": 1}

    def test_shape_mismatch_rejected(self):
        U = SpNode("U", (16, 16), f64, halo=(1, 1), time_window=2)
        R = SpNode("R", (8, 8), f64, halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        t = Stencil.t
        with pytest.raises(ValidationError, match="domain shape"):
            StagePipeline((
                Stencil(U, Kernel("a", (j, i), 1.0 * U[j, i])[t - 1]),
                Stencil(R, Kernel("b", (j, i), 1.0 * R[j, i])[t - 1]),
            ))

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StagePipeline(())

    def test_aux_tensors_detected(self):
        U, R = _tensors()
        C = SpNode("C", (16, 16), f64, halo=(0, 0), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        t = Stencil.t
        pipe = StagePipeline((
            Stencil(U, Kernel("a", (j, i), C[j, i] * U[j, i])[t - 1]),
            Stencil(R, Kernel("b", (j, i), 1.0 * U[j, i])[t - 1]),
        ))
        assert set(pipe.aux_tensors()) == {"C"}


class TestSerialExecution:
    def test_matches_manual_two_stage(self, rng):
        pipe = _smoother_residual()
        u0 = rng.random((16, 16))
        res = _run(pipe, {"U": [u0]}, 3, boundary="periodic")

        def wrap(a):
            p = np.zeros((18, 18))
            p[1:17, 1:17] = a
            p[0, 1:17] = a[-1]
            p[17, 1:17] = a[0]
            p[1:17, 0] = a[:, -1]
            p[1:17, 17] = a[:, 0]
            return p

        u = u0.copy()
        for _ in range(3):
            p = wrap(u)
            u = 0.5 * p[1:17, 1:17] + 0.125 * (
                p[1:17, 0:16] + p[1:17, 2:18]
                + p[0:16, 1:17] + p[2:18, 1:17]
            )
        p = wrap(u)
        r = 4 * p[1:17, 1:17] - (
            p[1:17, 0:16] + p[1:17, 2:18] + p[0:16, 1:17] + p[2:18, 1:17]
        )
        np.testing.assert_allclose(res["U"], u, rtol=1e-13)
        np.testing.assert_allclose(res["R"], r, rtol=1e-12, atol=1e-12)

    def test_missing_seed_rejected(self):
        pipe = _smoother_residual()
        with pytest.raises(ValueError, match="seed"):
            _run(pipe, {}, 1)

    def test_missing_aux_rejected(self, rng):
        U, R = _tensors()
        C = SpNode("C", (16, 16), f64, halo=(0, 0), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        t = Stencil.t
        pipe = StagePipeline((
            Stencil(U, Kernel("a", (j, i), C[j, i] * U[j, i])[t - 1]),
            Stencil(R, Kernel("b", (j, i), 1.0 * U[j, i])[t - 1]),
        ))
        with pytest.raises(ValueError, match="auxiliary"):
            _run(pipe, {"U": [rng.random((16, 16))]}, 1)

    def test_single_stage_equals_reference_run(self, rng):
        from repro.backend.numpy_backend import reference_run

        U = SpNode("U", (12, 12), f64, halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        k = Kernel(
            "k", (j, i),
            0.6 * U[j, i] + 0.1 * (U[j, i - 1] + U[j, i + 1]
                                   + U[j - 1, i] + U[j + 1, i]),
        )
        st = Stencil(U, k[Stencil.t - 1])
        pipe = StagePipeline((st,))
        u0 = rng.random((12, 12))
        res = _run(pipe, {"U": [u0]}, 4, boundary="zero")
        ref = reference_run(st, [u0], 4, boundary="zero")
        np.testing.assert_array_equal(res, ref)


class TestDistributedExecution:
    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_matches_serial(self, rng, boundary):
        pipe = _smoother_residual((20, 24))
        u0 = rng.random((20, 24))
        serial = _run(pipe, {"U": [u0]}, 4, boundary=boundary)
        dist = _run(pipe, {"U": [u0]}, 4, boundary=boundary, grid=(2, 3))
        for name in ("U", "R"):
            np.testing.assert_array_equal(dist[name], serial[name])

    def test_three_stage_chain(self, rng):
        shape = (16, 16)
        A = SpNode("A", shape, f64, halo=(1, 1), time_window=2)
        Bt = SpNode("Bt", shape, f64, halo=(1, 1), time_window=2)
        Ct = SpNode("Ct", shape, f64, halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        t = Stencil.t
        pipe = StagePipeline((
            Stencil(A, Kernel(
                "s1", (j, i),
                0.5 * A[j, i] + 0.25 * (A[j, i - 1] + A[j, i + 1]),
            )[t - 1]),
            Stencil(Bt, Kernel(
                "s2", (j, i),
                0.5 * A[j, i] + 0.25 * (A[j - 1, i] + A[j + 1, i]),
            )[t - 1]),
            Stencil(Ct, Kernel(
                "s3", (j, i), 2.0 * Bt[j, i] - A[j, i],
            )[t - 1]),
        ))
        a0 = rng.random(shape)
        serial = _run(pipe, {"A": [a0]}, 3, boundary="periodic")
        dist = _run(pipe, {"A": [a0]}, 3, boundary="periodic", grid=(2, 2))
        for name in ("A", "Bt", "Ct"):
            np.testing.assert_array_equal(dist[name], serial[name])


class TestOneEntry:
    """A pipeline runs, checks and compiles through ``StencilProgram``
    exactly as a stencil does."""

    def test_declared_schedules_tile_the_run_bitwise(self, rng):
        from repro.backend.numpy_backend import ScheduledExecutor
        from repro.schedule import Schedule

        pipe = _smoother_residual((16, 24))
        seeds = {"U": [rng.random((16, 24))]}
        resid = pipe.stages[1].kernels[0]
        tiled = ScheduledExecutor(pipe, {
            "resid": Schedule(resid).tile(4, 8, "xo", "xi", "yo", "yi"),
        }, "periodic")
        got = tiled.run(seeds, 3)
        ref = _run(pipe, seeds, 3, boundary="periodic")
        assert tiled.engine.plan_stats["bind"] > 2 * 8
        for name in ("U", "R"):
            assert got[name].tobytes() == ref[name].tobytes()

    def test_unscheduled_run_is_the_untiled_engine(self, rng):
        pipe = _smoother_residual()
        prog = StencilProgram.of(pipe).set_initial(
            {"U": [rng.random((16, 16))]})
        ref = prog.run(2)
        got = prog.run(2, scheduled=False)
        assert prog.last_run["backend"] == "numpy"
        assert got["R"].tobytes() == ref["R"].tobytes()

    def test_native_is_a_table_row(self, rng):
        from repro.backend.native import NativeExecutor
        from repro.runtime.executor import UnsupportedRun

        pipe = _smoother_residual()
        prog = StencilProgram.of(pipe).set_initial(
            {"U": [rng.random((16, 16))]})
        with pytest.raises(UnsupportedRun, match="^native x pipeline: "):
            prog.run(1, backend="native")
        with pytest.raises(UnsupportedRun, match="^native x pipeline: "):
            NativeExecutor(pipe, {})
        prog.run(1, backend="auto")
        assert prog.last_run["backend"] == "numpy"
        assert prog.last_run["reason"].startswith("auto: native x pipeline")

    def test_a_list_of_seeds_is_the_first_stage_s(self, rng):
        prog = StencilProgram.of(_smoother_residual())
        assert prog.history == {"U": 1, "R": 0}
        u0 = rng.random((16, 16))
        got = prog.set_initial([u0]).run(2)
        want = prog.set_initial({"U": [u0]}).run(2)
        assert got["R"].tobytes() == want["R"].tobytes()

    def test_compile_is_the_pipeline_program(self):
        from repro.backend.targets import generate

        pipe = _smoother_residual()
        got = StencilProgram.of(pipe).compile_to_source_code("p").files
        assert got == generate(pipe, {}, "p").files
        with pytest.raises(ValueError, match="2-stage pipeline"):
            StencilProgram.of(pipe).compile_to_source_code(
                "p", target="sunway")
