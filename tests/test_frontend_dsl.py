"""Tests for the embedded DSL frontend (Listing 1 vocabulary)."""

import numpy as np
import pytest

import repro as msc
from repro.frontend.dsl import Result
from repro.ir import f32, f64, i32


class TestConstructors:
    def test_defvar(self):
        v = msc.DefVar("alpha", i32)
        assert v.name == "alpha" and v.dtype_name == "i32"

    def test_indices_space_and_comma(self):
        assert [v.name for v in msc.indices("k j i")] == ["k", "j", "i"]
        assert [v.name for v in msc.indices("j, i")] == ["j", "i"]

    def test_tensor_3d_timewin(self):
        B = msc.DefTensor3D_TimeWin("B", 3, 2, f64, 32, 16, 8)
        assert B.shape == (32, 16, 8)
        assert B.halo == (2, 2, 2)
        assert B.time_window == 3

    def test_tensor_2d_default_window(self):
        A = msc.DefTensor2D("A", 1, f32, 16, 16)
        assert A.time_window == 2
        assert A.dtype is f32

    def test_mpi_shapes(self):
        assert msc.DefShapeMPI3D(4, 4, 4) == (4, 4, 4)
        assert msc.DefShapeMPI2D(2, 8) == (2, 8)
        with pytest.raises(ValueError):
            msc.DefShapeMPI2D(0, 4)

    def test_result_is_identity(self):
        B = msc.DefTensor2D("B", 1, f64, 8, 8)
        assert Result(B) is B


class TestKernelHandle:
    def _handle(self):
        k, j, i = msc.indices("k j i")
        B = msc.DefTensor3D_TimeWin("B", 3, 1, f64, 16, 16, 16)
        return B, msc.Kernel(
            "S", (k, j, i),
            0.5 * B[k, j, i] + 0.25 * (B[k, j, i - 1] + B[k, j, i + 1]),
        )

    def test_primitives_chain(self):
        B, S = self._handle()
        out = (
            S.tile(4, 4, 8, "xo", "xi", "yo", "yi", "zo", "zi")
            .reorder("xo", "yo", "zo", "xi", "yi", "zi")
            .parallel("xo", 4)
        )
        assert out is S
        assert S.schedule.tile_factors == {"k": 4, "j": 4, "i": 8}

    def test_time_application(self):
        _, S = self._handle()
        t = msc.StencilProgram.t
        app = S[t - 2]
        assert app.time_offset == -2
        assert app.kernel is S.kernel

    def test_introspection(self):
        _, S = self._handle()
        assert S.npoints == 3
        assert S.radius == (0, 0, 1)
        assert S.name == "S"


class TestStencilProgram:
    def _program(self, shape=(12, 12, 12)):
        k, j, i = msc.indices("k j i")
        B = msc.DefTensor3D_TimeWin("B", 3, 1, f64, *shape)
        S = msc.Kernel(
            "S", (k, j, i),
            0.4 * B[k, j, i] + 0.1 * (
                B[k, j, i - 1] + B[k, j, i + 1] + B[k - 1, j, i]
                + B[k + 1, j, i] + B[k, j - 1, i] + B[k, j + 1, i]
            ),
        )
        t = msc.StencilProgram.t
        return B, S, msc.StencilProgram(B, 0.6 * S[t - 1] + 0.4 * S[t - 2])

    def test_unscheduled_run_on_a_grid_is_the_serial_reference(self, rng):
        from repro.backend.numpy_backend import reference_run

        _, _, prog = self._program()
        init = [rng.random((12, 12, 12)) for _ in range(2)]
        prog.set_mpi_grid((2, 2, 1)).set_initial(init)
        got = prog.run(2, scheduled=False)
        assert prog.last_run["backend"] == "reference"
        assert got.tobytes() == reference_run(prog.ir, init, 2).tobytes()

    def test_run_without_initial_raises(self):
        _, _, prog = self._program()
        with pytest.raises(RuntimeError, match="initial"):
            prog.run(1)

    def test_scheduled_run_uses_handle_schedule(self, rng):
        B, S, prog = self._program()
        S.tile(4, 4, 6, "xo", "xi", "yo", "yi", "zo", "zi")
        init = [rng.random((12, 12, 12)) for _ in range(2)]
        prog.set_initial(init)
        got = prog.run(3)
        ref = prog.run(3, scheduled=False)
        np.testing.assert_array_equal(got, ref)

    def test_handles_auto_attached(self):
        _, S, prog = self._program()
        assert prog.schedules()["S"] is S.schedule

    def test_input_paper_style_random(self):
        B, S, prog = self._program()
        prog.input((2, 2, 1), B, "random")
        assert prog.mpi_grid == (2, 2, 1)
        assert len(prog._initial) == 2

    def test_mpi_run_matches_serial(self, rng):
        B, S, prog = self._program()
        init = [rng.random((12, 12, 12)) for _ in range(2)]
        prog.set_initial(init)
        serial = prog.run(3, scheduled=False)
        prog.set_mpi_grid((2, 1, 2))
        dist = prog.run(3)
        np.testing.assert_array_equal(dist, serial)

    def test_mpi_grid_rank_checked(self):
        _, _, prog = self._program()
        with pytest.raises(ValueError):
            prog.set_mpi_grid((2, 2))

    def test_compile_to_source_code(self):
        _, S, prog = self._program()
        code = prog.compile_to_source_code("demo", target="cpu")
        assert "demo.c" in code.files and "Makefile" in code.files

    def test_simulate_dispatch(self):
        B, S, prog = self._program(shape=(64, 64, 64))
        S.tile(2, 8, 64, "xo", "xi", "yo", "yi", "zo", "zi")
        S.reorder("xo", "yo", "zo", "xi", "yi", "zi")
        S.cache_read(B, "br").cache_write("bw")
        S.compute_at("br", "zo").compute_at("bw", "zo")
        S.parallel("xo", 64)
        r = prog.simulate("sunway")
        assert r.machine == "SW26010-CG"
        r2 = prog.simulate("cpu")
        assert r2.machine == "E5-2680v4x2"

    def test_attach_foreign_kernel_rejected(self):
        _, _, prog = self._program()
        j, i = msc.indices("j i")
        A = msc.DefTensor2D("A", 1, f64, 8, 8)
        other = msc.Kernel("other", (j, i), A[j, i])
        with pytest.raises(ValueError, match="not part"):
            prog.attach(other)


class TestUnsupportedRuns:
    """Each row of the one table of runs no engine executes raises its
    named error before any work; ``auto`` steps around the native
    rows."""

    def _program(self, rng, grid=(2, 2), boundary="zero"):
        j, i = msc.indices("j i")
        A = msc.DefTensor2D("A", 1, f64, 8, 8)
        K = msc.Kernel("K", (j, i), 0.5 * A[j, i] + 0.25 * A[j, i - 1])
        prog = msc.StencilProgram(A, K[msc.StencilProgram.t - 1],
                                  boundary=boundary)
        if grid:
            prog.set_mpi_grid(grid)
        return prog.set_initial([rng.random((8, 8))])

    @pytest.mark.parametrize("grid, boundary, kw, row", [
        ((2, 2), "zero", {"backend": "native"}, "native x MPI grid"),
        ((2, 2), "reflect", {}, "boundary x MPI grid"),
        (None, "zero", {"exchange_mode": "diag"},
         "exchange_mode x single node"),
        ((2, 2), "zero", {"exchange_mode": "diag", "scheduled": False},
         "exchange_mode x single node"),
    ])
    def test_row_raises(self, rng, grid, boundary, kw, row):
        from repro.runtime.executor import UnsupportedRun

        prog = self._program(rng, grid, boundary)
        with pytest.raises(UnsupportedRun, match=f"^{row}: "):
            prog.run(1, **kw)
        assert prog.last_run == {}

    def test_distributed_run_consults_the_table(self, rng):
        from repro.runtime.executor import UnsupportedRun, distributed_run

        prog = self._program(rng, None)
        with pytest.raises(UnsupportedRun,
                           match="^boundary x MPI grid: .*'reflect'"):
            distributed_run(prog.ir, prog._initial, 1, (2, 2),
                            boundary="reflect")

    def test_auto_on_a_grid_runs_numpy(self, rng):
        prog = self._program(rng)
        prog.run(1, backend="auto")
        assert prog.last_run["backend"] == "numpy"
        assert prog.last_run["reason"].startswith("auto: native x MPI grid")

    def test_every_row_is_reachable(self):
        from repro.runtime.executor import UNSUPPORTED, unsupported

        runs = [dict(backend="native", distributed=False, stages=2),
                dict(backend="native", distributed=True),
                dict(backend="numpy", distributed=True, boundary="reflect"),
                dict(backend="numpy", distributed=False,
                     exchange_mode="basic")]
        hit = [unsupported(**run).split(":")[0] for run in runs]
        assert hit == [row for row, _hits, _why in UNSUPPORTED]
        assert unsupported("native", False) is None
