"""Compile-and-run verification of the pipeline C programs
(``generate_pipeline``: :class:`CCodeGenerator` over every stage)."""

import shutil
import subprocess

import numpy as np
import pytest

from repro.backend.c_codegen import generate_pipeline
from repro.backend.pipeline_exec import PipelineExecutor
from repro.ir import Kernel, SpNode, StagePipeline, Stencil, VarExpr, f64

needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="gcc not available"
)


def _jacobi_pipeline(shape=(14, 18)):
    j, i = VarExpr("j"), VarExpr("i")
    U = SpNode("U", shape, f64, halo=(1, 1), time_window=2)
    R = SpNode("R", shape, f64, halo=(1, 1), time_window=2)
    Brhs = SpNode("Brhs", shape, f64, halo=(1, 1), time_window=2)
    smooth = Kernel(
        "jacobi", (j, i),
        0.2 * U[j, i] + 0.2 * (U[j, i - 1] + U[j, i + 1]
                               + U[j - 1, i] + U[j + 1, i])
        + 0.05 * Brhs[j, i],
    )
    resid = Kernel(
        "residual", (j, i),
        Brhs[j, i] - 4.0 * U[j, i]
        + (U[j, i - 1] + U[j, i + 1] + U[j - 1, i] + U[j + 1, i]),
    )
    t = Stencil.t
    return StagePipeline((
        Stencil(U, smooth[t - 1]),
        Stencil(R, resid[t - 1]),
    ))


def _wave_pipeline(shape=(8, 10, 12), dtype=f64):
    """A two-history 3-D wave stage, then a gradient stage reading it."""
    k, j, i = VarExpr("k"), VarExpr("j"), VarExpr("i")
    U = SpNode("U", shape, dtype, halo=(1, 1, 1), time_window=3)
    G = SpNode("G", shape, dtype, halo=(1, 1, 1), time_window=2)
    wave = Kernel(
        "wave", (k, j, i),
        1.9 * U[k, j, i] + 0.01 * (
            U[k, j, i - 1] + U[k, j, i + 1] + U[k, j - 1, i]
            + U[k, j + 1, i] + U[k - 1, j, i] + U[k + 1, j, i]
        ),
    )
    ident = Kernel("ident", (k, j, i), 1.0 * U[k, j, i])
    grad = Kernel(
        "grad", (k, j, i), U[k, j, i + 1] - U[k, j, i - 1],
    )
    t = Stencil.t
    return StagePipeline((
        Stencil(U, wave[t - 1] - ident[t - 2]),
        Stencil(G, grad[t - 1]),
    ))


def _compile_run(code, tmp_path, init_arrays, steps, nout, shape):
    code.write_to(str(tmp_path))
    exe = tmp_path / code.name
    res = subprocess.run(
        ["gcc", "-O2", "-fopenmp", "-o", str(exe),
         str(tmp_path / f"{code.name}.c"), "-lm"],
        capture_output=True, text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    np.concatenate([a.ravel() for a in init_arrays]).tofile(
        str(tmp_path / "init.bin")
    )
    subprocess.run(
        [str(exe), str(tmp_path / "init.bin"), str(steps),
         str(tmp_path / "out.bin")],
        check=True, capture_output=True,
        timeout=120,
    )
    return np.fromfile(str(tmp_path / "out.bin")).reshape(nout, *shape)


class TestGeneratedStructure:
    def test_one_window_per_stage(self):
        code = generate_pipeline(_jacobi_pipeline(), "p")
        src = code.main_source
        assert "real *win_U = " in src
        assert "real *win_R = " in src
        assert "real *aux[1];" in src  # Brhs, read by both stages

    def test_stage_order_in_time_loop(self):
        src = generate_pipeline(_jacobi_pipeline(), "p").main_source
        assert (src.index("sweep_0_jacobi(dst_U,")
                < src.index("sweep_1_residual(dst_R,"))

    def test_halo_fill_between_stages(self):
        src = generate_pipeline(_jacobi_pipeline(), "p").main_source
        assert (src.index("fill_halo_U(dst_U)")
                < src.index("sweep_1_residual(dst_R,"))

    def test_residual_reads_the_fresh_smoothed_plane(self):
        # a stage reference at offset 0 is plane t of the earlier stage
        src = generate_pipeline(_jacobi_pipeline(), "p").main_source
        assert ("sweep_1_residual(dst_R, PLANE_U(win_U, t - 0), aux[0]);"
                in src)

    def test_no_accumulator_plane(self):
        src = generate_pipeline(_jacobi_pipeline(), "p").main_source
        assert "acc" not in src and "memset" not in src

    def test_balanced_braces(self):
        src = generate_pipeline(_jacobi_pipeline(), "p").main_source
        assert src.count("{") == src.count("}")


@needs_gcc
class TestCompiledPipeline:
    @pytest.mark.parametrize("boundary", ["zero", "periodic", "reflect"])
    def test_matches_python_executor(self, tmp_path, rng, boundary):
        pipe = _jacobi_pipeline()
        code = generate_pipeline(pipe, f"pipe_{boundary}",
                                 boundary=boundary)
        u0 = rng.random((14, 18))
        b = rng.random((14, 18))
        got = _compile_run(code, tmp_path, [u0, b], 5, 2, (14, 18))
        ref = PipelineExecutor(
            pipe, boundary=boundary, inputs={"Brhs": b}
        ).run({"U": [u0]}, 5)
        np.testing.assert_array_equal(got[0], ref["U"])
        np.testing.assert_array_equal(got[1], ref["R"])

    def test_3d_two_history_stage(self, tmp_path, rng):
        # a stage with two time dependencies inside a pipeline
        shape = (8, 10, 12)
        pipe = _wave_pipeline(shape)
        code = generate_pipeline(pipe, "wave3d", boundary="periodic")
        u0 = rng.random(shape)
        u1 = rng.random(shape)
        got = _compile_run(code, tmp_path, [u0, u1], 4, 2, shape)
        ref = PipelineExecutor(pipe, boundary="periodic").run(
            {"U": [u0, u1]}, 4
        )
        np.testing.assert_array_equal(got[0], ref["U"])
        np.testing.assert_array_equal(got[1], ref["G"])

    def test_zero_steps_outputs_seeds(self, tmp_path, rng):
        pipe = _jacobi_pipeline()
        code = generate_pipeline(pipe, "zero_steps")
        u0 = rng.random((14, 18))
        b = rng.random((14, 18))
        got = _compile_run(code, tmp_path, [u0, b], 0, 2, (14, 18))
        np.testing.assert_array_equal(got[0], u0)
