"""Tests for runtime scalar coefficients (free DefVar symbols)."""

import shutil
import subprocess

import numpy as np
import pytest

import repro as msc
from repro.backend.numpy_backend import (
    ScheduledExecutor,
    evaluate_kernel,
    reference_run,
)
from repro.backend import (
    generate,
    generate_mpi,
    generate_pipeline,
    generate_sunway,
)
from repro.ir import Kernel, SpNode, StagePipeline, Stencil, VarExpr, f64
from repro.ir.analysis import free_scalars
from repro.ir.expr import ConstExpr

needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="gcc not available"
)


def _scalar_program(shape=(12, 16)):
    j, i = msc.indices("j i")
    c0 = msc.DefVar("c0", msc.f64)
    c1 = msc.DefVar("c1", msc.f64)
    A = msc.DefTensor2D_TimeWin("A", 2, 1, msc.f64, *shape)
    K = msc.Kernel(
        "K", (j, i), c0 * A[j, i] + c1 * (A[j, i - 1] + A[j, i + 1])
    )
    t = msc.StencilProgram.t
    prog = msc.StencilProgram(A, K[t - 1], boundary="periodic")
    return prog, A


class TestFreeScalarDiscovery:
    def test_finds_coefficients_not_indices(self):
        prog, _ = _scalar_program()
        assert free_scalars(prog.ir) == ["c0", "c1"]

    def test_literal_kernel_has_none(self, stencil_3d7pt_2dep):
        assert free_scalars(stencil_3d7pt_2dep) == []

    def test_unknown_scalar_name_rejected(self):
        prog, _ = _scalar_program()
        with pytest.raises(ValueError,
                           match=r"'foo'; .* are \['c0', 'c1'\]"):
            prog.set_scalar("foo", 3.0)
        assert prog._scalars == {}
        prog.set_scalar("c1", 0.5)
        assert prog._scalars == {"c1": 0.5}

    def test_a_later_stage_scalar_is_known(self):
        prog, A = _scalar_program()
        j, i = msc.indices("j i")
        R = msc.DefTensor2D("R", 1, msc.f64, 12, 16)
        w = msc.DefVar("w", msc.f64)
        scale = Kernel("scale", (j, i), w * A[j, i])
        t = Stencil.t
        pipe = msc.StencilProgram.of(
            StagePipeline((prog.ir, Stencil(R, scale[t - 1]))))
        pipe.set_scalar("w", 2.0).set_scalar("c0", 1.0)
        with pytest.raises(ValueError, match=r"\['c0', 'c1', 'w'\]"):
            pipe.set_scalar("v", 1.0)


class TestEvaluation:
    def test_evaluate_kernel_binds_scalars(self):
        j, i = VarExpr("j"), VarExpr("i")
        w = VarExpr("w", "f64")
        A = SpNode("A", (4, 4), f64, halo=(1, 1))
        kern = Kernel("k", (j, i), w * A[j, i])
        padded = np.ones((6, 6))
        out = evaluate_kernel(
            kern, {("A", 0): padded}, {"A": (1, 1)},
            scalars={"w": 3.0},
        )
        assert (out == 3.0).all()

    def test_unbound_scalar_reported(self):
        j, i = VarExpr("j"), VarExpr("i")
        w = VarExpr("w", "f64")
        A = SpNode("A", (4, 4), f64, halo=(1, 1))
        kern = Kernel("k", (j, i), w * A[j, i])
        with pytest.raises(KeyError, match="no bound value"):
            evaluate_kernel(
                kern, {("A", 0): np.ones((6, 6))}, {"A": (1, 1)}
            )

    def test_scalar_equals_literal_version(self, rng):
        prog, A = _scalar_program()
        prog.set_scalar("c0", 0.5).set_scalar("c1", 0.25)
        a0 = rng.random((12, 16))
        prog.set_initial([a0])
        got = prog.run(4)

        j, i = msc.indices("j i")
        B = msc.DefTensor2D_TimeWin("A", 2, 1, msc.f64, 12, 16)
        lit = msc.Kernel(
            "lit", (j, i), 0.5 * B[j, i] + 0.25 * (B[j, i - 1]
                                                   + B[j, i + 1])
        )
        st = Stencil(B, lit[Stencil.t - 1])
        ref = reference_run(st, [a0], 4, boundary="periodic")
        np.testing.assert_array_equal(got, ref)

    def test_distributed_scalars(self, rng):
        prog, _ = _scalar_program((16, 16))
        prog.set_scalar("c0", 0.4).set_scalar("c1", 0.3)
        a0 = rng.random((16, 16))
        prog.set_initial([a0])
        serial = prog.run(3)
        prog.set_mpi_grid((2, 2))
        dist = prog.run(3)
        np.testing.assert_array_equal(dist, serial)

    def test_scheduled_executor_scalars(self, rng):
        prog, _ = _scalar_program()
        a0 = rng.random((12, 16))
        ref = reference_run(prog.ir, [a0], 3, boundary="periodic",
                            scalars={"c0": 0.6, "c1": 0.2})
        ex = ScheduledExecutor(prog.ir, {}, boundary="periodic",
                               scalars={"c0": 0.6, "c1": 0.2})
        got = ex.run([a0], 3)
        np.testing.assert_array_equal(got, ref)


class TestCodegen:
    def test_constants_emitted(self):
        """Scalars reach C as the folded literals, not as declarations."""
        prog, _ = _scalar_program()
        prog.set_scalar("c0", 0.5).set_scalar("c1", 0.25)
        src = prog.compile_to_source_code("s", target="cpu").main_source
        assert "((real)0.5) * AT_A(" in src
        assert "((real)0.25) * (AT_A(" in src
        assert "c0" not in src and "c1" not in src

    def test_missing_scalar_rejected_at_codegen(self):
        prog, _ = _scalar_program()
        with pytest.raises(ValueError, match="runtime scalars"):
            prog.compile_to_source_code("s", target="cpu")

    @needs_gcc
    def test_compiled_matches_python(self, tmp_path, rng):
        prog, _ = _scalar_program()
        prog.set_scalar("c0", 0.5).set_scalar("c1", 0.25)
        code = prog.compile_to_source_code("sc", target="cpu")
        code.write_to(str(tmp_path))
        subprocess.run(
            ["gcc", "-O2", "-fopenmp", "-o", str(tmp_path / "sc"),
             str(tmp_path / "sc.c"), "-lm"],
            check=True, capture_output=True,
            timeout=120,
        )
        a0 = rng.random((12, 16))
        a0.ravel().tofile(str(tmp_path / "i.bin"))
        subprocess.run(
            [str(tmp_path / "sc"), str(tmp_path / "i.bin"), "4",
             str(tmp_path / "o.bin")],
            check=True, capture_output=True,
            timeout=120,
        )
        got = np.fromfile(str(tmp_path / "o.bin")).reshape(12, 16)
        prog.set_initial([a0])
        ref = prog.run(4, scheduled=False)
        np.testing.assert_array_equal(got, ref)


def _mixed_constants(A, j, i, c0, c1):
    """What no Table-4 program has: runtime scalars, an int-only and a
    scalar-only sub-tree."""
    return ((c0 / 2) * A[j, i] + (c0 * c1) * (A[j, i - 1] + A[j, i + 1])
            + (ConstExpr(1) / 4) * A[j - 1, i])


def _emitter_program(expression=_mixed_constants):
    """``expression`` under a schedule every target accepts."""
    j, i = msc.indices("j i")
    c0 = msc.DefVar("c0", msc.f64)
    c1 = msc.DefVar("c1", msc.f64)
    A = msc.DefTensor2D_TimeWin("A", 2, 1, msc.f64, 16, 64)
    K = msc.Kernel("K", (j, i), expression(A, j, i, c0, c1))
    K.tile(8, 32, "xo", "xi", "yo", "yi").reorder("xo", "yo", "xi", "yi")
    K.cache_read(A, "buffer_read", "global")
    K.cache_write("buffer_write", "global")
    K.compute_at("buffer_read", "yo").compute_at("buffer_write", "yo")
    K.parallel("xo", 64)
    t = msc.StencilProgram.t
    return msc.StencilProgram(A, K[t - 1], boundary="periodic")


#: per emitter: ``bundle(program, scalars)`` and the stub it builds with
_EMITTERS = {
    "cpu": (lambda prog, scalars: generate(
        prog.ir, prog.schedules(), "b", "cpu", "periodic",
        scalars=scalars), "-fopenmp"),
    "mpi": (lambda prog, scalars: generate_mpi(
        prog.ir, prog.schedules(), "b", (1, 1), "periodic", scalars),
        "-DMSC_MPI_STUB"),
    "sunway": (lambda prog, scalars: generate_sunway(
        prog.ir, prog.schedules(), "b", "periodic", scalars),
        "-DMSC_ATHREAD_STUB"),
    "pipeline": (lambda prog, scalars: generate_pipeline(
        StagePipeline((prog.ir,)), "b", "periodic", scalars=scalars),
        "-fopenmp"),
}


@pytest.mark.parametrize("emitter", _EMITTERS)
class TestScalarsReachEveryEmitter:
    def test_unbound_scalar_is_the_same_error(self, emitter):
        bundle, _ = _EMITTERS[emitter]
        with pytest.raises(ValueError, match=r"runtime scalars \['c1'\] "
                           r"with no bound values; pass scalars="):
            bundle(_emitter_program(), {"c0": 0.5})

    def test_scalar_made_division_by_zero_raises_as_the_oracle(self, emitter):
        """``1 / c0`` is folded by the one fold whoever asks: numpy and
        every emitter raise the oracle's exception for ``c0 = 0``."""
        bundle, _ = _EMITTERS[emitter]
        prog = _emitter_program(
            lambda A, j, i, c0, _c1: (1 / c0) * A[j, i] + 0.5 * A[j, i - 1])
        init, scalars = [np.ones((16, 64))], {"c0": 0}
        with pytest.raises(ZeroDivisionError):
            reference_run(prog.ir, init, 1, "periodic", scalars=scalars)
        with pytest.raises(ZeroDivisionError):
            ScheduledExecutor(prog.ir, {}, "periodic",
                              scalars=scalars).run(init, 1)
        with pytest.raises(ZeroDivisionError):
            bundle(prog, scalars)

    @needs_gcc
    def test_bundle_compiles_and_matches_reference(self, emitter, tmp_path,
                                                   rng):
        bundle, flag = _EMITTERS[emitter]
        prog = _emitter_program()
        scalars = {"c0": 0.3, "c1": 0.7}
        code = bundle(prog, scalars)
        code.write_to(str(tmp_path))
        sources = [str(tmp_path / f) for f in code.files if f.endswith(".c")]
        assert not any("c0" in code.files[f] or "c1" in code.files[f]
                       for f in code.files if f.endswith(".c"))
        built = subprocess.run(
            ["gcc", "-O2", flag, *sources, "-o", str(tmp_path / "prog"),
             "-lm", "-I", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert built.returncode == 0, built.stderr
        a0 = rng.random((16, 64))
        a0.tofile(str(tmp_path / "i.bin"))
        subprocess.run(
            [str(tmp_path / "prog"), str(tmp_path / "i.bin"), "4",
             str(tmp_path / "o.bin")],
            check=True, capture_output=True, timeout=120,
        )
        got = np.fromfile(str(tmp_path / "o.bin")).reshape(16, 64)
        ref = reference_run(prog.ir, [a0], 4, "periodic", scalars=scalars)
        assert got.tobytes() == ref.tobytes()
