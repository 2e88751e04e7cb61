"""Tests for the vectorize / unroll scheduling primitives."""

import shutil
import subprocess

import numpy as np
import pytest

from repro.backend import CCodeGenerator
from repro.backend.numpy_backend import reference_run
from repro.frontend.lang import parse_program
from repro.ir import Stencil
from repro.machine import simulate_sunway
from repro.schedule import Schedule, ScheduleError
from tests.conftest import make_3d7pt

needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="gcc not available"
)


def _sched(kern, vec=None, unrolls=()):
    s = Schedule(kern)
    s.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
    s.reorder("xo", "yo", "zo", "xi", "yi", "zi")
    if vec:
        s.vectorize(vec)
    for axis, factor in unrolls:
        s.unroll(axis, factor)
    return s


class TestScheduleValidity:
    def test_vectorize_innermost_ok(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        s = _sched(kern, vec="zi")
        nest = s.lower((16, 16, 16))
        assert nest.vectorized_axis == "zi"

    def test_vectorize_non_innermost_rejected_at_lowering(
            self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        s = _sched(kern, vec="yi")
        with pytest.raises(ScheduleError, match="innermost"):
            s.lower((16, 16, 16))

    def test_vectorize_unknown_axis(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        with pytest.raises(ScheduleError, match="unknown axis"):
            Schedule(kern).vectorize("vv")

    def test_double_vectorize_rejected(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        s = _sched(kern, vec="zi")
        with pytest.raises(ScheduleError, match="one axis"):
            s.vectorize("yi")

    def test_unroll_records_factor(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        s = _sched(kern, unrolls=[("yi", 4)])
        assert s.unroll_factors == {"yi": 4}

    def test_unroll_factor_bounds(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        with pytest.raises(ValueError):
            _sched(kern, unrolls=[("yi", 1)])

    def test_double_unroll_rejected(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        s = _sched(kern, unrolls=[("yi", 2)])
        with pytest.raises(ScheduleError, match="already unrolled"):
            s.unroll("yi", 4)


class TestCodegen:
    def test_simd_pragma_emitted(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        s = _sched(kern, vec="zi")
        src = CCodeGenerator(
            stencil_3d7pt_2dep, {kern.name: s}
        ).generate("v").main_source
        assert "#pragma omp simd" in src
        assert src.index("#pragma omp simd") < src.index("for (long zi")

    def test_unroll_pragma_emitted(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        s = _sched(kern, unrolls=[("yi", 4)])
        src = CCodeGenerator(
            stencil_3d7pt_2dep, {kern.name: s}
        ).generate("u").main_source
        assert "#pragma GCC unroll 4" in src

    @needs_gcc
    def test_vectorized_program_still_exact(self, tmp_path, rng):
        tensor, kern = make_3d7pt(shape=(12, 12, 16))
        st = Stencil(tensor, 0.6 * kern[Stencil.t - 1]
                     + 0.4 * kern[Stencil.t - 2])
        s = Schedule(kern)
        s.tile(4, 4, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        s.reorder("xo", "yo", "zo", "xi", "yi", "zi")
        s.vectorize("zi")
        s.unroll("yi", 2)
        code = CCodeGenerator(st, {kern.name: s},
                              boundary="periodic").generate("vec")
        code.write_to(str(tmp_path))
        subprocess.run(
            ["gcc", "-O2", "-fopenmp", "-o", str(tmp_path / "vec"),
             str(tmp_path / "vec.c"), "-lm"],
            check=True, capture_output=True,
            timeout=120,
        )
        init = [rng.random((12, 12, 16)) for _ in range(2)]
        np.concatenate([p.ravel() for p in init]).tofile(
            str(tmp_path / "i.bin")
        )
        subprocess.run(
            [str(tmp_path / "vec"), str(tmp_path / "i.bin"), "4",
             str(tmp_path / "o.bin")],
            check=True, capture_output=True,
            timeout=120,
        )
        got = np.fromfile(str(tmp_path / "o.bin")).reshape(12, 12, 16)
        ref = reference_run(st, init, 4, boundary="periodic")
        np.testing.assert_allclose(got, ref, rtol=1e-13)

    @needs_gcc
    def test_vectorize_and_unroll_of_one_axis_stopped_at_the_gate(self):
        """gcc rejects ``omp simd`` and ``GCC unroll`` on one loop, so
        the run must fail on VEC002 before anything is compiled."""
        from repro.analysis.diagnostics import DiagnosticError
        from repro.frontend.stencils import build_benchmark

        prog, handle = build_benchmark("2d9pt_star", grid=(32, 32))
        handle.vectorize("i")
        handle.unroll("i", 4)
        prog.set_initial([np.ones((32, 32))] * 2)
        assert [d.code for d in prog.check("cpu").errors] == ["VEC002"]
        with pytest.raises(DiagnosticError, match="VEC002"):
            prog.run(2, backend="native")

    def test_vectorize_and_unroll_of_one_axis_legal_off_the_cpu(self):
        """The Sunway printer puts no ``omp simd`` on the loop and a
        distributed run compiles nothing: VEC002 must stop neither."""
        from repro.evalsuite.harness import build_with_schedule

        prog, handle = build_with_schedule("2d9pt_star", "sunway",
                                           grid=(64, 64))
        handle.vectorize("yi")
        handle.unroll("yi", 4)
        assert not prog.check("sunway").by_code("VEC002")
        assert not prog.check().by_code("VEC002")
        code = prog.compile_to_source_code("vu", target="sunway")
        assert not any("omp simd" in src for src in code.files.values())
        assert prog.simulate("sunway", 2).timesteps == 2
        init = [np.random.default_rng(0).random((64, 64))
                for _ in range(2)]
        prog.set_initial(init).set_mpi_grid((2, 1))
        np.testing.assert_array_equal(
            prog.run(2), reference_run(prog.ir, init, 2, prog.boundary))


class TestSimulatorEffect:
    def test_vectorization_speeds_up_compute_bound(self):
        # 2d169pt is compute-bound on Sunway: vectorizing helps
        from repro.evalsuite.harness import build_with_schedule

        prog, handle = build_with_schedule("2d169pt_box", "sunway")
        base = simulate_sunway(prog.ir, handle.schedule)
        prog2, handle2 = build_with_schedule("2d169pt_box", "sunway")
        handle2.vectorize("yi")
        fast = simulate_sunway(prog2.ir, handle2.schedule)
        assert fast.step_s < base.step_s
        assert fast.compute_s < base.compute_s


class TestLangIntegration:
    def test_textual_vectorize(self):
        src = """
        DefVar(j, i32); DefVar(i, i32);
        DefTensor2D(A, 1, f64, 16, 16);
        Kernel S((j,i), 0.5*A[j,i] + 0.25*A[j,i-1] + 0.25*A[j,i+1]);
        S.tile(4, 8, xo, xi, yo, yi);
        S.reorder(xo, yo, xi, yi);
        S.vectorize(yi);
        S.unroll(xi, 2);
        Stencil st((j,i), A[t] << S[t-1]);
        """
        parsed = parse_program(src)
        sched = parsed.kernels["S"].schedule
        assert sched.vectorized_axis == "yi"
        assert sched.unroll_factors == {"xi": 2}
