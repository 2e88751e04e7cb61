"""Tests for AOT C code generation: structure + compile-and-run vs numpy.

The CPU/OpenMP programs are compiled with gcc and executed; their output
must match the numpy reference bit-for-bit (both evaluate the same IEEE
expressions in the same order per point).
"""

import re
import shutil
import subprocess

import numpy as np
import pytest

from repro.backend import CCodeGenerator, generate, generate_makefile
from repro.backend.native import SharedLibGenerator
from repro.backend.numpy_backend import reference_run
from repro.evalsuite.harness import build_with_schedule
from repro.frontend.stencils import BENCHMARK_NAMES
from repro.ir import Stencil, ValidationError, f32, f64
from repro.schedule import Schedule
from tests.conftest import make_2d5pt, make_3d7pt

GCC = shutil.which("gcc")

needs_gcc = pytest.mark.skipif(GCC is None, reason="gcc not available")


def _compile_and_run(code, tmp_path, init, steps, shape, np_dtype,
                     use_openmp=True):
    code.write_to(str(tmp_path))
    src = tmp_path / f"{code.name}.c"
    exe = tmp_path / code.name
    cmd = [GCC, "-O2", "-o", str(exe), str(src), "-lm"]
    if use_openmp:
        cmd.insert(1, "-fopenmp")
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    init_file = tmp_path / "init.bin"
    out_file = tmp_path / "out.bin"
    np.concatenate([p.ravel() for p in init]).astype(np_dtype).tofile(
        str(init_file)
    )
    res = subprocess.run(
        [str(exe), str(init_file), str(steps), str(out_file)],
        capture_output=True, text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return np.fromfile(str(out_file), dtype=np_dtype).reshape(shape)


@needs_gcc
class TestCompiledExecution:
    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_3d_two_time_deps(self, tmp_path, rng, boundary):
        tensor, kern = make_3d7pt(shape=(12, 10, 14))
        st = Stencil(tensor, 0.6 * kern[Stencil.t - 1]
                     + 0.4 * kern[Stencil.t - 2])
        sched = Schedule(kern)
        sched.tile(4, 5, 7, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.reorder("xo", "yo", "zo", "xi", "yi", "zi")
        sched.parallel("xo", 4)
        gen = CCodeGenerator(st, {kern.name: sched}, boundary=boundary)
        code = gen.generate(f"t3d_{boundary}")
        init = [rng.random((12, 10, 14)) for _ in range(2)]
        got = _compile_and_run(code, tmp_path, init, 6, (12, 10, 14),
                               np.float64)
        ref = reference_run(st, init, 6, boundary=boundary)
        np.testing.assert_array_equal(got, ref)

    def test_2d_single_dep_untiled(self, tmp_path, rng):
        tensor, kern = make_2d5pt(shape=(20, 24))
        st = Stencil(tensor, kern[Stencil.t - 1])
        gen = CCodeGenerator(st, {}, boundary="periodic")
        code = gen.generate("t2d")
        init = [rng.random((20, 24))]
        got = _compile_and_run(code, tmp_path, init, 5, (20, 24),
                               np.float64, use_openmp=False)
        ref = reference_run(st, init, 5, boundary="periodic")
        np.testing.assert_array_equal(got, ref)

    def test_fp32_program(self, tmp_path, rng):
        tensor, kern = make_3d7pt(shape=(8, 8, 8), dtype=f32)
        st = Stencil(tensor, 0.5 * kern[Stencil.t - 1]
                     + 0.5 * kern[Stencil.t - 2])
        gen = CCodeGenerator(st, {}, boundary="zero")
        code = gen.generate("t32")
        init = [rng.random((8, 8, 8)).astype(np.float32) for _ in range(2)]
        got = _compile_and_run(code, tmp_path, init, 3, (8, 8, 8),
                               np.float32)
        ref = reference_run(st, init, 3, boundary="zero")
        # Sec. 5.1 correctness criterion for fp32
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-30)
        assert rel.max() < 1e-5

    def test_zero_steps(self, tmp_path, rng):
        tensor, kern = make_2d5pt(shape=(6, 6))
        st = Stencil(tensor, kern[Stencil.t - 1])
        code = CCodeGenerator(st, {}).generate("t0")
        init = [rng.random((6, 6))]
        got = _compile_and_run(code, tmp_path, init, 0, (6, 6), np.float64,
                               use_openmp=False)
        np.testing.assert_array_equal(got, init[0])


class TestGeneratedStructure:
    def test_openmp_pragma_on_parallel_axis(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        sched = Schedule(kern)
        sched.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.parallel("xo", 8)
        code = CCodeGenerator(
            stencil_3d7pt_2dep, {kern.name: sched}
        ).generate("p")
        src = code.main_source
        assert "#pragma omp parallel for num_threads(8)" in src
        assert src.index("#pragma omp") < src.index("for (long xo")

    def test_window_modulo_addressing(self, stencil_3d7pt_2dep):
        code = CCodeGenerator(stencil_3d7pt_2dep, {}).generate("w")
        assert "#define TWIN 3" in code.main_source
        assert "% TWIN" in code.main_source

    def test_balanced_braces(self, stencil_3d7pt_2dep):
        src = CCodeGenerator(stencil_3d7pt_2dep, {}).generate("b").main_source
        assert src.count("{") == src.count("}")

    def test_combination_scales_emitted(self, stencil_3d7pt_2dep):
        src = CCodeGenerator(stencil_3d7pt_2dep, {}).generate("c").main_source
        assert "(real)0.6" in src and "(real)0.4" in src

    def test_reflect_boundary_supported(self, stencil_3d7pt_2dep):
        src = CCodeGenerator(
            stencil_3d7pt_2dep, {}, boundary="reflect"
        ).generate("r").main_source
        # reflect mirrors the near interior rather than zeroing
        body = src.split("static void fill_halo")[1].split("static")[0]
        assert ") = 0;" not in body
        assert "2 * HZ - 1 - h" in body

    def test_unknown_boundary_rejected(self, stencil_3d7pt_2dep):
        with pytest.raises(ValueError, match="zero/periodic"):
            CCodeGenerator(stencil_3d7pt_2dep, {}, boundary="wrap")

    def test_loc_counts_nonblank(self, stencil_3d7pt_2dep):
        code = CCodeGenerator(stencil_3d7pt_2dep, {}).generate("l")
        assert code.loc() == sum(
            1 for line in code.main_source.splitlines() if line.strip()
        )


class TestKernelPrinter:
    """``render_kernel_c``: the one function that turns a kernel into C,
    printing the lowered program the numpy engine runs."""

    def test_prints_the_program_in_its_order_and_association(self):
        from repro.backend.c_codegen import render_kernel_c
        from repro.ir import Kernel, SpNode, VarExpr
        from repro.ir.expr import CallFuncExpr, ConstExpr

        j, i = VarExpr("j"), VarExpr("i")
        A = SpNode("A", (8, 8), f64, halo=(1, 1), time_window=3)
        c0 = VarExpr("c0", "f64")
        kern = Kernel(
            "K", (j, i),
            (ConstExpr(1) / 2) * A[j, i] - (c0 * 3) * (A[j, i - 1] + A[j, i])
            + CallFuncExpr("fmax", (A.at(-1)[j + 1, i], -ConstExpr(0.25))),
        )
        got = render_kernel_c(
            kern, {"c0": 0.5},
            lambda tensor, off: f"{tensor}_m{-off}", {"A": (1, 1)})
        centre, left = "AT_A(A_m0, j + 1, i + 1)", "AT_A(A_m0, j + 1, i)"
        assert got == (
            f"(((((real)0.5) * {centre}) - (((real)1.5) * ({left} + {centre})))"
            " + fmax(AT_A(A_m1, j + 2, i + 1), ((real)-0.25)))"
        )

    def test_a_sum_deeper_than_the_recursion_limit_prints(self):
        import sys

        from repro.backend.c_codegen import render_kernel_c
        from repro.ir import Kernel, SpNode, VarExpr

        j, i = VarExpr("j"), VarExpr("i")
        A = SpNode("A", (8, 8), f64, halo=(1, 1), time_window=2)
        expr = A[j, i]
        terms = sys.getrecursionlimit() + 50
        for _ in range(terms):
            expr = expr + A[j, i - 1]
        got = render_kernel_c(Kernel("K", (j, i), expr), {},
                              lambda tensor, off: "p", {"A": (1, 1)})
        assert got.count(" + AT_A(p, j + 1, i)") == terms


def time_loop(src: str) -> str:
    """The body of the generated time loop (either flavour)."""
    lines = src.splitlines()
    start = max(n for n, line in enumerate(lines)
                if line.startswith("  for (long t = "))
    return "\n".join(lines[start + 1:lines.index("  }", start)])


class TestDirectWriteSweep:
    """Each step is written straight into its plane: no accumulator."""

    FLAVOURS = pytest.mark.parametrize(
        "flavour", [CCodeGenerator, SharedLibGenerator],
        ids=["main", "shared"],
    )

    @FLAVOURS
    def test_no_accumulator_plane(self, stencil_3d7pt_2dep, flavour):
        src = flavour(stencil_3d7pt_2dep, {}).generate("a").main_source
        assert not re.search(r"\bacc\b|memset", src)
        assert not re.search(r"malloc|calloc|VALID_ELEMS", time_loop(src))

    @pytest.mark.parametrize("boundary", ["zero", "periodic", "reflect"])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_no_accumulator_in_sunway_bundle(self, name, boundary):
        """The athread bundle's puts land in plane t: no file keeps an
        accumulator buffer, clears one or commits from one."""
        prog, _ = build_with_schedule(name, "sunway")
        files = generate(prog.ir, prog.schedules(), "sw", target="sunway",
                         boundary=boundary).files
        for fname, text in files.items():
            assert not re.search(r"\bacc\w*|memset|commit_scaled|clear_",
                                 text), fname

    @FLAVOURS
    def test_one_sweep_call_per_run_per_step(self, flavour):
        from tests.test_differential import (
            _three_run_stencil,
            _two_kernel_stencil,
        )

        for make, runs in [(_two_kernel_stencil, 2),
                           (_three_run_stencil, 3)]:
            gen = flavour(make(), {})
            assert len(gen.sweep_runs) == runs
            src = gen.generate("r").main_source
            calls = re.findall(r"^    (sweep_\w+)\(dst, ", time_loop(src),
                               re.M)
            assert calls == [run.name for run in gen.sweep_runs]
            assert len(set(calls)) == runs
            assert time_loop(src).splitlines()[-1] == "    fill_halo(dst);"

    def test_fused_terms_in_combination_order(self, stencil_3d7pt_2dep):
        """One run, one statement: ``((0 + 0.6*K(t-1)) + 0.4*K(t-2))``."""
        gen = CCodeGenerator(stencil_3d7pt_2dep, {})
        (run,) = gen.sweep_runs
        assert run.depths == [1, 2]
        body = gen.sweep_function(run)
        assert body.count("AT_B(dst, ") == 1
        assert "= (((real)0 + (real)0.6 * (" in body
        assert body.index("(real)0.6 * ") < body.index("(real)0.4 * ")
        assert "const real *restrict B_m1, const real *restrict B_m2" in body

    def test_later_runs_accumulate_into_dst(self):
        from tests.test_differential import _two_kernel_stencil

        gen = CCodeGenerator(_two_kernel_stencil(), {})
        first, second = (gen.sweep_function(r) for r in gen.sweep_runs)
        assert "AT_B(dst, j + 1, i + 1) = ((real)0 + " in first
        assert ("AT_B(dst, j + 1, i + 1) = (AT_B(dst, j + 1, i + 1) + "
                "(real)0.7 * ") in second
        # far[t-2] reads B and B.at(-1): two and three steps back
        assert gen.sweep_runs[1].depths == [2, 3]

    def test_shared_flavour_has_no_file_scope_state(self):
        from tests.test_differential import _aux_offset_stencil

        src = SharedLibGenerator(_aux_offset_stencil(), {}).generate(
            "s").main_source
        file_scope = [line for line in src.splitlines()
                      if line.endswith(";") and not line.startswith(" ")]
        assert file_scope == ["typedef double real;"]
        assert "msc_run(real *win, real **aux, long t0, long steps)" in src

    def test_read_slot_aliasing_write_slot_rejected(self):
        """``t % TWIN`` keeps reads and the write apart only while every
        read is fewer than TWIN steps back."""
        from tests.conftest import make_3d7pt

        tensor, kern = make_3d7pt()
        t = Stencil.t
        gen = CCodeGenerator(
            Stencil(tensor, 0.6 * kern[t - 1] + 0.4 * kern[t - 2]), {}
        )
        # shrink the window behind the validated IR's back
        object.__setattr__(tensor, "time_window", 2)
        with pytest.raises(ValidationError, match="2 step.s. back"):
            gen.generate("shallow")


class TestTargetsAndMakefiles:
    def test_generate_cpu_bundle_has_makefile(self, stencil_3d7pt_2dep):
        code = generate(stencil_3d7pt_2dep, {}, "bundle", target="cpu")
        assert "Makefile" in code.files
        assert "gcc" in code.files["Makefile"]
        assert "-fopenmp" in code.files["Makefile"]

    def test_generate_unknown_target(self, stencil_3d7pt_2dep):
        with pytest.raises(ValueError, match="unknown target"):
            generate(stencil_3d7pt_2dep, {}, "x", target="gpu")

    def test_sunway_makefile_hybrid_toolchain(self):
        mk = generate_makefile("prog", "sunway")
        assert "sw5cc -host" in mk
        assert "sw5cc -slave" in mk
        assert "mpicc -hybrid" in mk

    def test_mpi_flag(self):
        """The cpu bundle of an MPI-shaped program is a serial program:
        its Makefile names gcc, not mpicc (``--target mpi`` is the
        distributed one)."""
        from repro.frontend.lang import parse_program

        prog = parse_program(
            "const N = 8;\nDefVar(j, i32); DefVar(i, i32);\n"
            "DefTensor2D(U, 1, f64, N, N);\n"
            "Kernel k((j,i), 0.5*U[j,i] + 0.5*U[j,i-1]);\n"
            "Stencil s((j,i), U[t] << k[t-1]);\n"
            "DefShapeMPI2D(shp, 2, 1);\n"
        ).program
        assert prog.mpi_grid == (2, 1)
        mk = prog.compile_to_source_code("prog", target="cpu").files[
            "Makefile"]
        assert "CC = gcc" in mk
        assert "mpicc" not in mk and "MSC_USE_MPI" not in mk

    def test_makefile_unknown_target(self):
        with pytest.raises(ValueError):
            generate_makefile("prog", "riscv")

    @needs_gcc
    def test_makefile_actually_builds(self, tmp_path, stencil_3d7pt_2dep):
        code = generate(stencil_3d7pt_2dep, {}, "buildme", target="cpu")
        code.write_to(str(tmp_path))
        res = subprocess.run(
            ["make", "-C", str(tmp_path)], capture_output=True, text=True,
            timeout=120,
        )
        if res.returncode != 0 and "march=native" in res.stderr:
            pytest.skip("march=native unsupported here")
        assert res.returncode == 0, res.stderr + res.stdout
        assert (tmp_path / "buildme").exists()

    @pytest.mark.parametrize("target", ["cpu", "matrix"])
    def test_gcc_toolchains_never_contract(self, target):
        from repro.backend import toolchain_cflags

        assert "-ffp-contract=off" in toolchain_cflags(target)
        assert ("CFLAGS = " + " ".join(toolchain_cflags(target))
                in generate_makefile("prog", target))

    @needs_gcc
    def test_makefile_build_is_bit_equal_to_reference(self, tmp_path, rng):
        """``repro compile`` then ``make``, with the Makefile's own
        ``CC``/``CFLAGS``: on an FMA host a build that lets gcc contract
        ``a*b + c`` drifts from ``reference_run`` within two steps."""
        from repro.cli import main
        from repro.frontend import build_benchmark, parse_program
        from repro.frontend import render_program

        prog, _ = build_benchmark("3d25pt_star", grid=(16, 12, 20))
        text = render_program(prog.ir, prog.schedules())
        (tmp_path / "star.msc").write_text(text)
        assert main(["compile", str(tmp_path / "star.msc"), "-o",
                     str(tmp_path), "--name", "star"]) == 0
        res = subprocess.run(["make", "-C", str(tmp_path)],
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0 and "march=native" in res.stderr:
            pytest.skip("march=native unsupported here")
        assert res.returncode == 0, res.stderr + res.stdout
        stencil = parse_program(text).program.ir
        init = [rng.random(stencil.output.shape) for _ in range(2)]
        np.concatenate([p.ravel() for p in init]).tofile(
            str(tmp_path / "init.bin"))
        res = subprocess.run(
            [str(tmp_path / "star"), str(tmp_path / "init.bin"), "2",
             str(tmp_path / "out.bin")],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        got = np.fromfile(str(tmp_path / "out.bin")).reshape(
            stencil.output.shape)
        assert got.tobytes() == reference_run(stencil, init, 2).tobytes()


@needs_gcc
def test_kernel_internal_time_offset_compiled(tmp_path, rng):
    """A kernel reading ``B.at(-1)`` compiles and matches the reference."""
    from repro.ir import SpNode, Kernel, VarExpr, f64

    j, i = VarExpr("j"), VarExpr("i")
    B = SpNode("B", (10, 12), f64, halo=(1, 1), time_window=3)
    kern = Kernel(
        "deep", (j, i),
        0.6 * (0.5 * B[j, i] + 0.25 * (B[j, i - 1] + B[j, i + 1]))
        + 0.4 * (0.5 * B.at(-1)[j, i]
                 + 0.25 * (B.at(-1)[j, i - 1] + B.at(-1)[j, i + 1])),
    )
    st = Stencil(B, kern[Stencil.t - 1])
    code = CCodeGenerator(st, {}, boundary="periodic").generate("deep")
    init = [rng.random((10, 12)) for _ in range(2)]
    got = _compile_and_run(code, tmp_path, init, 4, (10, 12), np.float64,
                           use_openmp=False)
    ref = reference_run(st, init, 4, boundary="periodic")
    np.testing.assert_array_equal(got, ref)


class TestRerolledSweep:
    """Wide dense boxes print in matrix form: a coefficient table and
    loops over its rows (``c_codegen.row_table``)."""

    @staticmethod
    def _sweep(src: str) -> str:
        start = src.index("static void sweep_0_")
        return src[start:src.index("\n}\n", start)]

    @pytest.mark.parametrize("scheduled", [False, True],
                             ids=["default", "table5"])
    def test_only_the_wide_table4_boxes_reroll(self, scheduled):
        from repro.backend.c_codegen import row_table
        from repro.frontend.stencils import build_benchmark

        rerolled = []
        for name in BENCHMARK_NAMES:
            prog, handle = (build_with_schedule(name, "cpu") if scheduled
                            else build_benchmark(name))
            src = CCodeGenerator(prog.ir, prog.schedules()).generate(
                "r").main_source
            if "static const real sweep_0_" in src:
                rerolled.append(name)
            table = row_table(prog.ir.kernels[0], {})
            assert (table is not None) == (name in rerolled), name
        assert rerolled == ["2d121pt_box", "2d169pt_box"]

    def test_each_row_template_is_printed_once(self):
        """169 taps are 13 rows of 13: per term (two) the first row and
        the template of the others, 52 products instead of 338."""
        from repro.backend.c_codegen import row_table
        from repro.frontend.stencils import build_benchmark

        prog, _ = build_benchmark("2d169pt_box", grid=(64, 80))
        table = row_table(prog.ir.kernels[0], {})
        assert len(table.outer) == len(table.inner) == 13
        assert table.inner == tuple(range(-6, 7))
        body = self._sweep(CCodeGenerator(prog.ir, {}).generate(
            "r").main_source)
        coef = "sweep_0_S_2d169pt_box_c"
        assert f"static const real {coef}[13][13] = {{" in body
        assert "static const long sweep_0_S_2d169pt_box_o[13] = " in body
        products = re.findall(rf"\({coef}\[(\w+)\]\[(\d+)\] \* ", body)
        assert len(products) == 2 * 2 * 13
        assert [w for r, w in products if r == "0"] == [
            str(w) for w in range(13)] * 2
        # the write: ((0 + 0.6 * row0) + 0.4 * row1), one statement
        assert body.count("AT_B(dst, ") == 1
        assert ("= (((real)0 + (real)0.6 * i_row0[i_s]) + (real)0.4 * "
                "i_row1[i_s]);") in body

    @pytest.mark.parametrize("flavour", [CCodeGenerator, SharedLibGenerator],
                             ids=["main", "shared"])
    def test_no_accumulator_in_rerolled_sweep(self, flavour):
        from repro.frontend.stencils import build_benchmark

        prog, _ = build_benchmark("2d121pt_box", grid=(40, 40))
        src = flavour(prog.ir, prog.schedules()).generate("a").main_source
        assert "static const real sweep_0_" in src
        assert not re.search(r"acc|memset", src)
        assert not re.search(r"malloc|calloc|VALID_ELEMS", time_loop(src))

    def test_3x3_box_and_stars_keep_the_fused_statement(self):
        from repro.backend.c_codegen import row_table
        from repro.frontend.stencils import build_benchmark

        for name in ("2d9pt_box", "2d9pt_star", "3d31pt_star"):
            prog, _ = build_benchmark(name)
            assert row_table(prog.ir.kernels[0], {}) is None, name

    @needs_gcc
    def test_stack_use_does_not_grow_with_the_grid(self, tmp_path):
        """Row buffers are strip-mined to a fixed width: a 65536-wide
        grid's sweep uses the stack a 96-wide one does."""
        from repro.frontend.stencils import build_benchmark

        usage = {}
        for width in (96, 65536):
            prog, _ = build_benchmark("2d169pt_box", grid=(16, width))
            directory = tmp_path / str(width)
            SharedLibGenerator(prog.ir, {}).generate("s").write_to(
                str(directory))
            subprocess.run(
                [GCC, "-c", "-O3", "-fopenmp", "-fPIC", "-ffp-contract=off",
                 "-fstack-usage", "s.c", "-o", "s.o"],
                cwd=directory, check=True, capture_output=True, timeout=120,
            )
            (line,) = [line for line in (directory / "s.su").read_text()
                       .splitlines() if ":sweep_0_" in line]
            usage[width] = int(line.split("\t")[1])
        assert usage[96] == usage[65536] <= 4096, usage
