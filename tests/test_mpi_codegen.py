"""Tests for the distributed (MPI) C code generator and its bundle.

The generated bundle ships a single-rank MPI stub so the full halo
protocol (pack → Isend/Irecv → Waitall → unpack) can be compiled with
gcc and *executed* here: on a 1×..×1 periodic grid the exchange wraps
the halo through self-messages, and the program output must equal the
serial reference bit-for-bit.
"""

import shutil
import subprocess

import numpy as np
import pytest

from repro.backend import generate, generate_mpi
from repro.backend.numpy_backend import reference_run
from repro.frontend import build_benchmark
from repro.ir import f32

needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="gcc not available"
)


class TestBundleStructure:
    @pytest.fixture(scope="class")
    def bundle(self):
        prog, _ = build_benchmark("3d7pt_star", grid=(64, 64, 64))
        return generate_mpi(prog.ir, {}, "dist3d", (4, 4, 4))

    def test_files(self, bundle):
        assert set(bundle.files) == {
            "msc_comm.h", "msc_comm.c", "msc_mpi_stub.h",
            "dist3d_mpi.c", "Makefile",
        }

    def test_library_implements_async_protocol(self, bundle):
        comm = bundle.files["msc_comm.c"]
        # dimension-phased nonblocking exchange
        assert "MPI_Irecv" in comm and "MPI_Isend" in comm
        assert "MPI_Waitall" in comm
        assert "MPI_Cart_shift" in comm
        # receives posted before sends (no unexpected-message pressure)
        assert comm.index("MPI_Irecv") < comm.index("MPI_Isend")

    def test_program_invokes_library_apis(self, bundle):
        src = bundle.files["dist3d_mpi.c"]
        for api in ("msc_comm_init", "msc_scatter", "msc_exchange",
                    "msc_gather", "msc_comm_free"):
            assert api in src, api
        # Sec. 4.4: the compiler inserts the exchange after each commit —
        # a rank's halo fill is the library call, run on the plane the
        # sweep just wrote
        fill = src[src.index("static void fill_halo(real *p) {"):]
        assert fill.index("msc_fill_boundary(&ctx, p);") < fill.index(
            "msc_exchange(&ctx, p);") < fill.index("}")
        loop = src[src.index("for (long t = 2; t < 2 + steps; t++) {"):]
        assert loop.index("sweep_0_") < loop.index("fill_halo(dst);")

    def test_sweeps_write_the_plane_directly(self, bundle):
        """The generator's fused sweep: no accumulator plane, no per-step
        clear, no copy-back."""
        src = bundle.files["dist3d_mpi.c"]
        assert "acc" not in src and "memset" not in src
        assert "static void sweep_0_" in src
        assert "real *restrict dst" in src

    def test_makefile_targets(self, bundle):
        mk = bundle.files["Makefile"]
        assert "mpicc" in mk
        assert "-DMSC_MPI_STUB" in mk  # single-rank test build
        # both rules build without FMA contraction (bit-equal results)
        assert "CFLAGS = -O3 -fopenmp -ffp-contract=off\n" in mk
        assert "\tgcc -O2 -ffp-contract=off -DMSC_MPI_STUB " in mk

    def test_balanced_decomposition_in_library(self, bundle):
        comm = bundle.files["msc_comm.c"]
        assert "global[d] % dims[d]" in comm  # the within-one-cell split

    def test_grid_rank_mismatch_rejected(self):
        prog, _ = build_benchmark("2d9pt_star", grid=(32, 32))
        with pytest.raises(ValueError, match="does not match"):
            generate_mpi(prog.ir, {}, "x", (2, 2, 2))

    def test_fp32_rejected(self):
        prog, _ = build_benchmark("2d9pt_star", grid=(32, 32),
                                  dtype=f32)
        with pytest.raises(ValueError, match="double"):
            generate_mpi(prog.ir, {}, "x", (2, 2))

    def test_aux_inputs_rejected_by_name(self):
        from tests.test_differential import _aux_offset_stencil

        with pytest.raises(ValueError, match=r"auxiliary inputs \['C'\]"):
            generate_mpi(_aux_offset_stencil(), {}, "x", (1, 1))

    def test_targets_dispatch(self):
        prog, _ = build_benchmark("2d9pt_star", grid=(32, 32))
        code = generate(prog.ir, {}, "viatarget", target="mpi",
                        mpi_grid=(2, 2))
        assert "viatarget_mpi.c" in code.files

    def test_targets_dispatch_needs_grid(self):
        prog, _ = build_benchmark("2d9pt_star", grid=(32, 32))
        with pytest.raises(ValueError, match="mpi_grid"):
            generate(prog.ir, {}, "x", target="mpi")


@needs_gcc
class TestStubExecution:
    def _build_and_run(self, tmp_path, code, init, steps, shape):
        code.write_to(str(tmp_path))
        exe = tmp_path / "prog"
        res = subprocess.run(
            ["gcc", "-O2", "-DMSC_MPI_STUB",
             str(tmp_path / f"{code.name}_mpi.c"),
             str(tmp_path / "msc_comm.c"), "-o", str(exe), "-lm",
             "-I", str(tmp_path)],
            capture_output=True, text=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        np.concatenate([p.ravel() for p in init]).tofile(
            str(tmp_path / "init.bin")
        )
        res = subprocess.run(
            [str(exe), str(tmp_path / "init.bin"), str(steps),
             str(tmp_path / "out.bin")],
            capture_output=True, text=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        return np.fromfile(str(tmp_path / "out.bin")).reshape(shape)

    def test_3d_periodic_self_exchange(self, tmp_path, rng):
        shape = (10, 12, 14)
        prog, _ = build_benchmark("3d7pt_star", grid=shape,
                                  boundary="periodic")
        code = generate_mpi(prog.ir, {}, "s3d", (1, 1, 1),
                            boundary="periodic")
        init = [rng.random(shape) for _ in range(2)]
        got = self._build_and_run(tmp_path, code, init, 5, shape)
        ref = reference_run(prog.ir, init, 5, boundary="periodic")
        np.testing.assert_array_equal(got, ref)

    def test_2d_zero_boundary(self, tmp_path, rng):
        shape = (20, 24)
        prog, _ = build_benchmark("2d9pt_box", grid=shape,
                                  boundary="zero")
        code = generate_mpi(prog.ir, {}, "s2d", (1, 1), boundary="zero")
        init = [rng.random(shape) for _ in range(2)]
        got = self._build_and_run(tmp_path, code, init, 4, shape)
        ref = reference_run(prog.ir, init, 4, boundary="zero")
        np.testing.assert_array_equal(got, ref)

    def test_wide_halo_periodic(self, tmp_path, rng):
        shape = (16, 16, 16)
        prog, _ = build_benchmark("3d13pt_star", grid=shape,
                                  boundary="periodic")
        code = generate_mpi(prog.ir, {}, "wide", (1, 1, 1),
                            boundary="periodic")
        init = [rng.random(shape) for _ in range(2)]
        got = self._build_and_run(tmp_path, code, init, 3, shape)
        ref = reference_run(prog.ir, init, 3, boundary="periodic")
        np.testing.assert_array_equal(got, ref)
