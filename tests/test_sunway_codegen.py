"""Structural validation of the Sunway athread master/slave bundles."""

import re
import subprocess

import numpy as np
import pytest

from repro.backend import generate, generate_sunway
from repro.backend.numpy_backend import reference_run
from repro.evalsuite.harness import build_with_schedule
from repro.frontend.stencils import BENCHMARK_NAMES, benchmark_by_name
from repro.ir import f32, f64
from repro.machine.spec import SUNWAY_CG


@pytest.fixture(scope="module")
def bundle():
    prog, handle = build_with_schedule("3d7pt_star", "sunway")
    return generate_sunway(
        prog.ir, {handle.kernel.name: handle.schedule}, "hpgmg"
    )


class TestBundleShape:
    def test_bundle_files(self, bundle):
        assert set(bundle.files) == {
            "hpgmg_master.c", "hpgmg_slave.c", "hpgmg_common.c",
            "hpgmg.h", "msc_athread_stub.h",
        }

    def test_master_spawns_and_joins(self, bundle):
        master = bundle.files["hpgmg_master.c"]
        assert "athread_init()" in master
        assert "athread_spawn(" in master
        assert "athread_join()" in master
        assert "athread_halt()" in master

    def test_master_spawns_once_per_application(self, bundle):
        master = bundle.files["hpgmg_master.c"]
        assert master.count("athread_spawn(") == 2  # t-1 and t-2

    def test_slave_identity_and_task_mapping(self, bundle):
        slave = bundle.files["hpgmg_slave.c"]
        assert "athread_get_id(-1)" in slave
        # Sec. 4.3: mod(task_id, 64) == my_id round-robin mapping
        assert re.search(r"task_id % 64 != my_id", slave)

    def test_slave_dma_get_put(self, bundle):
        slave = bundle.files["hpgmg_slave.c"]
        assert "athread_get(PE_MODE" in slave
        assert "athread_put(PE_MODE" in slave
        # the get precedes the compute loop which precedes the put
        assert slave.index("athread_get(") < slave.index("athread_put(")

    def test_header_constants(self, bundle):
        header = bundle.files["hpgmg.h"]
        for macro in ("#define NZ 256", "#define TWIN 3", "#define TX 64"):
            assert macro in header


class TestSPMBuffers:
    def test_thread_local_buffers_declared(self, bundle):
        slave = bundle.files["hpgmg_slave.c"]
        assert "__thread_local real buffer_read" in slave
        assert "__thread_local real buffer_write" in slave

    def test_buffers_fit_spm(self, bundle):
        slave = bundle.files["hpgmg_slave.c"]
        sizes = [
            int(m) * 8
            for m in re.findall(r"__thread_local real \w+\[(\d+)\]", slave)
        ]
        assert sizes and sum(sizes) <= SUNWAY_CG.spm_bytes

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_all_benchmarks_fit_spm(self, name):
        prog, handle = build_with_schedule(name, "sunway")
        code = generate(
            prog.ir, {handle.kernel.name: handle.schedule}, name,
            target="sunway",
        )
        slave = code.files[f"{name}_slave.c"]
        sizes = [
            int(m) * prog.ir.output.dtype.nbytes
            for m in re.findall(r"__thread_local real \w+\[(\d+)\]", slave)
        ]
        assert sum(sizes) <= SUNWAY_CG.spm_bytes, (name, sizes)


class TestLegalityEnforced:
    def test_unstaged_schedule_rejected(self, stencil_3d7pt_2dep):
        from repro.schedule import LegalityError, Schedule

        kern = stencil_3d7pt_2dep.kernels[0]
        sched = Schedule(kern)
        sched.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.parallel("xo", 64)
        with pytest.raises(LegalityError):
            generate_sunway(stencil_3d7pt_2dep, {kern.name: sched}, "bad")

    def test_bundle_includes_makefile_via_targets(self):
        prog, handle = build_with_schedule("3d13pt_star", "sunway")
        code = generate(
            prog.ir, {handle.kernel.name: handle.schedule}, "mk",
            target="sunway",
        )
        assert "Makefile" in code.files
        assert "sw5cc" in code.files["Makefile"]


#: a small grid every Table-4 program's Sunway tile divides, per rank
_STUB_GRIDS = {2: (64, 64), 3: (12, 16, 64)}


@pytest.mark.skipif(
    __import__("shutil").which("gcc") is None, reason="gcc not available"
)
class TestAthreadStubExecution:
    """The bundle compiles against the sequential athread stub and its
    output matches the reference bit-for-bit — the complete generated
    structure (SPM staging, reply counters, round-robin CPE mapping,
    DMA gather/scatter into plane t) actually executes."""

    def _check(self, tmp_path, name, boundary, shape, steps, init=None,
               dtype=f64):
        """Build ``name``'s bundle on ``shape``, run ``steps`` steps from
        ``init`` (default: random) and compare with ``reference_run``
        by bytes, so a ``-0.0`` for ``+0.0`` is a difference too."""
        prog, _ = build_with_schedule(name, "sunway", dtype=dtype,
                                      grid=shape)
        code = generate(prog.ir, prog.schedules(), "sw", target="sunway",
                        boundary=boundary)
        code.write_to(str(tmp_path))
        srcs = [str(tmp_path / f) for f in code.files if f.endswith(".c")]
        res = subprocess.run(
            ["gcc", "-O2", "-ffp-contract=off", "-DMSC_ATHREAD_STUB", *srcs,
             "-o", str(tmp_path / "prog"), "-lm", "-I", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        np_dtype = dtype.np_dtype
        if init is None:
            rng = np.random.default_rng(len(name) + steps)
            init = [rng.random(shape).astype(np_dtype) for _ in range(2)]
        np.concatenate([p.ravel() for p in init]).tofile(
            str(tmp_path / "i.bin")
        )
        res = subprocess.run(
            [str(tmp_path / "prog"), str(tmp_path / "i.bin"),
             str(steps), str(tmp_path / "o.bin")],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        got = np.fromfile(str(tmp_path / "o.bin"), dtype=np_dtype)
        ref = reference_run(prog.ir, init, steps, boundary=boundary)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("boundary", ["zero", "periodic", "reflect"])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_table4_program(self, tmp_path, name, boundary):
        """Every application is written straight into plane ``t``, and
        the MPE's halo fill is the CPU generator's: ``reflect`` mirrors,
        it is not a zero halo."""
        shape = _STUB_GRIDS[benchmark_by_name(name).ndim]
        self._check(tmp_path, name, boundary, shape, 3)

    @pytest.mark.parametrize("name", ["2d9pt_star", "3d7pt_star"])
    def test_fp32(self, tmp_path, name):
        shape = _STUB_GRIDS[benchmark_by_name(name).ndim]
        self._check(tmp_path, name, "periodic", shape, 3, dtype=f32)

    def test_negative_zero_seed(self, tmp_path):
        """``0 + 0.6*K`` of an all ``-0.0`` field is ``+0.0``, as in the
        accumulator-into-zeros reference."""
        shape = _STUB_GRIDS[2]
        self._check(tmp_path, "2d9pt_star", "periodic", shape, 2,
                    init=[np.full(shape, -0.0)] * 2)

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_3d_two_time_deps(self, tmp_path, boundary):
        self._check(tmp_path, "3d7pt_star", boundary, (16, 16, 64), 5)

    def test_wide_radius_3d13pt(self, tmp_path):
        self._check(tmp_path, "3d13pt_star", "periodic", (16, 16, 64), 3)

    def test_2d_box(self, tmp_path):
        self._check(tmp_path, "2d9pt_box", "zero", (64, 64), 4)


class TestAthreadGuards:
    def test_non_dividing_tile_rejected(self):
        from repro.backend import generate_sunway
        from repro.schedule import Schedule

        prog, _ = build_with_schedule("3d7pt_star", "sunway",
                                      grid=(16, 16, 64))
        kern = prog.ir.kernels[0]
        bad = Schedule(kern)
        bad.tile(3, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        bad.reorder("xo", "yo", "zo", "xi", "yi", "zi")
        bad.cache_read(prog.ir.output, "br")
        bad.cache_write("bw")
        bad.compute_at("br", "zo")
        bad.compute_at("bw", "zo")
        bad.parallel("xo", 64)
        with pytest.raises(ValueError, match="dividing"):
            generate_sunway(prog.ir, {kern.name: bad}, "bad")
