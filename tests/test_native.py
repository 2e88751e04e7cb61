"""Native compiled-C backend: differential bit-exactness + cache behavior.

The native backend must be *bit-identical* to the numpy reference (it
is built with ``-ffp-contract=off`` and evaluates constants in the
working precision), its artifact cache must hit on identical rebuilds
without spawning the compiler, and corrupt cache entries must trigger
a recompile, never a crash.
"""

from __future__ import annotations

import json
import os
import re
import threading

import numpy as np
import pytest

from repro.backend import (
    CCodeGenerator, generate_mpi, generate_pipeline, native,
)
from repro.backend.native import (
    ArtifactCache,
    NativeBuildError,
    NativeExecutor,
    NativeUnavailable,
    SharedLibGenerator,
    artifact_key,
    build_artifact,
    select_backend,
)
from repro.backend.numpy_backend import reference_run
from repro.frontend.stencils import BENCHMARK_NAMES, benchmark_by_name
from repro.ir import Stencil, f32, f64
from repro.schedule import Schedule
from tests.conftest import make_2d5pt, make_3d7pt

needs_cc = pytest.mark.skipif(
    not native.native_available(), reason="no C compiler"
)


def _program_2d(dtype=f64, shape=(16, 16)):
    tensor, kern = make_2d5pt(shape=shape, dtype=dtype)
    return Stencil(tensor, kern[Stencil.t - 1]), kern


def _program_3d(shape=(10, 12, 8)):
    tensor, kern = make_3d7pt(shape=shape)
    t = Stencil.t
    return Stencil(tensor, 0.6 * kern[t - 1] + 0.4 * kern[t - 2]), kern


def _compile_werror(directory, sources, flags):
    """Compile ``sources`` in ``directory`` to objects, every warning an
    error."""
    import subprocess

    built = subprocess.run(
        [native.which_cc(), "-c", "-fopenmp", "-Wall", "-Wextra", "-Werror",
         "-ffp-contract=off", *flags, *sources, "-I."],
        cwd=directory, capture_output=True, text=True, timeout=120,
    )
    assert built.returncode == 0, built.stderr


def _warning_free_bundle(flavour):
    """``(bundle, extra compiler flags)`` of one generated program."""
    from tests.test_differential import _aux_halo_stencil
    from tests.test_pipeline_codegen import _jacobi_pipeline, _wave_pipeline

    if flavour == "mpi-stub":
        return generate_mpi(_program_3d()[0], {}, "m", (1, 1, 1),
                            boundary="periodic"), ["-DMSC_MPI_STUB"]
    if flavour == "pipeline-jacobi":
        return generate_pipeline(_jacobi_pipeline(), "p", "reflect"), []
    if flavour == "pipeline-wave3d":
        return generate_pipeline(_wave_pipeline(), "p", "reflect"), []
    st = (_aux_halo_stencil() if flavour == "file-main-aux-halo"
          else _program_3d()[0])
    return CCodeGenerator(st, {}, boundary="periodic").generate("f"), []


def _store_repeatedly(root, key, binary_path, go, rounds=10):
    """One concurrent writer (module level: spawned processes import it)."""
    cache = ArtifactCache(root)
    assert go.wait(timeout=60)
    for _ in range(rounds):
        path, meta = cache.store(key, binary_path, {"m.c": "/* src */"},
                                 {"kind": "exe"})
        assert meta["key"] == key and os.path.basename(path) == "m"


@needs_cc
class TestDifferential:
    @pytest.mark.parametrize("boundary", ["zero", "periodic", "reflect"])
    @pytest.mark.parametrize("dtype", [f64, f32], ids=["f64", "f32"])
    def test_bit_match_2d(self, boundary, dtype, rng):
        st, _ = _program_2d(dtype=dtype)
        init = [rng.random((16, 16)).astype(dtype.np_dtype)]
        ref = reference_run(st, init, 4, boundary)
        got = NativeExecutor(st, {}, boundary=boundary).run(init, 4)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("boundary", ["zero", "periodic", "reflect"])
    def test_bit_match_3d_two_deps(self, boundary, rng):
        st, _ = _program_3d()
        init = [rng.random((10, 12, 8)) for _ in range(2)]
        ref = reference_run(st, init, 3, boundary)
        got = NativeExecutor(st, {}, boundary=boundary).run(init, 3)
        np.testing.assert_array_equal(got, ref)

    def test_bit_match_tiled_schedule(self, rng):
        st, kern = _program_3d(shape=(12, 12, 12))
        sched = Schedule(kern)
        sched.tile(4, 6, 3, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.parallel("xo", 4)
        init = [rng.random((12, 12, 12)) for _ in range(2)]
        ref = reference_run(st, init, 4, "periodic")
        got = NativeExecutor(
            st, {kern.name: sched}, boundary="periodic"
        ).run(init, 4)
        np.testing.assert_array_equal(got, ref)

    def test_stepwise_equals_batch(self, rng):
        st, _ = _program_2d()
        init = [rng.random((16, 16))]
        batch = NativeExecutor(st, {}).run(init, 5)
        ex = NativeExecutor(st, {})
        ex.initialize(init)
        for _ in range(5):
            ex.step()
        np.testing.assert_array_equal(ex.result(), batch)

    def test_zero_steps_returns_initial(self, rng):
        st, _ = _program_2d()
        init = [rng.random((16, 16))]
        got = NativeExecutor(st, {}).run(init, 0)
        np.testing.assert_array_equal(got, init[0])

    def test_program_run_backend_native(self, rng):
        from repro.frontend.stencils import benchmark_by_name

        bench = benchmark_by_name("2d9pt_star")
        prog, _ = bench.build(grid=(20, 20), dtype=f64,
                              boundary="periodic")
        need = prog.ir.required_time_window - 1
        init = [rng.random((20, 20)) for _ in range(need)]
        prog.set_initial(init)
        via_native = prog.run(3, backend="native")
        via_numpy = prog.run(3, backend="numpy")
        np.testing.assert_array_equal(via_native, via_numpy)


@needs_cc
class TestReentrancy:
    def test_two_executors_two_threads(self):
        """Executors of one program share one ``dlopen`` handle and
        ctypes drops the GIL inside ``msc_run``: the library may keep
        no state of its own between calls."""
        st, _ = _program_3d(shape=(64, 64, 64))
        rounds, steps = 6, 4
        seeds = [
            [np.random.default_rng([seed, n]).random((64, 64, 64))
             for n in range(2)]
            for seed in (1, 2)
        ]
        serial = []
        for init in seeds:
            ex = NativeExecutor(st, {}, boundary="periodic")
            ex.initialize(init)
            snaps = []
            for _ in range(rounds):
                ex.advance(steps)
                snaps.append(ex.result())
            serial.append(snaps)
        assert not np.array_equal(serial[0][-1], serial[1][-1])

        pair = [NativeExecutor(st, {}, boundary="periodic") for _ in seeds]
        assert pair[0].artifact.key == pair[1].artifact.key
        for ex, init in zip(pair, seeds):
            ex.initialize(init)
        gate = threading.Barrier(2)
        got = [[], []]

        def drive(who):
            for _ in range(rounds):
                gate.wait()
                pair[who].advance(steps)
                got[who].append(pair[who].result())

        threads = [threading.Thread(target=drive, args=(n,)) for n in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for who in (0, 1):
            for snap, want in zip(got[who], serial[who]):
                np.testing.assert_array_equal(snap, want)


@needs_cc
class TestArtifactCache:
    def test_second_build_is_hit_with_no_compiler_spawn(
        self, tmp_path, rng, monkeypatch
    ):
        from repro import obs

        cache = ArtifactCache(str(tmp_path / "cache"))
        st, _ = _program_2d()
        with obs.capture() as (_tr, reg):
            NativeExecutor(st, {}, cache=cache)
        assert reg.counter_total("native.cache.miss") == 1
        assert reg.counter_total("native.cache.hit") == 0

        # warm fingerprint already cached (lru) — any further
        # subprocess means a compiler invocation, which a hit forbids
        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("compiler spawned on a cache hit")

        monkeypatch.setattr(native.subprocess, "run", boom)
        native.clear_plans()  # else the plan memo answers, not the cache
        with obs.capture() as (_tr, reg):
            ex = NativeExecutor(st, {}, cache=cache)
        assert reg.counter_total("native.cache.hit") == 1
        assert reg.counter_total("native.cache.miss") == 0
        init = [rng.random((16, 16))]
        ref = reference_run(st, init, 2, "zero")
        np.testing.assert_array_equal(ex.run(init, 2), ref)

    def test_key_changes_with_flags_sources_and_compiler(self):
        fp = {"cc": "gcc", "version": "12", "machine": "x", "march": "m"}
        base = artifact_key({"a.c": "int x;"}, ["-O2"], fp, "exe")
        assert artifact_key({"a.c": "int y;"}, ["-O2"], fp, "exe") != base
        assert artifact_key({"a.c": "int x;"}, ["-O3"], fp, "exe") != base
        fp2 = dict(fp, version="13")
        assert artifact_key({"a.c": "int x;"}, ["-O2"], fp2, "exe") != base
        assert artifact_key({"a.c": "int x;"}, ["-O2"], fp, "shared") != base

    def test_march_native_resolved_in_key_and_meta(self, tmp_path):
        # the literal "-march=native" must never reach the key: two
        # hosts sharing a cache directory would collide on it
        fp = {"cc": "gcc", "version": "12", "machine": "x",
              "march": "alderlake"}
        k1 = artifact_key({"a.c": "int x;"}, ["-march=native"], fp, "exe")
        k2 = artifact_key({"a.c": "int x;"}, ["-march=alderlake"], fp,
                          "exe")
        assert k1 == k2
        fp_other = dict(fp, march="cascadelake")
        k3 = artifact_key({"a.c": "int x;"}, ["-march=native"], fp_other,
                          "exe")
        assert k3 != k1

    def test_artifact_meta_records_resolved_flags(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        src = {"m.c": "int main(void) { return 0; }\n"}
        art = build_artifact(src, "m", kind="exe",
                             flags=["-O2", "-march=native"], cache=cache)
        assert art.meta["flags"][0] == "-O2"
        assert not any(f == "-march=native" for f in art.meta["flags"])
        assert dict(art.meta["compiler"]).get("version")
        meta_on_disk = json.load(open(
            os.path.join(os.path.dirname(art.path), "meta.json")
        ))
        assert meta_on_disk["flags"] == art.meta["flags"]

    def test_truncated_binary_recompiles(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        src = {"m.c": "int main(void) { return 7; }\n"}
        art = build_artifact(src, "m", kind="exe", flags=["-O2"],
                             cache=cache)
        with open(art.path, "wb") as fh:
            fh.write(b"corrupt")
        rebuilt = build_artifact(src, "m", kind="exe", flags=["-O2"],
                                 cache=cache)
        assert not rebuilt.cached  # size check purged the entry
        run = native.run_binary(rebuilt.path, [])
        assert run.returncode == 7

    def test_same_size_corrupt_so_rebuilds(self, tmp_path, rng):
        import shutil

        cache_a = ArtifactCache(str(tmp_path / "a"))
        st, _ = _program_2d()
        ex = NativeExecutor(st, {}, cache=cache_a)
        # corrupt a *copy* of the cache: overwriting the original .so
        # in place would clobber the live mapping ``ex`` holds (shared
        # page cache), which no recovery code can undo
        shutil.copytree(str(tmp_path / "a"), str(tmp_path / "b"))
        victim = ex.artifact.path.replace(
            str(tmp_path / "a"), str(tmp_path / "b"), 1
        )
        size = os.path.getsize(victim)
        with open(victim, "wb") as fh:
            fh.write(b"\0" * size)  # passes the size check, fails CDLL
        ex2 = NativeExecutor(st, {}, cache=ArtifactCache(
            str(tmp_path / "b")
        ))
        assert not ex2.artifact.cached  # dlopen failure forced rebuild
        init = [rng.random((16, 16))]
        ref = reference_run(st, init, 2, "zero")
        np.testing.assert_array_equal(ex2.run(init, 2), ref)

    def test_concurrent_writers_of_one_key(self, tmp_path):
        """8 threads and 2 processes publish one key at once: nobody
        fails, the entry is valid, no staging directory is left."""
        import multiprocessing
        import sys

        root = str(tmp_path / "cache")
        cache = ArtifactCache(root)
        src = {"m.c": "int main(void) { return 3; }\n"}
        built = build_artifact(src, "m", kind="exe", flags=["-O2"],
                               cache=cache)
        key = "ab" + "0" * 62  # a key nobody has stored yet
        ctx = multiprocessing.get_context("spawn")
        go = ctx.Event()
        procs = [ctx.Process(target=_store_repeatedly,
                             args=(root, key, built.path, go))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        errors = []

        def writer():
            try:
                _store_repeatedly(root, key, built.path, go)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            go.set()
            for th in threads:
                th.join(timeout=60)
            for proc in procs:
                proc.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert errors == []
        hit = cache.lookup(key, "m")
        assert hit is not None
        assert native.run_binary(hit[0], []).returncode == 3
        assert os.listdir(os.path.join(root, key[:2])) == [key]

    def test_compile_error_reports_stderr(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        with pytest.raises(NativeBuildError) as exc:
            build_artifact({"bad.c": "int main(void) { broken "},
                           "bad", kind="exe", flags=["-O2"], cache=cache)
        assert exc.value.stderr
        assert not exc.value.timed_out

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert ArtifactCache().root == str(tmp_path / "alt")


class TestSelection:
    def test_select_numpy_always_honoured(self):
        assert select_backend("numpy") == ("numpy", "requested")

    def test_select_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            select_backend("fortran")

    def test_select_native_without_cc_raises(self, monkeypatch):
        monkeypatch.setattr(native, "which_cc", lambda cc=None: None)
        with pytest.raises(NativeUnavailable):
            select_backend("native")

    def test_auto_falls_back_without_cc(self, monkeypatch):
        monkeypatch.setattr(native, "which_cc", lambda cc=None: None)
        choice, reason = select_backend("auto")
        assert choice == "numpy"
        assert "no C compiler" in reason

    @needs_cc
    def test_auto_prefers_native_with_cc(self):
        choice, _reason = select_backend("auto")
        assert choice == "native"

    def test_program_run_auto_falls_back(self, rng, monkeypatch):
        # auto must transparently fall back to numpy when gcc is absent
        monkeypatch.setattr(native, "which_cc", lambda cc=None: None)
        from repro.frontend.stencils import benchmark_by_name

        prog, _ = benchmark_by_name("2d9pt_star").build(
            grid=(12, 12), dtype=f64, boundary="zero"
        )
        need = prog.ir.required_time_window - 1
        init = [rng.random((12, 12)) for _ in range(need)]
        prog.set_initial(init)
        got = prog.run(2, backend="auto")
        ref = prog.run(2, backend="numpy")
        np.testing.assert_array_equal(got, ref)

    def test_program_run_unknown_backend(self, rng):
        from repro.frontend.stencils import benchmark_by_name

        prog, _ = benchmark_by_name("2d9pt_star").build(
            grid=(12, 12), dtype=f64, boundary="zero"
        )
        need = prog.ir.required_time_window - 1
        prog.set_initial([rng.random((12, 12)) for _ in range(need)])
        with pytest.raises(ValueError, match="unknown backend"):
            prog.run(1, backend="cuda")


@needs_cc
class TestSharedLibGenerator:
    def test_exports_entry_points_not_main(self):
        st, _ = _program_2d()
        src = SharedLibGenerator(st, {}).generate("s").main_source
        assert "msc_run(real *win, real **aux" in src
        assert "msc_plane_elems" in src
        assert "int main(" not in src

    def test_object_defines_no_writable_data(self, tmp_path):
        """What CI checks for all Table-4 programs: warning-clean, and
        ``nm`` shows no data/bss symbol a second caller could trample."""
        import shutil
        import subprocess

        if shutil.which("nm") is None:
            pytest.skip("nm not available")
        st, kern = _program_3d()
        sched = Schedule(kern).tile(5, 4, 4, "xo", "xi", "yo", "yi",
                                    "zo", "zi")
        sched.parallel("xo", 2)
        SharedLibGenerator(st, {kern.name: sched}).generate("s").write_to(
            str(tmp_path))
        subprocess.run(
            [native.which_cc(), "-c", "-fPIC", "-O3", "-fopenmp", "-Wall",
             "-Wextra", "-Werror", "-ffp-contract=off", "s.c", "-o", "s.o"],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        )
        symbols = subprocess.run(
            ["nm", "s.o"], cwd=tmp_path, check=True, capture_output=True,
            text=True,
        ).stdout
        assert " T msc_run" in symbols
        assert not re.findall(r"^.* [bBdD] .*$", symbols, re.M)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_table4_library_is_warning_free_and_stateless(self, name,
                                                          tmp_path):
        """Every Table-4 library: ``-Wall -Wextra -Werror`` clean, and
        ``nm`` shows no writable symbol (``msc_run`` is re-entrant)."""
        import shutil
        import subprocess

        if shutil.which("nm") is None:
            pytest.skip("nm not available")
        bench = benchmark_by_name(name)
        prog, _ = bench.build(grid=(64,) * bench.ndim)
        SharedLibGenerator(prog.ir, prog.schedules()).generate(
            "s").write_to(str(tmp_path))
        _compile_werror(tmp_path, ["s.c"], ["-fPIC", "-O3"])
        symbols = subprocess.run(
            ["nm", "s.o"], cwd=tmp_path, check=True, capture_output=True,
            text=True,
        ).stdout
        assert " T msc_run" in symbols
        assert not re.findall(r"^.* [bBdD] .*$", symbols, re.M)

    @pytest.mark.parametrize("flavour", [
        "file-main", "file-main-aux-halo", "mpi-stub", "pipeline-jacobi",
        "pipeline-wave3d",
    ])
    def test_every_program_flavour_is_warning_free(self, flavour, tmp_path):
        """The file-I/O ``main`` (with and without a static input), the
        MPI rank program against the stub, and the pipelines."""
        code, flags = _warning_free_bundle(flavour)
        code.write_to(str(tmp_path))
        sources = [f for f in code.files if f.endswith(".c")]
        _compile_werror(tmp_path, sources, ["-O2", *flags])

    def test_timeouts_read_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "11")
        assert native.compile_timeout() == 7.5
        assert native.run_timeout() == 11.0
