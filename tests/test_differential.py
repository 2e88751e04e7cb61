"""Cross-backend differential test harness.

Random star stencils (hypothesis, ``tests.strategies``) paired with
checker-legal schedules are pushed through every backend that can
execute them — the numpy reference, the tile-ordered
``ScheduledExecutor``, the simulated-MPI ``distributed_run`` and the
gcc-compiled C bundle — and the results are compared against the
reference within dtype-dependent bounds (fp64 relative error < 1e-10,
fp32 < 1e-5).  A legal schedule must never change the numerics; a
checker-*rejected* schedule must come with a concrete failure witness.

The hypothesis sweeps are marked ``slow`` (run with ``-m slow``); one
deterministic smoke test stays in the default tier-1 lane.
"""

import importlib.util
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import check_program
from repro.backend import CCodeGenerator, SharedLibGenerator, generate_mpi
from repro.backend.numpy_backend import ScheduledExecutor, reference_run
from repro.frontend.stencils import BENCHMARK_NAMES
from repro.ir import VarExpr, f32, f64
from repro.ir.expr import CallFuncExpr, ConstExpr
from repro.runtime.executor import distributed_run
from repro.schedule import Schedule
from repro.schedule.schedule import ScheduleError
from tests.strategies import (
    boundaries,
    box_stencil_cases,
    expression_kernel_cases,
    legal_schedules,
    process_grids,
    seeds,
    star_stencil_cases,
)

GCC = shutil.which("gcc")
needs_gcc = pytest.mark.skipif(GCC is None, reason="gcc not available")

#: maximum relative error per precision (ISSUE acceptance bounds)
REL_TOL = {"f64": 1e-10, "f32": 1e-5}


def rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    scale = max(float(np.abs(ref).max()), 1e-30)
    return float(np.abs(got - ref).max()) / scale


def init_planes(stencil, shape, seed, np_dtype=np.float64):
    nplanes = stencil.output.time_window - 1
    rng = np.random.default_rng(seed)
    return [rng.random(shape).astype(np_dtype) for _ in range(nplanes)]


def assert_schedule_legal(stencil, kern, sched):
    report = check_program(stencil, {kern.name: sched})
    assert report.ok, report.format()


def run_compiled_c(stencil, kern, sched, init, steps, shape, np_dtype):
    gen = CCodeGenerator(stencil, {kern.name: sched} if sched else {},
                         boundary="zero")
    code = gen.generate("diff_case")
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        code.write_to(str(tmp_path))
        src = tmp_path / f"{code.name}.c"
        exe = tmp_path / code.name
        res = subprocess.run(
            [GCC, "-fopenmp", "-O2", "-o", str(exe), str(src), "-lm"],
            capture_output=True, text=True,
            timeout=120,
        )
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


# ---------------------------------------------------------------------------
# hypothesis sweeps (slow lane)
# ---------------------------------------------------------------------------

@pytest.mark.slow
@given(case=star_stencil_cases(ndim=2), seed=seeds(),
       boundary=boundaries, data=st.data())
@settings(max_examples=40)
def test_scheduled_executor_matches_reference_fp64(case, seed, boundary,
                                                   data):
    stencil, kern, shape = case
    sched = data.draw(legal_schedules(kern, shape))
    assert_schedule_legal(stencil, kern, sched)
    init = init_planes(stencil, shape, seed)
    steps = 3
    ref = reference_run(stencil, init, steps, boundary=boundary)
    got = ScheduledExecutor(
        stencil, {kern.name: sched}, boundary=boundary
    ).run(init, steps)
    assert rel_err(got, ref) < REL_TOL["f64"]


@pytest.mark.slow
@given(case=star_stencil_cases(ndim=3, max_radius=1, max_side=10),
       seed=seeds(), data=st.data())
@settings(max_examples=15)
def test_scheduled_executor_matches_reference_3d(case, seed, data):
    stencil, kern, shape = case
    sched = data.draw(legal_schedules(kern, shape))
    assert_schedule_legal(stencil, kern, sched)
    init = init_planes(stencil, shape, seed)
    ref = reference_run(stencil, init, 2, boundary="zero")
    got = ScheduledExecutor(stencil, {kern.name: sched}).run(init, 2)
    assert rel_err(got, ref) < REL_TOL["f64"]


@pytest.mark.slow
@given(case=star_stencil_cases(ndim=2, dtype=f32), seed=seeds(),
       data=st.data())
@settings(max_examples=25)
def test_scheduled_executor_matches_reference_fp32(case, seed, data):
    stencil, kern, shape = case
    sched = data.draw(legal_schedules(kern, shape))
    assert_schedule_legal(stencil, kern, sched)
    init = init_planes(stencil, shape, seed, np.float32)
    ref = reference_run(stencil, init, 3, boundary="zero")
    got = ScheduledExecutor(stencil, {kern.name: sched}).run(init, 3)
    assert rel_err(got, ref) < REL_TOL["f32"]


@pytest.mark.slow
@given(case=star_stencil_cases(ndim=2), grid=process_grids(2, 3),
       seed=seeds(), boundary=boundaries)
@settings(max_examples=25)
def test_distributed_run_matches_reference(case, grid, seed, boundary):
    stencil, kern, shape = case
    halo = stencil.output.halo
    # the checker's own decomposition rule decides admissibility
    assume(check_program(stencil, mpi_grid=grid, shape=shape).ok)
    assert all(s // g >= h for s, g, h in zip(shape, grid, halo))
    init = init_planes(stencil, shape, seed)
    steps = 2
    ref = reference_run(stencil, init, steps, boundary=boundary)
    got = distributed_run(stencil, init, steps, grid=grid,
                          boundary=boundary)
    assert rel_err(got, ref) < REL_TOL["f64"]


@pytest.mark.slow
@given(case=star_stencil_cases(ndim=2), grid=process_grids(2, 3),
       seed=seeds(), boundary=boundaries)
@settings(max_examples=20)
def test_exchange_modes_bitwise_identical_star(case, grid, seed,
                                               boundary):
    """Every exchange mode must produce the *bit-identical* result: the
    wire protocol reorders messages, never arithmetic."""
    stencil, kern, shape = case
    assume(check_program(stencil, mpi_grid=grid, shape=shape).ok)
    init = init_planes(stencil, shape, seed)
    steps = 2
    ref = reference_run(stencil, init, steps, boundary=boundary)
    basic = distributed_run(stencil, init, steps, grid=grid,
                            boundary=boundary, exchange_mode="basic")
    assert np.array_equal(basic, ref)
    for mode in ("diag", "overlap"):
        got = distributed_run(stencil, init, steps, grid=grid,
                              boundary=boundary, exchange_mode=mode)
        assert np.array_equal(got, basic), mode


@pytest.mark.slow
@given(case=box_stencil_cases(ndim=2), grid=process_grids(2, 3),
       seed=seeds(), boundary=boundaries)
@settings(max_examples=20)
def test_exchange_modes_bitwise_identical_box(case, grid, seed,
                                              boundary):
    """Box stencils read the diagonal ghosts directly — the corner
    blocks the diag mode ships as first-class messages."""
    stencil, kern, shape = case
    assume(check_program(stencil, mpi_grid=grid, shape=shape).ok)
    init = init_planes(stencil, shape, seed)
    steps = 2
    ref = reference_run(stencil, init, steps, boundary=boundary)
    basic = distributed_run(stencil, init, steps, grid=grid,
                            boundary=boundary, exchange_mode="basic")
    assert np.array_equal(basic, ref)
    for mode in ("diag", "overlap"):
        got = distributed_run(stencil, init, steps, grid=grid,
                              boundary=boundary, exchange_mode=mode)
        assert np.array_equal(got, basic), mode


@pytest.mark.slow
@given(case=box_stencil_cases(ndim=3, max_radius=1, max_side=8),
       seed=seeds(), boundary=boundaries)
@settings(max_examples=10)
def test_exchange_modes_bitwise_identical_box_3d(case, seed, boundary):
    stencil, kern, shape = case
    grid = (2, 1, 2)
    assume(check_program(stencil, mpi_grid=grid, shape=shape).ok)
    init = init_planes(stencil, shape, seed)
    ref = reference_run(stencil, init, 2, boundary=boundary)
    for mode in ("basic", "diag", "overlap"):
        got = distributed_run(stencil, init, 2, grid=grid,
                              boundary=boundary, exchange_mode=mode)
        assert np.array_equal(got, ref), mode


@pytest.mark.slow
@needs_gcc
@given(case=star_stencil_cases(ndim=2, max_radius=1, max_side=12),
       seed=seeds(), data=st.data())
@settings(max_examples=10)
def test_compiled_c_matches_reference(case, seed, data):
    stencil, kern, shape = case
    sched = data.draw(legal_schedules(kern, shape))
    assert_schedule_legal(stencil, kern, sched)
    init = init_planes(stencil, shape, seed)
    steps = 3
    ref = reference_run(stencil, init, steps, boundary="zero")
    got = run_compiled_c(stencil, kern, sched, init, steps, shape,
                         np.float64)
    assert rel_err(got, ref) < REL_TOL["f64"]


@pytest.mark.slow
@given(case=star_stencil_cases(ndim=2), data=st.data())
@settings(max_examples=25)
def test_rejected_schedules_have_witnesses(case, data):
    """Whatever the checker rejects must actually fail to lower/run."""
    stencil, kern, shape = case
    factor = data.draw(st.integers(shape[0] + 1, shape[0] + 8))
    sched = Schedule(kern).tile(factor, 2, "xo", "xi", "yo", "yi")
    report = check_program(stencil, {kern.name: sched}, shape=shape)
    assert report.by_code("TILE001")
    with pytest.raises(ScheduleError, match="exceeds extent"):
        sched.lower(shape)


# ---------------------------------------------------------------------------
# deterministic smoke test (tier-1 lane)
# ---------------------------------------------------------------------------

def test_differential_smoke_all_backends():
    """One fixed case through every available backend (fast lane)."""
    from tests.conftest import make_2d5pt
    from repro.ir import Stencil

    tensor, kern = make_2d5pt(shape=(12, 16))
    stencil = Stencil(tensor, kern[Stencil.t - 1])
    sched = Schedule(kern).tile(4, 5, "xo", "xi", "yo", "yi")
    sched.parallel("xo", 2)
    assert_schedule_legal(stencil, kern, sched)

    init = init_planes(stencil, (12, 16), seed=7)
    steps = 3
    ref = reference_run(stencil, init, steps, boundary="zero")

    got_sched = ScheduledExecutor(stencil, {kern.name: sched}).run(
        init, steps
    )
    assert rel_err(got_sched, ref) < REL_TOL["f64"]

    got_mpi = distributed_run(stencil, init, steps, grid=(2, 2),
                              boundary="zero")
    assert rel_err(got_mpi, ref) < REL_TOL["f64"]

    # the exchange-mode axis must be bitwise-transparent
    for mode in ("basic", "diag", "overlap"):
        got_mode = distributed_run(stencil, init, steps, grid=(2, 2),
                                   boundary="zero", exchange_mode=mode)
        assert np.array_equal(got_mode, got_mpi), mode

    if GCC is not None:
        got_c = run_compiled_c(stencil, kern, sched, init, steps,
                               (12, 16), np.float64)
        assert rel_err(got_c, ref) < REL_TOL["f64"]


# ---------------------------------------------------------------------------
# a stencil is a one-stage pipeline: four entry points, one engine
# ---------------------------------------------------------------------------

def _aux_offset_stencil(depth=0):
    """``B[t] << k[t-1]`` with a coefficient tensor read ``depth`` back."""
    from repro.ir import Kernel, SpNode, Stencil, VarExpr

    shape = (12, 16)
    B = SpNode("B", shape, f64, halo=(1, 1), time_window=2)
    C = SpNode("C", shape, f64, halo=(1, 1), time_window=depth + 2)
    j, i = VarExpr("j"), VarExpr("i")
    coeff = C.at(-depth) if depth else C
    kern = Kernel(
        "k", (j, i),
        coeff[j, i] * B[j, i]
        + 0.125 * (B[j, i - 1] + B[j, i + 1] + B[j - 1, i] + B[j + 1, i])
        + 0.01 * coeff[j, i + 1],
    )
    return Stencil(B, kern[Stencil.t - 1])


def _two_kernel_stencil():
    """Two different kernels at t-1 and t-2, one reading ``B.at(-1)``."""
    from repro.ir import Kernel, SpNode, Stencil, VarExpr

    B = SpNode("B", (12, 16), f64, halo=(1, 1), time_window=4)
    j, i = VarExpr("j"), VarExpr("i")
    near = Kernel("near", (j, i), 0.5 * B[j, i] + 0.25 * B[j, i - 1])
    far = Kernel("far", (j, i),
                 0.3 * B[j + 1, i] - 0.1 * B.at(-1)[j - 1, i + 1])
    t = Stencil.t
    return Stencil(B, near[t - 1] + 0.7 * far[t - 2])


def _aux_halo_stencil():
    """``B`` (halo 1) reads ``C[j, i+1]`` and ``C[j-1, i]`` of a static
    ``C`` laid out with halo 2: ``C``'s halo is filled by its own
    layout, not the output's."""
    from repro.ir import Kernel, SpNode, Stencil, VarExpr

    shape = (12, 16)
    B = SpNode("B", shape, f64, halo=(1, 1), time_window=2)
    C = SpNode("C", shape, f64, halo=(2, 2), time_window=2)
    j, i = VarExpr("j"), VarExpr("i")
    kern = Kernel(
        "k", (j, i),
        0.5 * B[j, i] + 0.125 * (B[j, i - 1] + B[j + 1, i])
        + 0.25 * C[j, i + 1] - 0.125 * C[j - 1, i],
    )
    return Stencil(B, kern[Stencil.t - 1])


def _small_grid(bench):
    """A test-sized grid that still fits the benchmark's radius."""
    base = (24, 20) if bench.ndim == 2 else (12, 12, 12)
    return tuple(max(s, 4 * bench.radius) for s in base)


def _seeded(stencil, seed=21):
    """(init planes, aux inputs or None) in the stencil's dtype."""
    out = stencil.output
    rng = np.random.default_rng(seed)
    np_dtype = out.dtype.np_dtype
    init = [rng.random(out.shape).astype(np_dtype)
            for _ in range(stencil.required_time_window - 1)]
    inputs = {
        tensor.name: rng.random(tensor.shape).astype(np_dtype)
        for kern in stencil.kernels for tensor in kern.input_tensors
        if tensor.name != out.name
    } or None
    return init, inputs


def _one_stage_cases():
    from repro.frontend.stencils import ALL_BENCHMARKS

    for bench in ALL_BENCHMARKS:
        yield pytest.param(
            lambda bench=bench:
                bench.build(grid=_small_grid(bench))[0].ir,
            id=bench.name,
        )
    yield pytest.param(_aux_offset_stencil, id="aux-input")
    yield pytest.param(_two_kernel_stencil, id="two-kernels")


@pytest.mark.parametrize("boundary", ["zero", "periodic", "reflect"])
@pytest.mark.parametrize("make", _one_stage_cases())
def test_stencil_is_a_one_stage_pipeline(make, boundary):
    """A ``Stencil`` and its one-stage ``StagePipeline`` agree bitwise
    with the reference through every numpy entry point (the serial ones
    under reflect: ranks exchange zero/periodic halos)."""
    from repro.frontend import StencilProgram
    from repro.ir import StagePipeline

    stencil = make()
    out = stencil.output
    init, inputs = _seeded(stencil, seed=13)
    steps = 3
    grid = (2, 2) if out.ndim == 2 else (2, 1, 2)
    pipe = StagePipeline((stencil,))
    ref = reference_run(stencil, init, steps, boundary=boundary,
                        inputs=inputs)

    def program(mpi_grid=None):
        prog = StencilProgram.of(pipe, boundary).set_initial(
            {out.name: init})
        for name, data in (inputs or {}).items():
            prog.set_input(name, data)
        return prog.set_mpi_grid(mpi_grid) if mpi_grid else prog

    got = {
        "scheduled": ScheduledExecutor(
            stencil, {}, boundary=boundary, inputs=inputs
        ).run(init, steps),
        "pipeline": ScheduledExecutor(
            pipe, {}, boundary=boundary, inputs=inputs
        ).run({out.name: init}, steps),
        "program": program().run(steps),
    }
    if boundary != "reflect":
        got["distributed program"] = program(grid).run(steps)
        for mode in ("basic", "diag", "overlap"):
            got[f"distributed {mode}"] = distributed_run(
                stencil, init, steps, grid, boundary=boundary,
                inputs=inputs, exchange_mode=mode,
            )
    for path, result in got.items():
        assert np.array_equal(result, ref), path


def test_aux_read_deeper_than_four_steps():
    """``C.at(-5)`` binds the one static plane of ``C`` on every path."""
    stencil = _aux_offset_stencil(depth=5)
    rng = np.random.default_rng(5)
    init = [rng.random((12, 16))]
    inputs = {"C": rng.random((12, 16))}
    ref = reference_run(stencil, init, 3, inputs=inputs)
    assert np.array_equal(
        ref, reference_run(_aux_offset_stencil(), init, 3, inputs=inputs)
    )
    assert np.array_equal(
        ScheduledExecutor(stencil, {}, inputs=inputs).run(init, 3), ref
    )
    assert np.array_equal(
        distributed_run(stencil, init, 3, (2, 2), inputs=inputs), ref
    )
    if GCC is not None:
        from repro.backend.native import NativeExecutor

        native = NativeExecutor(stencil, {}, inputs=inputs).run(init, 3)
        assert np.array_equal(native, ref)


# ---------------------------------------------------------------------------
# the generated direct-write sweep: native == reference_run, bit for bit
# ---------------------------------------------------------------------------

def assert_same_bits(got: np.ndarray, ref: np.ndarray) -> None:
    """Stricter than ``array_equal``: ``-0.0`` and ``+0.0`` differ."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _table4_program(name, dtype, scheduled):
    """(stencil, schedules) at a small grid; ``scheduled`` applies the
    Table-5 tile (clamped to the grid), its reorder and ``parallel``."""
    from repro.evalsuite.harness import build_with_schedule
    from repro.frontend.stencils import benchmark_by_name

    bench = benchmark_by_name(name)
    shape = _small_grid(bench)
    if scheduled:
        prog, _ = build_with_schedule(name, "cpu", dtype=dtype, grid=shape)
    else:
        prog, _ = bench.build(grid=shape, dtype=dtype)
    return prog.ir, prog.schedules()


def _native_vs_reference(stencil, schedules, boundary, steps=3,
                         scalars=None, init=None):
    from repro.backend.native import NativeExecutor

    seeded, inputs = _seeded(stencil)
    init = seeded if init is None else init
    ref = reference_run(stencil, init, steps, boundary=boundary,
                        inputs=inputs, scalars=scalars)
    got = NativeExecutor(stencil, schedules, boundary=boundary,
                         inputs=inputs, scalars=scalars).run(init, steps)
    assert_same_bits(got, ref)


def _main_vs_reference(stencil, schedules, boundary, steps=3, scalars=None,
                       init=None):
    """The file-I/O ``main`` flavour, built and run the way ``repro
    verify`` does it (artifact cache, run timeout)."""
    from repro.evalsuite.verify import _compile_and_run

    out = stencil.output
    seeded, inputs = _seeded(stencil)
    init = seeded if init is None else init
    gen = CCodeGenerator(stencil, schedules, boundary=boundary,
                         scalars=scalars)
    # init.bin: the history planes, then each static input once
    planes = init + [inputs[aux.name] for aux in gen.aux_tensors]
    got, note = _compile_and_run(
        gen.generate("fused").files, "fused",
        np.concatenate([p.ravel() for p in planes]), steps,
        out.dtype.np_dtype, out.shape, flags=None,
    )
    assert not note, note
    assert_same_bits(got, reference_run(stencil, init, steps,
                                        boundary=boundary, inputs=inputs,
                                        scalars=scalars))


_BOUNDARIES = ["zero", "periodic", "reflect"]
_DTYPES = pytest.mark.parametrize("dtype", [f64, f32], ids=["f64", "f32"])
_SCHEDULED = pytest.mark.parametrize(
    "scheduled", [False, True], ids=["default", "table5"]
)


@needs_gcc
@_SCHEDULED
@_DTYPES
@pytest.mark.parametrize("boundary", _BOUNDARIES)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_native_bitwise_table4(name, boundary, dtype, scheduled):
    stencil, schedules = _table4_program(name, dtype, scheduled)
    _native_vs_reference(stencil, schedules, boundary)


@needs_gcc
@_SCHEDULED
@_DTYPES
@pytest.mark.parametrize("boundary", _BOUNDARIES)
@pytest.mark.parametrize("name", ["2d9pt_star", "3d7pt_star"])
def test_generated_main_bitwise(name, boundary, dtype, scheduled):
    stencil, schedules = _table4_program(name, dtype, scheduled)
    _main_vs_reference(stencil, schedules, boundary)


def _three_run_stencil():
    """``near, far, near``: the shared kernel is not consecutive, so the
    generator emits three sweeps, two of them accumulating."""
    two = _two_kernel_stencil()
    near, far = two.kernels
    t = two.t
    return type(two)(two.output,
                     near[t - 1] + 0.7 * far[t - 2] - 0.2 * near[t - 3])


def _different_schedules(stencil):
    """Every kernel gets its own tile shape; the first runs parallel."""
    schedules = {}
    for n, kern in enumerate(stencil.kernels):
        sched = Schedule(kern).tile(4 + n, 5 - n, "xo", "xi", "yo", "yi")
        if n == 0:
            sched.parallel("xo", 2)
        else:
            sched.reorder("yo", "xo", "yi", "xi")
        schedules[kern.name] = sched
    return schedules


@needs_gcc
@pytest.mark.parametrize("boundary", _BOUNDARIES)
@pytest.mark.parametrize("make, runs", [
    (_two_kernel_stencil, 2),
    (_three_run_stencil, 3),
    (_aux_offset_stencil, 1),
    (_aux_halo_stencil, 1),
], ids=["two-kernels", "near-far-near", "aux-input", "aux-halo"])
def test_native_bitwise_multi_run(make, runs, boundary):
    stencil = make()
    schedules = _different_schedules(stencil)
    assert len(CCodeGenerator(stencil, schedules).sweep_runs) == runs
    _native_vs_reference(stencil, schedules, boundary)
    _native_vs_reference(stencil, {}, boundary)
    _main_vs_reference(stencil, schedules, boundary)


@needs_gcc
@pytest.mark.parametrize("dtype", [f64, f32], ids=["f64", "f32"])
def test_negative_zero_terms_sum_to_positive_zero(dtype):
    """``reference_run`` accumulates into zeros, so an all ``-0.0`` term
    yields ``+0.0``: the ``(real)0 +`` seed of the first sweep."""
    from repro.backend.native import NativeExecutor
    from repro.ir import Stencil
    from tests.conftest import make_2d5pt

    tensor, kern = make_2d5pt(shape=(8, 8), dtype=dtype)
    stencil = Stencil(tensor, kern[Stencil.t - 1])
    init = [np.full((8, 8), -0.0, dtype=dtype.np_dtype)]
    assert np.signbit(init[0]).all()
    ref = reference_run(stencil, init, 1, boundary="periodic")
    assert not np.signbit(ref).any()
    got = NativeExecutor(stencil, {}, boundary="periodic").run(init, 1)
    assert_same_bits(got, ref)


# ---------------------------------------------------------------------------
# one C program generator: a one-stage pipeline prints the stencil's
# program, and a pipeline and an MPI rank equal their numpy paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("boundary", _BOUNDARIES)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_one_stage_pipeline_prints_the_stencil_program(name, boundary):
    from repro.frontend.stencils import benchmark_by_name
    from repro.ir import StagePipeline

    prog, _ = benchmark_by_name(name).build(boundary=boundary)
    for generator in (CCodeGenerator, SharedLibGenerator):
        files = [
            generator(program, prog.schedules(), boundary=boundary
                      ).generate("b").files
            for program in (prog.ir, StagePipeline((prog.ir,)))
        ]
        assert files[0] == files[1], generator.__name__


def _multigrid_pipeline(dtype):
    """The smoother + residual of ``examples/multigrid_smoother.py``."""
    path = (Path(__file__).resolve().parent.parent / "examples"
            / "multigrid_smoother.py")
    spec = importlib.util.spec_from_file_location("multigrid_smoother",
                                                  path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    return example.build_pipeline(24, dtype=dtype)


def _wave3d_pipeline(dtype):
    from tests.test_pipeline_codegen import _wave_pipeline

    return _wave_pipeline(dtype=dtype)


def _table5_schedules(pipeline):
    """Every stage kernel under the Table-5 ``cpu`` schedule (tile
    clamped to the grid, reorder, ``parallel``) of the Table-4 star of
    its dimensionality — as ``build_with_schedule`` applies it."""
    from repro.evalsuite.configs import table5_row

    row = table5_row("2d9pt_star" if pipeline.ndim == 2 else "3d7pt_star")
    tile = [min(t, s) for t, s in zip(row.matrix_tile, pipeline.shape)]
    axes = ("xo", "xi", "yo", "yi", "zo", "zi")[:2 * pipeline.ndim]
    return {
        kern.name: Schedule(kern).tile(*tile, *axes).reorder(*row.reorder)
        .parallel("xo", 28)
        for stage in pipeline.stages for kern in stage.kernels
    }


def _pipeline_program(pipeline, boundary, seeds, inputs=None):
    """``pipeline`` as a ready ``StencilProgram``: the one run entry."""
    from repro.frontend import StencilProgram

    prog = StencilProgram.of(pipeline, boundary).set_initial(seeds)
    for name, data in (inputs or {}).items():
        prog.set_input(name, data)
    return prog


@needs_gcc
@_SCHEDULED
@_DTYPES
@pytest.mark.parametrize("boundary", _BOUNDARIES)
@pytest.mark.parametrize("make", [_multigrid_pipeline, _wave3d_pipeline],
                         ids=["multigrid", "wave3d"])
def test_generated_pipeline_bitwise(make, boundary, dtype, scheduled):
    """The pipeline's file-I/O program equals ``StencilProgram.run``."""
    from repro.evalsuite.verify import _compile_and_run

    pipe = make(dtype)
    np_dtype = dtype.np_dtype
    rng = np.random.default_rng(8)
    seeds = {
        name: [rng.random(pipe.shape).astype(np_dtype) for _ in range(k)]
        for name, k in pipe.required_history().items() if k
    }
    inputs = {name: rng.random(pipe.shape).astype(np_dtype)
              for name in pipe.aux_tensors()}
    # init.bin: each stage's seeds in pipeline order, then the inputs
    blob = np.concatenate(
        [p.ravel() for out in pipe.outputs for p in seeds.get(out.name, [])]
        + [data.ravel() for data in inputs.values()]
    )
    gen = CCodeGenerator(pipe, _table5_schedules(pipe) if scheduled else {},
                         boundary=boundary)
    got, note = _compile_and_run(
        gen.generate("pipe").files, "pipe", blob, 4, np_dtype,
        (pipe.nstages, *pipe.shape), flags=None,
    )
    assert not note, note
    ref = _pipeline_program(pipe, boundary, seeds, inputs).run(4)
    for plane, out in zip(got, pipe.outputs):
        assert_same_bits(plane, ref[out.name])


def _negative_zero_stencil():
    """The 2d5pt stencil; its seed is all ``-0.0`` (see below)."""
    from repro.ir import Stencil
    from tests.conftest import make_2d5pt

    tensor, kern = make_2d5pt(shape=(8, 8), dtype=f64)
    return Stencil(tensor, kern[Stencil.t - 1])


def _mpi_cases():
    from repro.frontend.stencils import benchmark_by_name

    for name in BENCHMARK_NAMES:
        bench = benchmark_by_name(name)
        yield pytest.param(
            lambda bench=bench: bench.build(grid=_small_grid(bench))[0].ir,
            id=name,
        )
    yield pytest.param(_two_kernel_stencil, id="two-kernels")
    yield pytest.param(_negative_zero_stencil, id="negative-zero")
    for name in ("2d25pt_box", "3d125pt_box"):  # rerolled, see below
        yield pytest.param(lambda name=name: _row_box(name), id=name)


@needs_gcc
@pytest.mark.parametrize("boundary", ["zero", "periodic"])
@pytest.mark.parametrize("make", _mpi_cases())
def test_mpi_stub_program_bitwise(make, boundary):
    """The rank program on a 1x..x1 grid against the single-rank stub:
    every halo goes through ``msc_fill_boundary`` + ``msc_exchange``."""
    from repro.evalsuite.verify import _compile_and_run

    stencil = make()
    init, _ = _seeded(stencil)
    if make is _negative_zero_stencil:
        init = [np.full_like(plane, -0.0) for plane in init]
    code = generate_mpi(stencil, {}, "rank", (1,) * stencil.ndim,
                        boundary=boundary)
    got, note = _compile_and_run(
        code.files, "rank", np.concatenate([p.ravel() for p in init]), 3,
        np.float64, stencil.output.shape,
        flags=["-O2", "-ffp-contract=off", "-DMSC_MPI_STUB"],
        compile_files=["rank_mpi.c", "msc_comm.c"],
    )
    assert not note, note
    assert_same_bits(got, reference_run(stencil, init, 3, boundary=boundary))


# ---------------------------------------------------------------------------
# constants: where no Table-4 program looks.  Every sub-tree without a
# tensor read is folded once in ``ir.program``, so numpy and C are handed
# the same value — an int ``1 / 2`` is 0.5 in both, ``0.01 + 0.04`` is
# rounded to fp32 once in both
# ---------------------------------------------------------------------------

#: name -> (the centre point's term given its read, fp32 too?); libm on
#: constants is fp64 only: in fp32 a folded ``sqrt`` is a float64 numpy
#: scalar that promotes the oracle's whole expression (docs/NATIVE.md)
_CONSTANT_TERMS = {
    "(1/2)*A": (lambda a: (ConstExpr(1) / 2) * a, True),
    "(3*2)*A": (lambda a: (ConstExpr(3) * 2) * a, True),
    "A/3": (lambda a: a / 3, True),
    "-(1/4)*A": (lambda a: -(ConstExpr(1) / 4) * a, True),
    "(0.01+0.04)*A": (lambda a: (ConstExpr(0.01) + 0.04) * a, True),
    "(c0*c1)*A": (
        lambda a: (VarExpr("c0", "f64") * VarExpr("c1", "f64")) * a, True),
    "((1/3)/7)*A": (lambda a: ((ConstExpr(1) / 3) / 7) * a, True),
    "sqrt(4)*A": (lambda a: CallFuncExpr("sqrt", (4,)) * a, False),
    "pow(2.0,-1)*A": (lambda a: CallFuncExpr("pow", (2.0, -1)) * a, False),
}
_CONSTANT_SCALARS = {"c0": 0.01, "c1": 0.03}


def _constant_stencil(term, dtype, shape=(32, 32)):
    from repro.ir import Kernel, SpNode, Stencil

    A = SpNode("A", shape, dtype, halo=(1, 1), time_window=2)
    j, i = VarExpr("j"), VarExpr("i")
    kern = Kernel("S", (j, i), term(A[j, i]) + 0.25 * A[j, i - 1]
                  + 0.2 * A[j + 1, i])
    return Stencil(A, kern[Stencil.t - 1])


@needs_gcc
@pytest.mark.parametrize("boundary", ["zero", "periodic"])
@pytest.mark.parametrize("term, dtype", [
    pytest.param(term, dtype, id=f"{name}-{dtype.name}")
    for name, (term, fp32_too) in _CONSTANT_TERMS.items()
    for dtype in ([f64, f32] if fp32_too else [f64])
])
def test_native_bitwise_constants(term, dtype, boundary):
    stencil = _constant_stencil(term, dtype)
    scalars = _CONSTANT_SCALARS
    init, _ = _seeded(stencil)
    assert_same_bits(
        ScheduledExecutor(stencil, {}, boundary, scalars=scalars).run(init, 3),
        reference_run(stencil, init, 3, boundary, scalars=scalars))
    _native_vs_reference(stencil, {}, boundary, scalars=scalars)
    _main_vs_reference(stencil, {}, boundary, scalars=scalars)


@needs_gcc
@settings(max_examples=100)
@given(case=expression_kernel_cases(operators_only=True),
       boundary=boundaries, seed=seeds())
def test_native_bitwise_random_operator_kernels(case, boundary, seed):
    """The strategy that proved the numpy engine, restricted to what C
    must reproduce, through the shared library."""
    from repro.backend.native import NativeExecutor
    from repro.ir import Stencil

    kernel, A, C, scalars = case
    t = Stencil.t
    stencil = Stencil(A, 0.5 * kernel[t - 1] + 0.5 * kernel[t - 2])
    rng = np.random.default_rng(seed)
    init = [rng.uniform(-1, 1, A.shape).astype(A.dtype.np_dtype)
            for _ in range(2)]
    inputs = None
    if any(tensor.name == "C" for tensor in kernel.input_tensors):
        inputs = {"C": rng.uniform(-2, 2, C.shape).astype(C.dtype.np_dtype)}

    def native():
        return NativeExecutor(stencil, {}, boundary=boundary, inputs=inputs,
                              scalars=scalars).run(init, 3)

    with np.errstate(all="ignore"):
        try:
            ref = reference_run(stencil, init, 3, boundary, inputs=inputs,
                                scalars=scalars)
        except Exception as exc:  # a constant kernel, ``1 / w0``, w0 = 0
            with pytest.raises(type(exc)):
                native()
            assume(False)
    # a NaN's sign and payload are the hardware's choice of operand
    assume(np.isfinite(ref).all())
    try:
        got = native()
    except ValueError as exc:
        # scalars that fold to ``inf`` (``w0 / 5e-324``): numpy computes
        # on, C has no literal to print (docs/NATIVE.md, Constants)
        assume("has no C literal" not in str(exc))
        raise
    assert_same_bits(got, ref)


# ---------------------------------------------------------------------------
# wide dense boxes print in matrix form — a coefficient table and loops
# over its rows (c_codegen.row_table) — doing the fused statement's
# operations per point in its order: still bit-equal to the oracle
# ---------------------------------------------------------------------------

#: name -> (ndim, radius, grid).  Odd outer extents (the Table-5 tiles
#: of 2 do not divide them) and an innermost extent past one row strip
#: (64 points) that is no multiple of it
_ROW_BOXES = {
    "2d121pt_box": (2, 5, (27, 70)),
    "2d169pt_box": (2, 6, (27, 70)),
    "2d25pt_box": (2, 2, (13, 131)),
    "3d125pt_box": (3, 2, (9, 11, 70)),  # rows over (dz, dy)
}


def _row_box(name, dtype=f64):
    """``name`` of :data:`_ROW_BOXES` as a Table-4-style box stencil."""
    from repro.frontend.stencils import BenchmarkDef

    ndim, radius, grid = _ROW_BOXES[name]
    points = (2 * radius + 1) ** ndim
    bench = BenchmarkDef(name, ndim, "box", radius, points, 0, 0, 0, 2, grid)
    return bench.build(grid=grid, dtype=dtype)[0].ir


def _row_schedules(stencil, kind):
    """No schedule, the Table-5 one, or an inner tile (24) that does not
    divide the innermost extent, its axis vectorised (``inner-simd``)
    or unrolled (``inner-unroll``): the pragmas of the row loops."""
    from repro.ir import StagePipeline

    if kind == "default":
        return {}
    if kind == "table5":
        return _table5_schedules(StagePipeline((stencil,)))
    (kern,) = stencil.kernels
    axes = ("xo", "xi", "yo", "yi", "zo", "zi")[:2 * stencil.ndim]
    sched = Schedule(kern).tile(*(5, 4, 24)[-stencil.ndim:], *axes)
    sched.reorder(*axes[0::2], *axes[1::2]).parallel("xo", 2)
    if kind == "inner-simd":
        return {kern.name: sched.vectorize(axes[-1])}
    return {kern.name: sched.unroll(axes[-1], 4)}


def _rerolled(stencil, schedules, scalars=None) -> bool:
    src = CCodeGenerator(stencil, schedules, scalars=scalars).generate(
        "r").main_source
    return "static const real sweep_0_" in src


@needs_gcc
@_DTYPES
@pytest.mark.parametrize("kind", ["default", "table5", "inner-simd"])
@pytest.mark.parametrize("boundary", _BOUNDARIES)
@pytest.mark.parametrize("name", list(_ROW_BOXES))
def test_rerolled_box_bitwise(name, boundary, kind, dtype):
    """The file-I/O ``main`` of every rerolled box, and the shared
    library (the same sweeps, another entry point) unscheduled for the
    two that are not Table-4 programs — ``test_native_bitwise_table4``
    covers the others."""
    stencil = _row_box(name, dtype)
    schedules = _row_schedules(stencil, kind)
    assert _rerolled(stencil, schedules)
    _main_vs_reference(stencil, schedules, boundary)
    if name not in BENCHMARK_NAMES and kind == "default":
        _native_vs_reference(stencil, schedules, boundary)


@needs_gcc
@_DTYPES
def test_rerolled_negative_zero_seed(dtype):
    """All ``-0.0`` planes: the first row's first tap starts each chain
    (no ``0 +``), the ``(real)0 +`` seed of the write gives ``+0.0``."""
    stencil = _row_box("2d25pt_box", dtype)
    init = [np.full(stencil.output.shape, -0.0, dtype=dtype.np_dtype)
            for _ in range(2)]
    assert not np.signbit(reference_run(stencil, init, 1)).any()
    for schedules in ({}, _row_schedules(stencil, "inner-unroll")):
        _native_vs_reference(stencil, schedules, "periodic", init=init)
        _main_vs_reference(stencil, schedules, "periodic", init=init)


@needs_gcc
@pytest.mark.parametrize("boundary", _BOUNDARIES)
def test_rerolled_folded_scalar_coefficient(boundary):
    """A runtime scalar in a coefficient folds to a table entry."""
    from repro.ir import Kernel, SpNode, Stencil

    B = SpNode("B", (12, 67), f64, halo=(2, 2), time_window=3)
    j, i = VarExpr("j"), VarExpr("i")
    w = VarExpr("w", "f64")
    expr = None
    for n, (dy, dx) in enumerate(
            (dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)):
        coef = (w * 0.5) if (dy, dx) == (0, 0) else 0.01 * (n + 1)
        term = coef * B[j + dy if dy else j, i + dx if dx else i]
        expr = term if expr is None else expr + term
    kern = Kernel("k", (j, i), expr)
    t = Stencil.t
    stencil = Stencil(B, 0.6 * kern[t - 1] + 0.4 * kern[t - 2])
    scalars = {"w": 0.3}
    assert _rerolled(stencil, {}, scalars)
    _native_vs_reference(stencil, {}, boundary, scalars=scalars)
    _main_vs_reference(stencil, {}, boundary, scalars=scalars)


def _box_pipeline(dtype):
    """A 5x5 box smoothing ``U``, then a 5x5 box over ``U`` into ``R``
    (a stage reference, its planes ``U_m<d>``; ``R`` has its own
    halo)."""
    from repro.ir import Kernel, SpNode, StagePipeline, Stencil

    shape = (11, 75)
    U = SpNode("U", shape, dtype, halo=(2, 2), time_window=2)
    R = SpNode("R", shape, dtype, halo=(3, 3), time_window=2)
    j, i = VarExpr("j"), VarExpr("i")

    def box(name, tensor, scale):
        expr = None
        for n, (dy, dx) in enumerate(
                (dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)):
            term = (scale * (n % 7 + 1)) * tensor[j + dy if dy else j,
                                                  i + dx if dx else i]
            expr = term if expr is None else expr + term
        return Kernel(name, (j, i), expr)

    t = Stencil.t
    return StagePipeline((
        Stencil(U, box("smooth", U, 0.01)[t - 1]),
        Stencil(R, box("spread", U, 0.03)[t - 1]),
    ))


@needs_gcc
@_SCHEDULED
@_DTYPES
@pytest.mark.parametrize("boundary", _BOUNDARIES)
def test_generated_box_pipeline_bitwise(boundary, dtype, scheduled):
    """A two-stage pipeline whose both stages reroll equals
    ``StencilProgram.run``."""
    from repro.evalsuite.verify import _compile_and_run

    pipe = _box_pipeline(dtype)
    schedules = _table5_schedules(pipe) if scheduled else {}
    files = CCodeGenerator(pipe, schedules, boundary=boundary).generate(
        "pipe").files
    assert files["pipe.c"].count("static const real sweep_") == 2
    np_dtype = dtype.np_dtype
    rng = np.random.default_rng(4)
    seeds = {name: [rng.random(pipe.shape).astype(np_dtype)
                    for _ in range(k)]
             for name, k in pipe.required_history().items() if k}
    blob = np.concatenate([p.ravel() for out in pipe.outputs
                           for p in seeds.get(out.name, [])])
    got, note = _compile_and_run(
        files, "pipe", blob, 4, np_dtype, (pipe.nstages, *pipe.shape),
        flags=None,
    )
    assert not note, note
    ref = _pipeline_program(pipe, boundary, seeds).run(4)
    for plane, out in zip(got, pipe.outputs):
        assert_same_bits(plane, ref[out.name])
