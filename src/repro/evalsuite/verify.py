"""Correctness verification harness (the Sec. 5.1 methodology).

"To ensure the correctness of MSC, we measure the relative errors
between the generated codes and the serial codes" — this module runs a
benchmark through every execution path of the reproduction and reports
each path's maximum relative error against the serial reference:

- the tiled scheduled executor (the structure the C backend emits),
- the distributed executor over the simulated MPI runtime,
- the compiled generated C program (when a C compiler is available),
- overlapped temporal tiling.

Exposed on the CLI as ``python -m repro verify <benchmark>``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..backend import native
from ..backend.numpy_backend import ScheduledExecutor, reference_run
from ..backend.temporal_exec import TemporalTilingExecutor
from ..frontend.stencils import benchmark_by_name
from ..ir.dtypes import DType, f64
from ..runtime.executor import distributed_run
from ..schedule.schedule import Schedule

__all__ = ["PathResult", "verify_benchmark", "relative_error"]

_GRIDS = {2: (24, 20), 3: (12, 12, 12)}
_MPI = {2: (2, 2), 3: (2, 1, 2)}


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """Max elementwise relative error, guarding tiny denominators."""
    denom = np.maximum(np.abs(ref), 1e-300)
    return float(np.max(np.abs(got - ref) / denom))


@dataclass(frozen=True)
class PathResult:
    """One execution path's verification outcome."""

    path: str
    rel_error: float
    tolerance: float
    ran: bool = True
    note: str = ""

    @property
    def passed(self) -> bool:
        return (not self.ran) or self.rel_error < self.tolerance


def _tiled_schedule(stencil) -> Dict[str, Schedule]:
    kern = stencil.kernels[0]
    shape = stencil.output.shape
    factors = tuple(max(2, s // 3) for s in shape)
    names = (
        ("xo", "xi", "yo", "yi") if len(shape) == 2
        else ("xo", "xi", "yo", "yi", "zo", "zi")
    )
    return {kern.name: Schedule(kern).tile(*factors, *names)}


def _compile_and_run(files: Mapping[str, str], binary: str,
                     init_blob: np.ndarray, timesteps: int,
                     out_dtype, out_shape: Sequence[int],
                     flags: Sequence[str],
                     compile_files: Optional[Sequence[str]] = None
                     ) -> Tuple[Optional[np.ndarray], str]:
    """Build one generated bundle through the shared artifact cache and
    execute it under the run timeout.

    The single compile/run path for every verify flavour (plain C, MPI
    stub, athread stub): ``repro verify`` populates — and benefits
    from — the same content-addressed cache as ``repro run``, and a
    wedged compile or runaway binary surfaces as a ``... timed out``
    note instead of hanging forever.
    """
    if not native.native_available():
        return None, "gcc not available"
    try:
        artifact = native.build_artifact(
            files, binary, kind="exe", flags=flags,
            compile_files=compile_files,
        )
    except native.NativeBuildError as exc:
        if exc.timed_out:
            return None, "compile timed out"
        return None, f"compile failed: {exc.stderr[:200]}"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        init_blob.tofile(str(tmp / "i.bin"))
        try:
            run = native.run_binary(
                artifact.path, ["i.bin", str(timesteps), "o.bin"],
                cwd=str(tmp),
            )
        except native.NativeRunError as exc:
            if exc.timed_out:
                return None, "run timed out"
            return None, f"run failed: {exc}"
        if run.returncode != 0:
            return None, f"run failed: {run.stderr[:200]}"
        got = np.fromfile(str(tmp / "o.bin"), dtype=out_dtype)
    return got.reshape(tuple(out_shape)), ""


def _compiled_c(stencil, init, timesteps, boundary) -> Tuple[float, str]:
    from ..backend.c_codegen import CCodeGenerator

    code = CCodeGenerator(stencil, {}, boundary=boundary).generate("vrf")
    blob = np.concatenate([p.ravel() for p in init]).astype(
        stencil.output.dtype.np_dtype
    )
    got, note = _compile_and_run(
        code.files, "vrf", blob, timesteps,
        stencil.output.dtype.np_dtype, stencil.output.shape,
        flags=["-O2"],
    )
    if note:
        return float("nan"), note
    ref = reference_run(stencil, init, timesteps, boundary=boundary)
    return relative_error(got, ref), ""


def _native_inprocess(stencil, init, timesteps,
                      boundary) -> Tuple[float, str]:
    """Run the shared-library backend itself (same cache as repro run)."""
    if not native.native_available():
        return float("nan"), "gcc not available"
    try:
        ex = native.NativeExecutor(stencil, {}, boundary=boundary)
        got = ex.run(init, timesteps)
    except native.NativeBuildError as exc:
        if exc.timed_out:
            return float("nan"), "compile timed out"
        return float("nan"), f"compile failed: {exc.stderr[:200]}"
    except native.NativeRunError as exc:
        return float("nan"), f"run failed: {exc}"
    ref = reference_run(stencil, init, timesteps, boundary=boundary)
    return relative_error(got, ref), ""


def verify_benchmark(name: str, dtype: DType = f64,
                     timesteps: int = 4, seed: int = 0,
                     boundary: str = "periodic") -> List[PathResult]:
    """Run every execution path of one benchmark; return the results."""
    bench = benchmark_by_name(name)
    grid = tuple(
        max(g, 4 * bench.radius) for g in _GRIDS[bench.ndim]
    )
    prog, _ = bench.build(grid=grid, dtype=dtype, boundary=boundary)
    stencil = prog.ir
    tol = dtype.tolerance
    rng = np.random.default_rng(seed)
    init = [
        rng.random(grid).astype(dtype.np_dtype) for _ in range(2)
    ]
    ref = reference_run(stencil, init, timesteps, boundary=boundary)
    results: List[PathResult] = []

    scheduled = ScheduledExecutor(
        stencil, _tiled_schedule(stencil), boundary=boundary
    ).run(init, timesteps)
    results.append(PathResult(
        "scheduled (tiled)", relative_error(scheduled, ref), tol
    ))

    dist = distributed_run(
        stencil, init, timesteps, _MPI[bench.ndim], boundary=boundary
    )
    results.append(PathResult(
        f"distributed {_MPI[bench.ndim]}", relative_error(dist, ref), tol
    ))

    tile = tuple(max(2 * bench.radius, s // 2) for s in grid)
    temporal = TemporalTilingExecutor(
        stencil, tile, 2, boundary=boundary
    ).run(init, timesteps // 2)
    ref_even = reference_run(
        stencil, init, 2 * (timesteps // 2), boundary=boundary
    )
    results.append(PathResult(
        "temporal tiling (T=2)", relative_error(temporal, ref_even), tol
    ))

    err, note = _compiled_c(stencil, init, timesteps, boundary)
    if note:
        results.append(PathResult("compiled C", float("nan"), tol,
                                  ran=False, note=note))
    else:
        results.append(PathResult("compiled C", err, tol))

    err, note = _native_inprocess(stencil, init, timesteps, boundary)
    if note:
        results.append(PathResult("native (in-process)", float("nan"),
                                  tol, ran=False, note=note))
    else:
        results.append(PathResult("native (in-process)", err, tol))

    err, note = _compiled_mpi_stub(stencil, init, timesteps, boundary)
    if note:
        results.append(PathResult("compiled MPI (stub)", float("nan"),
                                  tol, ran=False, note=note))
    else:
        results.append(PathResult("compiled MPI (stub)", err, tol))

    err, note = _compiled_athread_stub(name, dtype, init, timesteps,
                                       boundary)
    if note:
        results.append(PathResult("compiled athread (stub)",
                                  float("nan"), tol, ran=False,
                                  note=note))
    else:
        results.append(PathResult("compiled athread (stub)", err, tol))
    return results


def _compiled_athread_stub(name, dtype, init, timesteps,
                           boundary) -> Tuple[float, str]:
    """Build the Sunway master/slave bundle against the sequential
    athread stub and execute it (SPM staging, DMA reply counters and
    the round-robin CPE tile mapping all run)."""
    from ..backend.targets import generate
    from ..evalsuite.harness import build_with_schedule

    bench = benchmark_by_name(name)
    # athread codegen needs tiles dividing the domain: use a grid the
    # Table-5 tile divides after clamping
    grid = (64, 64) if bench.ndim == 2 else (16, 16, 64)
    grid = tuple(max(g, 4 * bench.radius) for g in grid)
    try:
        prog, _ = build_with_schedule(name, "sunway", dtype, grid=grid)
        code = generate(prog.ir, prog.schedules(), "vsw",
                        target="sunway", boundary=boundary)
    except ValueError as exc:
        return float("nan"), f"not athread-expressible here: {exc}"
    rng = np.random.default_rng(0)
    local_init = [
        rng.random(grid).astype(dtype.np_dtype) for _ in range(2)
    ]
    blob = np.concatenate([p.ravel() for p in local_init])
    got, note = _compile_and_run(
        code.files, "vsw", blob, timesteps, dtype.np_dtype, grid,
        flags=["-O2", "-ffp-contract=off", "-DMSC_ATHREAD_STUB"],
    )
    if note:
        return float("nan"), note
    ref = reference_run(prog.ir, local_init, timesteps,
                        boundary=boundary)
    return relative_error(got, ref), ""


def _compiled_mpi_stub(stencil, init, timesteps,
                       boundary) -> Tuple[float, str]:
    """Build the distributed bundle against the single-rank MPI stub
    and run it: the full pack/Isend/Irecv/unpack protocol on self
    messages (periodic wraps through the exchange)."""
    from ..backend.mpi_codegen import generate_mpi

    if stencil.output.dtype is not f64:
        return float("nan"), "MPI comm library is double-precision"
    grid = (1,) * stencil.output.ndim
    code = generate_mpi(stencil, {}, "vmpi", grid, boundary=boundary)
    blob = np.concatenate([p.ravel() for p in init]).astype(np.float64)
    got, note = _compile_and_run(
        code.files, "vmpi", blob, timesteps, np.float64,
        stencil.output.shape,
        flags=["-O2", "-DMSC_MPI_STUB"],
        compile_files=["vmpi_mpi.c", "msc_comm.c"],
    )
    if note:
        return float("nan"), note
    ref = reference_run(stencil, init, timesteps, boundary=boundary)
    return relative_error(got, ref), ""
