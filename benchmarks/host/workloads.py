"""The five hostbench workloads.

Each workload is a closed loop of one caller: ops are issued back to
back from one process, the next only after the previous one returned.
An op is one user-level call sequence of the library API.  Sizes are
frozen here; the timed section is bounded by ``--seconds``, so the op
count ``N`` follows from the host's speed (README.md lists the counts
of the reference host).

Every workload offers the real op (``op``), the same op decomposed by
the benchmark into the public calls of each layer (``traced_op``), and
the result the independent untiled interpreter
``repro.backend.numpy_backend.reference_run`` gives (``expected``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import enforce
from repro.backend.native import NativeExecutor
from repro.backend.numpy_backend import reference_run
from repro.evalsuite.configs import table5_row
from repro.frontend import (
    BENCHMARK_NAMES,
    StencilProgram,
    benchmark_by_name,
    build_benchmark,
    parse_program,
    render_program,
)
from repro.runtime.executor import distributed_run

from recorder import Recorder

__all__ = ["MODES", "Subject", "workloads", "workload_by_name",
           "make_program", "draw_programs", "native_sequence",
           "distributed_sequence"]

#: halo-exchange wire modes, in the order ``disthalo`` runs them
MODES = ("basic", "diag", "overlap")


@dataclass(frozen=True)
class Subject:
    """The program a workload's layer probes run on."""

    bench: str
    grid: Tuple[int, ...]
    boundary: str
    tiled: bool
    steps: int

    @property
    def mpi_grid(self) -> Tuple[int, ...]:
        """Two ranks along the last axis (1x2, 1x1x2)."""
        return (1,) * (len(self.grid) - 1) + (2,)

    @property
    def block(self) -> Tuple[int, ...]:
        """The grid one of the two ranks owns."""
        return self.grid[:-1] + (self.grid[-1] // 2,)


def make_program(bench: str, grid: Sequence[int], boundary: str = "zero",
                 tiled: bool = False) -> StencilProgram:
    """``build_benchmark`` plus, when ``tiled``, the Table-5 matrix
    tile (clamped to the grid, as ``evalsuite.harness`` does), its
    reorder rule and ``parallel("xo", 2)`` — the host has 2 cores."""
    prog, handle = build_benchmark(bench, grid=tuple(grid),
                                   boundary=boundary)
    if tiled:
        row = table5_row(bench)
        axes = [a + s for a in "xyz"[:len(grid)] for s in "oi"]
        handle.tile(*(min(t, e) for t, e in zip(row.matrix_tile, grid)),
                    *axes)
        handle.reorder(*row.reorder)
        handle.parallel("xo", 2)
    return prog


def random_planes(prog: StencilProgram, *seed: int) -> List[np.ndarray]:
    """The W-1 initial history planes, drawn from ``seed``."""
    out = prog.ir.output
    rng = np.random.default_rng(list(seed))
    return [rng.random(out.shape).astype(out.dtype.np_dtype)
            for _ in range(prog.ir.required_time_window - 1)]


# -- the ops, decomposed into the public calls of each layer ---------------


def native_sequence(rec: Recorder, prog: StencilProgram,
                    init: Sequence[np.ndarray], steps: int,
                    facts: Dict[str, list]) -> np.ndarray:
    """Mirror of ``StencilProgram.run(steps, backend="native")``."""
    with rec.span("analysis.check"):
        report = prog.check("cpu")
        enforce(report, where="run")
    with rec.span("backend.native.construct"):
        ex = NativeExecutor(prog.ir, prog.schedules(), prog.boundary)
    with rec.span("backend.native.init"):
        ex.initialize(init)
    with rec.span("backend.native.advance"):
        ex.advance(steps)
    with rec.span("backend.native.result"):
        result = ex.result()
    facts["diagnostics"].append(len(report))
    facts["cached"].append(bool(ex.artifact.cached))
    return result


def distributed_sequence(rec: Recorder, prog: StencilProgram,
                         init: Sequence[np.ndarray], steps: int,
                         grid: Sequence[int]) -> List[np.ndarray]:
    """Mirror of ``StencilProgram.run(steps, exchange_mode=m)`` with an
    MPI grid set, for every wire mode back to back."""
    results = []
    for mode in MODES:
        with rec.span("analysis.check"):
            enforce(prog.check(None), where="run")
        with rec.span("runtime.distributed_run." + mode):
            results.append(distributed_run(
                prog.ir, init, steps, grid, boundary=prog.boundary,
                exchange_mode=mode,
            ))
    return results


# -- workloads ---------------------------------------------------------------


class Workload:
    """Common shape: ``setup(seed)`` once, then ``op(i)`` for
    ``i = 0, 1, ...`` until the timed section ends."""

    name = ""
    why = ""
    #: ops available; ``None`` means the same op can repeat for ever
    max_ops: Optional[int] = None
    #: the timed section ends only after a multiple of ``round`` ops
    round = 1
    #: what the op runs: ``native``, ``parsed`` (native, from ``.msc``
    #: text) or ``distributed``
    kind = "native"

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int) -> List[np.ndarray]:
        raise NotImplementedError

    def traced_op(self, i: int, rec: Recorder,
                  facts: Dict[str, list]) -> List[np.ndarray]:
        raise NotImplementedError

    def expected(self, i: int) -> List[np.ndarray]:
        raise NotImplementedError

    def updates(self, i: int) -> int:
        """Point-updates op ``i`` performs."""
        raise NotImplementedError

    def subject(self, i: int) -> Subject:
        raise NotImplementedError


class NativeWarm(Workload):
    """op = warm ``prog.run(steps, backend="native")`` on one program:
    the artifact cache answers every op after set-up's cold build."""

    def __init__(self, name: str, why: str, bench: str,
                 grid: Tuple[int, ...], steps: int, tiled: bool):
        self.name, self.why = name, why
        self._subject = Subject(bench, grid, "zero", tiled, steps)
        self._reference: Optional[np.ndarray] = None

    def setup(self, seed: int) -> None:
        s = self._subject
        self.prog = make_program(s.bench, s.grid, s.boundary, s.tiled)
        self.init = random_planes(self.prog, seed)
        self.prog.set_initial(self.init)
        self.op(0)  # the one cold gcc build into the fresh cache
        self.op(0)  # one warm-up op

    def op(self, i: int) -> List[np.ndarray]:
        return [self.prog.run(self._subject.steps, backend="native")]

    def traced_op(self, i, rec, facts):
        return [native_sequence(rec, self.prog, self.init,
                                self._subject.steps, facts)]

    def expected(self, i: int) -> List[np.ndarray]:
        if self._reference is None:
            self._reference = reference_run(
                self.prog.ir, self.init, self._subject.steps,
                self.prog.boundary,
            )
        return [self._reference]

    def updates(self, i: int) -> int:
        return int(np.prod(self._subject.grid)) * self._subject.steps

    def subject(self, i: int) -> Subject:
        return self._subject


def _grid_pool(ndim: int) -> List[Tuple[int, ...]]:
    """The 16 grids with extents that are multiples of 8 (2-D 40..152,
    3-D 16..40) nearest in size to 96^2 or 24*32*32 points.

    Near-equal sizes keep the point-updates of a run from depending on
    which grids the seed put first (2-D within 8 %, 3-D within 25 %).
    """
    lo, hi, target = (40, 152, 96 * 96) if ndim == 2 else (16, 40, 24576)
    grids = itertools.product(range(lo, hi + 1, 8), repeat=ndim)
    return sorted(grids, key=lambda g: (abs(int(np.prod(g)) - target), g)
                  )[:16]


def draw_programs(seed: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """The ``coldbuild`` draw: 8 Table-4 stencils x 16 grids, each
    stencil's grids in an order drawn from ``seed``.

    Ordered round-robin over the stencils, so every run of 8
    consecutive ops holds each stencil once and any prefix of the draw
    is the same mix.
    """
    rng = np.random.default_rng([seed, 0xC01D])
    per_bench = []
    for bench in BENCHMARK_NAMES:
        pool = _grid_pool(benchmark_by_name(bench).ndim)
        per_bench.append([(bench, pool[k]) for k in rng.permutation(16)])
    return [per_bench[b][k] for k in range(16)
            for b in range(len(BENCHMARK_NAMES))]


class ColdBuild(Workload):
    """op = parse ``.msc`` text -> ``input`` -> ``run(2, native)`` with
    the legality gate on, each op a program the cache has never seen."""

    name = "coldbuild"
    why = ("128 distinct parsed programs against an empty artifact "
           "cache: every op is a miss, so frontend, checker, codegen, "
           "gcc and the cache's write side do the work")
    max_ops = 128
    #: one op per Table-4 stencil, so every run times the same mix
    round = len(BENCHMARK_NAMES)
    kind = "parsed"
    steps = 2

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.draw = draw_programs(seed)
        self.texts = []
        for bench, grid in self.draw:
            prog = make_program(bench, grid, tiled=True)
            self.texts.append(render_program(prog.ir, prog.schedules()))

    def op(self, i: int) -> List[np.ndarray]:
        prog = parse_program(self.texts[i]).program
        prog.input(None, prog.ir.output,
                   random_planes(prog, self.seed, i))
        return [prog.run(self.steps, backend="native")]

    def traced_op(self, i, rec, facts):
        with rec.span("frontend.parse"):
            prog = parse_program(self.texts[i]).program
        with rec.span("frontend.input"):
            init = random_planes(prog, self.seed, i)
            prog.input(None, prog.ir.output, init)
        return [native_sequence(rec, prog, init, self.steps, facts)]

    def expected(self, i: int) -> List[np.ndarray]:
        bench, grid = self.draw[i]
        prog = make_program(bench, grid)
        return [reference_run(prog.ir, random_planes(prog, self.seed, i),
                              self.steps, "zero")]

    def updates(self, i: int) -> int:
        return int(np.prod(self.draw[i][1])) * self.steps

    def subject(self, i: int) -> Subject:
        bench, grid = self.draw[i]
        return Subject(bench, grid, "zero", True, self.steps)


class DistHalo(Workload):
    """op = ``prog.run(20, exchange_mode=m)`` for the three wire modes
    back to back, 2 simmpi rank threads, numpy engine."""

    name = "disthalo"
    why = ("2-rank periodic numpy run in all three exchange modes: "
           "comm, runtime.simmpi and evaluate_kernel do the work and "
           "backend.native does none")
    kind = "distributed"
    _subject = Subject("2d9pt_star", (256, 256), "periodic", False, 20)

    def setup(self, seed: int) -> None:
        s = self._subject
        self.prog = make_program(s.bench, s.grid, s.boundary)
        self.prog.set_mpi_grid(s.mpi_grid)
        self.init = random_planes(self.prog, seed)
        self.prog.set_initial(self.init)
        self._reference: Optional[np.ndarray] = None
        self.op(0)  # one warm-up op

    def op(self, i: int) -> List[np.ndarray]:
        return [self.prog.run(self._subject.steps, exchange_mode=m)
                for m in MODES]

    def traced_op(self, i, rec, facts):
        return distributed_sequence(rec, self.prog, self.init,
                                    self._subject.steps,
                                    self._subject.mpi_grid)

    def expected(self, i: int) -> List[np.ndarray]:
        if self._reference is None:
            self._reference = reference_run(
                self.prog.ir, self.init, self._subject.steps,
                self.prog.boundary,
            )
        return [self._reference] * len(MODES)

    def updates(self, i: int) -> int:
        s = self._subject
        return int(np.prod(s.grid)) * s.steps * len(MODES)

    def subject(self, i: int) -> Subject:
        return self._subject


def workloads() -> Tuple[Workload, ...]:
    """Fresh instances of the five workloads, in BENCHMARK.json order."""
    return (
        NativeWarm(
            "stream2d",
            "low-order 2-D star, OpenMP-tiled, 1536^2 x 40 steps: the "
            "generated kernel is >85 % of the op, so loop-nest and flag "
            "changes show here",
            "2d9pt_star", (1536, 1536), 40, tiled=True),
        NativeWarm(
            "star3d",
            "high-order 3-D star, default untiled serial schedule, "
            "128^3 x 10 steps: the plain single-threaded baseline, "
            "stressing the same backend the opposite way to stream2d",
            "3d25pt_star", (128, 128, 128), 10, tiled=False),
        NativeWarm(
            "smallcalls",
            "64^2 x 8 steps warm calls: fixed per-call cost (validate, "
            "codegen, fingerprint, cache lookup) is ~95 % of the op "
            "and the kernel ~4 %",
            "2d9pt_star", (64, 64), 8, tiled=False),
        ColdBuild(),
        DistHalo(),
    )


def workload_by_name(name: str) -> Workload:
    for w in workloads():
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}")
