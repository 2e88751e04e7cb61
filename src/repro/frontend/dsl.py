"""The MSC embedded DSL (Sec. 4.2, Listing 1).

The paper embeds MSC in C++; this reproduction embeds it in Python with
the same vocabulary::

    k, j, i = indices("k j i")
    B = DefTensor3D_TimeWin("B", time_window, halo_width, f64, 256, 256, 256)
    S = Kernel("S_3d7pt", (k, j, i),
               c0*B[k,j,i] + c1*B[k,j,i-1] + ... )
    S.tile(2, 8, 64, "xo", "xi", "yo", "yi", "zo", "zi")
    S.reorder("xo", "yo", "zo", "xi", "yi", "zi")
    S.cache_read(B, "buffer_read", "global")
    S.cache_write("buffer_write", "global")
    S.compute_at("buffer_read", "zo")
    S.compute_at("buffer_write", "zo")
    S.parallel("xo", 64)
    t = StencilProgram.t
    st = StencilProgram(B, S[t-1] + S[t-2])
    st.set_mpi_grid(DefShapeMPI3D(4, 4, 4))
    st.set_initial([plane0, plane1])
    result = st.run(timesteps=10)
    code = st.compile_to_source_code("3d7pt", target="sunway")
"""

from __future__ import annotations

from functools import cache, partial
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..ir.dtypes import DType, i32
from ..ir.expr import Expr, VarExpr
from ..ir.kernel import Kernel as IRKernel, KernelApply
from ..ir.pipeline import StagePipeline, as_pipeline
from ..ir.stencil import Stencil as IRStencil, TIME_VAR
from ..ir.tensor import SpNode
from ..analysis import enforce
from ..analysis.diagnostics import CheckReport
from ..ir.validate import validate_stencil
from ..obs import counter, span
from ..schedule.schedule import Schedule, schedule_key

__all__ = [
    "DefVar",
    "indices",
    "DefTensor1D",
    "DefTensor2D",
    "DefTensor3D",
    "DefTensor2D_TimeWin",
    "DefTensor3D_TimeWin",
    "DefShapeMPI2D",
    "DefShapeMPI3D",
    "Kernel",
    "KernelHandle",
    "Result",
    "StencilProgram",
]


@cache
def _run_modules():
    """The modules :meth:`StencilProgram.run` drives, imported at its
    first call and then held: not with ``import repro``, and not per
    call (three ``import`` statements cost more than a plan lookup)."""
    from ..backend import native, numpy_backend
    from ..runtime import executor

    return native, numpy_backend, executor


@cache
def _machine_by_name(name: str):
    """``machine_by_name`` (a fixed registry), imported at first use."""
    from ..machine.spec import machine_by_name

    return machine_by_name(name)


def DefVar(name: str, dtype: DType = i32) -> VarExpr:
    """Define a scalar variable (Listing 1 line 5)."""
    return VarExpr(name, dtype.name)


def indices(names: Union[str, Sequence[str]]) -> Tuple[VarExpr, ...]:
    """``indices("k j i")`` — define loop index variables."""
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return tuple(VarExpr(n) for n in names)


def _def_tensor(name: str, dtype: DType, shape: Tuple[int, ...],
                halo: int, time_window: int) -> SpNode:
    return SpNode(
        name, shape, dtype,
        halo=(halo,) * len(shape), time_window=time_window,
    )


def DefTensor1D(name: str, halo: int, dtype: DType, nx: int) -> SpNode:
    return _def_tensor(name, dtype, (nx,), halo, 2)


def DefTensor2D(name: str, halo: int, dtype: DType,
                ny: int, nx: int) -> SpNode:
    return _def_tensor(name, dtype, (ny, nx), halo, 2)


def DefTensor3D(name: str, halo: int, dtype: DType,
                nz: int, ny: int, nx: int) -> SpNode:
    return _def_tensor(name, dtype, (nz, ny, nx), halo, 2)


def DefTensor2D_TimeWin(name: str, time_window: int, halo: int,
                        dtype: DType, ny: int, nx: int) -> SpNode:
    """Listing 1 line 8 (2-D variant): tensor with halo + time window."""
    return _def_tensor(name, dtype, (ny, nx), halo, time_window)


def DefTensor3D_TimeWin(name: str, time_window: int, halo: int,
                        dtype: DType, nz: int, ny: int, nx: int) -> SpNode:
    """Listing 1 line 8: 3-D tensor with halo + time window."""
    return _def_tensor(name, dtype, (nz, ny, nx), halo, time_window)


def DefShapeMPI2D(py: int, px: int) -> Tuple[int, int]:
    """MPI process grid for 2-D domains (Listing 1 line 13)."""
    if py < 1 or px < 1:
        raise ValueError("MPI grid extents must be >= 1")
    return (py, px)


def DefShapeMPI3D(pz: int, py: int, px: int) -> Tuple[int, int, int]:
    """MPI process grid for 3-D domains (Listing 1 line 13)."""
    if pz < 1 or py < 1 or px < 1:
        raise ValueError("MPI grid extents must be >= 1")
    return (pz, py, px)


class KernelHandle:
    """A defined kernel plus its schedule.

    Scheduling primitives are methods on the handle, exactly as in
    Listing 2 (``S_3d7pt.tile(...)``); indexing with ``t - 1`` produces
    the :class:`KernelApply` used in stencil combinations.
    """

    #: registry letting StencilProgram recover the handle (and thus the
    #: schedule) for the IR kernels appearing in a stencil expression
    _registry: Dict[int, "KernelHandle"] = {}

    def __init__(self, kernel: IRKernel):
        self.kernel = kernel
        self.schedule = Schedule(kernel)
        KernelHandle._registry[id(kernel)] = self

    # -- scheduling primitives (delegate) ---------------------------------
    def tile(self, *args) -> "KernelHandle":
        self.schedule.tile(*args)
        return self

    def reorder(self, *axes: str) -> "KernelHandle":
        self.schedule.reorder(*axes)
        return self

    def parallel(self, axis: str, nthreads: int) -> "KernelHandle":
        self.schedule.parallel(axis, nthreads)
        return self

    def vectorize(self, axis: str) -> "KernelHandle":
        self.schedule.vectorize(axis)
        return self

    def unroll(self, axis: str, factor: int) -> "KernelHandle":
        self.schedule.unroll(axis, factor)
        return self

    def cache_read(self, tensor, buffer: str,
                   scope: str = "global") -> "KernelHandle":
        self.schedule.cache_read(tensor, buffer, scope)
        return self

    def cache_write(self, buffer: str,
                    scope: str = "global") -> "KernelHandle":
        self.schedule.cache_write(buffer, scope)
        return self

    def compute_at(self, buffer: str, axis: str) -> "KernelHandle":
        self.schedule.compute_at(buffer, axis)
        return self

    # -- time application ---------------------------------------------------
    def __getitem__(self, time_ref) -> KernelApply:
        return self.kernel[time_ref]

    def at(self, time_offset: int) -> KernelApply:
        return self.kernel.at(time_offset)

    # -- introspection -----------------------------------------------------
    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def npoints(self) -> int:
        return self.kernel.npoints

    @property
    def radius(self) -> Tuple[int, ...]:
        return self.kernel.radius

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelHandle({self.kernel!r})"


def Kernel(name: str, loop_vars: Sequence[VarExpr],
           expr: Expr) -> KernelHandle:
    """Define a stencil kernel (Listing 1 line 7)."""
    return KernelHandle(IRKernel(name, tuple(loop_vars), expr))


def Result(tensor: SpNode) -> SpNode:
    """Name the output grid (Listing 1 line 11).

    MSC's Result is a view of the output SpNode; the reproduction keeps
    it as the tensor itself.
    """
    return tensor


class StencilProgram:
    """A complete stencil computation: IR + schedules + execution config.

    This is the user-facing ``Stencil`` of Listing 1 — it owns the IR
    :class:`~repro.ir.stencil.Stencil` (or, from :meth:`of`, a
    multi-stage :class:`~repro.ir.pipeline.StagePipeline`), the
    kernels' schedules, the
    input/initial data, the MPI grid for distributed runs, and drives
    execution, simulation and code generation.
    """

    #: the symbolic time variable (``Stencil::t`` in the paper)
    t = TIME_VAR

    def __init__(self, output: SpNode, expr: Expr,
                 boundary: str = "zero"):
        self._bind_ir(IRStencil(output, expr), boundary)

    @classmethod
    def of(cls, ir: Union[IRStencil, StagePipeline],
           boundary: str = "zero") -> "StencilProgram":
        """The program over an IR stencil or a multi-stage pipeline (a
        one-stage pipeline is its stencil); every method serves both."""
        prog = cls.__new__(cls)
        if isinstance(ir, StagePipeline) and ir.nstages == 1:
            ir = ir.stages[0]
        prog._bind_ir(ir, boundary)
        return prog

    def _bind_ir(self, ir: Union[IRStencil, StagePipeline],
                 boundary: str) -> None:
        if isinstance(ir, IRStencil):
            validate_stencil(ir)
        #: the IR: a ``Stencil``, or a ``StagePipeline`` of several
        self.ir = ir
        #: initial planes each stage output needs, oldest first
        pipeline, self.history = as_pipeline(ir)
        #: the stages, each an IR ``Stencil``, in run order
        self.stages = pipeline.stages
        self._label = "+".join(out.name for out in pipeline.outputs)
        self.boundary = boundary
        self._handles: Dict[str, KernelHandle] = {}
        for kern in ir.kernels:
            handle = KernelHandle._registry.get(id(kern))
            if handle is not None:
                self._handles[kern.name] = handle
        self.mpi_grid: Optional[Tuple[int, ...]] = None
        #: the initial planes: a list for one stage, else per tensor
        self._initial = None
        self._inputs: Dict[str, np.ndarray] = {}
        self._scalars: Dict[str, float] = {}
        #: last ``check`` as (everything it read, report)
        self._checked: Optional[Tuple[Tuple, CheckReport]] = None
        #: how the last ``run`` executed: ``backend``, the ``reason``
        #: it was picked and, for native, ``plan`` (hit/miss) and the
        #: ``artifact``; for numpy (single node or distributed)
        #: ``numpy_plans``, the kernels lowered and the plans bound and
        #: re-used (``BlockEngine.plan_stats``)
        self.last_run: Dict[str, object] = {}
        #: the executor of the last finished native run under
        #: ``"native"``, with its window (W padded planes); ``run``
        #: takes it with an atomic ``pop``
        self._idle: Dict[str, object] = {}

    # -- wiring -----------------------------------------------------------------
    def attach(self, *handles: KernelHandle) -> "StencilProgram":
        """Register kernel handles so their schedules are used."""
        for h in handles:
            if h.kernel.name not in {k.name for k in self.ir.kernels}:
                raise ValueError(
                    f"kernel {h.kernel.name!r} is not part of this stencil"
                )
            self._handles[h.kernel.name] = h
        return self

    def schedules(self) -> Dict[str, Schedule]:
        scheds = {n: h.schedule for n, h in self._handles.items()}
        for kern in self.ir.kernels:
            scheds.setdefault(kern.name, Schedule(kern))
        return scheds

    # -- static analysis ---------------------------------------------------------
    def check(self, machine=None, sched_key: Optional[Tuple] = None):
        """Statically analyze the program's schedules.

        ``machine`` is a MachineSpec, a machine name (``sunway`` /
        ``matrix`` / ``cpu``), or None for the machine-independent
        checks only.  Returns a
        :class:`~repro.analysis.diagnostics.CheckReport`.

        The report is memoised on everything the analysis reads (IR,
        schedules field for field, machine, MPI grid): re-checking an
        unchanged program returns a copy of the stored report.
        ``sched_key`` is ``schedule_key(self.schedules())`` when the
        caller already has it.
        """
        spec = self._machine_spec(machine)
        if sched_key is None:
            sched_key = schedule_key(self.schedules())
        key = (self.ir.fingerprint, sched_key, spec, self.mpi_grid)
        memo = self._checked
        if memo is not None and memo[0] == key:
            report = memo[1]
            with span("analysis.check", stencil=self._label,
                      machine=getattr(spec, "name", None) or "-",
                      memo="hit"):
                pass
        else:
            from ..analysis import check_program

            report = CheckReport()  # every stage, as one result
            for stage in self.stages:
                report.extend(check_program(
                    stage, self.schedules(), machine=spec,
                    mpi_grid=self.mpi_grid,
                ))
            self._checked = (key, report)
        return CheckReport(list(report.diagnostics))

    @staticmethod
    def _machine_spec(machine):
        if machine is None or not isinstance(machine, str):
            return machine
        return _machine_by_name(machine)

    def _gate(self, machine, where: str,
              sched_key: Optional[Tuple] = None) -> None:
        """Pre-codegen/pre-run gate: log warnings, raise on errors —
        on every call; only the analysis behind it is memoised."""
        enforce(self.check(machine, sched_key), where=where)

    # -- configuration -----------------------------------------------------------
    def set_mpi_grid(self, shape: Sequence[int]) -> "StencilProgram":
        shape = tuple(int(s) for s in shape)
        if len(shape) != self.ir.ndim:
            raise ValueError(
                f"MPI grid is {len(shape)}-D for a {self.ir.ndim}-D stencil"
            )
        self.mpi_grid = shape
        return self

    def set_initial(self, planes) -> "StencilProgram":
        """Provide the initial history planes, oldest first, per stage
        output as ``{tensor: planes}`` (:attr:`history` says how many)
        or, as a list, the first stage's: a stencil's W-1 planes
        (t = 0 .. W-2)."""
        if not isinstance(planes, Mapping):
            planes = {self.stages[0].output.name: planes}
        seeds = {name: [np.asarray(p) for p in given]
                 for name, given in planes.items()}
        self._initial = (seeds if isinstance(self.ir, StagePipeline)
                         else seeds.get(self.ir.output.name, []))
        return self

    def set_input(self, name: str, data: np.ndarray) -> "StencilProgram":
        """Provide data for an auxiliary (time-invariant) tensor."""
        self._inputs[name] = np.asarray(data)
        return self

    def set_scalar(self, name: str, value: float) -> "StencilProgram":
        """Bind a runtime scalar coefficient (a free DefVar symbol that
        some kernel reads)."""
        from ..ir.analysis import free_scalars

        free = sorted({n for st in self.stages for n in free_scalars(st)})
        if name not in free:
            raise ValueError(
                f"no kernel reads a scalar {name!r}; the program's free "
                f"scalars are {free}"
            )
        self._scalars[name] = float(value)
        return self

    def input(self, mpi_shape: Optional[Sequence[int]],
              tensor: SpNode, data) -> "StencilProgram":
        """Paper-flavoured config (Listing 1 line 14): MPI shape + data.

        ``data`` may be an ndarray (used for every history plane), a
        list of planes, or the string ``"random"`` for seeded random
        initial conditions, all for the stage output ``tensor``.
        """
        if mpi_shape is not None:
            self.set_mpi_grid(mpi_shape)
        need = self.history.get(tensor.name, 0)
        if isinstance(data, str):
            rng = np.random.default_rng(42)
            planes = [
                rng.random(tensor.shape).astype(tensor.dtype.np_dtype)
                for _ in range(need)
            ]
        elif isinstance(data, np.ndarray):
            planes = [data] * need
        else:
            planes = list(data)
        return self.set_initial({tensor.name: planes})

    # -- execution -----------------------------------------------------------
    def run(self, timesteps: int, scheduled: bool = True,
            check: bool = True,
            backend: Optional[str] = None,
            exchange_mode: Optional[str] = None):
        """Execute ``timesteps`` sweeps, returning the newest plane — or
        ``{output: newest plane}`` for a multi-stage program; a run no
        engine executes (a row of :data:`repro.runtime.executor.
        UNSUPPORTED`) raises ``UnsupportedRun`` before any work.

        With an MPI grid configured, runs distributed over the simulated
        MPI runtime (every rank in-process) and returns the gathered
        global result; otherwise runs single-node.  ``scheduled=False``
        forces the untiled serial run on one node, grid or not
        (``reference_run`` for a stencil).  ``check=False`` skips the
        static legality gate.

        ``backend`` selects the execution engine: ``None`` (the library
        default) and ``"numpy"`` the numpy engine, ``"native"`` compiles
        the generated C into a shared library and runs it in-process
        (raising :class:`~repro.backend.native.NativeUnavailable` /
        ``NativeBuildError`` when it cannot), ``"auto"`` picks native
        wherever it can run and numpy otherwise.  The table's rows
        (``UnsupportedRun`` is a ``ValueError``): ``native`` on a
        pipeline or an MPI grid, a boundary other than zero/periodic on
        an MPI grid, an ``exchange_mode`` on a single-node run.

        Native runs compile once and step many: the legality report and
        the compiled plan (sources, artifact, loaded library) are
        memoised on the program's content, and the program keeps the
        executor of its last native run.  Repeating ``run`` on an
        unchanged program costs the gate's ``enforce`` (warnings are
        logged and errors raised every time), one table and one plan
        lookup, re-seeding the kept window in place with the library's
        ``msc_seed`` (an interior copy and a boundary fill per initial
        plane; auxiliary inputs are padded again, so one changed in
        place is seen), ``msc_run`` and the result copy — no
        allocation.  The program holds that executor
        and its W padded planes until it is dropped or a run gets
        another plan.  Any change the generated code can see — a
        scheduling primitive, ``set_scalar``, the boundary,
        ``REPRO_CACHE_DIR``, ``REPRO_CC`` — compiles (or looks up) a
        new plan, and that run allocates a new window.
        :attr:`last_run` records which happened.

        ``exchange_mode`` (``basic``/``diag``/``overlap``) selects the
        halo-exchange wire protocol of distributed runs.
        """
        native, numpy_backend, executor = _run_modules()
        if self._initial is None:
            raise RuntimeError(
                "no initial data: call set_initial()/input() first"
            )
        init = self._initial
        several = isinstance(self.ir, StagePipeline)
        seeds = init if several else {self.ir.output.name: init}
        distributed = bool(scheduled and self.mpi_grid
                           and int(np.prod(self.mpi_grid)) > 1)
        facts = dict(distributed=distributed, stages=len(self.stages),
                     boundary=self.boundary, exchange_mode=exchange_mode)
        # auto tries native first and never picks an engine the table
        # rejects: one lookup unless native is blocked
        miss = executor.unsupported(
            "native" if backend == "auto" else backend, **facts)
        blocked = backend == "auto" and miss
        if blocked:
            miss = executor.unsupported("numpy", **facts)
        if miss:
            raise executor.UnsupportedRun(miss)
        if not scheduled:
            label, why = ("numpy" if several else "reference"), "unscheduled"
        elif blocked:
            label, why = "numpy", f"auto: {blocked}"
        elif backend in ("native", "auto") and "native" in self._idle:
            # no compiler lookup: a kept executor was compiled, and its
            # ``bind`` finds out whether the plan still fits
            label, why = "native", "kept executor"
        else:
            label, why = native.select_backend(backend or "numpy")
        scheds = self.schedules() if scheduled else {}
        # one key for both memos: the report's and the plan's
        sched_key = schedule_key(scheds)
        if check and scheduled:
            self._gate("cpu" if label == "native" else None, "run",
                       sched_key)
        inputs = self._inputs or None
        scalars = self._scalars or None
        if distributed:
            results, plans = executor._run_distributed(
                self.ir, seeds, timesteps, self.mpi_grid,
                boundary=self.boundary, inputs=inputs, scalars=scalars,
                exchange_mode=exchange_mode,
            )
            self.last_run = {"backend": label, "reason": why,
                             "numpy_plans": plans}
            return results if several else results[self.ir.output.name]
        # pick the engine as a zero-argument runner ...
        sweep = None
        run_info: Dict[str, object] = {}
        if label == "reference":
            sweep = partial(numpy_backend.reference_run, self.ir, init,
                            timesteps, self.boundary, inputs=inputs,
                            scalars=scalars)
        elif label == "native":
            # the last native run's executor, taken off the program so
            # that two threads running it never share one window
            kept = self._idle.pop("native", None)
            args = (self.ir, scheds, self.boundary)
            kw = dict(inputs=inputs, scalars=scalars, sched_key=sched_key)
            try:
                if kept is None:
                    kept = native.NativeExecutor(*args, **kw)
                else:
                    kept.bind(*args, **kw)
                sweep = partial(kept.run, init, timesteps)
                run_info = {
                    "plan": "hit" if kept.plan_hit else "miss",
                    "artifact": kept.artifact,
                }
            except (native.NativeUnavailable, native.NativeBuildError) as exc:
                if backend == "native":
                    raise
                label, why = "numpy", f"auto: {exc}"
        if sweep is None:
            numpy_ex = numpy_backend.ScheduledExecutor(
                self.ir, scheds, self.boundary,
                inputs=inputs, scalars=scalars,
            )
            sweep = partial(numpy_ex.run, seeds, timesteps)
            # the engine's live tally: final once the run returned
            run_info = {"numpy_plans": numpy_ex.engine.plan_stats}
        # ... then run it under the one root span and run counter
        self.last_run = {"backend": label, "reason": why, **run_info}
        with span("runtime.run", stencil=self._label,
                  timesteps=timesteps, backend=label,
                  exchange_mode="none",
                  plan=run_info.get("plan", "-")):
            result = sweep()
        if label == "native":
            self._idle["native"] = kept  # for the next run to bind
        counter("runtime.runs", backend=label, exchange_mode="none")
        return result

    # -- code generation ------------------------------------------------------
    #: machine whose constraints gate codegen, per backend target
    _TARGET_MACHINES = {"cpu": "cpu", "matrix": "matrix",
                        "sunway": "sunway", "mpi": None}

    def compile_to_source_code(self, name: str,
                               target: str = "cpu",
                               check: bool = True):
        """AOT-generate the C bundle + Makefile (Listing 1 line 16).

        ``check=False`` skips the static legality gate.
        """
        from ..backend.targets import check_target, generate

        check_target(self.ir, target)
        if check:
            self._gate(self._TARGET_MACHINES.get(target),
                       f"compile[{target}]")
        return generate(
            self.ir, self.schedules(), name, target=target,
            boundary=self.boundary,
            mpi_grid=self.mpi_grid,
            scalars=self._scalars or None,
        )

    # -- simulation -----------------------------------------------------------
    def simulate(self, machine: str = "sunway", timesteps: int = 1,
                 check: bool = True):
        """Timing simulation on a named machine (sunway/matrix/cpu).

        ``check=False`` skips the static legality gate.
        """
        from ..machine import simulate_cpu, simulate_matrix, simulate_sunway
        from ..machine.spec import machine_by_name

        if check:
            self._gate(machine, f"simulate[{machine}]")
        scheds = self.schedules()
        sched = scheds[self.ir.kernels[0].name]
        if machine == "sunway":
            return simulate_sunway(self.ir, sched, timesteps)
        if machine == "matrix":
            return simulate_matrix(self.ir, sched, timesteps)
        if machine == "cpu":
            return simulate_cpu(self.ir, sched, timesteps)
        spec = machine_by_name(machine)
        if spec.cacheless:
            from ..machine import SunwaySimulator

            return SunwaySimulator(spec).run(self.ir, sched, timesteps)
        from ..machine import CacheMachineSimulator

        return CacheMachineSimulator(spec).run(self.ir, sched, timesteps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StencilProgram({self.ir!r}, mpi={self.mpi_grid})"
