"""Executable backend: runs stencil IR with vectorized numpy.

The *same lowered schedule* the C backends emit (tile enumeration,
sliding time window) is executed over real data, so every schedule
transformation is observable and testable for correctness (the paper's
Sec. 5.1 methodology: generated codes must match the serial codes to
1e-5 / 1e-10 relative error).

- :func:`reference_run` — whole-domain, untiled, the "serial code" and
  the oracle every other path is compared against;
- :class:`BlockEngine` — the one numpy time-stepping engine (a lone
  stencil is its one-stage case), also behind ``PipelineExecutor`` and
  :mod:`repro.runtime.executor`;
- :class:`ScheduledExecutor` — the engine driven tile-by-tile in the
  schedule's nest order, exactly the structure the C backend emits.

Expression evaluation is fully vectorized: each
:class:`~repro.ir.expr.TensorAccess` becomes a shifted *view* of the
padded plane (no copies), and operator nodes map to numpy ufuncs.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..ir.expr import (
    CallFuncExpr,
    ConstExpr,
    Expr,
    IndexExpr,
    OperatorExpr,
    TensorAccess,
    VarExpr,
    KNOWN_FUNCS,
)
from ..ir.kernel import Kernel
from ..ir.pipeline import StagePipeline
from ..ir.stencil import Stencil
from ..ir.tensor import SpNode
from ..obs import span
from ..schedule.schedule import Schedule
from ..schedule.timewindow import SlidingTimeWindow

__all__ = [
    "evaluate_kernel",
    "reference_run",
    "BlockEngine",
    "ScheduledExecutor",
    "fill_halo",
    "BOUNDARY_CONDITIONS",
]

BOUNDARY_CONDITIONS = ("zero", "periodic", "reflect")

_NUMPY_FUNCS = {name: getattr(np, KNOWN_FUNCS[name]) for name in KNOWN_FUNCS}


def fill_halo(padded: np.ndarray, halo: Sequence[int],
              boundary: str = "zero") -> None:
    """Fill the halo cells of a padded plane in place.

    ``zero`` writes zeros (Dirichlet), ``periodic`` wraps the opposite
    interior face, ``reflect`` mirrors the near interior.
    """
    if boundary not in BOUNDARY_CONDITIONS:
        raise ValueError(
            f"unknown boundary {boundary!r}; choose from "
            f"{BOUNDARY_CONDITIONS}"
        )
    ndim = padded.ndim
    for d, h in enumerate(halo):
        if h == 0:
            continue
        lo = [slice(None)] * ndim
        hi = [slice(None)] * ndim
        lo[d] = slice(0, h)
        hi[d] = slice(padded.shape[d] - h, padded.shape[d])
        if boundary == "zero":
            padded[tuple(lo)] = 0
            padded[tuple(hi)] = 0
        elif boundary == "periodic":
            src_lo = [slice(None)] * ndim
            src_hi = [slice(None)] * ndim
            src_lo[d] = slice(padded.shape[d] - 2 * h, padded.shape[d] - h)
            src_hi[d] = slice(h, 2 * h)
            padded[tuple(lo)] = padded[tuple(src_lo)]
            padded[tuple(hi)] = padded[tuple(src_hi)]
        else:  # reflect
            src_lo = [slice(None)] * ndim
            src_hi = [slice(None)] * ndim
            src_lo[d] = slice(2 * h - 1, h - 1, -1)
            src_hi[d] = slice(
                padded.shape[d] - h - 1, padded.shape[d] - 2 * h - 1, -1
            )
            padded[tuple(lo)] = padded[tuple(src_lo)]
            padded[tuple(hi)] = padded[tuple(src_hi)]


def _access_view(acc: TensorAccess, padded: np.ndarray,
                 halo: Sequence[int],
                 region: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Shifted view of ``padded`` covering ``region`` at the access offsets."""
    slices = []
    for (lo, hi), h, ix in zip(region, halo, acc.indices):
        start = h + lo + ix.offset
        stop = h + hi + ix.offset
        if start < 0 or stop > padded.shape[len(slices)]:
            raise IndexError(
                f"access {acc.tensor.name}{acc.offsets} leaves the padded "
                f"buffer for region {list(region)}; halo too small"
            )
        slices.append(slice(start, stop))
    return padded[tuple(slices)]


def _eval(expr: Expr, planes: Mapping[Tuple[str, int], np.ndarray],
          halos: Mapping[str, Sequence[int]],
          region: Sequence[Tuple[int, int]],
          scalars: Mapping[str, float]):
    if isinstance(expr, ConstExpr):
        return expr.value
    if isinstance(expr, TensorAccess):
        key = (expr.tensor.name, expr.time_offset)
        try:
            padded = planes[key]
        except KeyError:
            raise KeyError(
                f"no plane bound for tensor {expr.tensor.name!r} at time "
                f"offset {expr.time_offset}"
            ) from None
        return _access_view(expr, padded, halos[expr.tensor.name], region)
    if isinstance(expr, OperatorExpr):
        vals = [
            _eval(o, planes, halos, region, scalars) for o in expr.operands
        ]
        if expr.op == "neg":
            return -vals[0]
        if expr.op == "add":
            return vals[0] + vals[1]
        if expr.op == "sub":
            return vals[0] - vals[1]
        if expr.op == "mul":
            return vals[0] * vals[1]
        return vals[0] / vals[1]
    if isinstance(expr, CallFuncExpr):
        vals = [_eval(a, planes, halos, region, scalars) for a in expr.args]
        return _NUMPY_FUNCS[expr.func](*vals)
    if isinstance(expr, VarExpr):
        try:
            return scalars[expr.name]
        except KeyError:
            raise KeyError(
                f"free scalar {expr.name!r} has no bound value"
            ) from None
    if isinstance(expr, IndexExpr):
        raise TypeError(
            "bare index expressions outside tensor subscripts are not "
            "valid stencil values"
        )
    raise TypeError(f"cannot evaluate IR node {type(expr).__name__}")


def evaluate_kernel(kernel: Kernel,
                    planes: Mapping[Tuple[str, int], np.ndarray],
                    halos: Mapping[str, Sequence[int]],
                    region: Optional[Sequence[Tuple[int, int]]] = None,
                    scalars: Optional[Mapping[str, float]] = None) -> np.ndarray:
    """Evaluate one kernel over ``region`` of the valid domain.

    ``planes`` maps ``(tensor name, time offset)`` to *padded* arrays;
    ``halos`` maps tensor names to their halo widths; ``region`` is a
    list of per-dimension half-open bounds in valid-domain coordinates
    (default: the full domain of the first input tensor).
    """
    if region is None:
        first = kernel.input_tensors[0]
        region = [(0, s) for s in first.shape]
    result = _eval(kernel.expr, planes, halos, region, scalars or {})
    shape = tuple(hi - lo for lo, hi in region)
    return np.broadcast_to(np.asarray(result), shape)


def _halo_of(tensor) -> Tuple[int, ...]:
    return tuple(getattr(tensor, "halo", (0,) * tensor.ndim))


def checked_inputs(tensors: Mapping[str, object],
                   inputs: Optional[Mapping[str, np.ndarray]]
                   ) -> Dict[str, np.ndarray]:
    """Whole-domain data for the auxiliary ``tensors``, validated."""
    data = {}
    for name, tensor in tensors.items():
        if inputs is None or name not in inputs:
            raise ValueError(f"missing data for auxiliary tensor {name!r}")
        arr = np.asarray(inputs[name], dtype=tensor.dtype.np_dtype)
        if arr.shape != tensor.shape:
            raise ValueError(
                f"input {name!r} has shape {arr.shape}, expected "
                f"{tensor.shape}"
            )
        data[name] = arr
    return data


def checked_seeds(outputs: Sequence[SpNode], history: Mapping[str, int],
                  seeds: Mapping[str, Sequence[np.ndarray]],
                  shape: Sequence[int]) -> Dict[str, List[np.ndarray]]:
    """Initial planes per output tensor (oldest first), validated."""
    planes = {}
    for tensor in outputs:
        need = history[tensor.name]
        given = [np.asarray(p, dtype=tensor.dtype.np_dtype)
                 for p in seeds.get(tensor.name, ())]
        if len(given) != need:
            raise ValueError(
                f"tensor {tensor.name!r} needs {need} initial planes "
                f"(seeds, oldest first), got {len(given)}"
            )
        for plane in given:
            if plane.shape != tuple(shape):
                raise ValueError(
                    f"seed plane of {tensor.name!r} has shape "
                    f"{plane.shape}, expected {tuple(shape)}"
                )
        planes[tensor.name] = given
    return planes


def padded_plane(tensor, data: np.ndarray) -> np.ndarray:
    """``data`` (one block of ``tensor``) inside a zeroed halo frame."""
    halo = _halo_of(tensor)
    padded = np.zeros(
        tuple(s + 2 * h for s, h in zip(data.shape, halo)),
        dtype=tensor.dtype.np_dtype,
    )
    padded[tuple(slice(h, h + s) for h, s in zip(halo, data.shape))] = data
    return padded


def static_planes(tensors: Mapping[str, object],
                  inputs: Optional[Mapping[str, np.ndarray]],
                  boundary: str) -> Dict[str, np.ndarray]:
    """Whole-domain padded planes of the auxiliary ``tensors``."""
    planes = {}
    for name, data in checked_inputs(tensors, inputs).items():
        planes[name] = padded_plane(tensors[name], data)
        fill_halo(planes[name], _halo_of(tensors[name]), boundary)
    return planes


def seed_window(out: SpNode, need: int, init: Sequence[np.ndarray],
                boundary: str) -> SlidingTimeWindow:
    """Whole-domain window of ``out`` holding its ``need`` initial
    planes at t = 0 .. need-1, halos filled."""
    planes = checked_seeds([out], {out.name: need}, {out.name: init},
                           out.shape)[out.name]
    window = SlidingTimeWindow(out)
    for t, data in enumerate(planes):
        window.seed(t, data)
        fill_halo(window.plane(t), out.halo, boundary)
    return window


def reference_run(stencil: Stencil,
                  init: Sequence[np.ndarray],
                  timesteps: int,
                  boundary: str = "zero",
                  inputs: Optional[Mapping[str, np.ndarray]] = None,
                  scalars: Optional[Mapping[str, float]] = None) -> np.ndarray:
    """The serial reference: whole-domain sweeps, no tiling.

    ``init`` supplies the initial history planes (t = 0 .. W-2); the
    run produces timesteps up to ``t = W-2+timesteps`` and returns the
    valid (halo-free) data of the newest plane.  Deliberately not a
    :class:`BlockEngine` client: it is the oracle the engine is tested on.
    """
    if timesteps < 0:
        raise ValueError("timesteps must be >= 0")
    pipeline, history = as_pipeline(stencil)  # validates the stencil
    out = stencil.output
    window = seed_window(out, history[out.name], init, boundary)
    aux = pipeline.aux_tensors()
    static = static_planes(aux, inputs, boundary)
    halos = {name: _halo_of(tensor) for name, tensor in aux.items()}
    halos[out.name] = out.halo
    region = [(0, s) for s in out.shape]
    terms = stencil.combination_terms()

    t0 = history[out.name]
    for t in range(t0, t0 + timesteps):
        acc = np.zeros(out.shape, dtype=out.dtype.np_dtype)
        for scale, app in terms:
            planes = {}
            for access in app.kernel.accesses:
                name, off = access.tensor.name, access.time_offset
                # auxiliary tensors are time-invariant: one plane
                # answers every offset
                planes[(name, off)] = (
                    window.plane(t + app.time_offset + off)
                    if name == out.name else static[name]
                )
            val = evaluate_kernel(app.kernel, planes, halos, region,
                                  scalars=scalars)
            acc += np.asarray(scale * val, dtype=acc.dtype)
        newest = window.advance(t)
        window.interior_view(newest)[...] = acc
        fill_halo(newest, out.halo, boundary)
    return window.valid(window.newest).copy()


def as_pipeline(program: Union[Stencil, StagePipeline]
                ) -> Tuple[StagePipeline, Dict[str, int]]:
    """``(pipeline, initial planes needed per output)``; a lone stencil
    is the one-stage pipeline and keeps its W-1 initial planes."""
    if isinstance(program, StagePipeline):
        return program, program.required_history()
    return StagePipeline((program,)), {
        program.output.name: program.required_time_window - 1
    }


class BlockEngine:
    """One block of the domain stepping a pipeline through time.

    The single numpy implementation of the paper's execution model
    (Sec. 4.3, Fig. 5): a sliding time window of padded planes per stage
    output, planes bound per tensor access, and a ghost refresh after
    every produced plane.  ``refresh(name, halo, plane)`` fills the
    ghosts of a plane of tensor ``name``: the boundary condition on one
    node, zeroed outer edges plus the halo exchange on a rank.  ``shape``
    is the block: a rank's sub-domain, by default the whole domain.
    """

    def __init__(self, program: Union[Stencil, StagePipeline],
                 refresh: Callable[[str, Sequence[int], np.ndarray], None],
                 shape: Optional[Sequence[int]] = None,
                 scalars: Optional[Mapping[str, float]] = None):
        self.pipeline, self.history = as_pipeline(program)
        self.shape = tuple(shape or self.pipeline.shape)
        self.refresh = refresh
        self.scalars = dict(scalars) if scalars else {}
        self.windows: Dict[str, SlidingTimeWindow] = {}
        self.aux: Dict[str, np.ndarray] = {}
        self.halos = {o.name: o.halo for o in self.pipeline.outputs}
        # per stage: (scale, application, distinct (tensor, offset) reads)
        self._terms = {
            stage.output.name: [
                (scale, app, sorted({(a.tensor.name, a.time_offset)
                                     for a in app.kernel.accesses}))
                for scale, app in stage.combination_terms()
            ]
            for stage in self.pipeline.stages
        }
        #: newest completed step; ``None`` until :meth:`seed` ran
        self.t: Optional[int] = None

    @classmethod
    def serial(cls, program, boundary: str, inputs=None, scalars=None):
        """The whole domain on one node: ghosts are the boundary fill."""
        engine = cls(
            program,
            lambda _name, halo, plane: fill_halo(plane, halo, boundary),
            scalars=scalars,
        )
        aux = engine.pipeline.aux_tensors()
        for name, data in checked_inputs(aux, inputs).items():
            engine.set_aux(aux[name], data)
        return engine

    # -- state ------------------------------------------------------------
    def set_aux(self, tensor, block_data: np.ndarray) -> None:
        """Install this block's part of an auxiliary (read-only) tensor."""
        plane = padded_plane(tensor, block_data)
        self.halos[tensor.name] = _halo_of(tensor)
        self.refresh(tensor.name, self.halos[tensor.name], plane)
        self.aux[tensor.name] = plane

    def seed(self, seeds: Mapping[str, Sequence[np.ndarray]]) -> None:
        """Install this block's initial planes, oldest first per tensor;
        every tensor's newest seed sits at step ``k_max - 1`` (``k_max``
        the deepest history needed), so all start computing at ``k_max``.
        """
        planes = checked_seeds(
            self.pipeline.outputs, self.history, seeds, self.shape
        )
        k_max = max(self.history.values(), default=0)
        for tensor in self.pipeline.outputs:
            window = SlidingTimeWindow(tensor, shape=self.shape)
            self.windows[tensor.name] = window
            given = planes[tensor.name]
            for t, data in enumerate(given, start=k_max - len(given)):
                window.seed(t, data)
                self.refresh(tensor.name, tensor.halo, window.plane(t))
        self.t = k_max - 1

    def results(self) -> Dict[str, np.ndarray]:
        """Each stage's newest valid (halo-free) plane of this block."""
        if self.t is None:
            raise RuntimeError("executor has not run yet")
        return {
            name: window.valid(self.t).copy()
            for name, window in self.windows.items()
        }

    # -- stepping ---------------------------------------------------------
    def _bind_planes(self, own: str, app_offset: int, reads,
                     t: int) -> Dict[Tuple[str, int], np.ndarray]:
        """Planes one kernel application reads while computing step ``t``:
        the stage's *own* output at application + access offset, another
        stage's output relative to ``t`` (a stage reference), an
        auxiliary tensor's one static plane whatever the offset.
        """
        planes = {}
        for name, off in reads:
            if name in self.windows:
                step = t + off + (app_offset if name == own else 0)
                planes[name, off] = self.windows[name].plane(step)
            else:
                planes[name, off] = self.aux[name]
        return planes

    def accumulate(self, stage: Stencil, t: int, acc: np.ndarray,
                   regions: Optional[Callable[[Kernel], Iterable]] = None
                   ) -> None:
        """Add ``stage``'s combination terms for step ``t`` into ``acc``
        over ``regions(kernel)`` — that kernel's tiles, a CORE or OWNED
        box — by default the whole block.  The engine computes only here.
        """
        out = stage.output
        whole = [[(0, s) for s in self.shape]]
        with span("runtime.kernel_eval", stage=out.name, t=t):
            for scale, app, reads in self._terms[out.name]:
                planes = self._bind_planes(
                    out.name, app.time_offset, reads, t
                )
                for region in regions(app.kernel) if regions else whole:
                    val = evaluate_kernel(
                        app.kernel, planes, self.halos, region,
                        scalars=self.scalars,
                    )
                    sl = tuple(slice(lo, hi) for lo, hi in region)
                    acc[sl] += np.asarray(scale * val, dtype=acc.dtype)

    def commit(self, stage: Stencil, t: int, acc: np.ndarray) -> None:
        """Rotate ``stage``'s window to step ``t``, store, refresh ghosts."""
        out = stage.output
        window = self.windows[out.name]
        plane = window.advance(t)
        window.interior_view(plane)[...] = acc
        self.refresh(out.name, out.halo, plane)

    def step(self, compute=None) -> None:
        """One timestep: per stage, ``compute(stage, t, acc)`` (default:
        :meth:`accumulate` over the whole block), then :meth:`commit`."""
        if self.t is None:
            raise RuntimeError("call initialize() before step()")
        t = self.t + 1
        for stage in self.pipeline.stages:
            acc = np.zeros(self.shape, dtype=stage.output.dtype.np_dtype)
            (compute or self.accumulate)(stage, t, acc)
            self.commit(stage, t, acc)
        self.t = t


class ScheduledExecutor:
    """Tile-by-tile executor that follows a lowered schedule.

    Executes exactly the structure the C backends emit: tiles enumerated
    in the nest order of the outer axes, with the sliding time window
    rotating between sweeps.  Results must match :func:`reference_run` —
    this is asserted throughout the test suite.
    """

    def __init__(self, stencil: Stencil, schedules: Mapping[str, Schedule],
                 boundary: str = "zero",
                 inputs: Optional[Mapping[str, np.ndarray]] = None,
                 scalars: Optional[Mapping[str, float]] = None):
        self.stencil = stencil
        self.boundary = boundary
        self.engine = BlockEngine.serial(stencil, boundary, inputs, scalars)
        self.schedules = dict(schedules)
        for kern in stencil.kernels:
            self.schedules.setdefault(kern.name, Schedule(kern))
        self._nests = {
            name: sched.lower(stencil.output.shape)
            for name, sched in self.schedules.items()
        }

    def initialize(self, init: Sequence[np.ndarray]) -> None:
        self.engine.seed({self.stencil.output.name: init})

    def _tiles(self, kernel: Kernel) -> Iterable:
        for tile in self._nests[kernel.name].iter_tiles():
            yield [tile.extent(v.name) for v in kernel.loop_vars]

    def step(self) -> None:
        """Advance the window by one timestep."""
        self.engine.step(partial(self.engine.accumulate, regions=self._tiles))

    def run(self, init: Sequence[np.ndarray], timesteps: int) -> np.ndarray:
        """Initialize, run ``timesteps`` sweeps, return the newest plane."""
        self.initialize(init)
        for _ in range(timesteps):
            self.step()
        return self.result()

    def result(self) -> np.ndarray:
        return self.engine.results()[self.stencil.output.name]
