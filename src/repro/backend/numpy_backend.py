"""Executable backend: runs stencil IR with vectorized numpy.

The *same lowered schedule* the C backends emit (tile enumeration,
sliding time window) is executed over real data, so every schedule
transformation is observable and testable for correctness (the paper's
Sec. 5.1 methodology: generated codes must match the serial codes to
1e-5 / 1e-10 relative error).

- :func:`reference_run` — whole-domain, untiled, the "serial code" and
  the oracle every other path is compared against;
- :class:`BlockEngine` — the one numpy time-stepping engine (a lone
  stencil is its one-stage case), also behind
  :mod:`repro.runtime.executor`;
- :class:`ScheduledExecutor` — the engine driven tile-by-tile in the
  schedule's nest order, exactly the structure the C backend emits.

Expression evaluation is fully vectorized: each
:class:`~repro.ir.expr.TensorAccess` becomes a shifted *view* of the
padded plane (no copies), and operator nodes map to numpy ufuncs.  The
oracle walks the expression tree on every call; the engine takes each
kernel's lowered program (:attr:`Kernel.program
<repro.ir.kernel.Kernel.program>`, the form the C emitters print),
types it once per term (:class:`TermProgram`), binds it per region to
views and scratch registers, and writes every timestep straight into
its window plane — the same ufuncs on the same operands in the same
order, so the two stay bit-identical by construction.
"""

from __future__ import annotations

import math
import operator
import threading
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
    Union,
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
from ..ir.pipeline import StagePipeline, as_pipeline
from ..ir.program import SLOT, TEMP, VALUE, KernelProgram, Operand
from ..ir.stencil import Stencil
from ..ir.tensor import SpNode
from ..obs import counter, span
from ..schedule.schedule import Schedule
from ..schedule.timewindow import SlidingTimeWindow

__all__ = [
    "evaluate_kernel",
    "reference_run",
    "TermProgram",
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


def padded_plane(tensor, data: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """``data`` (one block of ``tensor``) inside a zeroed halo frame;
    with ``out`` (a plane this function returned before for the same
    block shape) the interior is written into ``out`` and its halo is
    left as it was."""
    halo = _halo_of(tensor)
    padded = out if out is not None else np.zeros(
        tuple(s + 2 * h for s, h in zip(data.shape, halo)),
        dtype=tensor.dtype.np_dtype,
    )
    padded[tuple(slice(h, h + s) for h, s in zip(halo, data.shape))] = data
    return padded


def static_planes(tensors: Mapping[str, object],
                  inputs: Optional[Mapping[str, np.ndarray]],
                  boundary: str,
                  into: Optional[Mapping[str, np.ndarray]] = None
                  ) -> Dict[str, np.ndarray]:
    """Whole-domain padded planes of the auxiliary ``tensors``;
    ``into`` (planes this function returned before for the same
    tensors) are filled again in place instead of allocated."""
    planes = {}
    for name, data in checked_inputs(tensors, inputs).items():
        planes[name] = padded_plane(tensors[name], data,
                                    None if into is None else into[name])
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


# -- the kernel program --------------------------------------------------------
#
# What the engine runs instead of walking the tree, in three stages each
# done as rarely as its inputs change:
#
#   lower  Kernel -> KernelProgram (repro.ir.program)   once per kernel node
#   type   + scalars, scale, dtype -> TermProgram       once per kernel node
#                                                       and configuration
#   bind   + region, planes -> [(ufunc, args, out)]     once per region
#                                                       and window rotation
#
# ``reference_run`` above keeps the tree walk: it is the oracle and must
# not share the engine's lowering.

#: operand kinds of a typed program, beside the lowered program's slot
#: and value: a scratch register, a scalar broadcast to the region
_REG, _SPLAT = "reg", "splat"

#: per instruction name, the ufunc the python operator (or call) of
#: ``_eval`` dispatches to when an operand is an array
_UFUNCS = {
    "neg": np.negative, "add": np.add, "sub": np.subtract,
    "mul": np.multiply, "div": np.true_divide, **_NUMPY_FUNCS,
}

_LOWER_LOCK = threading.Lock()  # rank threads share kernel nodes

#: typed terms one kernel program keeps (:func:`typed_term`); a run
#: needs one per term, so this only bounds a process that sweeps scalars
_MAX_TYPED_TERMS = 16

#: what a typed program may call and still be bound over a flat hull:
#: the hull's extra cells compute on ghost data, and these cannot trap
#: on it (a division, a function or a cast could warn where the oracle
#: does not)
_HULL_SAFE = frozenset((np.negative, np.add, np.subtract, np.multiply))


def _cast(src: np.ndarray, out: np.ndarray) -> None:
    """``np.asarray(src, dtype=out.dtype)``, written into ``out``."""
    np.copyto(out, src, casting="unsafe")


class TermProgram:
    """One combination term ``scale * kernel``, typed for one engine.

    Takes the kernel's program folded with the engine's bound scalars
    (:meth:`KernelProgram.fold`: constants are values by now, decided
    as ``_eval`` decides them, so a python float stays a weak scalar).
    Every instruction gets the dtype its sub-expression has under the
    interpreter — found by applying the same ufunc to empty operands of
    the same dtypes — and a scratch register of that dtype, handed on
    as soon as its value is consumed (a left-deep 9-point sum needs
    two).  ``code`` ends with the term's ``scale *`` and, when the
    dtypes differ, the cast to the output dtype as its own instruction;
    its last register holds the term's contribution.  Unbound free
    scalars are reported here.
    """

    __slots__ = ("accesses", "code", "reg_dtypes", "hull_safe", "_calls",
                 "_scalars", "_splats")

    def __init__(self, program: KernelProgram,
                 scalars: Mapping[str, float], scale: float,
                 out_dtype: np.dtype):
        self.accesses = program.accesses
        #: ``(ufunc, operands, destination register)``
        self.code: List[Tuple[Callable, Tuple[Operand, ...], int]] = []
        self.reg_dtypes: List[np.dtype] = []
        free: Dict[np.dtype, List[int]] = {}
        placed: List[Operand] = []  # per folded instruction: its register

        def typed(ref: Operand) -> Operand:
            return placed[ref[1]] if ref[0] == TEMP else ref

        folded, value = program.fold(scalars)
        for name, refs in folded:
            placed.append(self._emit(
                free, _UFUNCS[name], tuple(typed(ref) for ref in refs)))
        value = typed(value)
        if value[0] == VALUE:
            # a constants-only kernel: ``evaluate_kernel`` broadcasts it
            value = (_SPLAT, np.asarray(value[1]))
        value = self._emit(free, np.multiply, ((VALUE, scale), value))
        if self.reg_dtypes[value[1]] != out_dtype:
            self._emit(free, _cast, (value,), out_dtype)
        self.hull_safe = all(fn in _HULL_SAFE for fn, _, _ in self.code)

        # :meth:`bind` lays views, registers and the scalar operands (in
        # order of use) out in one list and picks each call's arguments
        # and then its destination from it by position
        first_reg = len(self.accesses)
        first_scalar = first_reg + len(self.reg_dtypes)
        self._scalars: List[Any] = []
        self._splats: List[int] = []  # positions broadcast per bind
        self._calls = []
        for fn, operands, reg in self.code:
            picks = []
            for kind, payload in operands:
                if kind == SLOT:
                    picks.append(payload)
                elif kind == _REG:
                    picks.append(first_reg + payload)
                else:
                    picks.append(first_scalar + len(self._scalars))
                    if kind == _SPLAT:
                        self._splats.append(picks[-1])
                    self._scalars.append(payload)
            picks.append(first_reg + reg)
            self._calls.append((fn, operator.itemgetter(*picks)))

    def _probe(self, operand: Operand):
        """A stand-in with the operand's type-resolution behaviour."""
        kind, payload = operand
        if kind == VALUE:
            return payload
        if kind == SLOT:
            return np.empty(0, self.accesses[payload].tensor.dtype.np_dtype)
        return np.empty(
            0, self.reg_dtypes[payload] if kind == _REG else payload.dtype
        )

    def _emit(self, free: Dict[np.dtype, List[int]], fn: Callable,
              operands: Tuple[Operand, ...],
              dtype: Optional[np.dtype] = None) -> Operand:
        if dtype is None:
            dtype = fn(*(self._probe(o) for o in operands)).dtype
        # operand registers are dead once this instruction ran, so it
        # may write over one of them (ufuncs allow ``out`` = an input)
        for kind, payload in operands:
            if kind == _REG:
                free.setdefault(self.reg_dtypes[payload], []).append(payload)
        spare = free.get(dtype)
        if spare:
            reg = spare.pop()
        else:
            reg = len(self.reg_dtypes)
            self.reg_dtypes.append(dtype)
        self.code.append((fn, operands, reg))
        return _REG, reg

    def bind(self, views: List[np.ndarray], registers: List[np.ndarray],
             shape: Tuple[int, ...]
             ) -> List[Tuple[Callable, tuple, np.ndarray]]:
        """The program over concrete operands, to be run as ``for fn,
        args, out in calls: fn(*args, out=out)``; the term's
        contribution is the last call's ``out``."""
        env = views + registers + self._scalars
        for position in self._splats:
            env[position] = np.broadcast_to(env[position], shape)
        return [(fn, (picked := pick(env))[:-1], picked[-1])
                for fn, pick in self._calls]


def _key(value) -> tuple:
    """``value`` as a memo key: type and bits, so ``-0.0`` is not
    ``0.0`` and ``1`` is not ``1.0``."""
    return type(value), np.asarray(value).tobytes()


def typed_term(program: KernelProgram, scalars: Mapping[str, float],
               scale: float, out_dtype: np.dtype) -> TermProgram:
    """The :class:`TermProgram` of ``scale * program`` for these bound
    scalars and output dtype, typed once and kept on the program
    (:attr:`KernelProgram.typed`) for every later engine and rank."""
    key = (tuple(sorted((name, _key(v)) for name, v in scalars.items())),
           _key(scale), out_dtype)
    with _LOWER_LOCK:
        typed = program.typed.get(key)
    if typed is None:
        typed = TermProgram(program, scalars, scale, out_dtype)
        with _LOWER_LOCK:
            if len(program.typed) < _MAX_TYPED_TERMS:
                typed = program.typed.setdefault(key, typed)
    return typed


#: bound plans one engine keeps.  A rank needs regions x terms x window
#: rotations (tens) and re-uses them from step W on.  A tiled
#: ScheduledExecutor has hundreds of tiles per rotation: keeping a plan
#: per tile makes memory grow with the tile count (+5 MiB at 256 tiles
#: of a 512^2 grid), so past the bound plans are bound on the fly
_MAX_BOUND_PLANS = 256


class _Term:
    """One combination term of a stage as the engine keeps it."""

    __slots__ = ("scale", "app", "lowered", "typed")

    def __init__(self, scale: float, app, lowered: KernelProgram):
        self.scale = scale
        self.app = app
        self.lowered = lowered
        self.typed: Optional[TermProgram] = None  # at the first bind


class BlockEngine:
    """One block of the domain stepping a pipeline through time.

    The single numpy implementation of the paper's execution model
    (Sec. 4.3, Fig. 5): a sliding time window of padded planes per stage
    output, planes bound per tensor access, and a ghost refresh after
    every produced plane.  ``refresh(name, halo, plane)`` fills the
    ghosts of a plane of tensor ``name``: the boundary condition on one
    node, zeroed outer edges plus the halo exchange on a rank.  ``shape``
    is the block: a rank's sub-domain, by default the whole domain.

    Kernels are not interpreted per step.  Each is lowered once to a
    :class:`KernelProgram`; :meth:`compute` binds it per (term, region,
    window rotation) to views of the planes and per-shape scratch
    registers — a *bound plan*, a flat list of ufunc calls kept for the
    next time the window is in that rotation — and the plan writes the
    step straight into the interior of plane ``t``: the first term as
    ``0 + scale*K``, later terms added in place.  There is no
    accumulator plane.  Plans hold views and scratch only, never the
    engine, so dropping an engine frees its planes without the cycle
    collector.  :attr:`plan_stats` counts what this engine lowered,
    bound and re-used.
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
        self.plan_stats = {"lower": 0, "bind": 0, "reuse": 0}
        self._terms: Dict[str, List[_Term]] = {}
        for stage in self.pipeline.stages:
            terms = self._terms[stage.output.name] = []
            for scale, app in stage.combination_terms():
                kernel = app.kernel
                with _LOWER_LOCK:
                    fresh = "program" not in vars(kernel)
                    lowered = kernel.program
                if fresh:
                    counter("numpy.plan.lower", kernel=kernel.name)
                    self.plan_stats["lower"] += 1
                terms.append(_Term(scale, app, lowered))
        self._whole = (tuple((0, s) for s in self.shape),)
        #: regions each term of a stage has written in the current step
        self._written = {
            name: [[] for _ in terms] for name, terms in self._terms.items()
        }
        #: region sequences (one term's, one step's) known to tile the
        #: block exactly: a steady step checks its cover by one lookup
        self._covers: set = set()
        #: bound plans by (stage, term, window rotation, region)
        self._plans: Dict[Tuple, list] = {}
        #: scratch registers by (region shape, dtype, register number),
        #: shared by every plan of that shape: plans run one at a time
        self._scratch: Dict[Tuple, np.ndarray] = {}
        self._period = 1  # steps after which every window slot repeats
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
        self._plans.clear()  # they view the planes they were bound to

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
        self._plans.clear()
        self._period = math.lcm(*(w.window for w in self.windows.values()))
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
    def _planes(self, stage: Stencil, term: _Term, t: int
                ) -> Tuple[List[np.ndarray], np.ndarray]:
        """What ``term`` of ``stage`` touches at step ``t``: the plane
        behind each of its access slots, and plane ``t`` it writes.  A
        term reads the stage's *own* output at application + access
        offset, another stage's output relative to ``t`` (a stage
        reference), an auxiliary tensor's one static plane whatever the
        offset.  Types the term first; a free scalar with no value, a
        plane that left the window (or is the one being written) or was
        never installed is reported here.
        """
        out = stage.output
        if term.typed is None:
            term.typed = typed_term(term.lowered, self.scalars, term.scale,
                                    out.dtype.np_dtype)
        found: Dict[Tuple[str, int], np.ndarray] = {}
        for access in term.typed.accesses:
            read = name, off = access.tensor.name, access.time_offset
            if read in found:
                continue
            if name in self.windows:
                step = t + off + (term.app.time_offset if name == out.name
                                  else 0)
                found[read] = self.windows[name].plane(step)
            elif name in self.aux:
                found[read] = self.aux[name]
            else:
                raise KeyError(
                    f"no plane bound for tensor {name!r} at time offset "
                    f"{off}"
                )
        return (
            [found[a.tensor.name, a.time_offset]
             for a in term.typed.accesses],
            self.windows[out.name].plane(t),
        )

    def _flat_hull(self, typed: TermProgram, planes: Sequence[np.ndarray],
                   target: np.ndarray, halo: Sequence[int],
                   region: Tuple[Tuple[int, int], ...]
                   ) -> Optional[Tuple[List[np.ndarray], np.ndarray]]:
        """The term's views over the *flat hull* of ``region`` — one
        contiguous run of each plane it reads, and of ``target`` — or
        None when the region may not be bound so.  The hull runs from
        the region's first interior cell to its last.  For a region
        that spans the block in every trailing dimension its other
        cells are ghost cells of ``target`` between rows, which the
        refresh rewrites after every step.  An access at offset ``o``
        reads the same run shifted by ``o``'s flat stride, so every
        plane read must share ``target``'s padded layout, and the
        program must not trap on ghost data (``TermProgram.hull_safe``).
        """
        (lo, hi), rows = region[0], region[1:]
        if (not typed.hull_safe or lo >= hi or 0 in self.shape
                or any(r != (0, n) for r, n in zip(rows, self.shape[1:]))
                or not all(p.shape == target.shape and p.flags.c_contiguous
                           for p in (target, *planes))):
            return None
        strides = [math.prod(target.shape[d + 1:])
                   for d in range(target.ndim)]
        start = (halo[0] + lo) * strides[0] + sum(
            h * st for h, st in zip(halo[1:], strides[1:]))
        length = (hi - lo - 1) * strides[0] + sum(
            (n - 1) * st for n, st in zip(self.shape[1:], strides[1:])) + 1

        def run(plane: np.ndarray, shift: int = 0) -> np.ndarray:
            return plane.reshape(-1)[start + shift:start + shift + length]

        return [
            run(plane, sum(map(operator.mul, access.offsets, strides)))
            for access, plane in zip(typed.accesses, planes)
        ], run(target)

    def _bind(self, stage: Stencil, first: bool, typed: TermProgram,
              planes: Sequence[np.ndarray], target: np.ndarray,
              region: Tuple[Tuple[int, int], ...]) -> list:
        """Bound plan of one term over ``region``: its calls.  An
        access that leaves the padded buffer is reported here.  A
        whole-row region is bound over its flat hull when it may be
        (:meth:`_flat_hull`), any other as boxed views."""
        halo = stage.output.halo
        # boxed views even for a hull: they report an access that
        # leaves the padded buffer, as the oracle does
        views = [
            _access_view(access, plane, self.halos[access.tensor.name],
                         region)
            for access, plane in zip(typed.accesses, planes)
        ]
        dst = target[tuple(
            slice(h + lo, h + hi) for h, (lo, hi) in zip(halo, region)
        )]
        hull = self._flat_hull(typed, planes, target, halo, region)
        if hull is not None:
            views, dst = hull
        shape = dst.shape
        registers = []
        for number, dtype in enumerate(typed.reg_dtypes):
            key = (shape, dtype, number)
            register = self._scratch.get(key)
            if register is None:
                register = self._scratch[key] = np.empty(shape, dtype)
            registers.append(register)
        calls = typed.bind(views, registers, shape)
        contribution = calls[-1][2]
        if first:
            # ``0 + x`` as the accumulator-into-zeros oracle computes
            # it: an all ``-0.0`` term stays ``+0.0``
            calls.append((np.add, (contribution, dst.dtype.type(0)), dst))
        else:
            calls.append((np.add, (dst, contribution), dst))
        return calls

    def compute(self, stage: Stencil, t: int,
                regions: Optional[Callable[[Kernel], Iterable]] = None
                ) -> None:
        """Write ``stage``'s combination terms for step ``t`` into the
        interior of plane ``t`` over ``regions(kernel)`` — that kernel's
        tiles, a CORE or OWNED box, each a tuple of per-dimension
        ``(lo, hi)`` — by default the whole block.  Plane ``t`` must be
        claimed already (:meth:`step` does); calls for one step may
        split the block between them, but together every term must
        cover it exactly once.  The engine computes only here.
        """
        name = stage.output.name
        rotation = t % self._period
        plans = self._plans
        written = self._written[name]
        binds = ops = count = 0
        with span("runtime.kernel_eval", stage=name, t=t) as sp:
            for index, term in enumerate(self._terms[name]):
                bound_to = None  # this term's planes, at the first miss
                boxes = regions(term.app.kernel) if regions else self._whole
                for region in boxes:
                    key = (name, index, rotation, region)
                    plan = plans.get(key)
                    if plan is None:
                        if bound_to is None:
                            bound_to = self._planes(stage, term, t)
                        plan = self._bind(stage, index == 0, term.typed,
                                          *bound_to, region)
                        if len(plans) < _MAX_BOUND_PLANS:
                            plans[key] = plan
                        binds += 1
                    for fn, args, out in plan:
                        fn(*args, out=out)
                    written[index].append(region)
                    ops += len(plan)
                    count += 1
            sp.set(ops=ops, regions=count)
        stats = self.plan_stats
        stats["bind"] += binds
        stats["reuse"] += count - binds
        if binds:
            counter("numpy.plan.bind", binds)
        if count > binds:
            counter("numpy.plan.reuse", count - binds)

    def step(self, compute=None) -> None:
        """One timestep: per stage, claim plane ``t`` of its window,
        ``compute(stage, t)`` (default: :meth:`compute` over the whole
        block) writes its interior, then the ghost refresh.  The slot
        is claimed *first*, so a read of the plane being overwritten
        fails (``SlidingTimeWindow.plane``), and a ``compute`` whose
        regions leave part of the block unwritten — it would keep the
        recycled plane's old values — or write a cell twice is rejected.
        """
        if self.t is None:
            raise RuntimeError("call initialize() before step()")
        t = self.t + 1
        for stage in self.pipeline.stages:
            out = stage.output
            plane = self.windows[out.name].advance(t)
            written = self._written[out.name]
            for regions in written:
                regions.clear()
            (compute or self.compute)(stage, t)
            for index, regions in enumerate(written):
                if (regions := tuple(regions)) not in self._covers:
                    self._check_cover(out.name, t, index, regions)
            self.refresh(out.name, out.halo, plane)
        self.t = t

    def _check_cover(self, name: str, t: int, index: int,
                     regions: Tuple) -> None:
        """Raise unless ``regions`` — what term ``index`` of stage
        ``name`` wrote in step ``t`` — tile the block: each inside it,
        none overlapping another, together all of it.  A sequence that
        passes is remembered, so a later step repeating it is one
        lookup in :meth:`step`."""
        cells = sum(math.prod(hi - lo for lo, hi in r) for r in regions)
        inside = all(
            len(r) == len(self.shape)
            and all(0 <= lo <= hi <= n for (lo, hi), n in zip(r, self.shape))
            for r in regions
        )
        if inside and cells == math.prod(self.shape):
            covered = np.zeros(self.shape, dtype=bool)
            for r in regions:
                covered[tuple(slice(lo, hi) for lo, hi in r)] = True
            # as many cells as the block, and every cell of it: each once
            if covered.all():
                if len(self._covers) < _MAX_BOUND_PLANS:
                    self._covers.add(regions)
                return
        raise ValueError(
            f"step {t} of {name!r}: term {index} wrote {len(regions)} "
            f"region(s), {cells} cells, over a block of shape "
            f"{self.shape}; they must cover it exactly once"
        )


class ScheduledExecutor:
    """Tile-by-tile executor that follows a lowered schedule.

    Executes exactly the structure the C backends emit: tiles enumerated
    in the nest order of the outer axes, with the sliding time window
    rotating between sweeps.  Results must match :func:`reference_run` —
    this is asserted throughout the test suite.  A pipeline runs its
    stages in order each step, every kernel tiled by its own schedule.
    """

    def __init__(self, stencil: Union[Stencil, StagePipeline],
                 schedules: Mapping[str, Schedule],
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
            name: sched.lower(self.engine.shape)
            for name, sched in self.schedules.items()
        }

    def initialize(self, init) -> None:
        """Seed the windows: ``{tensor: [oldest ... newest]}``, or a list
        of the first stage's planes."""
        if not isinstance(init, Mapping):
            init = {self.engine.pipeline.outputs[0].name: init}
        self.engine.seed(init)

    def _tiles(self, kernel: Kernel) -> Iterable:
        for tile in self._nests[kernel.name].iter_tiles():
            yield tuple(tile.extent(v.name) for v in kernel.loop_vars)

    def step(self) -> None:
        """Advance the window by one timestep."""
        self.engine.step(partial(self.engine.compute, regions=self._tiles))

    def run(self, init, timesteps: int):
        """Initialize, run ``timesteps`` sweeps, return :meth:`result`."""
        self.initialize(init)
        for _ in range(timesteps):
            self.step()
        return self.result()

    def result(self):
        """The newest plane, or ``{output: newest plane}`` per stage."""
        results = self.engine.results()
        return results if len(results) > 1 else results.popitem()[1]
