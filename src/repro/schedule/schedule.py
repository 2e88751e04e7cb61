"""The per-kernel Schedule: accumulates primitives and lowers them.

Mirrors the usage in Listing 2 of the paper::

    S_3d7pt.tile(tile_x, tile_y, tile_z, xo, xi, yo, yi, zo, zi)
    S_3d7pt.reorder(xo, yo, zo, xi, yi, zi)
    S_3d7pt.cache_read(B, buffer_read, "global")
    S_3d7pt.cache_write(buffer_write, "global")
    S_3d7pt.compute_at(buffer_read, zo)
    S_3d7pt.compute_at(buffer_write, zo)
    S_3d7pt.parallel(xo, 64)

A Schedule is bound to one :class:`~repro.ir.kernel.Kernel`.  Primitive
calls record intentions; :meth:`lower` applies them to the kernel's
default loop nest over a concrete domain shape and returns a
:class:`~repro.schedule.loopnest.LoopNest` together with the cache/DMA
bindings the backends consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.diagnostics import Diagnostic
from ..ir.axis import Axis
from ..ir.kernel import Kernel
from ..obs import span
from .loopnest import LoopNest
from .primitives import (
    CacheReadPrim,
    CacheWritePrim,
    ComputeAtPrim,
    ParallelPrim,
    ReorderPrim,
    TilePrim,
    UnrollPrim,
    VectorizePrim,
)

__all__ = ["Schedule", "CacheBinding", "ScheduleError", "schedule_key"]


class ScheduleError(ValueError):
    """An invalid combination or ordering of scheduling primitives.

    Errors raised during :meth:`Schedule.lower` carry a structured
    ``diagnostic`` (a :class:`repro.analysis.diagnostics.Diagnostic`)
    so ``repro check`` reports them uniformly with the static
    analyzer's own findings.
    """

    def __init__(self, message: str, diagnostic: Optional[Diagnostic] = None):
        super().__init__(message)
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class CacheBinding:
    """A resolved SPM buffer: what it caches and where its DMA sits."""

    buffer: str
    kind: str  # "read" | "write"
    tensor: Optional[str]  # source tensor for reads; None = kernel output
    scope: str
    compute_at: Optional[str]  # axis name, or None (outermost)


class Schedule:
    """Accumulates scheduling primitives for one kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._tiles: List[TilePrim] = []
        self._reorder: Optional[ReorderPrim] = None
        self._parallel: Optional[ParallelPrim] = None
        self._cache_reads: List[CacheReadPrim] = []
        self._cache_write: Optional[CacheWritePrim] = None
        self._compute_ats: List[ComputeAtPrim] = []
        self._vectorize: Optional[VectorizePrim] = None
        self._unrolls: List[UnrollPrim] = []

    # -- primitive entry points ---------------------------------------------------
    def tile(self, *args) -> "Schedule":
        """``tile(f1, .., fn, o1, i1, .., on, in)`` — one factor + axis
        pair per loop variable, in declaration order (paper's fixed
        argument order), or ``tile(var, factor, outer, inner)`` for a
        single axis.
        """
        nvars = len(self.kernel.loop_vars)
        if len(args) == 4 and isinstance(args[0], str):
            var, factor, outer, inner = args
            self._add_tile(var, factor, outer, inner)
            return self
        if len(args) != 3 * nvars:
            raise ScheduleError(
                f"tile() for a {nvars}-D kernel takes {nvars} factors plus "
                f"{2 * nvars} axis names, got {len(args)} arguments"
            )
        factors = args[:nvars]
        names = args[nvars:]
        for idx, lv in enumerate(self.kernel.loop_vars):
            outer, inner = names[2 * idx], names[2 * idx + 1]
            self._add_tile(lv.name, factors[idx], outer, inner)
        return self

    def _add_tile(self, var: str, factor, outer: str, inner: str) -> None:
        if var not in [v.name for v in self.kernel.loop_vars]:
            raise ScheduleError(
                f"cannot tile unknown loop variable {var!r} of kernel "
                f"{self.kernel.name!r}"
            )
        if any(t.var == var for t in self._tiles):
            raise ScheduleError(f"loop variable {var!r} tiled twice")
        taken = {n for t in self._tiles for n in (t.outer, t.inner)}
        for n in (outer, inner):
            if n in taken:
                raise ScheduleError(f"axis name {n!r} already in use")
        self._tiles.append(TilePrim(var, int(factor), outer, inner))

    def reorder(self, *axes: str) -> "Schedule":
        """Permute the nest; arguments are axis names, outermost first."""
        valid = self._axis_names_after_tiling()
        order = tuple(axes)
        if sorted(order) != sorted(valid):
            raise ScheduleError(
                f"reorder must be a permutation of {sorted(valid)}, got "
                f"{list(order)}"
            )
        self._reorder = ReorderPrim(order)
        return self

    def parallel(self, axis: str, nthreads: int) -> "Schedule":
        """Distribute ``axis`` over ``nthreads`` cores."""
        if axis not in self._axis_names_after_tiling():
            raise ScheduleError(f"cannot parallelise unknown axis {axis!r}")
        self._parallel = ParallelPrim(axis, int(nthreads))
        return self

    def vectorize(self, axis: str) -> "Schedule":
        """Map ``axis`` onto SIMD lanes; must be the innermost loop."""
        names = self._axis_names_after_tiling()
        if axis not in names:
            raise ScheduleError(f"cannot vectorize unknown axis {axis!r}")
        if self._vectorize is not None:
            raise ScheduleError("only one axis may be vectorized")
        self._vectorize = VectorizePrim(axis)
        return self

    def unroll(self, axis: str, factor: int) -> "Schedule":
        """Unroll ``axis`` by ``factor``."""
        if axis not in self._axis_names_after_tiling():
            raise ScheduleError(f"cannot unroll unknown axis {axis!r}")
        if any(u.axis == axis for u in self._unrolls):
            raise ScheduleError(f"axis {axis!r} already unrolled")
        self._unrolls.append(UnrollPrim(axis, int(factor)))
        return self

    def cache_read(self, tensor, buffer: str, scope: str = "global") -> "Schedule":
        """Bind an input tensor to a named SPM read buffer."""
        tname = getattr(tensor, "name", tensor)
        known = {t.name for t in self.kernel.input_tensors}
        if tname not in known:
            raise ScheduleError(
                f"kernel {self.kernel.name!r} does not read tensor "
                f"{tname!r} (reads: {sorted(known)})"
            )
        if any(cr.tensor == tname for cr in self._cache_reads):
            raise ScheduleError(f"tensor {tname!r} already cache_read-bound")
        self._cache_reads.append(CacheReadPrim(tname, buffer, scope))
        return self

    def cache_write(self, buffer: str, scope: str = "global") -> "Schedule":
        """Bind the kernel output to a named SPM write buffer."""
        if self._cache_write is not None:
            raise ScheduleError("cache_write already specified")
        self._cache_write = CacheWritePrim(buffer, scope)
        return self

    def compute_at(self, buffer: str, axis: str) -> "Schedule":
        """Place the DMA get/put for ``buffer`` at loop ``axis``."""
        bufs = {cr.buffer for cr in self._cache_reads}
        if self._cache_write is not None:
            bufs.add(self._cache_write.buffer)
        if buffer not in bufs:
            raise ScheduleError(
                f"compute_at on unbound buffer {buffer!r}; call "
                "cache_read/cache_write first"
            )
        if axis not in self._axis_names_after_tiling():
            raise ScheduleError(f"compute_at at unknown axis {axis!r}")
        if any(ca.buffer == buffer for ca in self._compute_ats):
            raise ScheduleError(f"buffer {buffer!r} already placed")
        self._compute_ats.append(ComputeAtPrim(buffer, axis))
        return self

    # -- introspection -------------------------------------------------------
    def key(self) -> Tuple:
        """Hashable structural identity: the kernel's name and loop
        variables plus every recorded primitive, field for field.
        Schedules with equal keys lower to equal nests over any shape.
        """
        return (
            self.kernel.name,
            tuple(v.name for v in self.kernel.loop_vars),
            tuple(self._tiles), self._reorder, self._parallel,
            tuple(self._cache_reads), self._cache_write,
            tuple(self._compute_ats), self._vectorize,
            tuple(self._unrolls),
        )

    @property
    def tile_factors(self) -> Dict[str, int]:
        return {t.var: t.factor for t in self._tiles}

    @property
    def nthreads(self) -> int:
        return self._parallel.nthreads if self._parallel else 1

    @property
    def is_tiled(self) -> bool:
        return bool(self._tiles)

    @property
    def uses_spm(self) -> bool:
        return bool(self._cache_reads) or self._cache_write is not None

    @property
    def vectorized_axis(self) -> Optional[str]:
        return self._vectorize.axis if self._vectorize else None

    @property
    def unroll_factors(self) -> Dict[str, int]:
        return {u.axis: u.factor for u in self._unrolls}

    def cache_bindings(self) -> List[CacheBinding]:
        at = {ca.buffer: ca.axis for ca in self._compute_ats}
        out: List[CacheBinding] = []
        for cr in self._cache_reads:
            out.append(
                CacheBinding(cr.buffer, "read", cr.tensor, cr.scope,
                             at.get(cr.buffer))
            )
        if self._cache_write is not None:
            cw = self._cache_write
            out.append(
                CacheBinding(cw.buffer, "write", None, cw.scope,
                             at.get(cw.buffer))
            )
        return out

    def _axis_names_after_tiling(self) -> List[str]:
        tiled = {t.var: t for t in self._tiles}
        names: List[str] = []
        for lv in self.kernel.loop_vars:
            if lv.name in tiled:
                names.extend([tiled[lv.name].outer, tiled[lv.name].inner])
            else:
                names.append(lv.name)
        return names

    # -- lowering ---------------------------------------------------------------
    def lower(self, shape: Sequence[int]) -> LoopNest:
        """Apply the recorded primitives over a concrete domain shape."""
        if len(shape) != len(self.kernel.loop_vars):
            names = [v.name for v in self.kernel.loop_vars]
            msg = (
                f"kernel {self.kernel.name!r}: domain has {len(shape)} "
                f"dims for a {len(self.kernel.loop_vars)}-D kernel "
                f"(loop variables {names})"
            )
            raise ScheduleError(msg, Diagnostic(
                "SHAPE001", "error", msg, primitive="lower",
                kernel=self.kernel.name,
            ))
        domain = {
            lv.name: (0, int(s))
            for lv, s in zip(self.kernel.loop_vars, shape)
        }
        tiled = {t.var: t for t in self._tiles}
        axes: List[Axis] = []
        for order, (lv, s) in enumerate(zip(self.kernel.loop_vars, shape)):
            base = Axis(lv, order=order, start=0, end=int(s))
            if lv.name in tiled:
                prim = tiled[lv.name]
                if prim.factor > int(s):
                    msg = (
                        f"kernel {self.kernel.name!r}: tile factor "
                        f"{prim.factor} exceeds extent {s} of {lv.name!r}"
                    )
                    raise ScheduleError(msg, Diagnostic(
                        "TILE001", "error", msg, primitive="tile",
                        kernel=self.kernel.name, axis=lv.name,
                    ))
                outer, inner = base.split(prim.factor, prim.outer, prim.inner)
                axes.extend([outer, inner])
            else:
                axes.append(base)

        if self._reorder is not None:
            by_name = {ax.name: ax for ax in axes}
            axes = [
                by_name[n].with_order(i)
                for i, n in enumerate(self._reorder.order)
            ]
        else:
            axes = [ax.with_order(i) for i, ax in enumerate(axes)]

        tile_factors = {
            t.var: min(t.factor, domain[t.var][1] - domain[t.var][0])
            for t in self._tiles
        }
        if self._vectorize is not None:
            if axes[-1].name != self._vectorize.axis:
                msg = (
                    f"kernel {self.kernel.name!r}: vectorized axis "
                    f"{self._vectorize.axis!r} must be the innermost loop "
                    f"(innermost is {axes[-1].name!r})"
                )
                raise ScheduleError(msg, Diagnostic(
                    "VEC001", "error", msg, primitive="vectorize",
                    kernel=self.kernel.name, axis=self._vectorize.axis,
                ))
        with span("schedule.lower", kernel=self.kernel.name) as sp:
            nest = LoopNest(
                axes=axes,
                domain=domain,
                tile_factors=tile_factors,
                parallel_axis=(
                    self._parallel.axis if self._parallel else None
                ),
                nthreads=self.nthreads,
                vectorized_axis=self.vectorized_axis,
                unroll_factors=self.unroll_factors,
            )
            sp.set(ntiles=nest.ntiles, nthreads=nest.nthreads,
                   tile=str(nest.tile_shape()))
        return nest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"Schedule({self.kernel.name}"]
        if self._tiles:
            parts.append(f" tile={self.tile_factors}")
        if self._parallel:
            parts.append(f" parallel={self._parallel.axis}x{self.nthreads}")
        if self.uses_spm:
            parts.append(" spm")
        return "".join(parts) + ")"


def schedule_key(schedules: Mapping[str, Schedule],
                 kernels: Iterable[Kernel] = ()) -> Tuple:
    """Hashable key of the schedules a program runs under: every entry
    of ``schedules`` and, for each of ``kernels`` without one, the
    default schedule — so ``{}`` and an explicit ``Schedule(kernel)``
    key alike, as they lower alike."""
    keys = {name: sched.key() for name, sched in schedules.items()}
    for kern in kernels:
        if kern.name not in keys:
            keys[kern.name] = Schedule(kern).key()
    return tuple(sorted(keys.items()))
