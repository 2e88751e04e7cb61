"""The static schedule-legality analyzer.

Validates a whole program — (Stencil IR, per-kernel Schedules,
MachineSpec, MPI grid) — *before* codegen, simulation or a distributed
run, collecting every violation as a structured
:class:`~repro.analysis.diagnostics.Diagnostic` instead of stopping at
the first scattered ``ScheduleError``:

- **SPM capacity** (``SPM001``): the actual tile+halo footprint of each
  ``cache_read``/``cache_write`` binding, summed, against the per-core
  scratchpad of a cache-less machine, with a per-binding breakdown;
- **write races** (``RACE001``/``RACE002``): ``parallel`` over a
  tile-inner axis, or an output buffer whose ``compute_at`` sits
  *outside* the parallel loop so every core would share one staged
  write buffer under the stencil's multi-time-window dependencies;
- **halo vs radius** (``HALO001``/``HALO002``): the stencil radius
  against the declared halo, and the per-rank sub-domain produced by
  :mod:`repro.comm.decomposition`'s balanced split against the halo;
- **tile hazards** (``TILE001``–``TILE003``): factor exceeding the
  extent, remainder tiles, fewer tiles than cores;
- **primitive interactions** (``CA001``/``ORD001``/``VEC001``/
  ``VEC002``): ``compute_at`` at a non-tile-enumerating axis,
  ``reorder`` placing a tile-inner axis outside its tile-outer axis,
  vectorizing a non-innermost loop, vectorizing and unrolling one
  loop for a cached CPU.

The module deliberately avoids importing :mod:`repro.schedule` at the
top level (schedules and loop nests are duck-typed) so that
``repro.schedule`` itself can import :mod:`repro.analysis.diagnostics`
without a cycle.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.validate import stencil_issues
from ..obs import counter, span
from .diagnostics import CheckReport, Diagnostic

__all__ = [
    "SPM_UTILISATION_FLOOR",
    "binding_footprints",
    "check_config",
    "check_decomposition",
    "check_exchange_mode",
    "check_kernel_schedule",
    "check_program",
    "check_stencil_ir",
    "enforce",
]

#: below this fraction of the scratchpad, SPM003 flags the tile as
#: wastefully small (DMA startup dominates the transfer)
SPM_UTILISATION_FLOOR = 0.05

_IR_CATEGORY_CODES = {"halo": "HALO001"}


def _prod(values: Sequence[int]) -> int:
    n = 1
    for v in values:
        n *= int(v)
    return n


# ---------------------------------------------------------------------------
# SPM footprint model
# ---------------------------------------------------------------------------

def binding_footprints(kernel, tile_shape: Sequence[int],
                       bindings) -> List[Tuple[object, int]]:
    """Per-binding SPM bytes for one tile: ``[(binding, bytes), ...]``.

    Read buffers hold the tile plus the stencil halo on every side (the
    overlapped region that makes tiles independent, Sec. 4.3); write
    buffers hold the bare tile.
    """
    elem = max(
        (t.dtype.nbytes for t in kernel.input_tensors), default=8
    )
    rad = kernel.radius
    out: List[Tuple[object, int]] = []
    for b in bindings:
        if b.kind == "read":
            n = _prod(s + 2 * r for s, r in zip(tile_shape, rad))
        else:
            n = _prod(tile_shape)
        out.append((b, n * elem))
    return out


# ---------------------------------------------------------------------------
# per-kernel checks (structural + machine)
# ---------------------------------------------------------------------------

def check_kernel_schedule(schedule, nest, machine=None) -> CheckReport:
    """Analyze one lowered kernel schedule.

    ``schedule`` is a :class:`~repro.schedule.schedule.Schedule`,
    ``nest`` the :class:`~repro.schedule.loopnest.LoopNest` produced by
    ``schedule.lower``; ``machine`` (a MachineSpec) enables the
    machine-dependent checks.
    """
    report = CheckReport()
    kernel = schedule.kernel
    kname = kernel.name
    bindings = schedule.cache_bindings()
    positions = {name: i for i, name in enumerate(nest.axis_names)}

    # TILE002: remainder tiles (factor does not divide the extent)
    for var, factor in schedule.tile_factors.items():
        lo, hi = nest.domain[var]
        extent = hi - lo
        if factor <= extent and extent % factor:
            report.add(
                "TILE002", "warning",
                f"tile factor {factor} does not divide extent {extent} of "
                f"{var!r}; edge tiles are smaller (remainder hazard for "
                "fixed-size SPM buffers)",
                primitive="tile", kernel=kname, axis=var,
            )

    # ORD001: a tile-inner axis nested outside its tile-outer axis
    for ax in nest.axes:
        if ax.role != "inner":
            continue
        outer = next(
            (o for o in nest.axes
             if o.role == "outer" and o.parent == ax.parent), None
        )
        if outer is not None and positions[outer.name] > positions[ax.name]:
            severity = "error" if schedule.uses_spm else "warning"
            report.add(
                "ORD001", severity,
                f"reorder places tile-inner axis {ax.name!r} outside its "
                f"tile-outer axis {outer.name!r}; the nest no longer "
                "enumerates whole tiles"
                + (" (SPM staging would DMA the wrong block)"
                   if schedule.uses_spm else ""),
                primitive="reorder", kernel=kname, axis=ax.name,
            )

    # RACE001: parallel over a tile-inner axis
    if nest.parallel_axis is not None:
        ax = nest.axis(nest.parallel_axis)
        if ax.role == "inner":
            report.add(
                "RACE001", "error",
                f"parallel axis {ax.name!r} is a tile-inner loop; "
                "parallelise an outer loop so whole tiles map to cores",
                primitive="parallel", kernel=kname, axis=ax.name,
            )

    # RACE002: write buffer staged outside the parallel loop — all
    # cores would share one staged output block while the time window
    # still needs the previous planes intact (write race)
    if nest.parallel_axis is not None and nest.parallel_axis in positions:
        par_pos = positions[nest.parallel_axis]
        for b in bindings:
            if b.kind != "write" or b.compute_at is None:
                continue
            if b.compute_at in positions and (
                    positions[b.compute_at] < par_pos):
                report.add(
                    "RACE002", "error",
                    f"write buffer {b.buffer!r} is staged at "
                    f"{b.compute_at!r}, outside the parallel loop "
                    f"{nest.parallel_axis!r}; all {nest.nthreads} cores "
                    "would share one output buffer (write race across "
                    "the stencil's time window)",
                    primitive="compute_at", kernel=kname, axis=b.compute_at,
                )

    if machine is None:
        return report

    # VEC002: one loop both vectorized and unrolled.  For a cached CPU
    # the C printer puts ``omp simd`` and ``GCC unroll`` on the same
    # ``for``, which gcc rejects in either order; the Sunway printer
    # prints no ``omp simd``, so there the pair is legal
    vec = nest.vectorized_axis
    if (not machine.cacheless and vec is not None
            and vec in nest.unroll_factors):
        report.add(
            "VEC002", "error",
            f"axis {vec!r} is both vectorized and unrolled "
            f"({nest.unroll_factors[vec]}); on {machine.name} a loop "
            "takes one of the two pragmas — drop the unroll or vectorize",
            primitive="unroll", kernel=kname, axis=vec,
        )

    # PAR001: thread count vs cores.  On a cache-less target the CPE
    # grid is fixed hardware (error); a cached CPU merely timeshares
    # (warning).
    cores = machine.cores_per_node
    if nest.nthreads > cores:
        report.add(
            "PAR001", "error" if machine.cacheless else "warning",
            f"parallel({nest.parallel_axis}, {nest.nthreads}) exceeds the "
            f"{cores} cores of {machine.name}",
            primitive="parallel", kernel=kname, axis=nest.parallel_axis,
        )

    # TILE003: fewer tiles than threads — cores sit idle
    if nest.nthreads > 1 and nest.ntiles < nest.nthreads:
        report.add(
            "TILE003", "warning",
            f"only {nest.ntiles} tiles for {nest.nthreads} threads; "
            f"{nest.nthreads - nest.ntiles} cores are idle (enlarge the "
            "domain or shrink the tile factors)",
            primitive="parallel", kernel=kname, axis=nest.parallel_axis,
        )

    if machine.cacheless:
        if not bindings:
            report.add(
                "SPM002", "error",
                f"{machine.name} has no data cache: schedules must use "
                "cache_read/cache_write to stage tiles in SPM",
                primitive="cache_read", kernel=kname,
            )
        read_bound = {b.tensor for b in bindings if b.kind == "read"}
        missing = {t.name for t in kernel.input_tensors} - read_bound
        if bindings and missing:
            report.add(
                "SPM002", "error",
                f"inputs {sorted(missing)} are not cache_read-bound; on a "
                "cache-less target every input must be staged",
                primitive="cache_read", kernel=kname,
            )
        if bindings and not any(b.kind == "write" for b in bindings):
            report.add(
                "SPM002", "error",
                "no cache_write buffer; the output tile must be staged in "
                "SPM before the DMA put",
                primitive="cache_write", kernel=kname,
            )

        tile_shape = nest.tile_shape()
        footprints = binding_footprints(kernel, tile_shape, bindings)
        need = sum(nbytes for _, nbytes in footprints)
        if bindings and need > machine.spm_bytes:
            breakdown = ", ".join(
                f"{b.buffer}[{b.kind}]={nbytes} B"
                for b, nbytes in footprints
            )
            report.add(
                "SPM001", "error",
                f"tile {tuple(tile_shape)} needs {need} B of SPM but "
                f"{machine.name} provides {machine.spm_bytes} B per core "
                f"({breakdown}); shrink the tile factors",
                primitive="cache_read", kernel=kname,
            )
        elif bindings and 0 < need < SPM_UTILISATION_FLOOR * machine.spm_bytes:
            report.add(
                "SPM003", "warning",
                f"tile {tuple(tile_shape)} stages only {need} B "
                f"({100.0 * need / machine.spm_bytes:.1f}% of the "
                f"{machine.spm_bytes} B scratchpad); DMA startup will "
                "dominate — enlarge the tile factors",
                primitive="cache_read", kernel=kname,
            )

        outer_names = {ax.name for ax in nest.outer_axes}
        for b in bindings:
            if b.compute_at is not None and b.compute_at not in outer_names:
                report.add(
                    "CA001", "error",
                    f"compute_at({b.buffer}, {b.compute_at}) targets an "
                    "inner axis; DMA must be issued at a tile-enumerating "
                    "(outer) loop",
                    primitive="compute_at", kernel=kname, axis=b.compute_at,
                )

    return report


# ---------------------------------------------------------------------------
# IR + decomposition checks
# ---------------------------------------------------------------------------

def check_stencil_ir(stencil) -> CheckReport:
    """IR-level problems as diagnostics (``HALO001`` / ``IR001``)."""
    report = CheckReport()
    for category, message in stencil_issues(stencil):
        code = _IR_CATEGORY_CODES.get(category, "IR001")
        report.add(code, "error", message)
    return report


def check_decomposition(stencil, global_shape: Sequence[int],
                        grid: Sequence[int]) -> CheckReport:
    """MPI-grid legality (``MPI001``) and halo coverage (``HALO002``).

    Mirrors :func:`repro.comm.decomposition.decompose`'s balanced split:
    the narrowest rank along a dimension gets ``extent // g`` points,
    which must cover the output halo for the exchange to be well-formed.
    """
    report = CheckReport()
    global_shape = tuple(int(s) for s in global_shape)
    grid = tuple(int(g) for g in grid)
    if len(grid) != len(global_shape):
        report.add(
            "MPI001", "error",
            f"grid rank {len(grid)} does not match domain rank "
            f"{len(global_shape)}",
            primitive="set_mpi_grid",
        )
        return report
    for d, (s, g) in enumerate(zip(global_shape, grid)):
        if g < 1:
            report.add(
                "MPI001", "error",
                f"process grid extents must be >= 1, got {g} in "
                f"dimension {d}",
                primitive="set_mpi_grid",
            )
        elif g > s:
            report.add(
                "MPI001", "error",
                f"cannot split extent {s} over {g} processes "
                f"(dimension {d})",
                primitive="set_mpi_grid",
            )
    if not report.ok:
        return report

    halo = stencil.output.halo
    for d, (s, g, h) in enumerate(zip(global_shape, grid, halo)):
        narrowest = s // g  # decomposition's balanced split
        if g > 1 and narrowest < h:
            report.add(
                "HALO002", "error",
                f"dimension {d}: sub-domain extent {narrowest} "
                f"(= {s} // {g}) is narrower than halo {h}; use a "
                "smaller MPI grid",
                primitive="set_mpi_grid",
            )
    return report


def check_exchange_mode(stencil, mode: str, grid: Sequence[int],
                        global_shape: Sequence[int]) -> CheckReport:
    """Exchange-mode legality (``EXCH001``/``EXCH002``).

    ``basic`` and ``diag`` are legal wherever the decomposition itself
    is (``HALO002`` covers that); ``overlap`` additionally needs the
    CORE/OWNED split to be well-formed: the halo must cover the stencil
    radius on every split dimension, and the narrowest sub-domain must
    be at least two halo widths wide so a non-empty CORE block exists
    to hide the communication behind.
    """
    from ..comm.exchange import EXCHANGE_MODES

    report = CheckReport()
    if mode not in EXCHANGE_MODES:
        report.add(
            "EXCH002", "error",
            f"unknown exchange mode {mode!r}; available: "
            f"{list(EXCHANGE_MODES)}",
            primitive="exchange_mode",
        )
        return report
    if mode != "overlap":
        return report
    halo = stencil.output.halo
    radius = stencil.radius
    grid = tuple(int(g) for g in grid)
    global_shape = tuple(int(s) for s in global_shape)
    for d, (s, g, h, r) in enumerate(
            zip(global_shape, grid, halo, radius)):
        if g <= 1:
            continue  # unsplit dimension: no ghosts in flight
        if h < r:
            report.add(
                "EXCH001", "error",
                f"dimension {d}: overlap mode needs halo >= stencil "
                f"radius on split regions, got halo {h} < radius {r}",
                primitive="exchange_mode",
            )
        elif h > 0 and s // g <= 2 * h:
            # the CORE block (interior minus one halo width per side)
            # is empty unless the narrowest sub-domain exceeds 2*h
            report.add(
                "EXCH001", "error",
                f"dimension {d}: sub-domain extent {s // g} "
                f"(= {s} // {g}) leaves no CORE block to overlap "
                f"(needs > {2 * h}); use basic/diag or a smaller "
                "MPI grid",
                primitive="exchange_mode",
            )
    return report


# ---------------------------------------------------------------------------
# whole-program entry point
# ---------------------------------------------------------------------------

def check_program(stencil, schedules: Optional[Dict[str, object]] = None,
                  machine=None, mpi_grid: Optional[Sequence[int]] = None,
                  shape: Optional[Sequence[int]] = None) -> CheckReport:
    """Statically analyze a whole stencil program.

    Parameters
    ----------
    stencil:
        The IR :class:`~repro.ir.stencil.Stencil`.
    schedules:
        ``{kernel name: Schedule}``; kernels without an entry are
        checked under the default (untransformed) schedule.
    machine:
        Optional MachineSpec enabling the machine-dependent checks.
    mpi_grid:
        Optional process grid enabling the decomposition checks.
    shape:
        Domain shape to lower against (default: the output tensor's).
    """
    from ..schedule.schedule import Schedule, ScheduleError

    schedules = dict(schedules or {})
    shape = tuple(shape) if shape is not None else stencil.output.shape
    # memo="miss": an analysis ran (StencilProgram.check emits the
    # same span with memo="hit" when it reuses a report)
    with span("analysis.check", stencil=stencil.output.name,
              machine=getattr(machine, "name", None) or "-",
              kernels=len(stencil.kernels), memo="miss") as sp:
        report = check_stencil_ir(stencil)
        if mpi_grid is not None:
            report.extend(check_decomposition(stencil, shape, mpi_grid))
        for kernel in stencil.kernels:
            sched = schedules.get(kernel.name) or Schedule(kernel)
            try:
                nest = sched.lower(shape)
            except ScheduleError as exc:
                diag = getattr(exc, "diagnostic", None)
                if diag is None:
                    diag = Diagnostic("SCHED001", "error", str(exc),
                                      kernel=kernel.name)
                report.append(diag)
                continue
            report.extend(check_kernel_schedule(sched, nest, machine))
        sp.set(errors=len(report.errors), warnings=len(report.warnings))
        counter("analysis.checks")
        if report.errors:
            counter("analysis.errors", len(report.errors))
        if report.warnings:
            counter("analysis.warnings", len(report.warnings))
    return report


def check_config(stencil, tile: Sequence[int], mpi_grid: Sequence[int],
                 global_shape: Sequence[int], machine,
                 exchange_mode: Optional[str] = None) -> CheckReport:
    """Fast legality check of one autotuner point (no Schedule objects).

    Mirrors the tuner's staging model — one halo-padded read block plus
    one interior write block per sweep — so every configuration pruned
    here is exactly one the measured objective would reject, plus the
    decomposition checks the objective cannot see.  When
    ``exchange_mode`` is given the exchange-mode legality rules
    (``EXCH001``/``EXCH002``) are applied as well.
    """
    report = check_decomposition(stencil, global_shape, mpi_grid)
    if not report.ok:
        return report
    if exchange_mode is not None:
        report.extend(check_exchange_mode(
            stencil, exchange_mode, mpi_grid, global_shape
        ))
        if not report.ok:
            return report
    if machine is not None and machine.cacheless:
        sub = tuple(
            -(-int(s) // int(g)) for s, g in zip(global_shape, mpi_grid)
        )
        tile_c = tuple(min(int(t), s) for t, s in zip(tile, sub))
        elem = stencil.output.dtype.nbytes
        padded = _prod(
            t + 2 * r for t, r in zip(tile_c, stencil.radius)
        )
        interior = _prod(tile_c)
        need = (padded + interior) * elem
        if need > machine.spm_bytes:
            report.add(
                "SPM001", "error",
                f"tile {tuple(tile_c)} needs {need} B of SPM but "
                f"{machine.name} provides {machine.spm_bytes} B per core; "
                "shrink the tile factors",
                primitive="tile",
            )
    return report


# ---------------------------------------------------------------------------
# gate helper
# ---------------------------------------------------------------------------

def enforce(report: CheckReport, where: str = "", stream=None) -> None:
    """Apply a report at a pipeline gate.

    Warnings are logged to ``stream`` (default stderr) and counted
    under ``analysis.gate_warnings``; any error raises
    :class:`~repro.analysis.diagnostics.DiagnosticError`.
    """
    if stream is None:
        stream = sys.stderr
    prefix = f"{where}: " if where else ""
    for w in report.warnings:
        print(f"repro-check {prefix}{w.format()}", file=stream)
    if report.warnings:
        counter("analysis.gate_warnings", len(report.warnings))
    if report.errors:
        counter("analysis.gate_errors", len(report.errors))
        report.raise_if_errors()
