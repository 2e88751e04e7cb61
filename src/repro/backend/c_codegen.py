"""AOT C code generation (Sec. 3: "generate standard C codes as well as
corresponding building scripts").

The generator lowers a validated :class:`~repro.ir.stencil.Stencil` —
or a :class:`~repro.ir.pipeline.StagePipeline` of them, a lone stencil
being its one-stage case — plus its kernels' schedules into a
self-contained C program:

- one *sweep* function per run of consecutive combination terms of a
  stage that share a kernel, with the scheduled loop nest (tiled,
  reordered, optionally OpenMP-parallel) around a body that writes the
  finished value straight into the plane of step ``t`` — one fused
  statement per point, or, for a wide dense box, loops over the rows of
  its coefficient table (:class:`RowTable`),
- a time loop driving one sliding window per stage (planes addressed
  modulo W), stages in pipeline order,
- per tensor, a halo fill for the configured boundary condition, run on
  every plane a stage produces before anything reads it,
- a small binary I/O ``main`` so generated programs can be executed and
  checked against the numpy reference (this replaces running on the
  authors' hardware).

Every CPU C program is printed by this one generator: the shared
library (:class:`~repro.backend.native.SharedLibGenerator`) replaces
the entry point, the MPI rank program
(:class:`~repro.backend.mpi_codegen.MPICodeGenerator`) the entry point,
the layout macros, the loop bounds and the halo fill — which on a rank
is the exchange.  The *Sunway* backend reuses the nests, the kernel
printer, the halo fill and the I/O copy loops but spawns one CPE sweep
per kernel application (its SPM staging is per application).

The emitted program protocol is::

    ./prog <init.bin> <timesteps> <out.bin>

``init.bin`` holds, per stage output in pipeline order, its initial
history planes oldest first (valid region, C order; the W-1 planes of a
lone stencil), followed by any auxiliary input tensors; ``out.bin``
receives each stage's newest valid plane after ``timesteps`` steps, in
pipeline order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

from ..ir.analysis import free_scalars
from ..ir.kernel import Kernel, KernelApply
from ..ir.pipeline import StagePipeline, as_pipeline
from ..ir.program import SLOT, TEMP, VALUE, Instruction, Operand
from ..ir.stencil import Stencil
from ..ir.tensor import SpNode
from ..ir.validate import ValidationError, validate_stencil
from ..schedule.loopnest import LoopNest
from ..schedule.schedule import Schedule

__all__ = ["GeneratedCode", "SweepRun", "RowTable", "CCodeGenerator",
           "bound_scalars", "c_literal", "generate_pipeline",
           "render_kernel_c", "row_table"]

#: points of the innermost axis one row block covers: its row buffers
#: are this wide whatever the grid, so a sweep's stack use is bounded
ROW_STRIP = 64

#: prints the loops replacing a nest's innermost loop, given the C
#: bounds ``lo, hi`` of its variable and that loop's pragma lines
#: (``share``, ``shape``: see ``CCodeGenerator._pragmas``)
RowBlock = Callable[[str, str, List[str], List[str]], List[str]]


@dataclass
class GeneratedCode:
    """A bundle of generated source files plus build script."""

    name: str
    target: str
    files: Dict[str, str] = field(default_factory=dict)

    def write_to(self, directory: str) -> List[str]:
        """Write all files under ``directory``; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for fname, content in self.files.items():
            path = os.path.join(directory, fname)
            with open(path, "w") as fh:
                fh.write(content)
            paths.append(path)
        return paths

    @property
    def main_source(self) -> str:
        """The primary C file (first .c file emitted)."""
        for fname, content in self.files.items():
            if fname.endswith(".c"):
                return content
        raise KeyError("no C source in bundle")

    def loc(self, wrap: int = 0) -> int:
        """Total non-blank lines of generated code (Table 6 accounting).

        With ``wrap`` > 0, lines longer than ``wrap`` columns count as
        the number of wrapped lines a human would write — fair when
        comparing against hand-written code that folds long stencil
        expressions.
        """
        total = 0
        for content in self.files.values():
            for line in content.splitlines():
                if not line.strip():
                    continue
                if wrap > 0:
                    total += -(-len(line) // wrap)
                else:
                    total += 1
        return total


class SweepRun(NamedTuple):
    """Consecutive combination terms of one stage sharing a kernel: one
    emitted sweep."""

    name: str
    stage: Stencil
    kernel: Kernel
    terms: Tuple[Tuple[float, KernelApply], ...]
    depths: List[int]  #: steps back from t of the stage's own planes read
    #: ``(stage output, steps back from t)`` of the stage references read
    refs: List[Tuple[str, int]]
    aux: List[int]  #: positions in ``aux_tensors`` of the inputs it reads


def bound_scalars(stencils: Sequence[Stencil],
                  scalars: Optional[Mapping[str, float]]
                  ) -> Dict[str, float]:
    """``scalars`` as a dict, once it is known to give every runtime
    scalar the kernels of ``stencils`` read a value."""
    scalars = dict(scalars) if scalars else {}
    missing = sorted({
        name for stencil in stencils for name in free_scalars(stencil)
        if name not in scalars
    })
    if missing:
        raise ValueError(
            f"kernel(s) read runtime scalars {missing} with no bound "
            "values; pass scalars={...} (or set_scalar on the program)"
        )
    return scalars


def c_literal(value) -> str:
    """A folded constant as a C real of the working precision.

    Always a cast double literal, whatever python type the fold left:
    a bare ``1`` would make C do ``1 / 2`` in ``int``, and a double
    literal would promote an fp32 expression.  ``repr`` round-trips, so
    C rounds the same double to ``real`` that numpy rounds.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"constant {value!r} has no C literal")
    return f"((real){value!r})"


_C_OPERATORS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def render_kernel_c(kernel: Kernel, scalars: Mapping[str, float],
                    plane_of: Callable[[str, int], str],
                    halos: Mapping[str, Sequence[int]]) -> str:
    """``kernel``'s update expression as a C expression.

    Printed from ``kernel.program`` folded with ``scalars`` — the
    instruction list the numpy engine runs, in its order, one
    parenthesised C operation per instruction, so association is the
    same on both sides and constants (literals and scalars alike) reach
    C as the values the fold decided.  ``plane_of(tensor,
    time_offset)`` returns the C expression for the plane base pointer;
    a read becomes ``AT_<T>(plane, k + <h+off>, ...)`` where the loop
    variables are *valid-domain* coordinates (the halo shift is folded
    into the printed offset).
    """
    program = kernel.program
    code, result = program.fold(scalars)
    texts: List[str] = []  # per instruction of ``code``

    def text(operand: Operand) -> str:
        kind, payload = operand
        if kind == TEMP:
            return texts[payload]
        if kind == VALUE:
            return c_literal(payload)
        access = program.accesses[payload]
        name = access.tensor.name
        parts = []
        for ix, h in zip(access.indices, halos[name]):
            total = h + ix.offset
            if total == 0:
                parts.append(ix.var.name)
            elif total > 0:
                parts.append(f"{ix.var.name} + {total}")
            else:
                parts.append(f"{ix.var.name} - {-total}")
        plane = plane_of(name, access.time_offset)
        return f"AT_{name}({plane}, {', '.join(parts)})"

    for name, operands in code:
        args = [text(operand) for operand in operands]
        if name == "neg":
            texts.append(f"(-{args[0]})")
        elif name in _C_OPERATORS:
            texts.append(f"({args[0]} {_C_OPERATORS[name]} {args[1]})")
        else:  # a KNOWN_FUNCS name is its libm name
            texts.append(f"{name}({', '.join(args)})")
    return text(result)


class RowTable(NamedTuple):
    """A kernel in matrix form: its folded program is the left-deep sum
    ``((c0*a0 + c1*a1) + ...)`` over reads of one tensor at one time
    offset, and the reads fall, in order, into rows of the same width
    that differ only in the offsets other than the innermost one.  Tap
    ``w`` of row ``r`` reads ``outer[r] + (inner[w],)`` scaled by
    ``coefficients[r][w]``."""

    tensor: SpNode  #: the one tensor every tap reads
    time_offset: int
    outer: Tuple[Tuple[int, ...], ...]  #: per row, all but the innermost
    inner: Tuple[int, ...]  #: innermost offsets of every row, in order
    coefficients: Tuple[Tuple[float, ...], ...]  #: folded values [R][W]


#: narrowest rows worth a table: at three taps (the 3x3 box) the loops
#: over rows cost more than the statement they replace
MIN_ROW_WIDTH = 5

#: printed before a sweep in matrix form.  gcc's -O3 unroll-and-jam
#: would fuse two passes of its row loop and vectorise the second
#: pass's reads through the row-offset table as gathers: the 25- and
#: 49-tap boxes then step about 2x slower than the statement they
#: replace, and the wide ones no faster
_NO_UNROLL_JAM = (
    "#if defined(__GNUC__) && !defined(__clang__)\n"
    '__attribute__((optimize("no-loop-unroll-and-jam")))\n'
    "#endif\n"
)


def _tap(code: Sequence[Instruction], operand: Operand
         ) -> Optional[Tuple[float, int]]:
    """``(coefficient, slot)`` when ``operand`` is a constant times a
    read, in either order (IEEE multiplication commutes exactly)."""
    if operand[0] != TEMP:
        return None
    name, pair = code[operand[1]]
    if name != "mul":
        return None
    kinds = tuple(kind for kind, _ in pair)
    if kinds == (VALUE, SLOT):
        return pair[0][1], pair[1][1]
    if kinds == (SLOT, VALUE):
        return pair[1][1], pair[0][1]
    return None


def row_table(kernel: Kernel, scalars: Mapping[str, float]
              ) -> Optional[RowTable]:
    """``kernel``'s :class:`RowTable` under ``scalars``, or None when its
    folded program is not such a sum or has fewer than two rows or rows
    narrower than :data:`MIN_ROW_WIDTH`."""
    program = kernel.program
    code, ref = program.fold(scalars)
    taps = []
    while ref[0] == TEMP and code[ref[1]][0] == "add":
        ref, last = code[ref[1]][1]
        taps.append(_tap(code, last))
    taps.append(_tap(code, ref))
    if None in taps or len(code) != 2 * len(taps) - 1:
        return None
    taps.reverse()
    reads = [program.accesses[slot] for _, slot in taps]
    first = reads[0]
    loop_vars = [v.name for v in kernel.loop_vars]
    if any(a.tensor.name != first.tensor.name
           or a.time_offset != first.time_offset
           or [ix.var.name for ix in a.indices] != loop_vars
           for a in reads):
        return None
    rows = [list(group) for _, group in groupby(
        zip(taps, reads), key=lambda tap: tap[1].offsets[:-1])]
    inner = tuple(a.offsets[-1] for _, a in rows[0])
    if len(rows) < 2 or len(inner) < MIN_ROW_WIDTH or any(
            tuple(a.offsets[-1] for _, a in row) != inner for row in rows):
        return None
    return RowTable(
        first.tensor, first.time_offset,
        tuple(row[0][1].offsets[:-1] for row in rows), inner,
        tuple(tuple(value for (value, _), _ in row) for row in rows),
    )


class CCodeGenerator:
    """Generates the portable C (OpenMP) program for a stencil or a
    pipeline of stencil stages.

    Subclassed / reused by the target backends: ``cpu`` and ``matrix``
    emit this program directly (their difference is thread count and
    build flags); the shared library and the MPI rank program replace
    its entry point; ``sunway`` replaces the sweep bodies with athread
    master/slave files.
    """

    def __init__(self, program: Union[Stencil, StagePipeline],
                 schedules: Mapping[str, Schedule],
                 boundary: str = "zero", use_openmp: bool = True,
                 nthreads: Optional[int] = None,
                 scalars: Optional[Mapping[str, float]] = None):
        if isinstance(program, Stencil):
            validate_stencil(program)  # its own report, not a stage's
        self.pipeline, self.history = as_pipeline(program)
        self.stages = self.pipeline.stages
        self.scalars = bound_scalars(self.stages, scalars)
        if boundary not in ("zero", "periodic", "reflect"):
            raise ValueError(
                f"C backend supports zero/periodic/reflect boundaries, "
                f"got {boundary!r}"
            )
        self.boundary = boundary
        self.use_openmp = use_openmp
        self.schedules = dict(schedules)
        for stage in self.stages:
            for kern in stage.kernels:
                self.schedules.setdefault(kern.name, Schedule(kern))
        self.nests: Dict[str, LoopNest] = {
            name: sched.lower(self.pipeline.shape)
            for name, sched in self.schedules.items()
        }
        self.nthreads = nthreads or max(
            n.nthreads for n in self.nests.values()
        )
        self.real = self.stages[0].output.dtype.c_name
        self.ndim = self.pipeline.ndim
        self.aux_tensors = list(self.pipeline.aux_tensors().values())
        #: (stage output, kernel name) -> C template, or the kernel's
        #: RowTable when its sweeps print in matrix form
        self._rendered: Dict[Tuple[str, str], Union[str, RowTable]] = {}

    @property
    def stencil(self) -> Stencil:
        """The stencil of a one-stage program — what the flavours with a
        single window (shared library, MPI, Sunway) generate."""
        if len(self.stages) != 1:
            raise ValueError(
                f"{type(self).__name__} generates single-stencil programs;"
                f" got a {len(self.stages)}-stage pipeline"
            )
        return self.stages[0]

    # -- helpers -----------------------------------------------------------------
    def _c_name(self, base: str, tensor: str) -> str:
        """``tensor``'s copy of a per-tensor C name (``TWIN``,
        ``PLANE_ELEMS``, ``PX``, ``HX``, ``fill_halo``, ``win``, ``dst``,
        ``newest``): ``base`` itself for the output of a one-stage
        program, ``<base>_<tensor>`` for any other tensor."""
        if len(self.stages) == 1 and tensor == self.stages[0].output.name:
            return base
        return f"{base}_{tensor}"

    def _axes(self, prefix: str, tensor: Optional[str] = None) -> List[str]:
        """Per-dimension macro names, outermost first: ``NZ NY NX`` for
        the domain, ``PZ``.../``HZ``... of ``tensor`` by :meth:`_c_name`."""
        names = [prefix + axis for axis in "ZYX"[-self.ndim:]]
        if tensor is None:
            return names
        return [self._c_name(n, tensor) for n in names]

    def _plane(self, tensor: str, t: str) -> str:
        """The plane of step ``t`` in ``tensor``'s window."""
        return f"PLANE_{tensor}({self._c_name('win', tensor)}, {t})"

    def _dims(self, tensor) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        halo = getattr(tensor, "halo", (0,) * tensor.ndim)
        padded = tuple(s + 2 * h for s, h in zip(tensor.shape, halo))
        return padded, halo

    def _at_macro(self, tensor) -> str:
        padded, _ = self._dims(tensor)
        name = tensor.name
        dims = ["k", "j", "i"][-tensor.ndim:]
        args = ", ".join(dims)
        # row-major flattening over the padded extents
        idx = dims[0]
        for d in range(1, tensor.ndim):
            idx = f"({idx}) * {padded[d]}L + ({dims[d]})"
        return f"#define AT_{name}(p, {args}) ((p)[{idx}])"

    def _plane_macro(self, tensor) -> str:
        twin = self._c_name("TWIN", tensor.name)
        elems = self._c_name("PLANE_ELEMS", tensor.name)
        return (
            f"#define PLANE_{tensor.name}(win, t) "
            f"((win) + (((t) % {twin} + {twin}) % {twin}) * {elems})"
        )

    def _plane_elems(self, tensor) -> int:
        padded, _ = self._dims(tensor)
        n = 1
        for s in padded:
            n *= s
        return n

    # -- emission ----------------------------------------------------------------
    def header(self) -> str:
        outputs = self.pipeline.outputs
        lines = [
            "/* generated by MSC: stencil over " + "; ".join(
                f"{out.name} {out.shape}, window {out.time_window}"
                for out in outputs
            ) + " */",
        ] + [f"#include <{h}>" for h in self.includes]
        lines.append(f"typedef {self.real} real;")
        names = self._axes("N")
        for nm, v in zip(names, self.pipeline.shape):
            lines.append(f"#define {nm} {v}")
        for tensor in [*outputs, *self.aux_tensors]:
            padded, halo = self._dims(tensor)
            pnames = self._axes("P", tensor.name)
            for nm, v in zip(pnames, padded):
                lines.append(f"#define {nm} {v}")
            for nm, v in zip(self._axes("H", tensor.name), halo):
                lines.append(f"#define {nm} {v}")
            if tensor.name in self.history:  # a stage output: a window
                twin = self._c_name("TWIN", tensor.name)
                elems = self._c_name("PLANE_ELEMS", tensor.name)
                lines.append(f"#define {twin} {tensor.time_window}")
                plane = " * ".join(pnames)
                lines.append(f"#define {elems} ((long)({plane}))")
                lines.append(self._plane_macro(tensor))
            lines.append(self._at_macro(tensor))
        valid = " * ".join(f"(long){n}" for n in names)
        lines.append(f"#define VALID_ELEMS ({valid})")
        return "\n".join(lines)

    def halo_fill(self, tensor) -> str:
        """Emit ``fill_halo(real *p)`` (named by :meth:`_c_name`) for
        ``tensor``'s planes under the configured boundary."""
        _, halo = self._dims(tensor)
        dims = ["k", "j", "i"][-self.ndim:]
        pnames = self._axes("P", tensor.name)
        hnames = self._axes("H", tensor.name)
        body: List[str] = []
        for d in range(self.ndim):
            if halo[d] == 0:
                continue
            loops_open = []
            loops_close = []
            idx_lo, idx_hi, src_lo, src_hi = [], [], [], []
            for dd in range(self.ndim):
                v = dims[dd]
                if dd == d:
                    continue
                loops_open.append(
                    f"for (long {v} = 0; {v} < {pnames[dd]}; {v}++) {{"
                )
                loops_close.append("}")
            for dd in range(self.ndim):
                v = dims[dd]
                if dd == d:
                    idx_lo.append("h")
                    idx_hi.append(f"{pnames[dd]} - 1 - h")
                    if self.boundary == "periodic":
                        src_lo.append(f"{pnames[dd]} - 2 * {hnames[dd]} + h")
                        src_hi.append(f"2 * {hnames[dd]} - 1 - h")
                    elif self.boundary == "reflect":
                        # mirror the near interior (matches numpy
                        # fill_halo: lo[i] = p[2H-1-i], hi[i] = p[P-H-1-i])
                        src_lo.append(f"2 * {hnames[dd]} - 1 - h")
                        src_hi.append(f"{pnames[dd]} - 2 * {hnames[dd]} + h")
                    else:
                        src_lo.append("0")
                        src_hi.append("0")
                else:
                    idx_lo.append(v)
                    idx_hi.append(v)
                    src_lo.append(v)
                    src_hi.append(v)
            inner = f"for (long h = 0; h < {hnames[d]}; h++) {{"
            name = tensor.name
            if self.boundary in ("periodic", "reflect"):
                lo_stmt = (
                    f"AT_{name}(p, {', '.join(idx_lo)}) = "
                    f"AT_{name}(p, {', '.join(src_lo)});"
                )
                hi_stmt = (
                    f"AT_{name}(p, {', '.join(idx_hi)}) = "
                    f"AT_{name}(p, {', '.join(src_hi)});"
                )
            else:
                lo_stmt = f"AT_{name}(p, {', '.join(idx_lo)}) = 0;"
                hi_stmt = f"AT_{name}(p, {', '.join(idx_hi)}) = 0;"
            body.append(
                "\n".join(
                    ["  " + l for l in loops_open]
                    + ["  " + inner, "    " + lo_stmt, "    " + hi_stmt, "  }"]
                    + ["  " + l for l in loops_close]
                )
            )
        return (
            f"static void {self._c_name('fill_halo', tensor.name)}"
            "(real *p) {\n"
            + "\n".join(body)
            + "\n}"
        )

    def _copy_loops(self, tensor, stmt: str, indent: int) -> List[str]:
        """Loops over ``tensor``'s valid region around ``stmt`` (the
        file I/O copies of ``main`` and of the Sunway runtime), in
        which ``{flat}`` is the dense index into a valid-region buffer
        and ``{shifted}`` the halo-shifted index list into the padded
        plane.
        """
        dims = ["k", "j", "i"][-tensor.ndim:]
        flat = dims[0]
        for d in range(1, tensor.ndim):
            flat = f"({flat}) * {tensor.shape[d]}L + ({dims[d]})"
        shifted = ", ".join(
            f"{v} + {h}" for v, h in zip(dims, self._dims(tensor)[1])
        )
        lines = [
            "  " * (d + indent)
            + f"for (long {v} = 0; {v} < {tensor.shape[d]}; {v}++) {{"
            for d, v in enumerate(dims)
        ]
        lines.append("  " * (tensor.ndim + indent)
                     + stmt.format(flat=flat, shifted=shifted))
        lines += ["  " * (d + indent) + "}"
                  for d in reversed(range(tensor.ndim))]
        return lines

    @cached_property
    def sweep_runs(self) -> List["SweepRun"]:
        """Each stage's ``combination_terms()`` split, in order, into
        maximal runs of consecutive terms that share a kernel (hence a
        loop nest); stages in pipeline order.

        Raises :class:`ValidationError` when a read of a stage's own
        output would land on the window slot being written.
        """
        aux_index = {a.name: i for i, a in enumerate(self.aux_tensors)}
        runs: List[SweepRun] = []
        aliased: List[str] = []
        for stage in self.stages:
            out = stage.output
            for _, group in groupby(stage.combination_terms(),
                                    key=lambda term: term[1].kernel.name):
                terms = tuple(group)
                kern = terms[0][1].kernel
                inner = {a.time_offset for a in kern.accesses
                         if a.tensor.name == out.name}
                depths = sorted({-(app.time_offset + off)
                                 for _, app in terms for off in inner})
                # the write slot is t % TWIN: a read `depth` steps back
                # is a different slot only while 0 < depth < TWIN
                aliased += [
                    f"kernel {kern.name!r} reads {out.name!r} {d} step(s)"
                    f" back: the slot step t writes in a window of "
                    f"{out.time_window}"
                    for d in depths if not 0 < d < out.time_window
                ]
                # stage references: relative to t, whatever the
                # application offset (repro.ir.pipeline)
                refs = sorted({
                    (a.tensor.name, -a.time_offset) for a in kern.accesses
                    if a.tensor.name in self.history
                    and a.tensor.name != out.name
                })
                runs.append(SweepRun(
                    f"sweep_{len(runs)}_{kern.name}", stage, kern, terms,
                    depths, refs,
                    [aux_index[t.name] for t in kern.input_tensors
                     if t.name in aux_index],
                ))
        if aliased:
            raise ValidationError(aliased)
        return runs

    def _timestep_body(self) -> List[str]:
        """Statements inside the time loop: per stage, one sweep per run
        into plane ``t`` of its window, then that plane's halo fill —
        before a later stage (or step) reads it.  Assumes each stage's
        window (``win`` by :meth:`_c_name`), ``real **aux`` (if any
        sweep reads a static input) and ``long t``, the step being
        written.
        """
        lines = []
        for stage in self.stages:
            out = stage.output.name
            dst = self._c_name("dst", out)
            lines.append(f"    real *{dst} = {self._plane(out, 't')};")
            for run in self.sweep_runs:
                if run.stage is not stage:
                    continue
                args = [dst]
                args += [self._plane(out, f"t - {d}") for d in run.depths]
                args += [self._plane(ref, f"t - {d}") for ref, d in run.refs]
                args += [f"aux[{i}]" for i in run.aux]
                lines.append(f"    {run.name}({', '.join(args)});")
            lines.append(f"    {self._c_name('fill_halo', out)}({dst});")
        return lines

    def _pragmas(self, nest: LoopNest, axis: str
                 ) -> Tuple[List[str], List[str]]:
        """The pragma lines of ``axis``'s loop: the one sharing its
        iterations out among threads, and those shaping one thread's
        pass over them (``omp simd``, ``GCC unroll``)."""
        share, shape = [], []
        if self.use_openmp and axis == nest.parallel_axis:
            share = ["#ifdef _OPENMP",
                     f"#pragma omp parallel for num_threads({self.nthreads})"
                     " schedule(static)", "#endif"]
        if axis == nest.vectorized_axis and self.use_openmp:
            shape = ["#ifdef _OPENMP", "#pragma omp simd", "#endif"]
        if axis in nest.unroll_factors:
            shape.append(f"#pragma GCC unroll {nest.unroll_factors[axis]}")
        return share, shape

    def _rows_fit(self, nest: LoopNest) -> bool:
        """Whether the nest's innermost loop walks the innermost domain
        variable (whole, or as its inner tile axis): what a row block
        replaces."""
        last = nest.axes[-1]
        var = list(nest.domain)[-1]
        return (last.role is None and last.name == var
                or last.role == "inner" and last.parent == var)

    def _loop_nest_code(self, nest: LoopNest,
                        body: Union[str, RowBlock]) -> str:
        """Emit the scheduled loop nest around ``body``: the statement
        of one point, or a :data:`RowBlock` that replaces the innermost
        loop (:meth:`_rows_fit`) and is handed the C bounds ``[lo, hi)``
        of the innermost variable there and that loop's pragmas.

        Tiled variables are recovered inside the nest via
        ``k = ko * TILE + ki`` with an edge guard — for the innermost
        variable of a row block, the guard becomes its bound.
        """
        lines: List[str] = []
        indent = 0

        def emit(s: str) -> None:
            lines.append("  " * indent + s)

        factors = nest.tile_factors

        def tile_start(var: str) -> str:
            outer = next(a.name for a in nest.axes
                         if a.parent == var and a.role == "outer")
            return f"{outer} * {factors[var]}L"

        loops = nest.axes if isinstance(body, str) else nest.axes[:-1]
        for ax in loops:
            share, shape = self._pragmas(nest, ax.name)
            for line in share + shape:
                emit(line)
            emit(
                f"for (long {ax.name} = {ax.start}; {ax.name} < {ax.end}; "
                f"{ax.name}++) {{"
            )
            indent += 1
            if ax.role == "inner":
                var = ax.parent
                emit(f"long {var} = {tile_start(var)} + {ax.name};")
                emit(f"if ({var} >= {nest.domain[var][1]}) continue;")
        if isinstance(body, str):
            emit(body)
        else:
            last = nest.axes[-1]
            bounds = str(last.start), str(last.end)
            if last.role == "inner":
                var, lo = last.parent, tile_start(last.parent)
                end = f"{lo} + {factors[var]}L"
                hi = nest.domain[var][1]
                emit(f"long {var}_hi = {end} < {hi} ? {end} : {hi};")
                bounds = lo, f"{var}_hi"
            for line in body(*bounds, *self._pragmas(nest, last.name)):
                emit(line)
        for _ in loops:
            indent -= 1
            emit("}")
        return "\n".join(lines)

    def sweep_function(self, run: SweepRun) -> str:
        """Sweep for one run, written straight into the plane of step t:
        ``dst = ((0 + s1 * K(t-k1)) + s2 * K(t-k2)) ...`` for the first
        run of the stage's step, ``dst = (dst + s * K(t-k)) ...`` for
        later ones — the left-to-right order ``reference_run``
        accumulates in.  Own planes are ``<B>_m<depth>``, stage
        references ``<S>_m<depth>``, static inputs ``<C>_buf``.

        A kernel with a :func:`row_table` whose nest ends in a loop over
        its innermost variable (:meth:`_rows_fit`) prints in matrix
        form instead (:meth:`_row_block`): the same operations per
        point, each row template once rather than every tap.
        """
        kern = run.kernel
        out = run.stage.output
        nest = self.nests[kern.name]
        halos = {t.name: self._dims(t)[1]
                 for t in [*self.pipeline.outputs, *self.aux_tensors]}

        def plane_of(tensor: str, time_offset: int) -> str:
            return (f"{{{-time_offset}}}" if tensor == out.name
                    else f"{tensor}_m{-time_offset}"
                    if tensor in self.history else f"{tensor}_buf")

        # rendered once per (stage, kernel) with `{depth}` slots for the
        # own planes, then instantiated per term; the halo shift is
        # folded into offsets
        key = (out.name, kern.name)
        if key not in self._rendered:
            table = self._rows_fit(nest) and row_table(kern, self.scalars)
            self._rendered[key] = table or render_kernel_c(
                kern, self.scalars, plane_of, halos)
        form = self._rendered[key]
        planes = [f"{out.name}_m{d}" for d in range(out.time_window)]
        first = next(r for r in self.sweep_runs if r.stage is run.stage)
        params = ["real *restrict dst"]
        params += [f"const real *restrict {planes[d]}" for d in run.depths]
        params += [f"const real *restrict {ref}_m{d}" for ref, d in run.refs]
        params += [f"const real *restrict {self.aux_tensors[i].name}_buf"
                   for i in run.aux]
        head = f"static void {run.name}({', '.join(params)}) {{\n"
        if isinstance(form, RowTable):
            tables, block = self._row_block(
                run, form, run is first, [
                    plane_of(form.tensor.name, form.time_offset).format(
                        *planes[-app.time_offset:])
                    for _, app in run.terms
                ])
            return (_NO_UNROLL_JAM + head
                    + "".join(f"  {line}\n" for line in tables)
                    + self._loop_nest_code(nest, block) + "\n}")
        dst = self._dst(out, [lv.name for lv in kern.loop_vars])
        value = "(real)0" if run is first else dst
        for scale, app in run.terms:
            term = form.format(*planes[-app.time_offset:])
            value = f"({value} + (real){scale!r} * {term})"
        return head + self._loop_nest_code(nest, f"{dst} = {value};") + "\n}"

    def _dst(self, out, coords: Sequence[str]) -> str:
        """The point of plane ``dst`` of ``out`` at the valid-domain
        coordinates ``coords`` (C expressions)."""
        return f"AT_{out.name}(dst, " + ", ".join(
            f"{c} + {h}" if h else c
            for c, h in zip(coords, self._dims(out)[1])
        ) + ")"

    def _offset_table(self, name: str, tensor: SpNode,
                      indices: Sequence[Tuple[int, ...]]) -> str:
        """The declaration of ``name``, the flat offsets of ``indices``
        (padded coordinates) into a plane of ``tensor``."""
        padded, _ = self._dims(tensor)
        flats = []
        for index in indices:
            flat = 0
            for i, n in zip(index, padded):
                flat = flat * n + i
            flats.append(str(flat))
        return (f"static const long {name}[{len(flats)}] = "
                f"{{{', '.join(flats)}}};")

    def _row_block(self, run: SweepRun, table: RowTable, first: bool,
                   term_planes: Sequence[str]
                   ) -> Tuple[List[str], RowBlock]:
        """``run``'s sweep in the matrix form of ``table``: the
        declarations of its coefficient and row-offset tables, and the
        block that replaces the innermost loop.

        The block walks its range in strips of :data:`ROW_STRIP`
        points.  Per term, a row buffer takes the first row's taps,
        ``((c[0][0] * p[s + d0]) + (c[0][1] * p[s + d1])) + ...``, and
        every later row continues that sum, ``((row[s] + (c[r][0] *
        p[o[r] + s + d0])) + ...)``; then the strip's points are written
        as ``((0 + s1 * row1[s]) + s2 * row2[s])`` (``dst + ...`` after
        an earlier run).  Each point sees the operations of the fused
        statement, in its order, on the same once-rounded constants.
        """
        kern = run.kernel
        out = run.stage.output
        var = kern.loop_vars[-1].name
        outer_vars = [v.name for v in kern.loop_vars[:-1]]
        halo = self._dims(table.tensor)[1]
        nrows, width = len(table.outer), len(table.inner)
        coef, offs = f"{run.name}_c", f"{run.name}_o"
        strip, step, row = f"{var}_n", f"{var}_s", f"{var}_r"
        tables = [f"static const real {coef}[{nrows}][{width}] = {{"]
        tables += [
            "  {" + ", ".join(c_literal(v) for v in coefficients) + "},"
            for coefficients in table.coefficients
        ]
        tables += ["};", self._offset_table(offs, table.tensor, [
            tuple(h + o for h, o in zip(halo, outer)) + (0,)
            for outer in table.outer
        ])]
        shifts = [halo[-1] + d for d in table.inner]

        def taps(r: str, base: str) -> List[str]:
            reads = [f"{base}[{offs}[{r}] + {step}]" if d == 0 else
                     f"{base}[{offs}[{r}] + {step} + {d}]" if d > 0 else
                     f"{base}[{offs}[{r}] + {step} - {-d}]" for d in shifts]
            return [f"({coef}[{r}][{w}] * {read})"
                    for w, read in enumerate(reads)]

        def chain(start: str, products: List[str]) -> str:
            for product in products:
                start = f"({start} + {product})"
            return start

        dst = self._dst(out, outer_vars + [f"{var} + {step}"])
        value = "(real)0" if first else dst
        buffers = [f"{var}_row{k}" for k in range(len(run.terms))]
        for (scale, _), buf in zip(run.terms, buffers):
            value = f"({value} + (real){scale!r} * {buf}[{step}])"

        def block(lo: str, hi: str, share: List[str], shape: List[str]
                  ) -> List[str]:
            over = f"for (long {step} = 0; {step} < {strip}; {step}++)"
            lines = share + [
                f"for (long {var} = {lo}; {var} < {hi}; "
                f"{var} += {ROW_STRIP}) {{",
                f"  const long {strip} = {hi} - {var} < {ROW_STRIP} ? "
                f"{hi} - {var} : {ROW_STRIP};",
                "  real " + ", ".join(f"{buf}[{ROW_STRIP}]"
                                      for buf in buffers) + ";",
            ]
            for k, (plane, buf) in enumerate(zip(term_planes, buffers)):
                base = f"{var}_p{k}"
                point = ", ".join(outer_vars + [var])
                opening, rest = taps("0", base), taps(row, base)
                lines += [
                    f"  const real *{base} = "
                    f"&AT_{table.tensor.name}({plane}, {point});",
                ] + ["  " + line for line in shape] + [
                    f"  {over}",
                    f"    {buf}[{step}] = {chain(opening[0], opening[1:])};",
                    f"  for (long {row} = 1; {row} < {nrows}; {row}++) {{",
                ] + ["    " + line for line in shape] + [
                    f"    {over}",
                    f"      {buf}[{step}] = "
                    f"{chain(f'{buf}[{step}]', rest)};",
                    "  }",
                ]
            lines += ["  " + line for line in shape] + [
                f"  {over}", f"    {dst} = {value};", "}"]
            return lines

        return tables, block

    def main_function(self) -> str:
        outputs = [out.name for out in self.pipeline.outputs]
        tensors = {out.name: out for out in self.pipeline.outputs}
        k_max = max(self.history.values())
        lines: List[str] = [
            "int main(int argc, char **argv) {",
            "  if (argc != 4) {",
            '    fprintf(stderr, "usage: %s <init.bin> <steps> <out.bin>\\n",'
            " argv[0]);",
            "    return 2;",
            "  }",
        ]
        lines += [
            f"  real *{self._c_name('win', out)} = (real *)calloc((size_t)"
            f"{self._c_name('TWIN', out)} * "
            f"{self._c_name('PLANE_ELEMS', out)}, sizeof(real));"
            for out in outputs
        ]
        lines += [
            '  FILE *fi = fopen(argv[1], "rb");',
            '  if (!fi) { perror("init"); return 1; }',
            "  real *tmp = (real *)malloc(sizeof(real) * VALID_ELEMS);",
        ]
        # every output's newest seed sits at step k_max - 1
        for out in outputs:
            if not self.history[out]:
                continue
            lines += [
                f"  for (long t = {k_max - self.history[out]}; "
                f"t < {k_max}; t++) {{",
                "    if (fread(tmp, sizeof(real), VALID_ELEMS, fi) != "
                "(size_t)VALID_ELEMS) { fprintf(stderr, \"short init\\n\");"
                " return 1; }",
                f"    real *p = {self._plane(out, 't')};",
            ]
            lines += self._copy_loops(
                tensors[out], f"AT_{out}(p, {{shifted}}) = tmp[{{flat}}];", 2
            )
            lines += [f"    {self._c_name('fill_halo', out)}(p);", "  }"]
        if self.aux_tensors:
            lines.append(f"  real *aux[{len(self.aux_tensors)}];")
        for n, aux in enumerate(self.aux_tensors):
            avalid = " * ".join(f"(long){s}" for s in aux.shape)
            lines += [
                f"  aux[{n}] = (real *)calloc({self._plane_elems(aux)},"
                " sizeof(real));",
                f"  if (fread(tmp, sizeof(real), {avalid}, fi) != "
                f"(size_t)({avalid})) {{ fprintf(stderr, \"short aux\\n\");"
                " return 1; }",
            ]
            lines += self._copy_loops(
                aux, f"AT_{aux.name}(aux[{n}], {{shifted}}) = tmp[{{flat}}];",
                1,
            )
            if any(self._dims(aux)[1]):
                lines.append(
                    f"  {self._c_name('fill_halo', aux.name)}(aux[{n}]);")
        lines += [
            "  fclose(fi);",
            "  long steps = strtol(argv[2], NULL, 10);",
            f"  for (long t = {k_max}; t < {k_max} + steps; t++) {{",
        ]
        lines += self._timestep_body()
        lines.append("  }")
        for out in outputs:
            newest = self._c_name("newest", out)
            plane = self._plane(out, f"{k_max} + steps - 1")
            lines.append(f"  real *{newest} = {plane};")
            lines += self._copy_loops(
                tensors[out],
                f"tmp[{{flat}}] = AT_{out}({newest}, {{shifted}});", 1,
            )
            if out == outputs[0]:  # opened once the first plane is staged
                lines += [
                    '  FILE *fo = fopen(argv[3], "wb");',
                    '  if (!fo) { perror("out"); return 1; }',
                ]
            lines.append("  fwrite(tmp, sizeof(real), VALID_ELEMS, fo);")
        lines += [
            "  fclose(fo);",
            "  free(tmp);",
            "  return 0;",
            "}",
        ]
        return "\n".join(lines)

    #: bundle flavour, what it includes (the OpenMP pragmas need no
    #: header) and the function emitted after the sweeps
    target = "c"
    includes = ("stdio.h", "stdlib.h", "math.h")

    def entry_point(self) -> str:
        """What follows the sweeps: here the halo fill of each static
        input with a halo, and the file-I/O ``main`` that runs it."""
        fills = [self.halo_fill(aux) for aux in self.aux_tensors
                 if any(self._dims(aux)[1])]
        return "\n\n".join(fills + [self.main_function()])

    def generate(self, name: str) -> GeneratedCode:
        """Produce the complete single-file C program."""
        from ..obs import span

        with span("codegen.c", bundle=name, target=self.target):
            with span("codegen.c.header"):
                parts = [self.header()] + [
                    self.halo_fill(out) for out in self.pipeline.outputs
                ]
            for run in self.sweep_runs:
                with span("codegen.c.sweep", kernel=run.kernel.name):
                    parts.append(self.sweep_function(run))
            with span("codegen.c.main"):
                parts.append(self.entry_point())
            code = GeneratedCode(name=name, target=self.target)
            code.files[f"{name}.c"] = "\n\n".join(parts) + "\n"
        return code


def generate_pipeline(pipeline: StagePipeline, name: str,
                      boundary: str = "zero", nthreads: int = 8,
                      scalars: Optional[Mapping[str, float]] = None
                      ) -> GeneratedCode:
    """The file-I/O C program of ``pipeline``: every stage kernel under
    the default schedule with its outermost axis ``parallel(nthreads)``.
    """
    schedules = {
        kern.name: Schedule(kern).parallel(kern.loop_vars[0].name, nthreads)
        for stage in pipeline.stages for kern in stage.kernels
    }
    return CCodeGenerator(pipeline, schedules, boundary,
                          scalars=scalars).generate(name)
