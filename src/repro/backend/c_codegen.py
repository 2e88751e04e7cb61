"""AOT C code generation (Sec. 3: "generate standard C codes as well as
corresponding building scripts").

The generator lowers a validated :class:`~repro.ir.stencil.Stencil` —
or a :class:`~repro.ir.pipeline.StagePipeline` of them, a lone stencil
being its one-stage case — plus its kernels' schedules into a
self-contained C program:

- one *sweep* function per run of consecutive combination terms of a
  stage that share a kernel, with the scheduled loop nest (tiled,
  reordered, optionally OpenMP-parallel) around a body that writes the
  finished value straight into the plane of step ``t``,
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
is the exchange.  The *Sunway* backend reuses the nests and the kernel
printer but spawns one CPE sweep per kernel application (its SPM
staging is per application).

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
from ..ir.program import TEMP, VALUE, Operand
from ..ir.stencil import Stencil
from ..ir.validate import ValidationError, validate_stencil
from ..schedule.loopnest import LoopNest
from ..schedule.schedule import Schedule

__all__ = ["GeneratedCode", "SweepRun", "CCodeGenerator", "bound_scalars",
           "c_literal", "generate_pipeline", "render_kernel_c"]


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
        #: (stage output, kernel name) -> C template
        self._rendered: Dict[Tuple[str, str], str] = {}

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
        """Loops of ``main`` over ``tensor``'s valid region around
        ``stmt``, in which ``{flat}`` is the dense index into a
        valid-region buffer and ``{shifted}`` the halo-shifted index
        list into the padded plane.
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

    def _loop_nest_code(self, nest: LoopNest, body: str) -> str:
        """Emit the scheduled loop nest around ``body``.

        Tiled variables are recovered inside the nest via
        ``k = ko * TILE + ki`` with an edge guard.
        """
        lines: List[str] = []
        indent = 0

        def emit(s: str) -> None:
            lines.append("  " * indent + s)

        factors = nest.tile_factors
        for ax in nest.axes:
            if self.use_openmp and ax.name == nest.parallel_axis:
                emit(
                    f"#ifdef _OPENMP\n"
                    + "  " * indent
                    + f"#pragma omp parallel for num_threads({self.nthreads})"
                    f" schedule(static)\n"
                    + "  " * indent
                    + "#endif"
                )
            if ax.name == nest.vectorized_axis and self.use_openmp:
                emit(
                    "#ifdef _OPENMP\n" + "  " * indent
                    + "#pragma omp simd\n" + "  " * indent + "#endif"
                )
            if ax.name in nest.unroll_factors:
                emit(
                    f"#pragma GCC unroll {nest.unroll_factors[ax.name]}"
                )
            emit(
                f"for (long {ax.name} = {ax.start}; {ax.name} < {ax.end}; "
                f"{ax.name}++) {{"
            )
            indent += 1
            if ax.role == "inner":
                var = ax.parent
                outer = next(
                    a.name for a in nest.axes
                    if a.parent == var and a.role == "outer"
                )
                hi = nest.domain[var][1]
                emit(
                    f"long {var} = {outer} * {factors[var]}L + {ax.name};"
                )
                emit(f"if ({var} >= {hi}) continue;")
        emit(body)
        for _ in nest.axes:
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
        """
        kern = run.kernel
        out = run.stage.output
        halos = {t.name: self._dims(t)[1]
                 for t in [*self.pipeline.outputs, *self.aux_tensors]}
        # rendered once per (stage, kernel) with `{depth}` slots for the
        # own planes, then instantiated per term; the halo shift is
        # folded into offsets
        key = (out.name, kern.name)
        if key not in self._rendered:
            self._rendered[key] = render_kernel_c(
                kern, self.scalars,
                lambda tensor, time_offset: (
                    f"{{{-time_offset}}}" if tensor == out.name
                    else f"{tensor}_m{-time_offset}"
                    if tensor in self.history else f"{tensor}_buf"
                ),
                halos,
            )
        rendered = self._rendered[key]
        planes = [f"{out.name}_m{d}" for d in range(out.time_window)]
        dst = f"AT_{out.name}(dst, " + ", ".join(
            f"{lv.name} + {h}" if h else lv.name
            for lv, h in zip(kern.loop_vars, halos[out.name])
        ) + ")"
        first = next(r for r in self.sweep_runs if r.stage is run.stage)
        value = "(real)0" if run is first else dst
        for scale, app in run.terms:
            term = rendered.format(*planes[-app.time_offset:])
            value = f"({value} + (real){scale!r} * {term})"
        params = ["real *restrict dst"]
        params += [f"const real *restrict {planes[d]}" for d in run.depths]
        params += [f"const real *restrict {ref}_m{d}" for ref, d in run.refs]
        params += [f"const real *restrict {self.aux_tensors[i].name}_buf"
                   for i in run.aux]
        nest_code = self._loop_nest_code(
            self.nests[kern.name], f"{dst} = {value};"
        )
        return (
            f"static void {run.name}({', '.join(params)}) {{\n"
            f"{nest_code}\n}}"
        )

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
