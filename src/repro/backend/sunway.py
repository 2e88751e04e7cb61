"""Sunway (SW26010) backend: athread master/slave C code generation.

On Sunway the MPE runs the time loop and control flow while the 64 CPEs
execute tiles.  MSC emits (Listing 2, Fig. 4(d)/(e)):

- ``<name>_master.c`` — MPE: the time loop, one
  ``athread_spawn``/``athread_join`` of the slave sweep per kernel
  application, then the halo fill of the step's plane;
- ``<name>_slave.c`` — CPE: ``athread_get_id``, round-robin tile
  assignment (``task_id % 64 == my_id``), SPM buffers declared
  ``__thread_local``, DMA ``athread_get``/``athread_put`` at the
  compute_at loop level, the reordered inner loops between them;
- ``<name>.h`` — shared constants (grid/tile/halo dims, window size).

Each application writes straight into plane ``t``, as every CPU program
does: per tile the slave starts its write buffer at zero for the step's
first application (or DMA-gets plane ``t``'s tile for a later one), adds
``scale * K`` to it and puts it back — ``reference_run``'s order
``((0 + s1*K1) + s2*K2)...``.  There is no accumulator plane.

sw5cc only exists on TaihuLight, so the bundle additionally ships
``<name>_common.c`` (the MPE runtime: window storage, the tile
gathers/scatter a strided DMA descriptor performs, and — printed by
:class:`CCodeGenerator` — the halo fill and the binary I/O loops) and
``msc_athread_stub.h`` — a sequential athread subset selected with
``-DMSC_ATHREAD_STUB`` (``make single``).  The bundle therefore
*executes* off-platform and its output is verified bit-identical to
the reference, on top of the structural checks (SPM buffers fit 64 KB,
every input staged, round-robin tile→CPE mapping, DMA placement).
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional

from ..ir.kernel import Kernel
from ..ir.stencil import Stencil
from ..machine.spec import SUNWAY_CG, MachineSpec
from ..schedule.legality import check_schedule
from ..schedule.schedule import Schedule
from .c_codegen import CCodeGenerator, GeneratedCode, render_kernel_c

__all__ = ["SunwayCodeGenerator", "generate_sunway"]


class SunwayCodeGenerator(CCodeGenerator):
    """Emit athread master/slave sources for one stencil program."""

    def __init__(self, stencil: Stencil, schedules: Mapping[str, Schedule],
                 boundary: str = "zero",
                 machine: MachineSpec = SUNWAY_CG,
                 scalars: Optional[Mapping[str, float]] = None):
        super().__init__(stencil, schedules, boundary, use_openmp=False,
                         scalars=scalars)
        self.machine = machine
        for name, sched in self.schedules.items():
            check_schedule(sched, self.nests[name], machine)
        if self.aux_tensors:
            raise ValueError(
                "the athread backend stages a single tensor per sweep; "
                f"auxiliary inputs {[t.name for t in self.aux_tensors]} "
                "are not supported (use the cpu/matrix targets)"
            )
        out = stencil.output
        for name, nest in self.nests.items():
            for t, s_ in zip(nest.tile_shape(), out.shape):
                if s_ % t != 0:
                    raise ValueError(
                        f"athread codegen needs tile sizes dividing the "
                        f"domain: tile {nest.tile_shape()} vs shape "
                        f"{out.shape} (the Table-5 settings divide evenly)"
                    )
        for kern in stencil.kernels:
            offs = sorted({a.time_offset for a in kern.accesses})
            if offs != list(range(-(len(offs) - 1), 1)):
                raise ValueError(
                    "athread staging requires contiguous kernel time "
                    f"offsets 0..-k, got {offs}"
                )

    # -- slave (CPE) side -----------------------------------------------------
    def _spm_decls(self, kern: Kernel) -> List[str]:
        """__thread_local SPM buffer declarations for one kernel."""
        sched = self.schedules[kern.name]
        nest = self.nests[kern.name]
        tile = nest.tile_shape()
        rad = kern.radius
        elem = self.stencil.output.dtype.nbytes
        # one sweep spawn stages only the plane(s) this kernel itself
        # reads (normally one: applications run as separate sweeps)
        kernel_planes = len({a.time_offset for a in kern.accesses})
        decls = []
        total = 0
        for b in sched.cache_bindings():
            if b.kind == "read":
                n = 1
                for s, r in zip(tile, rad):
                    n *= s + 2 * r
                n *= kernel_planes
            else:
                n = 1
                for s in tile:
                    n *= s
            total += n * elem
            decls.append(
                f"__thread_local real {b.buffer}[{n}];"
                f" /* {n * elem} B in SPM ({b.scope}) */"
            )
        if total > self.machine.spm_bytes:
            raise ValueError(
                f"SPM buffers need {total} B > {self.machine.spm_bytes} B"
            )
        return decls

    def slave_source(self) -> str:
        out = self.stencil.output
        lines: List[str] = [
            "#ifdef MSC_ATHREAD_STUB",
            '#include "msc_athread_stub.h"',
            "#else",
            '#include "slave.h"',
            '#include "dma.h"',
            "#endif",
            f'#include "{self._header_name}"',
            "",
            "/* CPE sweep: one kernel application per spawn */",
        ]
        seen = set()
        for _, app in self.stencil.combination_terms():
            kern = app.kernel
            if kern.name in seen:
                continue
            seen.add(kern.name)
            sched = self.schedules[kern.name]
            nest = self.nests[kern.name]
            tile = nest.tile_shape()
            rad = kern.radius
            lines += self._spm_decls(kern)
            bindings = sched.cache_bindings()
            read_buf = next(
                (b.buffer for b in bindings if b.kind == "read"), None
            )
            write_buf = next(
                (b.buffer for b in bindings if b.kind == "write"), None
            )
            dims = [lv.name for lv in kern.loop_vars]
            padded_tile = [s + 2 * r for s, r in zip(tile, rad)]
            inner_elems = math.prod(tile)
            padded_elems = math.prod(padded_tile)

            # the expression against the SPM tile buffer: every staged
            # plane lives in the read buffer, one padded tile per time
            # plane, under an AT_ macro with tile-local strides
            rendered = render_kernel_c(
                kern, self.scalars,
                lambda _tensor, time_offset: (
                    f"({read_buf} + {-time_offset} * {padded_elems})"
                ),
                {out.name: tuple(rad)},
            )
            idx = dims[0]
            w_idx = dims[0]
            for d in range(1, len(dims)):
                idx = f"({idx}) * {padded_tile[d]} + ({dims[d]})"
                w_idx = f"({w_idx}) * {tile[d]} + ({dims[d]})"
            planes_read = len({a.time_offset for a in kern.accesses})
            get = ("athread_get(PE_MODE, main_plane({t}, origin, {rim}), "
                   "{dst}, {n} * sizeof(real), (void *)&reply, 0, 0, 0);")
            lines += [
                f"#define AT_{out.name}(p, {', '.join(dims)}) ((p)[{idx}])",
                f"void sweep_{kern.name}_slave(void *arg) {{",
                "  sweep_arg_t *a = (sweep_arg_t *)arg;",
                "  const int my_id = athread_get_id(-1);",
                "  volatile int reply;",
                f"  const long ntiles = {nest.ntiles};",
                f"  for (long task_id = 0; task_id < ntiles; task_id++) {{",
                f"    if (task_id % {nest.nthreads} != my_id) continue;",
                "    /* tile origin from the outer-axis decomposition */",
                "    long origin[3]; tile_origin(task_id, origin);",
                "    reply = 0;",
            ]
            lines += [
                "    " + get.format(
                    t=f"a->t_read - {plane}", rim=1,
                    dst=f"{read_buf} + {plane} * {padded_elems}",
                    n=padded_elems,
                ) for plane in range(planes_read)
            ]
            lines += [
                f"    while (reply < {planes_read}) ;",
                "    /* the step so far: none yet, or plane t's tile */",
                "    if (a->first) {",
                f"      for (long w = 0; w < {inner_elems}; w++) "
                f"{write_buf}[w] = 0;",
                "    } else {",
                "      reply = 0;",
                "      " + get.format(t="a->t", rim=0, dst=write_buf,
                                      n=inner_elems),
                "      while (reply < 1) ;",
                "    }",
            ]
            lines += [
                f"    for (int {v} = 0; {v} < {s}; {v}++)"
                for v, s in zip(dims, tile)
            ]
            lines += [
                f"      {write_buf}[{w_idx}] = {write_buf}[{w_idx}]"
                f" + a->scale * {rendered};",
                "    reply = 0;",
                f"    athread_put(PE_MODE, {write_buf}, "
                f"put_tile(a->t, origin), "
                f"{inner_elems} * sizeof(real), (void *)&reply, 0, 0);",
                "    while (reply < 1) ;",
                "  }",
                "}",
                "#ifdef MSC_ATHREAD_STUB",
                f"void slave_sweep_{kern.name}_slave(void *a) "
                f"{{ sweep_{kern.name}_slave(a); }}",
                "#endif",
            ]
        return "\n".join(lines) + "\n"

    # -- master (MPE) side -------------------------------------------------------
    def master_source(self) -> str:
        out = self.stencil.output
        hist = self.stencil.required_time_window - 1
        terms = self.stencil.combination_terms()
        lines: List[str] = [
            "#ifdef MSC_ATHREAD_STUB",
            "#define MSC_ATHREAD_STUB_PRIMARY",
            "#endif",
            "#include <stdlib.h>",
            f'#include "{self._header_name}"',
            "#ifdef MSC_ATHREAD_STUB",
            '#include "msc_athread_stub.h"',
            "#else",
            "#include <athread.h>",
            "#endif",
            "",
        ]
        lines += [
            f"extern void slave_sweep_{name}_slave(void *);"
            for name in dict.fromkeys(app.kernel.name for _, app in terms)
        ]
        lines += [
            "",
            "int main(int argc, char **argv) {",
            "  athread_init();",
            f"  /* window of TWIN={out.time_window} planes; history "
            f"t=0..{hist - 1} loaded from argv[1] */",
            "  long steps = strtol(argv[2], NULL, 10);",
            "  load_history(argv[1]);",
            f"  for (long t = {hist}; t < {hist} + steps; t++) {{",
            "    sweep_arg_t a;",
            "    a.t = t;",
        ]
        for n, (scale, app) in enumerate(terms):
            lines += [
                f"    a.t_read = t - {-app.time_offset};",
                f"    a.scale = (real){scale!r};",
                f"    a.first = {int(n == 0)};",
                f"    athread_spawn(sweep_{app.kernel.name}_slave, &a);",
                "    athread_join();",
            ]
        lines += [
            "    fill_plane_halo(t);",
            "  }",
            f"  store_plane({hist} + steps - 1, argv[3]);",
            "  athread_halt();",
            "  return 0;",
            "}",
        ]
        return "\n".join(lines) + "\n"

    def shared_header(self) -> str:
        out = self.stencil.output
        padded, halo = self._dims(out)
        nest = self.nests[self.stencil.kernels[0].name]
        tile = nest.tile_shape()
        counts = [-(-s_ // t) for s_, t in zip(out.shape, tile)]
        lines = [
            "#ifndef MSC_GENERATED_H",
            "#define MSC_GENERATED_H",
            f"typedef {self.real} real;",
            f"#define TWIN {out.time_window}",
        ]
        for prefix, values in (("N", out.shape), ("H", halo), ("T", tile),
                               ("P", padded), ("TC", counts)):
            lines += [f"#define {nm} {v}"
                      for nm, v in zip(self._axes(prefix), values)]
        lines += [
            f"#define MSC_NUM_CPES {nest.nthreads}",
            "typedef struct { long t_read; real scale; long t; int first; }"
            " sweep_arg_t;",
            "real *main_plane(long t, const long *origin, int rim);",
            "real *put_tile(long t, const long *origin);",
            "void tile_origin(long task_id, long *origin);",
            "void fill_plane_halo(long t);",
            "void load_history(const char *path);",
            "void store_plane(long t, const char *path);",
            "#endif",
        ]
        return "\n".join(lines) + "\n"

    # -- MPE runtime (common) ---------------------------------------------------
    def common_source(self) -> str:
        """Portable-C MPE runtime: window storage, the tile gathers and
        the scatter a strided DMA descriptor performs, the halo fill and
        the binary I/O — the last two printed as :class:`CCodeGenerator`
        prints them.  Shared by the sw5cc and the -DMSC_ATHREAD_STUB
        builds."""
        out = self.stencil.output
        hist = self.stencil.required_time_window - 1
        dims = ["k", "j", "i"][-self.ndim:]
        H, T, TC = (self._axes(prefix) for prefix in ("H", "T", "TC"))
        rad = self.stencil.radius

        def tile_loops(origin: str, stmt: str,
                       widened: bool = False) -> List[str]:
            """``stmt`` over the tile at ``origin`` — ``widened`` by the
            C variable ``rim`` radii per side — with ``{at}`` the cell's
            AT_ index list in the padded plane."""
            lines, at = [], []
            for d, (v, r) in enumerate(zip(dims, rad)):
                grow, shift = (f" + 2 * rim * {r}", f" - rim * {r}"
                               ) if widened else ("", "")
                lines.append("  " * (d + 1) + f"for (long {v} = 0; "
                             f"{v} < {T[d]}{grow}; {v}++)")
                at.append(f"{origin}[{d}] + {H[d]}{shift} + {v}")
            lines.append("  " * (self.ndim + 1)
                         + stmt.format(at=", ".join(at)))
            return lines

        at = f"AT_{out.name}"
        lines: List[str] = [
            f'#include "{self._header_name}"',
            "#include <stdio.h>",
            "#include <stdlib.h>",
            "",
            "#define PLANE_ELEMS ((long)(" + " * ".join(self._axes("P"))
            + "))",
            "#define VALID_ELEMS ((long)(" + " * ".join(self._axes("N"))
            + "))",
            "#define GATHER_ELEMS ((long)(" + " * ".join(
                f"({t} + 2 * {r})" for t, r in zip(T, rad)) + "))",
            "#define TILE_ELEMS ((long)(" + " * ".join(T) + "))",
            self._at_macro(out),
            "#define PLANE(t) (win + (((t) % TWIN + TWIN) % TWIN)"
            " * PLANE_ELEMS)",
            "",
            "static real *win;",
            "static real gather_scratch[GATHER_ELEMS];",
            "static real put_scratch[TILE_ELEMS];",
            "/* the tile of plane t the last put wrote to put_scratch */",
            f"static struct {{ long t; long o[{self.ndim}]; int active; }}"
            " pending;",
            "",
            "static void flush_pending(void) {",
            "  if (!pending.active) return;",
            "  real *p = PLANE(pending.t);",
            "  long pos = 0;",
            *tile_loops("pending.o",
                        f"{at}(p, {{at}}) = put_scratch[pos++];"),
            "  pending.active = 0;",
            "}",
            "",
            "/* plane t's tile at origin, widened by rim radii per side */",
            "real *main_plane(long t, const long *origin, int rim) {",
            "  flush_pending();",
            "  real *p = PLANE(t);",
            "  long pos = 0;",
            *tile_loops("origin",
                        f"gather_scratch[pos++] = {at}(p, {{at}});",
                        widened=True),
            "  return gather_scratch;",
            "}",
            "",
            "real *put_tile(long t, const long *origin) {",
            "  flush_pending();",
            "  pending.t = t;",
            *(f"  pending.o[{d}] = origin[{d}];" for d in range(self.ndim)),
            "  pending.active = 1;",
            "  return put_scratch;",
            "}",
            "",
            "void tile_origin(long task_id, long *origin) {",
            "  long rem = task_id;",
            *(f"  origin[{d}] = (rem % {TC[d]}) * {T[d]}; rem /= {TC[d]};"
              for d in range(self.ndim - 1, 0, -1)),
            f"  origin[0] = rem * {T[0]};",
            "}",
            "",
            self.halo_fill(out),
            "",
            "void fill_plane_halo(long t) {",
            "  flush_pending();",
            "  fill_halo(PLANE(t));",
            "}",
            "",
            "void load_history(const char *path) {",
            "  win = (real *)calloc((size_t)TWIN * PLANE_ELEMS,"
            " sizeof(real));",
            '  FILE *fi = fopen(path, "rb");',
            '  if (!fi) { perror("init"); exit(1); }',
            "  real *tmp = (real *)malloc(sizeof(real) * VALID_ELEMS);",
            f"  for (long t = 0; t < {hist}; t++) {{",
            "    if (fread(tmp, sizeof(real), VALID_ELEMS, fi) != "
            '(size_t)VALID_ELEMS) { fprintf(stderr, "short init\\n");'
            " exit(1); }",
            "    real *p = PLANE(t);",
            *self._copy_loops(out, f"{at}(p, {{shifted}}) = tmp[{{flat}}];",
                              2),
            "    fill_halo(p);",
            "  }",
            "  fclose(fi);",
            "  free(tmp);",
            "}",
            "",
            "void store_plane(long t, const char *path) {",
            "  real *p = PLANE(t);",
            "  real *tmp = (real *)malloc(sizeof(real) * VALID_ELEMS);",
            *self._copy_loops(out, f"tmp[{{flat}}] = {at}(p, {{shifted}});",
                              1),
            '  FILE *fo = fopen(path, "wb");',
            '  if (!fo) { perror("out"); exit(1); }',
            "  fwrite(tmp, sizeof(real), VALID_ELEMS, fo);",
            "  fclose(fo); free(tmp);",
            "}",
        ]
        return "\n".join(lines) + "\n"

    @property
    def _header_name(self) -> str:
        return f"{self._name}.h"

    def generate(self, name: str) -> GeneratedCode:
        from ..obs import span
        from .athread_stub import ATHREAD_STUB_HEADER

        self._name = name
        with span("codegen.sunway", bundle=name):
            code = GeneratedCode(name=name, target="sunway")
            with span("codegen.sunway.master"):
                code.files[f"{name}_master.c"] = self.master_source()
            with span("codegen.sunway.slave"):
                code.files[f"{name}_slave.c"] = self.slave_source()
            with span("codegen.sunway.common"):
                code.files[f"{name}_common.c"] = self.common_source()
            with span("codegen.sunway.header"):
                code.files[f"{name}.h"] = self.shared_header()
            code.files["msc_athread_stub.h"] = ATHREAD_STUB_HEADER
        return code


def generate_sunway(stencil: Stencil, schedules: Mapping[str, Schedule],
                    name: str, boundary: str = "zero",
                    scalars: Optional[Mapping[str, float]] = None
                    ) -> GeneratedCode:
    """Generate the athread master/slave bundle for a stencil."""
    return SunwayCodeGenerator(
        stencil, schedules, boundary, scalars=scalars
    ).generate(name)
