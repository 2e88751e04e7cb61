"""Sunway (SW26010) backend: athread master/slave C code generation.

On Sunway the MPE runs the time loop and control flow while the 64 CPEs
execute tiles.  MSC emits (Listing 2, Fig. 4(d)/(e)):

- ``<name>_master.c`` — MPE: window rotation, halo fill, per-timestep
  ``athread_spawn``/``athread_join`` of the slave sweep;
- ``<name>_slave.c`` — CPE: ``athread_get_id``, round-robin tile
  assignment (``task_id % 64 == my_id``), SPM buffers declared
  ``__thread_local``, DMA ``athread_get``/``athread_put`` at the
  compute_at loop level, the reordered inner loops between them;
- ``<name>.h`` — shared constants (grid/tile/halo dims, window size).

sw5cc only exists on TaihuLight, so the bundle additionally ships
``<name>_common.c`` (the MPE runtime: window storage, the tile
gather/scatter a strided DMA descriptor performs, commit, halo fill,
I/O) and ``msc_athread_stub.h`` — a sequential athread subset selected
with ``-DMSC_ATHREAD_STUB`` (``make single``).  The bundle therefore
*executes* off-platform and its output is verified bit-identical to
the reference, on top of the structural checks (SPM buffers fit 64 KB,
every input staged, round-robin tile→CPE mapping, DMA placement).
"""

from __future__ import annotations

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
            tile_args = ", ".join(str(s) for s in tile)
            padded_tile = [s + 2 * r for s, r in zip(tile, rad)]
            inner_elems = 1
            padded_elems = 1
            for s, p in zip(tile, padded_tile):
                inner_elems *= s
                padded_elems *= p

            # render the expression against the SPM tile buffer
            halos_local = {out.name: tuple(rad)}
            for aux in self.aux_tensors:
                halos_local[aux.name] = tuple(rad)

            def plane_of(tensor: str, time_offset: int,
                         _rb=read_buf) -> str:
                # every staged plane lives in the read buffer, one
                # padded tile per time plane
                slot = -time_offset
                return f"({_rb} + {slot} * {padded_elems})"

            # remap the AT_ macro to tile-local strides
            at_lines = []
            idx = dims[0]
            for d in range(1, len(dims)):
                idx = f"({idx}) * {padded_tile[d]} + ({dims[d]})"
            at_lines.append(
                f"#define AT_{out.name}(p, {', '.join(dims)}) ((p)[{idx}])"
            )
            for aux in self.aux_tensors:
                at_lines.append(
                    f"#define AT_{aux.name}(p, {', '.join(dims)}) "
                    f"((p)[{idx}])"
                )
            rendered = render_kernel_c(kern, self.scalars, plane_of,
                                       halos_local)
            planes_read = len({a.time_offset for a in kern.accesses})
            w_idx = dims[0]
            for d in range(1, len(dims)):
                w_idx = f"({w_idx}) * {tile[d]} + ({dims[d]})"

            inner_loops_open = [
                f"    for (int {v} = 0; {v} < {s}; {v}++)"
                for v, s in zip(dims, tile)
            ]
            lines += at_lines
            lines += [
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
            for plane in range(planes_read):
                lines.append(
                    f"    athread_get(PE_MODE, main_plane(a->t_read - {plane}"
                    f", origin), {read_buf} + {plane} * {padded_elems}, "
                    f"{padded_elems} * sizeof(real), (void *)&reply, 0, 0, 0);"
                )
            lines += [
                f"    while (reply < {planes_read}) ;",
            ]
            lines += inner_loops_open
            lines += [
                f"      {write_buf}[{w_idx}] = {rendered};",
                "    reply = 0;",
                f"    athread_put(PE_MODE, {write_buf}, "
                f"acc_plane(a->acc, origin), "
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
            "#include <stdio.h>",
            "#include <stdlib.h>",
            "#include <string.h>",
            f'#include "{self._header_name}"',
            "#ifdef MSC_ATHREAD_STUB",
            '#include "msc_athread_stub.h"',
            "#else",
            "#include <athread.h>",
            "#endif",
            "",
        ]
        seen = set()
        for _, app in terms:
            if app.kernel.name not in seen:
                seen.add(app.kernel.name)
                lines.append(
                    f"extern void slave_sweep_{app.kernel.name}_slave"
                    "(void *);"
                )
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
            "    a.acc = acc_buffer();",
            "    clear_acc(a.acc);",
            "    clear_plane(t);",
        ]
        for scale, app in terms:
            lines += [
                f"    a.t_read = t - {-app.time_offset};",
                f"    a.scale = (real){scale!r};",
                f"    athread_spawn(sweep_{app.kernel.name}_slave, &a);",
                "    athread_join();",
                "    commit_scaled(a.acc, a.scale, t);",
            ]
        lines += [
            "    fill_halo(plane_of(t));",
            "  }",
            "  store_newest(argv[3]);",
            "  athread_halt();",
            "  return 0;",
            "}",
        ]
        return "\n".join(lines) + "\n"

    def shared_header(self) -> str:
        out = self.stencil.output
        padded, halo = self._dims(out)
        anyk = self.stencil.kernels[0]
        nest = self.nests[anyk.name]
        tile = nest.tile_shape()
        lines = [
            "#ifndef MSC_GENERATED_H",
            "#define MSC_GENERATED_H",
            f"typedef {self.real} real;",
            f"#define TWIN {out.time_window}",
        ]
        for nm, v in zip(["NZ", "NY", "NX"][-self.ndim:], out.shape):
            lines.append(f"#define {nm} {v}")
        for nm, v in zip(["HZ", "HY", "HX"][-self.ndim:], halo):
            lines.append(f"#define {nm} {v}")
        for nm, v in zip(["TZ", "TY", "TX"][-self.ndim:], tile):
            lines.append(f"#define {nm} {v}")
        for nm, v in zip(["PZ", "PY", "PX"][-self.ndim:], padded):
            lines.append(f"#define {nm} {v}")
        counts = [
            -(-s_ // t) for s_, t in zip(out.shape, tile)
        ]
        for nm, v in zip(["TCZ", "TCY", "TCX"][-self.ndim:], counts):
            lines.append(f"#define {nm} {v}")
        lines.append(f"#define MSC_NUM_CPES {nest.nthreads}")
        lines += [
            "typedef struct { long t_read; real scale; real *acc; }"
            " sweep_arg_t;",
            "real *main_plane(long t, const long *origin);",
            "real *acc_plane(real *acc, const long *origin);",
            "real *acc_buffer(void);",
            "real *plane_of(long t);",
            "void tile_origin(long task_id, long *origin);",
            "void clear_acc(real *acc);",
            "void clear_plane(long t);",
            "void commit_scaled(real *acc, real scale, long t);",
            "void fill_halo(real *p);",
            "void load_history(const char *path);",
            "void store_newest(const char *path);",
            "#endif",
        ]
        return "\n".join(lines) + "\n"


    # -- MPE runtime (common) ---------------------------------------------------
    def common_source(self) -> str:
        """Portable-C MPE runtime: window storage, tile gather/scatter
        (the data movement a strided DMA descriptor performs), commit,
        halo fill and binary I/O.  Shared by the sw5cc and the
        -DMSC_ATHREAD_STUB builds."""
        out = self.stencil.output
        rad = self.stencil.radius
        hist = self.stencil.required_time_window - 1
        dims = ["k", "j", "i"][-self.ndim:]
        N = ["NZ", "NY", "NX"][-self.ndim:]
        P = ["PZ", "PY", "PX"][-self.ndim:]
        H = ["HZ", "HY", "HX"][-self.ndim:]
        T = ["TZ", "TY", "TX"][-self.ndim:]
        TC = ["TCZ", "TCY", "TCX"][-self.ndim:]
        R = [str(r) for r in rad]

        def flat(names, coords):
            expr = coords[0]
            for d in range(1, self.ndim):
                expr = f"({expr}) * {names[d]} + ({coords[d]})"
            return expr

        pt_elems = " * ".join(
            f"({t} + 2 * {r})" for t, r in zip(T, R)
        )
        tile_elems = " * ".join(T)
        plane_elems = " * ".join(P)
        valid_elems = " * ".join(N)

        lines: List[str] = [
            f'#include "{self._header_name}"',
            "#include <stdio.h>",
            "#include <stdlib.h>",
            "#include <string.h>",
            "",
            f"#define PLANE_ELEMS ((long)({plane_elems}))",
            f"#define VALID_ELEMS ((long)({valid_elems}))",
            f"#define GATHER_ELEMS ((long)({pt_elems}))",
            f"#define TILE_ELEMS ((long)({tile_elems}))",
            "",
            "static real *win;",
            "static real *acc_buf;",
            "static real gather_scratch[GATHER_ELEMS];",
            "static real put_scratch[TILE_ELEMS];",
            "static struct {",
            "  real *acc;",
            f"  long o[{self.ndim}];",
            "  int active;",
            "} pending;",
            "static long g_newest = -1;",
            "#define PLANE(t) (win + (((t) % TWIN + TWIN) % TWIN)"
            " * PLANE_ELEMS)",
            "",
            "static void flush_pending(void) {",
            "  if (!pending.active) return;",
            "  long pos = 0;",
        ]
        for d, v in enumerate(dims):
            lines.append(
                "  " * (d + 1)
                + f"for (long {v} = 0; {v} < {T[d]}; {v}++)"
            )
        coords = [f"pending.o[{d}] + {v}" for d, v in enumerate(dims)]
        lines.append(
            "  " * (self.ndim + 1)
            + f"pending.acc[{flat(N, coords)}] = put_scratch[pos++];"
        )
        lines += [
            "  pending.active = 0;",
            "}",
            "",
            "real *main_plane(long t, const long *origin) {",
            "  flush_pending();",
            "  real *p = PLANE(t);",
            "  long pos = 0;",
        ]
        for d, v in enumerate(dims):
            lines.append(
                "  " * (d + 1)
                + f"for (long {v} = 0; {v} < {T[d]} + 2 * {R[d]}; {v}++)"
            )
        gcoords = [
            f"origin[{d}] + {H[d]} - {R[d]} + {v}"
            for d, v in enumerate(dims)
        ]
        lines.append(
            "  " * (self.ndim + 1)
            + f"gather_scratch[pos++] = p[{flat(P, gcoords)}];"
        )
        lines += [
            "  return gather_scratch;",
            "}",
            "",
            "real *acc_plane(real *acc, const long *origin) {",
            "  flush_pending();",
            "  pending.acc = acc;",
        ]
        for d in range(self.ndim):
            lines.append(f"  pending.o[{d}] = origin[{d}];")
        lines += [
            "  pending.active = 1;",
            "  return put_scratch;",
            "}",
            "",
            "void tile_origin(long task_id, long *origin) {",
            "  long rem = task_id;",
        ]
        for d in range(self.ndim - 1, 0, -1):
            lines.append(
                f"  origin[{d}] = (rem % {TC[d]}) * {T[d]}; "
                f"rem /= {TC[d]};"
            )
        lines.append(f"  origin[0] = rem * {T[0]};")
        lines += [
            "}",
            "",
            "real *acc_buffer(void) { return acc_buf; }",
            "real *plane_of(long t) { return PLANE(t); }",
            "void clear_acc(real *acc) {"
            " memset(acc, 0, sizeof(real) * VALID_ELEMS); }",
            "",
            "void clear_plane(long t) {",
            "  real *p = PLANE(t);",
        ]
        for d, v in enumerate(dims):
            lines.append(
                "  " * (d + 1)
                + f"for (long {v} = 0; {v} < {N[d]}; {v}++)"
            )
        icoords = [f"{v} + {H[d]}" for d, v in enumerate(dims)]
        lines.append(
            "  " * (self.ndim + 1) + f"p[{flat(P, icoords)}] = 0;"
        )
        lines += [
            "}",
            "",
            "void commit_scaled(real *acc, real scale, long t) {",
            "  flush_pending();",
            "  real *p = PLANE(t);",
            "  long pos = 0;",
        ]
        for d, v in enumerate(dims):
            lines.append(
                "  " * (d + 1)
                + f"for (long {v} = 0; {v} < {N[d]}; {v}++)"
            )
        lines.append(
            "  " * (self.ndim + 1)
            + f"p[{flat(P, icoords)}] += scale * acc[pos++];"
        )
        lines += [
            "  g_newest = t;",
            "}",
            "",
        ]
        # halo fill (zero / periodic), same scheme as the CPU generator
        lines.append("void fill_halo(real *p) {")
        for d in range(self.ndim):
            loops_open = []
            for dd in range(self.ndim):
                if dd == d:
                    continue
                v = dims[dd]
                loops_open.append(
                    f"for (long {v} = 0; {v} < {P[dd]}; {v}++)"
                )
            lo_idx, hi_idx, lo_src, hi_src = [], [], [], []
            for dd in range(self.ndim):
                v = dims[dd]
                if dd == d:
                    lo_idx.append("h")
                    hi_idx.append(f"{P[dd]} - 1 - h")
                    if self.boundary == "periodic":
                        lo_src.append(f"{P[dd]} - 2 * {H[dd]} + h")
                        hi_src.append(f"2 * {H[dd]} - 1 - h")
                    else:
                        lo_src.append("0")
                        hi_src.append("0")
                else:
                    for target in (lo_idx, hi_idx, lo_src, hi_src):
                        target.append(v)
            for ind, l in enumerate(loops_open):
                lines.append("  " * (ind + 1) + l)
            ind = len(loops_open) + 1
            lines.append("  " * ind + f"for (long h = 0; h < {H[d]}; h++) {{")
            if self.boundary == "periodic":
                lines.append(
                    "  " * (ind + 1)
                    + f"p[{flat(P, lo_idx)}] = p[{flat(P, lo_src)}];"
                )
                lines.append(
                    "  " * (ind + 1)
                    + f"p[{flat(P, hi_idx)}] = p[{flat(P, hi_src)}];"
                )
            else:
                lines.append(
                    "  " * (ind + 1) + f"p[{flat(P, lo_idx)}] = 0;"
                )
                lines.append(
                    "  " * (ind + 1) + f"p[{flat(P, hi_idx)}] = 0;"
                )
            lines.append("  " * ind + "}")
        lines += [
            "}",
            "",
            "void load_history(const char *path) {",
            "  win = (real *)calloc((size_t)TWIN * PLANE_ELEMS,"
            " sizeof(real));",
            "  acc_buf = (real *)malloc(sizeof(real) * VALID_ELEMS);",
            '  FILE *fi = fopen(path, "rb");',
            '  if (!fi) { perror("init"); exit(1); }',
            "  real *tmp = (real *)malloc(sizeof(real) * VALID_ELEMS);",
            f"  for (long s = 0; s < {hist}; s++) {{",
            "    if (fread(tmp, sizeof(real), VALID_ELEMS, fi) != "
            '(size_t)VALID_ELEMS) { fprintf(stderr, "short init\\n");'
            " exit(1); }",
            "    real *p = PLANE(s);",
            "    long pos = 0;",
        ]
        for d, v in enumerate(dims):
            lines.append(
                "  " * (d + 2)
                + f"for (long {v} = 0; {v} < {N[d]}; {v}++)"
            )
        lines.append(
            "  " * (self.ndim + 2)
            + f"p[{flat(P, icoords)}] = tmp[pos++];"
        )
        lines += [
            "    fill_halo(p);",
            f"    g_newest = s;",
            "  }",
            "  fclose(fi);",
            "  free(tmp);",
            "}",
            "",
            "void store_newest(const char *path) {",
            "  real *p = PLANE(g_newest);",
            "  real *tmp = (real *)malloc(sizeof(real) * VALID_ELEMS);",
            "  long pos = 0;",
        ]
        for d, v in enumerate(dims):
            lines.append(
                "  " * (d + 1)
                + f"for (long {v} = 0; {v} < {N[d]}; {v}++)"
            )
        lines.append(
            "  " * (self.ndim + 1)
            + f"tmp[pos++] = p[{flat(P, icoords)}];"
        )
        lines += [
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
