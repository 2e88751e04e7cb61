"""Distributed (MPI) C code generation + the communication library in C.

Sec. 3/4.4: "the compilation of the MSC DSL identifies the size and
location of the halo regions ... then it invokes the corresponding APIs
in the communication library" and the library itself is shipped as a
plugin.  This module emits exactly that:

- ``msc_comm.h`` / ``msc_comm.c`` — the C twin of :mod:`repro.comm`:
  Cartesian setup, balanced decomposition, and the asynchronous
  dimension-phased halo exchange (pack → ``MPI_Isend``/``MPI_Irecv`` →
  unpack), generic over 1–3 dimensions;
- ``<name>_mpi.c`` — the stencil program, printed by
  :class:`~repro.backend.c_codegen.CCodeGenerator`: rank 0 reads and
  scatters the global planes, every rank sweeps its sub-domain straight
  into the plane of step ``t`` and fills its halo — ``msc_fill_boundary``
  plus ``msc_exchange``, the call inserted after each committed plane —
  and rank 0 gathers and writes the result;
- a Makefile using ``mpicc``.

mpicc/mpi.h are not available in this environment, so the bundle is
validated structurally and run against the single-rank stub
(:mod:`repro.backend.mpi_stub`); the Python communication library
implements the same protocol and *is* executed in the tests.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..ir.stencil import Stencil
from ..schedule.schedule import Schedule
from .c_codegen import CCodeGenerator, GeneratedCode

__all__ = ["MPICodeGenerator", "generate_mpi", "COMM_HEADER", "COMM_SOURCE"]

COMM_HEADER = """\
/* msc_comm.h — the MSC communication library (C interface).
 *
 * Pluggable halo-exchange library (paper Sec. 4.4): domain
 * decomposition, asynchronous dimension-phased halo exchange, and
 * result gathering.  Alternative exchangers (e.g. a GCL-style or
 * master-coordinated strategy) can re-implement this interface without
 * touching the generated stencil code.
 */
#ifndef MSC_COMM_H
#define MSC_COMM_H
#ifdef MSC_MPI_STUB
#include "msc_mpi_stub.h"
#else
#include <mpi.h>
#endif

#define MSC_MAX_DIMS 3

typedef struct {
  MPI_Comm cart;           /* Cartesian communicator                 */
  int ndim;                /* spatial dimensionality (1..3)          */
  int dims[MSC_MAX_DIMS];  /* process grid                           */
  int periods[MSC_MAX_DIMS];
  int coords[MSC_MAX_DIMS];
  int rank, size;
  long global[MSC_MAX_DIMS];  /* global valid extents                */
  long lo[MSC_MAX_DIMS];      /* this rank's sub-domain [lo, hi)     */
  long hi[MSC_MAX_DIMS];
  long halo[MSC_MAX_DIMS];    /* halo width per dimension            */
  long padded[MSC_MAX_DIMS];  /* local padded extents                */
} msc_comm_t;

/* Create the Cartesian topology and the balanced decomposition
 * (extents split to within one cell, as in the reference library). */
int msc_comm_init(msc_comm_t *ctx, MPI_Comm base, int ndim,
                  const int *dims, const int *periods,
                  const long *global, const long *halo);

/* Asynchronous halo exchange of one padded plane: for each dimension
 * in order, pack the inner-halo strips, post MPI_Irecv/MPI_Isend with
 * both neighbours, wait, unpack into the ghost strips.  Dimension
 * phases deliver edge/corner data with 2*ndim messages per rank. */
int msc_exchange(msc_comm_t *ctx, double *plane);

/* Zero the ghost strips on sides with no neighbour (global Dirichlet
 * boundary); a no-op on periodic grids. */
void msc_fill_boundary(msc_comm_t *ctx, double *plane);

/* Gather every rank's valid sub-domain into the global array on
 * rank 0 (NULL elsewhere). */
int msc_gather(msc_comm_t *ctx, const double *plane, double *global_out);

/* Scatter a rank-0 global plane into every rank's padded plane. */
int msc_scatter(msc_comm_t *ctx, const double *global_in, double *plane);

void msc_comm_free(msc_comm_t *ctx);
#endif /* MSC_COMM_H */
"""

COMM_SOURCE = """\
/* msc_comm.c — asynchronous dimension-phased halo exchange (MPI). */
#include "msc_comm.h"
#include <stdlib.h>
#include <string.h>

static long padded_index(const msc_comm_t *c, const long *idx) {
  long flat = 0;
  for (int d = 0; d < c->ndim; d++) flat = flat * c->padded[d] + idx[d];
  return flat;
}

int msc_comm_init(msc_comm_t *ctx, MPI_Comm base, int ndim,
                  const int *dims, const int *periods,
                  const long *global, const long *halo) {
  ctx->ndim = ndim;
  for (int d = 0; d < ndim; d++) {
    ctx->dims[d] = dims[d];
    ctx->periods[d] = periods[d];
    ctx->global[d] = global[d];
    ctx->halo[d] = halo[d];
  }
  MPI_Cart_create(base, ndim, ctx->dims, ctx->periods, 0, &ctx->cart);
  MPI_Comm_rank(ctx->cart, &ctx->rank);
  MPI_Comm_size(ctx->cart, &ctx->size);
  MPI_Cart_coords(ctx->cart, ctx->rank, ndim, ctx->coords);
  for (int d = 0; d < ndim; d++) {
    long base_sz = global[d] / dims[d];
    long extra = global[d] % dims[d];
    long c = ctx->coords[d];
    ctx->lo[d] = c * base_sz + (c < extra ? c : extra);
    ctx->hi[d] = ctx->lo[d] + base_sz + (c < extra ? 1 : 0);
    ctx->padded[d] = (ctx->hi[d] - ctx->lo[d]) + 2 * halo[d];
  }
  return MPI_SUCCESS;
}

/* strip geometry for (dim, dir): send inner-halo, recv ghost strip */
static void strip_bounds(const msc_comm_t *c, int dim, int dir, int send,
                         long *lo, long *hi) {
  for (int d = 0; d < c->ndim; d++) { lo[d] = 0; hi[d] = c->padded[d]; }
  long h = c->halo[dim];
  long n = c->hi[dim] - c->lo[dim];
  if (send) {
    if (dir < 0) { lo[dim] = h; hi[dim] = 2 * h; }
    else         { lo[dim] = n; hi[dim] = n + h; }
  } else {
    if (dir < 0) { lo[dim] = 0; hi[dim] = h; }
    else         { lo[dim] = n + h; hi[dim] = n + 2 * h; }
  }
}

static long strip_count(const msc_comm_t *c, const long *lo,
                        const long *hi) {
  long n = 1;
  for (int d = 0; d < c->ndim; d++) n *= hi[d] - lo[d];
  return n;
}

static void copy_strip(const msc_comm_t *c, double *plane,
                       const long *lo, const long *hi, double *buf,
                       int pack) {
  long idx[MSC_MAX_DIMS];
  long pos = 0;
  /* up to three nested loops, inactive dims collapse to one pass */
  for (long a = lo[0]; a < (c->ndim > 0 ? hi[0] : lo[0] + 1); a++) {
    idx[0] = a;
    for (long b = (c->ndim > 1 ? lo[1] : 0);
         b < (c->ndim > 1 ? hi[1] : 1); b++) {
      if (c->ndim > 1) idx[1] = b;
      for (long g = (c->ndim > 2 ? lo[2] : 0);
           g < (c->ndim > 2 ? hi[2] : 1); g++) {
        if (c->ndim > 2) idx[2] = g;
        long flat = padded_index(c, idx);
        if (pack) buf[pos++] = plane[flat];
        else      plane[flat] = buf[pos++];
      }
    }
  }
}

int msc_exchange(msc_comm_t *ctx, double *plane) {
  for (int d = 0; d < ctx->ndim; d++) {
    if (ctx->halo[d] == 0) continue;
    int lo_nb, hi_nb;
    MPI_Cart_shift(ctx->cart, d, 1, &lo_nb, &hi_nb);
    long slo[MSC_MAX_DIMS], shi[MSC_MAX_DIMS];
    long rlo[MSC_MAX_DIMS], rhi[MSC_MAX_DIMS];
    MPI_Request reqs[4];
    int nreq = 0;
    double *sbuf[2] = {NULL, NULL}, *rbuf[2] = {NULL, NULL};
    int dirs[2] = {-1, +1};
    int peers[2] = {lo_nb, hi_nb};
    long counts[2];
    for (int s = 0; s < 2; s++) {
      if (peers[s] == MPI_PROC_NULL) continue;
      strip_bounds(ctx, d, dirs[s], 0, rlo, rhi);
      counts[s] = strip_count(ctx, rlo, rhi);
      rbuf[s] = (double *)malloc(sizeof(double) * counts[s]);
      MPI_Irecv(rbuf[s], counts[s], MPI_DOUBLE, peers[s],
                4096 + 2 * d + s, ctx->cart, &reqs[nreq++]);
    }
    for (int s = 0; s < 2; s++) {
      if (peers[s] == MPI_PROC_NULL) continue;
      strip_bounds(ctx, d, dirs[s], 1, slo, shi);
      long n = strip_count(ctx, slo, shi);
      sbuf[s] = (double *)malloc(sizeof(double) * n);
      copy_strip(ctx, plane, slo, shi, sbuf[s], 1);
      MPI_Isend(sbuf[s], n, MPI_DOUBLE, peers[s],
                4096 + 2 * d + (1 - s), ctx->cart, &reqs[nreq++]);
    }
    MPI_Waitall(nreq, reqs, MPI_STATUSES_IGNORE);
    for (int s = 0; s < 2; s++) {
      if (peers[s] == MPI_PROC_NULL) continue;
      strip_bounds(ctx, d, dirs[s], 0, rlo, rhi);
      copy_strip(ctx, plane, rlo, rhi, rbuf[s], 0);
      free(rbuf[s]);
      free(sbuf[s]);
    }
  }
  return MPI_SUCCESS;
}

void msc_fill_boundary(msc_comm_t *ctx, double *plane) {
  for (int d = 0; d < ctx->ndim; d++) {
    if (ctx->halo[d] == 0) continue;
    int lo_nb, hi_nb;
    MPI_Cart_shift(ctx->cart, d, 1, &lo_nb, &hi_nb);
    long lo[MSC_MAX_DIMS], hi[MSC_MAX_DIMS];
    double zero = 0.0;
    if (lo_nb == MPI_PROC_NULL) {
      strip_bounds(ctx, d, -1, 0, lo, hi);
      long n = strip_count(ctx, lo, hi);
      double *buf = (double *)calloc(n, sizeof(double));
      copy_strip(ctx, plane, lo, hi, buf, 0);
      free(buf);
    }
    if (hi_nb == MPI_PROC_NULL) {
      strip_bounds(ctx, d, +1, 0, lo, hi);
      long n = strip_count(ctx, lo, hi);
      double *buf = (double *)calloc(n, sizeof(double));
      copy_strip(ctx, plane, lo, hi, buf, 0);
      free(buf);
    }
    (void)zero;
  }
}

int msc_gather(msc_comm_t *ctx, const double *plane, double *global_out) {
  /* each rank streams its valid rows to rank 0 (simple, correct) */
  long lo[MSC_MAX_DIMS], hi[MSC_MAX_DIMS];
  for (int d = 0; d < ctx->ndim; d++) {
    lo[d] = ctx->halo[d];
    hi[d] = ctx->halo[d] + (ctx->hi[d] - ctx->lo[d]);
  }
  long n = strip_count(ctx, lo, hi);
  double *local = (double *)malloc(sizeof(double) * n);
  copy_strip(ctx, (double *)plane, lo, hi, local, 1);
  if (ctx->rank != 0) {
    MPI_Send(local, n, MPI_DOUBLE, 0, 9000, ctx->cart);
  } else {
    for (int r = 0; r < ctx->size; r++) {
      /* bounds of rank r */
      int coords[MSC_MAX_DIMS];
      MPI_Cart_coords(ctx->cart, r, ctx->ndim, coords);
      long rlo[MSC_MAX_DIMS], rhi[MSC_MAX_DIMS], rn = 1;
      for (int d = 0; d < ctx->ndim; d++) {
        long base_sz = ctx->global[d] / ctx->dims[d];
        long extra = ctx->global[d] % ctx->dims[d];
        long c = coords[d];
        rlo[d] = c * base_sz + (c < extra ? c : extra);
        rhi[d] = rlo[d] + base_sz + (c < extra ? 1 : 0);
        rn *= rhi[d] - rlo[d];
      }
      double *piece = local;
      if (r != 0) {
        piece = (double *)malloc(sizeof(double) * rn);
        MPI_Recv(piece, rn, MPI_DOUBLE, r, 9000, ctx->cart,
                 MPI_STATUS_IGNORE);
      }
      /* copy into the global array */
      long pos = 0, idx[MSC_MAX_DIMS];
      for (long a = rlo[0]; a < rhi[0]; a++) {
        idx[0] = a;
        for (long b = (ctx->ndim > 1 ? rlo[1] : 0);
             b < (ctx->ndim > 1 ? rhi[1] : 1); b++) {
          if (ctx->ndim > 1) idx[1] = b;
          for (long g = (ctx->ndim > 2 ? rlo[2] : 0);
               g < (ctx->ndim > 2 ? rhi[2] : 1); g++) {
            if (ctx->ndim > 2) idx[2] = g;
            long flat = 0;
            for (int d = 0; d < ctx->ndim; d++)
              flat = flat * ctx->global[d] + idx[d];
            global_out[flat] = piece[pos++];
          }
        }
      }
      if (r != 0) free(piece);
    }
  }
  free(local);
  return MPI_SUCCESS;
}

int msc_scatter(msc_comm_t *ctx, const double *global_in, double *plane) {
  /* rank 0 carves and sends; mirrors msc_gather */
  long lo[MSC_MAX_DIMS], hi[MSC_MAX_DIMS];
  for (int d = 0; d < ctx->ndim; d++) {
    lo[d] = ctx->halo[d];
    hi[d] = ctx->halo[d] + (ctx->hi[d] - ctx->lo[d]);
  }
  long n = strip_count(ctx, lo, hi);
  double *local = (double *)malloc(sizeof(double) * n);
  if (ctx->rank == 0) {
    for (int r = ctx->size - 1; r >= 0; r--) {
      int coords[MSC_MAX_DIMS];
      MPI_Cart_coords(ctx->cart, r, ctx->ndim, coords);
      long rlo[MSC_MAX_DIMS], rhi[MSC_MAX_DIMS], rn = 1;
      for (int d = 0; d < ctx->ndim; d++) {
        long base_sz = ctx->global[d] / ctx->dims[d];
        long extra = ctx->global[d] % ctx->dims[d];
        long c = coords[d];
        rlo[d] = c * base_sz + (c < extra ? c : extra);
        rhi[d] = rlo[d] + base_sz + (c < extra ? 1 : 0);
        rn *= rhi[d] - rlo[d];
      }
      double *piece = (double *)malloc(sizeof(double) * rn);
      long pos = 0, idx[MSC_MAX_DIMS];
      for (long a = rlo[0]; a < rhi[0]; a++) {
        idx[0] = a;
        for (long b = (ctx->ndim > 1 ? rlo[1] : 0);
             b < (ctx->ndim > 1 ? rhi[1] : 1); b++) {
          if (ctx->ndim > 1) idx[1] = b;
          for (long g = (ctx->ndim > 2 ? rlo[2] : 0);
               g < (ctx->ndim > 2 ? rhi[2] : 1); g++) {
            if (ctx->ndim > 2) idx[2] = g;
            long flat = 0;
            for (int d = 0; d < ctx->ndim; d++)
              flat = flat * ctx->global[d] + idx[d];
            piece[pos++] = global_in[flat];
          }
        }
      }
      if (r != 0) MPI_Send(piece, rn, MPI_DOUBLE, r, 9001, ctx->cart);
      else memcpy(local, piece, sizeof(double) * rn);
      free(piece);
    }
  } else {
    MPI_Recv(local, n, MPI_DOUBLE, 0, 9001, ctx->cart,
             MPI_STATUS_IGNORE);
  }
  copy_strip(ctx, plane, lo, hi, local, 0);
  free(local);
  return MPI_SUCCESS;
}

void msc_comm_free(msc_comm_t *ctx) { MPI_Comm_free(&ctx->cart); }
"""




class MPICodeGenerator(CCodeGenerator):
    """Emit the distributed stencil program + the comm library in C.

    The rank program is :class:`CCodeGenerator`'s: the same fused
    sweeps (untiled, over the rank's sub-domain), the same time loop —
    because on a rank the halo fill *is* the library call, boundary
    strips plus exchange, inserted after every committed plane — and an
    init/scatter/gather ``main``.  Layout macros read the runtime
    ``ctx.padded`` strides.
    """

    target = "mpi"

    def __init__(self, stencil: Stencil, schedules: Mapping[str, Schedule],
                 mpi_grid, boundary: str = "zero",
                 scalars: Optional[Mapping[str, float]] = None):
        super().__init__(stencil, schedules, boundary, scalars=scalars)
        if boundary not in ("zero", "periodic"):
            raise ValueError(
                f"MPI codegen supports zero/periodic, got {boundary!r}"
            )
        out = self.stencil.output
        self.mpi_grid = tuple(int(g) for g in mpi_grid)
        if len(self.mpi_grid) != out.ndim:
            raise ValueError(
                f"MPI grid {self.mpi_grid} does not match a "
                f"{out.ndim}-D stencil"
            )
        if self.aux_tensors:
            raise ValueError(
                "the MPI rank program scatters the output tensor only; "
                f"auxiliary inputs {[t.name for t in self.aux_tensors]} "
                "are not supported (use the cpu/matrix targets)"
            )
        if self.real != "double":
            raise ValueError(
                "the generated comm library is double-precision; "
                "use f64 tensors for MPI code generation"
            )

    def header(self) -> str:
        """Layout macros over the rank's runtime strides (``ctx``: this
        rank's grid and sub-domain)."""
        out = self.stencil.output
        dims = ["k", "j", "i"][-self.ndim:]
        idx = dims[0]
        for d in range(1, self.ndim):
            idx = f"({idx}) * ctx.padded[{d}] + ({dims[d]})"
        elems = " * ".join(f"ctx.padded[{d}]" for d in range(self.ndim))
        return "\n".join([
            f"/* generated by MSC: distributed {out.name} over "
            f"{'x'.join(map(str, self.mpi_grid))} ranks */",
            '#include "msc_comm.h"',
            "#include <stdio.h>",
            "#include <stdlib.h>",
            "#include <math.h>",
            "typedef double real;",
            "static msc_comm_t ctx;  /* this rank's grid and sub-domain */",
            f"#define TWIN {out.time_window}",
            f"#define PLANE_ELEMS ({elems})",
            self._plane_macro(out),
            f"#define AT_{out.name}(p, {', '.join(dims)}) ((p)[{idx}])",
        ])

    def halo_fill(self, tensor) -> str:
        """On a rank the halo fill is the exchange: strips with no
        neighbour zeroed, then the dimension-phased halo exchange."""
        return (
            f"static void {self._c_name('fill_halo', tensor.name)}"
            "(real *p) {\n"
            "  /* the library call the compiler inserted (Sec. 4.4) */\n"
            "  msc_fill_boundary(&ctx, p);\n"
            "  msc_exchange(&ctx, p);\n"
            "}"
        )

    def _rows_fit(self, nest) -> bool:
        """The rank's nest always ends in the innermost variable."""
        return True

    def _offset_table(self, name: str, tensor, indices) -> str:
        """Flat offsets over this rank's strides, known at run time."""
        def flat(index) -> str:
            text = str(index[0])
            for d, i in enumerate(index[1:], 1):
                text = f"({text}) * ctx.padded[{d}] + {i}"
            return text

        return (f"const long {name}[{len(indices)}] = "
                f"{{{', '.join(map(flat, indices))}}};")

    def _loop_nest_code(self, nest, body) -> str:
        """The rank's sub-domain, untiled, in the kernel's variable
        order; a row block replaces the innermost loop."""
        loops = list(enumerate(nest.domain))
        if not isinstance(body, str):
            *loops, (d, _) = loops
            body = "\n".join(body("0", f"ctx.hi[{d}] - ctx.lo[{d}]", [], []))
        lines = [
            "  " * d + f"for (long {var} = 0; {var} < ctx.hi[{d}] - "
            f"ctx.lo[{d}]; {var}++) {{"
            for d, var in loops
        ]
        lines += ["  " * len(loops) + line for line in body.splitlines()]
        lines += ["  " * d + "}" for d in reversed(range(len(loops)))]
        return "\n".join(lines)

    def entry_point(self) -> str:
        """Rank 0 reads and scatters the history planes, every rank
        steps its sub-domain, rank 0 gathers and writes the newest."""
        out = self.stencil.output
        hist = self.history[out.name]
        periodic = "1" if self.boundary == "periodic" else "0"
        lines = [
            "int main(int argc, char **argv) {",
            "  MPI_Init(&argc, &argv);",
            f"  int dims[] = {{{', '.join(map(str, self.mpi_grid))}}};",
            f"  int periods[] = {{{', '.join([periodic] * self.ndim)}}};",
            f"  long global[] = {{{', '.join(map(str, out.shape))}}};",
            f"  long halo[] = {{{', '.join(map(str, out.halo))}}};",
            f"  msc_comm_init(&ctx, MPI_COMM_WORLD, {self.ndim}, dims, "
            "periods, global, halo);",
            "  real *win = (real *)calloc((size_t)TWIN * PLANE_ELEMS, "
            "sizeof(real));",
            "  long gelems = 1;",
            "  for (int d = 0; d < ctx.ndim; d++) gelems *= global[d];",
            "  real *gbuf = NULL;",
            "  if (ctx.rank == 0) gbuf = (real *)malloc(sizeof(real) * "
            "gelems);",
            "  FILE *fi = NULL;",
            '  if (ctx.rank == 0) fi = fopen(argv[1], "rb");',
            f"  for (long t = 0; t < {hist}; t++) {{",
            "    if (ctx.rank == 0 && fread(gbuf, sizeof(real), gelems, fi)"
            " != (size_t)gelems) MPI_Abort(MPI_COMM_WORLD, 1);",
            f"    msc_scatter(&ctx, gbuf, {self._plane(out.name, 't')});",
            f"    fill_halo({self._plane(out.name, 't')});",
            "  }",
            "  if (ctx.rank == 0) fclose(fi);",
            "  long steps = strtol(argv[2], NULL, 10);",
            f"  for (long t = {hist}; t < {hist} + steps; t++) {{",
            *self._timestep_body(),
            "  }",
            f"  msc_gather(&ctx, "
            f"{self._plane(out.name, f'{hist} + steps - 1')}, gbuf);",
            "  if (ctx.rank == 0) {",
            '    FILE *fo = fopen(argv[3], "wb");',
            "    fwrite(gbuf, sizeof(real), gelems, fo);",
            "    fclose(fo);",
            "  }",
            "  free(win); free(gbuf);",
            "  msc_comm_free(&ctx);",
            "  MPI_Finalize();",
            "  return 0;",
            "}",
        ]
        return "\n".join(lines)

    def generate(self, name: str) -> GeneratedCode:
        from .mpi_stub import MPI_STUB_HEADER

        program = super().generate(f"{name}_mpi").files[f"{name}_mpi.c"]
        code = GeneratedCode(name=name, target="mpi")
        code.files["msc_comm.h"] = COMM_HEADER
        code.files["msc_comm.c"] = COMM_SOURCE
        code.files["msc_mpi_stub.h"] = MPI_STUB_HEADER
        code.files[f"{name}_mpi.c"] = program
        code.files["Makefile"] = (
            "# generated by MSC (distributed build)\n"
            "CC = mpicc\n"
            "CFLAGS = -O3 -fopenmp -ffp-contract=off\n"
            f"all: {name}\n"
            f"{name}: {name}_mpi.c msc_comm.c msc_comm.h\n"
            f"\t$(CC) $(CFLAGS) {name}_mpi.c msc_comm.c -o $@ -lm\n"
            "# single-rank build against the bundled MPI stub (testing)\n"
            f"single: {name}_mpi.c msc_comm.c msc_comm.h msc_mpi_stub.h\n"
            f"\tgcc -O2 -ffp-contract=off -DMSC_MPI_STUB {name}_mpi.c "
            f"msc_comm.c -o {name} -lm\n"
            "clean:\n"
            f"\trm -f {name}\n"
            ".PHONY: all single clean\n"
        )
        return code


def generate_mpi(stencil: Stencil, schedules: Mapping[str, Schedule],
                 name: str, mpi_grid, boundary: str = "zero",
                 scalars: Optional[Mapping[str, float]] = None
                 ) -> GeneratedCode:
    """Generate the distributed C bundle (program + comm library)."""
    return MPICodeGenerator(
        stencil, schedules, mpi_grid, boundary, scalars
    ).generate(name)
