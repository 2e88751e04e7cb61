"""Single-process MPI stub header for testing generated MPI bundles.

mpicc is not available off-platform, so generated distributed bundles
ship with ``msc_mpi_stub.h``: a minimal, single-rank MPI implementation
(self-delivering message queue) selected with ``-DMSC_MPI_STUB``.  On a
1×..×1 periodic process grid the halo exchange sends both strips of
every dimension *to itself*, so compiling the bundle against the stub
and running it exercises the complete pack → send → receive → unpack
protocol — and the output must match the serial reference exactly.
"""

from __future__ import annotations

__all__ = ["MPI_STUB_HEADER"]

MPI_STUB_HEADER = """\
/* msc_mpi_stub.h — single-process MPI subset for -DMSC_MPI_STUB builds.
 *
 * Supports exactly what the generated code + msc_comm.c use, on one
 * rank: cart topology of total size 1, self-delivering nonblocking
 * messages (matched by tag, FIFO), and trivial collectives.  Every
 * function is static inline: a translation unit that calls only a few
 * of them still builds warning-free.
 */
#ifndef MSC_MPI_STUB_H
#define MSC_MPI_STUB_H
#include <stdlib.h>
#include <string.h>
#include <stdio.h>

typedef int MPI_Comm;
typedef int MPI_Request;
typedef int MPI_Datatype;
typedef struct { int MPI_SOURCE, MPI_TAG; } MPI_Status;

#define MPI_COMM_WORLD 0
#define MPI_DOUBLE 1
#define MPI_SUCCESS 0
#define MPI_PROC_NULL (-1)
#define MPI_STATUS_IGNORE ((MPI_Status *)0)
#define MPI_STATUSES_IGNORE ((MPI_Status *)0)

#define MSC_STUB_MAX_MSGS 64
#define MSC_STUB_MAX_DIMS 3

static struct {
  int used;
  int tag;
  long count;
  double *data;
} msc_stub_queue[MSC_STUB_MAX_MSGS];

static struct {
  int used;
  int is_recv;
  int tag;
  long count;
  double *buf;
} msc_stub_reqs[MSC_STUB_MAX_MSGS];

static int msc_stub_dims[MSC_STUB_MAX_DIMS];
static int msc_stub_periods[MSC_STUB_MAX_DIMS];
static int msc_stub_ndim = 0;

static inline int MPI_Init(int *argc, char ***argv) {
  (void)argc; (void)argv;
  memset(msc_stub_queue, 0, sizeof(msc_stub_queue));
  memset(msc_stub_reqs, 0, sizeof(msc_stub_reqs));
  return MPI_SUCCESS;
}
static inline int MPI_Finalize(void) { return MPI_SUCCESS; }
static inline int MPI_Abort(MPI_Comm c, int code) {
  (void)c; exit(code);
}
static inline int MPI_Comm_rank(MPI_Comm c, int *rank) {
  (void)c; *rank = 0; return MPI_SUCCESS;
}
static inline int MPI_Comm_size(MPI_Comm c, int *size) {
  (void)c; *size = 1; return MPI_SUCCESS;
}
static inline int MPI_Comm_free(MPI_Comm *c) {
  (void)c; return MPI_SUCCESS;
}

static inline int MPI_Cart_create(MPI_Comm base, int ndim, const int *dims,
                                  const int *periods, int reorder,
                                  MPI_Comm *cart) {
  (void)base; (void)reorder;
  long total = 1;
  for (int d = 0; d < ndim; d++) total *= dims[d];
  if (total != 1) {
    fprintf(stderr, "msc_mpi_stub: single-rank stub, grid must be 1\\n");
    exit(3);
  }
  msc_stub_ndim = ndim;
  for (int d = 0; d < ndim; d++) {
    msc_stub_dims[d] = dims[d];
    msc_stub_periods[d] = periods[d];
  }
  *cart = 1;
  return MPI_SUCCESS;
}
static inline int MPI_Cart_coords(MPI_Comm c, int rank, int ndim,
                                  int *coords) {
  (void)c; (void)rank;
  for (int d = 0; d < ndim; d++) coords[d] = 0;
  return MPI_SUCCESS;
}
static inline int MPI_Cart_shift(MPI_Comm c, int dim, int disp, int *lo,
                                 int *hi) {
  (void)c; (void)disp;
  if (msc_stub_periods[dim]) { *lo = 0; *hi = 0; }
  else { *lo = MPI_PROC_NULL; *hi = MPI_PROC_NULL; }
  return MPI_SUCCESS;
}

static inline int msc_stub_enqueue(const double *buf, long count,
                                   int tag) {
  for (int q = 0; q < MSC_STUB_MAX_MSGS; q++) {
    if (!msc_stub_queue[q].used) {
      msc_stub_queue[q].used = 1;
      msc_stub_queue[q].tag = tag;
      msc_stub_queue[q].count = count;
      msc_stub_queue[q].data =
          (double *)malloc(sizeof(double) * count);
      memcpy(msc_stub_queue[q].data, buf, sizeof(double) * count);
      return MPI_SUCCESS;
    }
  }
  fprintf(stderr, "msc_mpi_stub: message queue overflow\\n");
  exit(3);
}
static inline int msc_stub_dequeue(double *buf, long count, int tag) {
  for (int q = 0; q < MSC_STUB_MAX_MSGS; q++) {
    if (msc_stub_queue[q].used && msc_stub_queue[q].tag == tag) {
      if (msc_stub_queue[q].count != count) {
        fprintf(stderr, "msc_mpi_stub: size mismatch tag %d\\n", tag);
        exit(3);
      }
      memcpy(buf, msc_stub_queue[q].data, sizeof(double) * count);
      free(msc_stub_queue[q].data);
      msc_stub_queue[q].used = 0;
      return MPI_SUCCESS;
    }
  }
  return 1; /* not yet available */
}

static inline int MPI_Isend(const void *buf, long count, MPI_Datatype dt,
                            int dest, int tag, MPI_Comm c,
                            MPI_Request *req) {
  (void)dt; (void)dest; (void)c;
  msc_stub_enqueue((const double *)buf, count, tag);
  *req = -1; /* completed immediately (buffered) */
  return MPI_SUCCESS;
}
static inline int MPI_Irecv(void *buf, long count, MPI_Datatype dt,
                            int src, int tag, MPI_Comm c,
                            MPI_Request *req) {
  (void)dt; (void)src; (void)c;
  for (int r = 0; r < MSC_STUB_MAX_MSGS; r++) {
    if (!msc_stub_reqs[r].used) {
      msc_stub_reqs[r].used = 1;
      msc_stub_reqs[r].is_recv = 1;
      msc_stub_reqs[r].tag = tag;
      msc_stub_reqs[r].count = count;
      msc_stub_reqs[r].buf = (double *)buf;
      *req = r;
      return MPI_SUCCESS;
    }
  }
  fprintf(stderr, "msc_mpi_stub: request table overflow\\n");
  exit(3);
}
static inline int MPI_Waitall(int n, MPI_Request *reqs, MPI_Status *st) {
  (void)st;
  for (int k = 0; k < n; k++) {
    int r = reqs[k];
    if (r < 0) continue; /* completed send */
    if (!msc_stub_reqs[r].used) continue;
    if (msc_stub_dequeue(msc_stub_reqs[r].buf, msc_stub_reqs[r].count,
                         msc_stub_reqs[r].tag) != MPI_SUCCESS) {
      fprintf(stderr, "msc_mpi_stub: deadlock (no message tag %d)\\n",
              msc_stub_reqs[r].tag);
      exit(3);
    }
    msc_stub_reqs[r].used = 0;
  }
  return MPI_SUCCESS;
}
static inline int MPI_Send(const void *buf, long count, MPI_Datatype dt,
                           int dest, int tag, MPI_Comm c) {
  (void)dt; (void)dest; (void)c;
  return msc_stub_enqueue((const double *)buf, count, tag);
}
static inline int MPI_Recv(void *buf, long count, MPI_Datatype dt,
                           int src, int tag, MPI_Comm c, MPI_Status *st) {
  (void)dt; (void)src; (void)c; (void)st;
  if (msc_stub_dequeue((double *)buf, count, tag) != MPI_SUCCESS) {
    fprintf(stderr, "msc_mpi_stub: Recv with no message (tag %d)\\n",
            tag);
    exit(3);
  }
  return MPI_SUCCESS;
}
#endif /* MSC_MPI_STUB_H */
"""
