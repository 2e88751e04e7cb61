"""Per-point cost of the compiled kernel alone, at a workload's grid and
at a grid whose window fits in L2.

    python tools/kernel_roof.py                 # stream2d and star3d
    python tools/kernel_roof.py star3d

For each native hostbench workload it builds the workload's program
(``benchmarks/host/workloads.py``), seeds one :class:`NativeExecutor`
and times ``advance`` — one ``msc_run`` call, nothing else — over as
many point-updates as one op of the workload performs: once at the
workload's grid, once at the small grid with proportionally more
steps.  It prints the fastest and the median of ``REPEATS`` repeats in
seconds and in ns per point-update.  Equal numbers on both grids mean the kernel
already runs at its cache-resident speed, so a gain must come from the
loop body (fewer operations per point), not from blocking for cache.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "host"))

from repro.backend.native import NativeExecutor  # noqa: E402
from workloads import (  # noqa: E402
    make_program,
    random_planes,
    workload_by_name,
)

#: a grid per workload whose W padded planes fit in a 2 MiB L2
L2_GRIDS = {"stream2d": (256, 256), "star3d": (32, 32, 32)}
#: timed ``advance`` calls per grid
REPEATS = 7


def time_kernel(bench, grid, tiled, steps):
    """Seconds of ``REPEATS`` ``advance(steps)`` calls on one executor."""
    prog = make_program(bench, grid, "zero", tiled)
    ex = NativeExecutor(prog.ir, prog.schedules(), prog.boundary)
    init = random_planes(prog, 1)
    ex.initialize(init)
    ex.advance(steps)  # warm-up: pages faulted in, caches filled
    seconds = []
    for _ in range(REPEATS):
        ex.initialize(init)
        start = time.perf_counter()
        ex.advance(steps)
        seconds.append(time.perf_counter() - start)
    return seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", default=sorted(L2_GRIDS),
                    help="native workloads (default: stream2d star3d)")
    args = ap.parse_args(argv)
    print(f"{'workload':<10}{'grid':>16}{'steps':>7}{'updates':>11}"
          f"{'best s':>9}{'median s':>10}{'best ns/pt':>12}")
    for name in args.workloads:
        if name not in L2_GRIDS:
            ap.error(f"no L2 grid for {name!r}; choose from "
                     f"{sorted(L2_GRIDS)}")
        s = workload_by_name(name).subject(0)
        updates = math.prod(s.grid) * s.steps
        small = L2_GRIDS[name]
        for grid, steps in ((s.grid, s.steps),
                            (small, updates // math.prod(small))):
            secs = time_kernel(s.bench, grid, s.tiled, steps)
            n = math.prod(grid) * steps
            print(f"{name:<10}{'x'.join(map(str, grid)):>16}{steps:>7}"
                  f"{n:>11}{min(secs):>9.4f}"
                  f"{statistics.median(secs):>10.4f}"
                  f"{1e9 * min(secs) / n:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
