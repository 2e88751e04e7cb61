"""Observability tour: trace the full MSC pipeline with ``repro.obs``.

Records hierarchical spans and metrics across schedule lowering, AOT
code generation, the Sunway machine simulator and a distributed run
(halo exchange over the simulated MPI runtime), prints the ASCII
summary tree and writes ``trace_pipeline.json``, a Chrome
``trace_event`` file that opens in chrome://tracing / Perfetto and
that ``repro trace`` reads back.

Equivalent from the command line::

    python -m repro simulate 3d7pt_star --machine sunway --trace out.json
    python -m repro trace out.json

Run:  python examples/trace_pipeline.py
"""

import os
import tempfile

import numpy as np

from repro import obs
from repro.evalsuite import build_with_schedule
from repro.frontend.stencils import benchmark_by_name
from repro.ir.dtypes import f64
from repro.obs.export import ascii_summary, write_trace
from repro.runtime.executor import distributed_run


def main():
    bench = benchmark_by_name("3d7pt_star")

    with obs.capture() as (tr, reg):
        # 1) schedule lowering + AOT codegen + machine simulation
        prog, _ = build_with_schedule("3d7pt_star", "sunway", f64)
        code = prog.compile_to_source_code("demo", target="sunway")
        report = prog.simulate("sunway")

        # 2) a small distributed run: per-rank spans from the halo
        #    exchangers and the runtime (each rank is a thread)
        shape = (12, 12, 12)
        demo, _ = bench.build(grid=shape, dtype=f64, boundary="periodic")
        rng = np.random.default_rng(0)
        init = [rng.random(shape)
                for _ in range(demo.ir.required_time_window - 1)]
        distributed_run(demo.ir, init, 2, (2, 1, 2), boundary="periodic")

    print(f"generated {len(code.files)} sunway files; "
          f"simulated {report.step_s * 1e3:.2f} ms/step")
    print(f"recorded {len(tr.records)} spans, {len(reg)} metric series\n")

    print(ascii_summary(tr, reg))

    path = os.path.join(tempfile.mkdtemp(prefix="msc-trace-"),
                        "trace_pipeline.json")
    write_trace(path, tr, reg)
    print(f"\nwrote {path} (open in chrome://tracing)")
    print(f"  (summarize with: python -m repro trace {path})")

    # the registry doubles as a programmatic query surface
    msgs = reg.counter_total("comm.messages")
    byts = reg.counter_total("comm.bytes_sent")
    print(f"\nhalo traffic during the distributed run: "
          f"{msgs:g} messages, {byts:g} bytes")
    print("\ntrace example OK")


if __name__ == "__main__":
    main()
