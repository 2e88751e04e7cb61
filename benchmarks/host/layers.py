"""Per-layer probes and the per-layer metric table.

A layer is a module of ``src/repro``.  Calls that an op makes only
*inside* another public call (code generation, the fingerprints and
the cache lookup inside ``NativeExecutor(...)``; pack, exchange and
kernel evaluation inside ``distributed_run``) are timed here in
isolation, beside the op and on the same program, and are never summed
into the op's decomposition.  The same probes give every workload a
cost for the layers its op does not reach, so all workloads report the
same metric names.
"""

from __future__ import annotations

import os
import statistics
from contextlib import nullcontext
from functools import lru_cache
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.backend.native import (
    ArtifactCache,
    SharedLibGenerator,
    build_artifact,
    ir_fingerprint,
    schedule_fingerprint,
)
from repro.backend.numpy_backend import ScheduledExecutor, evaluate_kernel
from repro.comm.halo import HaloSpec, halo_regions
from repro.comm.library import create_exchanger
from repro.comm.packing import pack_many, unpack_many
from repro.frontend import (
    StencilProgram,
    benchmark_by_name,
    parse_program,
    render_program,
)
from repro.ir.analysis import characterize_stencil, stencil_flops_per_point
from repro.ir.validate import validate_stencil
from repro.runtime.simmpi import run_ranks

from recorder import Recorder
from workloads import (
    MODES,
    Subject,
    distributed_sequence,
    make_program,
    native_sequence,
    random_planes,
)

__all__ = ["PER_LAYER", "note_work", "probe_build", "probe_static",
           "probe_layers", "layer_metrics"]

#: (name, unit, better) of every per-layer metric, as BENCHMARK.json
#: lists them
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("frontend.parse_s", "s", "lower"),
    ("frontend.build_s", "s", "lower"),
    ("ir.validate_s", "s", "lower"),
    ("schedule.lower_s", "s", "lower"),
    ("analysis.check_s", "s", "lower"),
    ("analysis.diagnostics", "count", "lower"),
    ("backend.codegen_s", "s", "lower"),
    ("backend.codegen_bytes", "B", "lower"),
    ("backend.native.fingerprint_s", "s", "lower"),
    ("backend.native.compile_s", "s", "lower"),
    ("backend.native.so_bytes", "B", "lower"),
    ("backend.native.lookup_s", "s", "lower"),
    ("backend.native.cache_hit_frac", "frac", "higher"),
    ("backend.native.construct_s", "s", "lower"),
    ("backend.native.init_s", "s", "lower"),
    ("backend.native.result_s", "s", "lower"),
    ("backend.native.step_s", "s", "lower"),
    ("backend.native.gflops", "GFlop/s", "higher"),
    ("backend.native.gbs_computed", "GB/s", "higher"),
    ("backend.native.flops_per_byte", "flop/B", "higher"),
    ("host.triad_gbs", "GB/s", "higher"),
    ("backend.native.bw_frac", "frac", "higher"),
    ("runtime.run_fixed_s", "s", "lower"),
    ("backend.numpy.step_s", "s", "lower"),
    ("backend.numpy.eval_s", "s", "lower"),
    ("comm.pack_s", "s", "lower"),
    ("comm.unpack_s", "s", "lower"),
    *((f"comm.exchange_s.{m}", "s", "lower") for m in MODES),
    *((f"comm.messages_per_step.{m}", "count", "lower") for m in MODES),
    *((f"comm.bytes_per_step.{m}", "B", "lower") for m in MODES),
    ("runtime.spawn_s", "s", "lower"),
    ("runtime.pingpong_s", "s", "lower"),
    *((f"runtime.dist_step_s.{m}", "s", "lower") for m in MODES),
    ("machine.model_s", "s", "lower"),
    ("machine.model_error", "ratio", "lower"),
    ("bench.op_median_s", "s", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
    ("bench.decomp_gap_frac", "frac", "lower"),
)

#: steps of the distributed and numpy probes on workloads whose op
#: does not run them (their op's own step count is used otherwise)
PROBE_STEPS = 2


def working_set_bytes(prog: StencilProgram) -> int:
    """What ``msc_run`` touches: the time window of padded planes plus
    its accumulator over the valid region."""
    out = prog.ir.output
    padded = int(np.prod([s + 2 * h for s, h in zip(out.shape, out.halo)]))
    return ((out.time_window * padded + int(np.prod(out.shape)))
            * out.dtype.nbytes)


@lru_cache(maxsize=None)
def _per_point(bench: str) -> Tuple[int, int]:
    """(flops, computed bytes) per point-update of a Table-4 stencil:
    ``stencil_flops_per_point`` and the ``characterize_stencil``
    footprint, which ignores cache reuse."""
    ir = make_program(bench, (16,) * benchmark_by_name(bench).ndim).ir
    ch = characterize_stencil(ir)
    return stencil_flops_per_point(ir), ch.read_bytes + ch.write_bytes


def note_work(facts: Dict[str, Any], s: Subject) -> None:
    """Record what one ``native_sequence`` call computed per step."""
    flops, nbytes = _per_point(s.bench)
    facts["work"].append((flops, nbytes, int(np.prod(s.grid))))


# -- probes beside each op ---------------------------------------------------


def probe_build(rec: Recorder, prog: StencilProgram, cache: ArtifactCache,
                facts: Dict[str, list], misses: int) -> Dict[str, Any]:
    """``build_artifact`` on a miss, ``misses`` times, under keys no
    op uses; returns what :func:`probe_static` needs to hit again."""
    sources = SharedLibGenerator(
        prog.ir, prog.schedules(), boundary=prog.boundary
    ).generate("msc_native").files
    for _ in range(misses):
        # a key of its own per miss: the count of probes built so far
        extra = {"hostbench_probe": len(facts["so_bytes"])}
        with rec.span("backend.native.compile"):
            artifact = build_artifact(sources, "msc_native.so",
                                      kind="shared", cache=cache,
                                      key_extra=extra)
        if artifact.cached:
            raise RuntimeError("compile probe hit the cache")
        facts["so_bytes"].append(os.path.getsize(artifact.path))
    return {"sources": sources, "extra": extra, "cache": cache}


def probe_static(rec: Recorder, prog: StencilProgram,
                 built: Dict[str, Any], facts: Dict[str, list]) -> None:
    """What ``NativeExecutor(...)`` does inside, one call at a time."""
    schedules = prog.schedules()
    with rec.span("ir.validate"):
        validate_stencil(prog.ir)
    with rec.span("schedule.lower"):
        for sched in schedules.values():
            sched.lower(prog.ir.output.shape)
    with rec.span("backend.codegen"):
        code = SharedLibGenerator(
            prog.ir, schedules, boundary=prog.boundary
        ).generate("msc_native")
    facts["codegen_bytes"].append(
        sum(len(text.encode()) for text in code.files.values()))
    with rec.span("backend.native.fingerprint"):
        ir_fingerprint(prog.ir)
        schedule_fingerprint(schedules)
    with rec.span("backend.native.lookup"):
        artifact = build_artifact(built["sources"], "msc_native.so",
                                  kind="shared", cache=built["cache"],
                                  key_extra=built["extra"])
    if not artifact.cached:
        raise RuntimeError("lookup probe missed the cache")


# -- probes once per traced run ------------------------------------------------


def _repeat(rec: Recorder, name: str, reps: int, call) -> None:
    """``reps`` spans named ``name``, one around each ``call()``."""
    for _ in range(reps):
        with rec.span(name):
            call()


def _probe_numpy(rec: Recorder, s: Subject) -> None:
    """The numpy engine on the block one of two ranks would own."""
    block = make_program(s.bench, s.block, s.boundary)
    init = random_planes(block, 7)
    _repeat(rec, "backend.numpy.run", 3, lambda: ScheduledExecutor(
        block.ir, block.schedules(), block.boundary
    ).run(init, PROBE_STEPS))
    out = block.ir.output
    plane = np.random.default_rng(7).random(
        HaloSpec(out.shape, out.halo).padded_shape)
    kernel = block.ir.kernels[0]
    _repeat(rec, "backend.numpy.eval", 5, lambda: np.asarray(
        evaluate_kernel(kernel, {(out.name, 0): plane},
                        {out.name: out.halo})).sum())


def _probe_comm(rec: Recorder, s: Subject, halo: Sequence[int],
                facts: Dict[str, Any]) -> None:
    """Packing, the three exchange modes and bare simmpi, 2 ranks."""
    spec = HaloSpec(s.block, tuple(halo))
    periods = tuple(s.boundary == "periodic" for _ in s.grid)
    regions = halo_regions(spec)
    send = [r.send for r in regions]
    plane = np.random.default_rng(7).random(spec.padded_shape)
    buf = pack_many(plane, send)
    _repeat(rec, "comm.pack", 20, lambda: pack_many(plane, send, out=buf))
    _repeat(rec, "comm.unpack", 20, lambda: unpack_many(
        buf, plane, [r.recv for r in regions]))

    def exchanges(mode: str, count: int, name: Optional[str]) -> int:
        def main(comm):
            mine = np.random.default_rng(comm.rank).random(
                spec.padded_shape)
            ex = create_exchanger("async", comm, spec, mode=mode)
            ex.exchange(mine)  # fills the transfer caches
            for _ in range(count):
                with rec.span(name) if name else nullcontext():
                    ex.exchange(mine)
        run_ranks(2, main, cart_dims=s.mpi_grid, periods=periods)
        return count + 1

    for mode in MODES:
        exchanges(mode, 10, "comm.exchange." + mode)
        # the existing comm.* counters, in an untimed pass of their own
        with obs.capture() as (_tracer, reg):
            done = exchanges(mode, 3, None)
            facts["messages." + mode] = (
                reg.counter_total("comm.messages") / done)
            facts["bytes." + mode] = (
                reg.counter_total("comm.bytes_sent") / done)
        obs.reset()  # capture() keeps its records; drop them

    _repeat(rec, "runtime.spawn", 10,
            lambda: run_ranks(2, lambda comm: None))

    def pingpong(comm):
        strip = np.ascontiguousarray(plane[send[-1]])
        for _ in range(21):
            if comm.rank == 0:
                with rec.span("runtime.pingpong"):
                    comm.Send(strip, 1, tag=5)
                    comm.Recv(strip, 1, tag=6)
            else:
                comm.Recv(strip, 0, tag=5)
                comm.Send(strip, 0, tag=6)

    run_ranks(2, pingpong)


def _triad_gbs(rec: Recorder, nbytes: int) -> float:
    """numpy triad ``a = b + s*c`` over three arrays that together are
    the workload's working set; bytes moved are computed: 2 passes
    over ``a`` written, 3 read."""
    n = max(nbytes // 24, 1024)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    triad()
    _repeat(rec, "host.triad", 5, triad)
    return 5 * n * 8 / statistics.median(rec.durations("host.triad")) / 1e9


def probe_layers(rec: Recorder, s: Subject, cache: ArtifactCache,
                 op_is: str, facts: Dict[str, Any]) -> None:
    """Every layer the op (``op_is`` = ``native``, ``parsed`` or
    ``distributed``) does not reach itself, on the same program."""
    prog = make_program(s.bench, s.grid, s.boundary, s.tiled)
    init = random_planes(prog, 7)
    _repeat(rec, "frontend.build", 5, lambda: make_program(
        s.bench, s.grid, s.boundary, s.tiled))
    if op_is != "parsed":
        text = render_program(prog.ir, prog.schedules())
        _repeat(rec, "frontend.parse", 5, lambda: parse_program(text))
    if op_is == "distributed":
        built = probe_build(rec, prog, cache, facts, misses=3)
        native_sequence(Recorder(), prog, init, s.steps,
                        {"diagnostics": [], "cached": []})  # cold build
        for _ in range(5):
            native_sequence(rec, prog, init, s.steps, facts)
            note_work(facts, s)
            probe_static(rec, prog, built, facts)
        facts["native_steps"] = s.steps
    else:
        plain = make_program(s.bench, s.grid, s.boundary)
        # first use pays for imports and lazily built transfer tables
        distributed_sequence(Recorder(), plain, init, 1, s.mpi_grid)
        distributed_sequence(rec, plain, init, PROBE_STEPS, s.mpi_grid)
        facts["dist_steps"] = PROBE_STEPS
    _probe_numpy(rec, s)
    _probe_comm(rec, s, prog.ir.output.halo, facts)
    reports = []
    _repeat(rec, "machine.model", 3,
               lambda: reports.append(prog.simulate("cpu")))
    facts["model_gflops"] = reports[-1].gflops
    facts["working_set_bytes"] = working_set_bytes(prog)
    facts["triad_gbs"] = _triad_gbs(rec, facts["working_set_bytes"])


# -- spans -> metrics ----------------------------------------------------------


def layer_metrics(rec: Recorder, facts: Dict[str, Any],
                  op_median_s: float,
                  pairs: Sequence[Tuple[float, Sequence[int]]]
                  ) -> Dict[str, float]:
    """Median per call of each layer.  A layer the decomposed op calls
    is read from the op's spans, any other from its probe spans.

    ``op_median_s`` is the median untraced op of the same run.  Each
    of ``pairs`` is a round of untraced ops (its seconds) and the
    round of traced ops that followed it (their op ids); the two
    ``bench.*`` fractions are medians over these neighbours.
    """

    def med(name: str) -> float:
        return statistics.median(
            rec.durations(name, "op") or rec.durations(name, "probe"))

    native_steps = facts["native_steps"]
    dist_steps = facts["dist_steps"]
    advances = (rec.durations("backend.native.advance", "op")
                or rec.durations("backend.native.advance", "probe"))
    step_s = statistics.median(advances) / native_steps
    gflops = statistics.median(
        flops * points / (d / native_steps) / 1e9
        for (flops, _, points), d in zip(facts["work"], advances))
    gbs = statistics.median(
        nbytes * points / (d / native_steps) / 1e9
        for (_, nbytes, points), d in zip(facts["work"], advances))
    flops_per_byte = statistics.median(
        flops / nbytes for flops, nbytes, _ in facts["work"])
    values = {
        "frontend.parse_s": med("frontend.parse"),
        "frontend.build_s": med("frontend.build"),
        "ir.validate_s": med("ir.validate"),
        "schedule.lower_s": med("schedule.lower"),
        "analysis.check_s": med("analysis.check"),
        "analysis.diagnostics": statistics.median(facts["diagnostics"]),
        "backend.codegen_s": med("backend.codegen"),
        "backend.codegen_bytes": statistics.median(facts["codegen_bytes"]),
        "backend.native.fingerprint_s": med("backend.native.fingerprint"),
        "backend.native.compile_s": med("backend.native.compile"),
        "backend.native.so_bytes": statistics.median(facts["so_bytes"]),
        "backend.native.lookup_s": med("backend.native.lookup"),
        "backend.native.cache_hit_frac":
            sum(facts["cached"]) / len(facts["cached"]),
        "backend.native.construct_s": med("backend.native.construct"),
        "backend.native.init_s": med("backend.native.init"),
        "backend.native.result_s": med("backend.native.result"),
        "backend.native.step_s": step_s,
        "backend.native.gflops": gflops,
        "backend.native.gbs_computed": gbs,
        "backend.native.flops_per_byte": flops_per_byte,
        "host.triad_gbs": facts["triad_gbs"],
        "backend.native.bw_frac": gbs / facts["triad_gbs"],
        "backend.numpy.step_s": med("backend.numpy.run") / PROBE_STEPS,
        "backend.numpy.eval_s": med("backend.numpy.eval"),
        "comm.pack_s": med("comm.pack"),
        "comm.unpack_s": med("comm.unpack"),
        "runtime.spawn_s": med("runtime.spawn"),
        "runtime.pingpong_s": med("runtime.pingpong"),
        "machine.model_s": med("machine.model"),
        "machine.model_error": facts["model_gflops"] / gflops,
    }
    stepping = 0.0
    for m in MODES:
        run_s = med("runtime.distributed_run." + m)
        stepping += run_s
        values["comm.exchange_s." + m] = med("comm.exchange." + m)
        values["comm.messages_per_step." + m] = facts["messages." + m]
        values["comm.bytes_per_step." + m] = facts["bytes." + m]
        values["runtime.dist_step_s." + m] = run_s / dist_steps
    if rec.durations("backend.native.advance", "op"):
        stepping = step_s * native_steps
    values["runtime.run_fixed_s"] = op_median_s - stepping
    values["bench.op_median_s"] = op_median_s

    roots = {s.sid: s for s in rec.spans if s.name == "op"}
    whole = {s.op_id: s.duration for s in roots.values()}
    layers: Dict[int, float] = dict.fromkeys(whole, 0.0)
    for s in rec.spans:
        if s.parent in roots:
            layers[s.op_id] += s.duration
    values["bench.trace_overhead_frac"] = statistics.median(
        sum(whole[i] for i in ids) / real for real, ids in pairs) - 1
    values["bench.decomp_gap_frac"] = statistics.median(
        sum(layers[i] for i in ids) / real for real, ids in pairs) - 1
    return values
