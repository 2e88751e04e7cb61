"""Built-in perf-observatory workloads.

Two families, both deterministic under a fixed seed:

- ``<bench>@<machine>`` — the full single-node pipeline for one
  Table-4 benchmark on ``sunway``/``matrix``/``cpu``: schedule build,
  AOT codegen, architectural simulation, roofline placement.  Gated
  metrics are the *modelled* times/rates (deterministic); the host
  wall time rides along ungated.
- ``exchange:<bench>`` — a scaled-down distributed run over the
  simulated MPI fabric: gated on halo-traffic bytes/messages (exact
  model outputs), with host pack/send-wait/unpack attribution.

``workload_by_name`` also accepts a ``perturb`` mapping
(``{"dma_startup_us": 10.0}``) that *multiplies* numeric fields of the
machine spec — the knob the regression-gate tests (and ``repro bench
--perturb``) use to fake a slowed phase.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from ..metrics import median
from .runner import MetricSpec, Workload, WorkloadOutput

__all__ = [
    "DEFAULT_WORKLOADS",
    "available_workloads",
    "workload_by_name",
    "resolve_workloads",
]

#: the CI perf-smoke pair: one SPM/DMA (Sunway) path, one cache path
DEFAULT_WORKLOADS = ("3d7pt_star@sunway", "2d9pt_box@matrix")

_MACHINES = ("sunway", "matrix", "cpu")

_GRID_2D = (64, 64)
_GRID_3D = (24, 24, 24)


def available_workloads() -> List[str]:
    """Every resolvable built-in workload name."""
    from ...frontend.stencils import BENCHMARK_NAMES

    from ...comm.exchange import EXCHANGE_MODES

    names = [f"{b}@{m}" for b in BENCHMARK_NAMES for m in _MACHINES]
    names += [f"exchange:{b}" for b in BENCHMARK_NAMES]
    names += [f"exchange:{b}@{m}" for b in BENCHMARK_NAMES
              for m in EXCHANGE_MODES]
    names.append("telemetry-overhead")
    return names


def _perturbed(spec, perturb: Optional[Dict[str, float]]):
    """Scale numeric machine-spec fields by the given factors."""
    if not perturb:
        return spec
    changes = {}
    for key, factor in perturb.items():
        if not hasattr(spec, key):
            raise ValueError(
                f"machine spec {spec.name!r} has no field {key!r}"
            )
        value = getattr(spec, key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"machine-spec field {key!r} is not numeric")
        changes[key] = type(value)(value * factor)
    return dataclasses.replace(spec, **changes)


def _simulate_workload(bench_name: str, machine_alias: str,
                       perturb: Optional[Dict[str, float]] = None,
                       timesteps: int = 1,
                       backend: Optional[str] = None,
                       exec_steps: int = 8) -> Workload:
    def fn(seed: int) -> WorkloadOutput:
        from ...evalsuite.harness import build_with_schedule
        from ...ir.analysis import stencil_flops_per_point
        from ...ir.dtypes import f64
        from ...machine.matrix_sim import CacheMachineSimulator
        from ...machine.roofline import Roofline
        from ...machine.spec import machine_by_name
        from ...machine.sunway_sim import SunwaySimulator

        bench = _bench(bench_name)
        grid = _GRID_2D if bench.ndim == 2 else _GRID_3D
        prog, handle = build_with_schedule(
            bench_name, machine_alias, f64, grid=grid
        )
        spec = _perturbed(machine_by_name(machine_alias), perturb)

        codegen_bytes = 0
        try:
            code = prog.compile_to_source_code(
                bench_name, target=machine_alias, check=False
            )
            codegen_bytes = sum(len(t) for t in code.files.values())
        except Exception:  # noqa: BLE001 - codegen is optional context
            pass

        sim = (SunwaySimulator(spec) if spec.cacheless
               else CacheMachineSimulator(spec))
        report = sim.run(prog.ir, handle.schedule, timesteps=timesteps)

        # roofline placement (the Fig. 9 operational-intensity model)
        flops_pp = stencil_flops_per_point(prog.ir)
        elem = prog.ir.output.dtype.nbytes
        napply = len(prog.ir.applications)
        write_cost = 1.0 if spec.cacheless else 2.0
        oi = flops_pp / (elem * (napply + write_cost))
        roof = Roofline(spec, report.precision)
        point = roof.place(bench_name, oi, report.gflops)

        phases_sim: Dict[str, Dict[str, float]] = {}
        for phase, seconds in report.phases().items():
            if seconds <= 0:
                continue
            entry: Dict[str, float] = {"time_s": seconds}
            if phase == "spm-dma" and report.dma is not None:
                entry["bytes"] = float(report.dma.total_bytes)
            if phase == "compute" and seconds > 0:
                total_flops = report.flops_per_step * report.timesteps
                entry["gflops"] = total_flops / seconds / 1e9
            phases_sim[phase] = entry

        metrics = {
            "sim.step_s": report.step_s,
            "sim.total_s": report.total_s,
            "sim.compute_s": report.compute_s,
            "sim.memory_s": report.memory_s,
            "sim.gflops": report.gflops,
            "codegen.bytes": float(codegen_bytes),
        }
        if backend is not None:
            # real host execution through the requested engine: wall
            # time is ungated (host noise), but the run's spans land in
            # the host phase attribution, so ``repro bench --compare``
            # can show the compute-phase delta between numpy and the
            # compiled native backend
            import time

            import numpy as np

            rng = np.random.default_rng(seed)
            need = prog.ir.required_time_window - 1
            prog.set_initial([
                rng.random(grid).astype(
                    prog.ir.output.dtype.np_dtype
                )
                for _ in range(need)
            ])
            t0 = time.perf_counter()
            result = prog.run(exec_steps, check=False, backend=backend)
            metrics["exec.wall_s"] = time.perf_counter() - t0
            metrics["exec.l2"] = float(np.linalg.norm(result))
        return WorkloadOutput(
            metrics=metrics,
            phases_sim=phases_sim,
            roofline={bench_name: point.to_dict()},
        )

    bench = _bench(bench_name)
    metric_specs = {
        "sim.step_s": MetricSpec("s", "lower", gate=True),
        "sim.total_s": MetricSpec("s", "lower", gate=True),
        "sim.compute_s": MetricSpec("s", "lower", gate=True),
        "sim.memory_s": MetricSpec("s", "lower", gate=True),
        "sim.gflops": MetricSpec("GFlops", "higher", gate=True),
        "codegen.bytes": MetricSpec("B", "lower", gate=False),
    }
    if backend is not None:
        metric_specs["exec.wall_s"] = MetricSpec("s", "lower",
                                                 gate=False)
        metric_specs["exec.l2"] = MetricSpec("", "higher", gate=False)
    return Workload(
        name=f"{bench_name}@{machine_alias}",
        fn=fn,
        metric_specs=metric_specs,
        meta={
            "kind": "simulate",
            "benchmark": bench_name,
            "machine": machine_alias,
            "grid": list(_GRID_2D if bench.ndim == 2 else _GRID_3D),
            "timesteps": timesteps,
            "perturb": dict(perturb or {}),
            "backend": backend,
            "exec_steps": exec_steps if backend is not None else 0,
        },
    )


#: counters snapshotted around each per-mode run of an exchange workload
_EXCHANGE_COUNTERS = ("comm.bytes_sent", "comm.messages",
                      "comm.pool_bytes")


def _exchange_workload(bench_name: str, steps: int = 2,
                       mode: Optional[str] = None) -> Workload:
    """Distributed halo-exchange workload.

    ``mode=None`` is the *comparative* form: it runs all three exchange
    modes back to back with per-mode counter deltas, gates the diag
    coalescing win (``diag.msg_saving``), the zero-copy pool audit
    (``comm.pool_bytes``) and cross-mode bitwise equality.  A concrete
    ``mode`` (``exchange:<bench>@<mode>``) runs just that wire protocol.
    """

    def fn(seed: int) -> WorkloadOutput:
        import numpy as np

        from ... import obs
        from ...comm.exchange import EXCHANGE_MODES
        from ...frontend.stencils import benchmark_by_name
        from ...ir.dtypes import f64
        from ...runtime.executor import distributed_run

        bench = benchmark_by_name(bench_name)
        grid = (2, 2) if bench.ndim == 2 else (2, 1, 2)
        base = (24, 20) if bench.ndim == 2 else (12, 12, 12)
        shape = tuple(max(s, 4 * bench.radius) for s in base)
        demo, _ = bench.build(grid=shape, dtype=f64,
                              boundary="periodic")
        need = demo.ir.required_time_window - 1
        rng = np.random.default_rng(seed)
        init = [rng.random(shape) for _ in range(need)]
        reg = obs.registry()

        def snap() -> Dict[str, float]:
            return {k: reg.counter_total(k) for k in _EXCHANGE_COUNTERS}

        modes = [mode] if mode is not None else list(EXCHANGE_MODES)
        deltas: Dict[str, Dict[str, float]] = {}
        results: Dict[str, Any] = {}
        for m in modes:
            before = snap()
            results[m] = distributed_run(
                demo.ir, init, steps, grid, boundary="periodic",
                exchange_mode=m,
            )
            after = snap()
            deltas[m] = {k: after[k] - before[k] for k in after}
        first = modes[0]

        # structural distributed-trace metrics: the longest logical
        # span chain and its rank crossings are program-deterministic
        # under fixed seeds (zero MAD), so the gate can regress on an
        # added synchronisation point or lost overlap
        from ...obs.distributed import (
            DistributedTrace,
            extract_critical_path,
            imbalance_report,
        )

        dt = DistributedTrace.from_live(obs.tracer(), reg)
        cp = extract_critical_path(dt)
        imb = imbalance_report(dt)
        metrics = {
            "comm.bytes_sent": deltas[first]["comm.bytes_sent"],
            "comm.messages": deltas[first]["comm.messages"],
            "comm.pool_bytes": sum(
                d["comm.pool_bytes"] for d in deltas.values()
            ),
            "critpath.spans": float(cp.chain_spans),
            "critpath.crossings": float(cp.chain_crossings),
            "critpath.flow_edges": float(cp.flow_edges),
            "imbalance.bytes_skew": imb.bytes_skew,
            "result.l2": float(np.linalg.norm(results[first])),
        }
        if mode is None:
            # the diag coalescing win and the cross-mode differential
            # result, gated so a protocol regression fails the bench
            metrics["comm.messages.diag"] = (
                deltas["diag"]["comm.messages"]
            )
            metrics["diag.msg_saving"] = (
                deltas["basic"]["comm.messages"]
                - deltas["diag"]["comm.messages"]
            )
            metrics["exchange.modes_bitwise_equal"] = float(all(
                np.array_equal(results[m], results["basic"])
                for m in modes
            ))
        return WorkloadOutput(metrics=metrics)

    bench = _bench(bench_name)
    metric_specs = {
        "comm.bytes_sent": MetricSpec("B", "lower", gate=True),
        "comm.messages": MetricSpec("msgs", "lower", gate=True),
        "comm.pool_bytes": MetricSpec("B", "lower", gate=True),
        "critpath.spans": MetricSpec("spans", "lower", gate=True),
        "critpath.crossings": MetricSpec("edges", "lower",
                                         gate=True),
        "critpath.flow_edges": MetricSpec("edges", "lower",
                                          gate=True),
        "imbalance.bytes_skew": MetricSpec("x", "lower", gate=True),
        "result.l2": MetricSpec("", "higher", gate=False),
    }
    if mode is None:
        metric_specs["comm.messages.diag"] = MetricSpec(
            "msgs", "lower", gate=True
        )
        metric_specs["diag.msg_saving"] = MetricSpec(
            "msgs", "higher", gate=True
        )
        metric_specs["exchange.modes_bitwise_equal"] = MetricSpec(
            "", "higher", gate=True
        )
    suffix = f"@{mode}" if mode is not None else ""
    return Workload(
        name=f"exchange:{bench_name}{suffix}",
        fn=fn,
        metric_specs=metric_specs,
        meta={
            "kind": "exchange",
            "benchmark": bench_name,
            "steps": steps,
            "mpi_grid": list((2, 2) if bench.ndim == 2 else (2, 1, 2)),
            "exchange_mode": mode or "compare",
        },
    )


def _telemetry_overhead_workload(steps: int = 16,
                                 pairs: int = 7) -> Workload:
    """The observability self-test: what does always-on telemetry cost?

    Runs one single-node stencil execution repeatedly in two obs
    configurations — everything off, and the always-on default (flight
    recorder + metrics registry, as :func:`repro.obs.session` sets up
    every command without ``--serve-metrics``) — interleaved A/B.
    The overhead estimate is the *median of per-pair ratios*: the two
    runs of a pair are temporally adjacent, so slow host drift cancels
    within each pair, and the median across pairs sheds the occasional
    preempted outlier that wrecks per-arm aggregates on shared CI
    runners.

    The *gate* is the deterministic boolean ``telemetry.overhead_ok``
    (1.0 iff the paired-median overhead stays under the 5% budget):
    raw wall deltas are host noise and ride along ungated.
    """

    def fn(seed: int) -> WorkloadOutput:
        import time

        import numpy as np

        from ... import obs
        from ...obs.trace import preserved

        # enough work per run (tens of ms) that the fixed per-span cost
        # amortizes and host jitter stays well inside the 5% budget
        bench = _bench("2d9pt_box")
        shape = (160, 160)
        demo, _ = bench.build(grid=shape)
        need = demo.ir.required_time_window - 1
        rng = np.random.default_rng(seed)
        init = [
            rng.random(shape).astype(demo.ir.output.dtype.np_dtype)
            for _ in range(need)
        ]

        def one_run() -> float:
            demo.set_initial(init)
            t0 = time.perf_counter()
            demo.run(steps, check=False, backend="numpy")
            return time.perf_counter() - t0

        # the bench harness wraps this fn in capture() (full tracing
        # on); hand that state back on the way out so the harness's own
        # attribution still works
        tr = obs.tracer()
        reg = obs.registry()
        times_off = []
        times_on = []
        fl_kept = fl_dropped = 0
        with preserved():
            one_run()  # warm caches outside both measurement arms
            for _ in range(pairs):
                # arm A: every obs surface off
                tr.disable()
                tr.disable_flight()
                reg.disable()
                times_off.append(one_run())
                # arm B: the always-on default (flight ring + metrics),
                # full recording still off
                fl = tr.enable_flight()
                reg.enable()
                times_on.append(one_run())
                fl_kept += fl.kept
                fl_dropped += fl.dropped
        frac = median([
            (on - off) / off
            for off, on in zip(times_off, times_on) if off > 0
        ])
        return WorkloadOutput(metrics={
            "telemetry.overhead_ok": 1.0 if frac < 0.05 else 0.0,
            "telemetry.overhead_frac": frac,
            "telemetry.median_on_s": median(times_on),
            "telemetry.median_off_s": median(times_off),
            "telemetry.flight_spans": float(fl_kept),
            "telemetry.flight_dropped": float(fl_dropped),
        })

    return Workload(
        name="telemetry-overhead",
        fn=fn,
        metric_specs={
            # the boolean verdict is the only gated metric: it is
            # deterministic unless the 5% budget is actually blown
            "telemetry.overhead_ok": MetricSpec("", "higher", gate=True),
            "telemetry.overhead_frac": MetricSpec("frac", "lower",
                                                  gate=False),
            "telemetry.median_on_s": MetricSpec("s", "lower", gate=False),
            "telemetry.median_off_s": MetricSpec("s", "lower",
                                                 gate=False),
            "telemetry.flight_spans": MetricSpec("spans", "higher",
                                                 gate=False),
            "telemetry.flight_dropped": MetricSpec("spans", "lower",
                                                   gate=False),
        },
        meta={
            "kind": "telemetry-overhead",
            "benchmark": "2d9pt_box",
            "steps": steps,
            "pairs": pairs,
            "budget_frac": 0.05,
        },
    )


def _bench(name: str):
    from ...frontend.stencils import benchmark_by_name

    return benchmark_by_name(name)


def workload_by_name(spec: str,
                     perturb: Optional[Dict[str, float]] = None,
                     backend: Optional[str] = None) -> Workload:
    """Resolve one workload spec string.

    - ``<bench>@<machine>`` → simulate workload,
    - ``exchange:<bench>`` → comparative distributed halo-exchange
      workload (all three exchange modes),
    - ``exchange:<bench>@<mode>`` → one exchange mode only.

    ``backend`` (``auto``/``native``/``numpy``) additionally executes
    simulate workloads on the host through that engine, adding the
    ungated ``exec.*`` metrics and host-phase compute attribution.
    """
    if spec == "telemetry-overhead":
        if perturb or backend:
            raise ValueError(
                "telemetry-overhead takes no --perturb/--backend; it "
                "measures the obs layer itself"
            )
        return _telemetry_overhead_workload()
    if spec.startswith("exchange:"):
        if perturb:
            raise ValueError(
                "--perturb applies to machine specs; exchange workloads "
                "have none"
            )
        if backend:
            raise ValueError(
                "--backend applies to <bench>@<machine> workloads; "
                "exchange workloads always run on the simulated MPI "
                "runtime"
            )
        rest = spec.split(":", 1)[1]
        mode: Optional[str] = None
        if "@" in rest:
            rest, mode = rest.rsplit("@", 1)
            from ...comm.exchange import EXCHANGE_MODES

            if mode not in EXCHANGE_MODES:
                raise ValueError(
                    f"unknown exchange mode {mode!r} in workload "
                    f"{spec!r}; known: {list(EXCHANGE_MODES)}"
                )
        return _exchange_workload(rest, mode=mode)
    if "@" in spec:
        bench_name, machine = spec.rsplit("@", 1)
        if machine not in _MACHINES:
            raise ValueError(
                f"unknown machine {machine!r} in workload {spec!r}; "
                f"known: {_MACHINES}"
            )
        return _simulate_workload(bench_name, machine, perturb,
                                  backend=backend)
    raise ValueError(
        f"cannot parse workload {spec!r}; expected '<bench>@<machine>' "
        "or 'exchange:<bench>'"
    )


def resolve_workloads(specs: List[str],
                      perturb: Optional[Dict[str, float]] = None,
                      backend: Optional[str] = None
                      ) -> Tuple[List[Workload], str]:
    """Resolve CLI workload specs (default pair when empty).

    Returns the workloads plus a default bench-document name derived
    from them.
    """
    if not specs:
        specs = list(DEFAULT_WORKLOADS)
        name = "perf_smoke"
    else:
        name = "_".join(
            s.replace("@", "_").replace(":", "_") for s in specs
        )[:64]
    return [
        workload_by_name(s, perturb, backend=backend) for s in specs
    ], name
