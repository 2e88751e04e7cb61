"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``compile FILE.msc --target {cpu,matrix,sunway} -o DIR`` — parse a
  textual MSC program and write the AOT C bundle + Makefile;
- ``check SOURCE --machine {sunway,matrix,cpu}`` — static
  schedule-legality analysis of a .msc file or Table-4 benchmark;
  exits non-zero on error-severity diagnostics (``--list-codes``
  catalogues them);
- ``run FILE.msc --steps N`` — parse and execute (distributed when the
  program declares an MPI shape), printing a result checksum;
- ``simulate BENCH --machine {sunway,matrix,cpu}`` — timing report for
  a Table-4 benchmark under its Table-5 schedule;
- ``tune BENCH --nprocs N`` — run the auto-tuner;
- ``report EXPERIMENT`` — regenerate one table/figure of the paper;
- ``trace FILE [--json]`` — summarize a saved execution trace; for a
  trace of two or more ranks also the per-rank load-imbalance table,
  the flow-edge counts and the communication critical path, exiting
  non-zero on a malformed span DAG (orphan inbound flow edges,
  dangling parents);
- ``diff BASE CURRENT`` — align two runs (ledger ids or trace files)
  by the phase taxonomy, print a waterfall attributing the delta plus
  config drift; exits 1 on a gated regression;
- ``history WORKLOAD [--metric M] [--json]`` — per-metric trend over
  the run ledger with a deterministic change-point detector whose
  verdicts are annotated back into the ledger;
- ``list`` — list the Table-4 benchmarks, report names, the trace
  file format and instrumented subsystems.

``run``, ``simulate``, ``tune``, ``verify``, ``check`` and ``compile``
accept ``--trace FILE`` to record an execution trace through the
:mod:`repro.obs` layer as a Chrome ``trace_event`` file (it loads in
``chrome://tracing`` / Perfetto).

``compile``, ``run`` and ``simulate`` gate on the static legality
analyzer (:mod:`repro.analysis`) — error diagnostics abort, warnings
are logged to stderr; ``--no-check`` skips the gate.

``simulate`` additionally accepts ``--inject-faults SPEC
[--fault-seed N]`` to run the distributed-exchange stage over a faulty
simulated fabric (see ``docs/RESILIENCE.md``).

Every command runs inside :func:`repro.obs.session`, the one place its
telemetry is set up and torn down: the span flight ring (on by default;
``REPRO_FLIGHT=0`` opts out, ``REPRO_FLIGHT_CAPACITY`` resizes it),
``--serve-metrics PORT`` (OpenMetrics + flight state on
``127.0.0.1:PORT``; ``--serve-linger`` keeps it up after),
``--event-log FILE`` (or ``REPRO_EVENT_LOG``, the JSONL event
narration), ``--trace``, and the run-ledger row that every
``run``/``simulate``/``tune``/``verify`` appends
(``~/.local/state/repro/ledger.db``; ``REPRO_LEDGER_DIR`` overrides the
directory, ``REPRO_LEDGER=0`` opts out).  ``repro diff`` and
``repro history`` query the ledger; see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

_REPORTS = (
    "table3", "table4", "table6", "fig7", "fig8", "fig9",
    "fig10", "fig12", "fig13", "fig14",
)


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record an execution trace to FILE (Chrome "
                        "trace_event JSON)")


def _port(text: str) -> int:
    if not text.isdigit() or int(text) > 65535:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a port in 0..65535")
    return int(text)


def _add_live_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--serve-metrics", default=None, type=_port,
                   metavar="PORT",
                   help="serve OpenMetrics + flight-recorder state on "
                        "127.0.0.1:PORT while the command runs "
                        "(0 picks a free port)")
    p.add_argument("--serve-linger", default=0.0, type=float,
                   metavar="SECONDS",
                   help="keep the --serve-metrics endpoint up this "
                        "long after the command finishes (default: 0)")
    p.add_argument("--event-log", default=None, metavar="FILE",
                   help="append the structured JSONL event narration "
                        "to FILE (default: $REPRO_EVENT_LOG if set)")


def build_parser() -> argparse.ArgumentParser:
    from .obs.diff import DEFAULT_THRESHOLD

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MSC stencil DSL (ICPP'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="AOT-compile a .msc program")
    p.add_argument("file", help="MSC source file")
    p.add_argument("--target", default="cpu",
                   choices=["cpu", "matrix", "sunway", "mpi"])
    p.add_argument("-o", "--output", default=".",
                   help="directory for the generated bundle")
    p.add_argument("--name", default=None, help="bundle name stem")
    p.add_argument("--no-check", action="store_true",
                   help="skip the static schedule-legality gate")
    _add_trace_flags(p)

    p = sub.add_parser("check", help="static schedule-legality analysis")
    p.add_argument("source", nargs="?",
                   help=".msc source file or Table-4 benchmark name")
    p.add_argument("--machine", default=None,
                   choices=["sunway", "matrix", "cpu"],
                   help="machine whose constraints to check (default: "
                        "machine-independent checks for .msc files, "
                        "sunway for benchmark names)")
    p.add_argument("--mpi-grid", default=None, metavar="G0,G1[,G2]",
                   help="override the MPI process grid")
    p.add_argument("--list-codes", action="store_true",
                   help="list every diagnostic code and exit")
    _add_trace_flags(p)

    p = sub.add_parser("run", help="execute a .msc program")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="save result as .npy")
    p.add_argument("--backend", default="auto",
                   choices=("auto", "native", "numpy"),
                   help="single-node execution engine: compiled C "
                        "shared library (native), numpy, or auto "
                        "(native when gcc is available)")
    p.add_argument("--exchange-mode", default=None,
                   choices=["basic", "diag", "overlap"],
                   help="halo-exchange wire protocol for distributed "
                        "runs (default: the exchanger's own)")
    p.add_argument("--serial", action="store_true",
                   help="ignore the program's MPI shape")
    p.add_argument("--scalar", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="bind a runtime scalar coefficient (repeatable)")
    p.add_argument("--no-check", action="store_true",
                   help="skip the static schedule-legality gate")
    _add_trace_flags(p)
    _add_live_flags(p)

    p = sub.add_parser("simulate", help="timing report for a benchmark")
    p.add_argument("benchmark")
    p.add_argument("--machine", default="sunway",
                   choices=["sunway", "matrix", "cpu"])
    p.add_argument("--precision", default="fp64",
                   choices=["fp64", "fp32"])
    p.add_argument("--timesteps", type=int, default=1)
    p.add_argument("--skip-pipeline", action="store_true",
                   help="timing report only: skip the codegen and "
                        "distributed-exchange pipeline stages")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="inject faults into the distributed-exchange "
                        "stage, e.g. 'drop:p=0.2,crash:rank=1:step=5' "
                        "(see docs/RESILIENCE.md)")
    p.add_argument("--exchange-mode", default=None,
                   choices=["basic", "diag", "overlap"],
                   help="halo-exchange wire protocol for the "
                        "distributed-exchange stage")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for deterministic fault injection "
                        "(default: 0)")
    p.add_argument("--no-check", action="store_true",
                   help="skip the static schedule-legality gate")
    _add_trace_flags(p)
    _add_live_flags(p)

    p = sub.add_parser("tune", help="auto-tune a benchmark")
    p.add_argument("benchmark")
    p.add_argument("--nprocs", type=int, default=128)
    p.add_argument("--shape", default=None,
                   help="comma-separated global shape")
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    _add_trace_flags(p)
    _add_live_flags(p)

    p = sub.add_parser("verify", help="Sec. 5.1 correctness check")
    p.add_argument("benchmark")
    p.add_argument("--precision", default="fp64",
                   choices=["fp64", "fp32"])
    p.add_argument("--timesteps", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    _add_trace_flags(p)

    p = sub.add_parser("report", help="regenerate a paper artefact")
    p.add_argument("experiment", choices=list(_REPORTS))

    p = sub.add_parser(
        "trace",
        help="summarize a saved trace file (with the critical path of "
             "a distributed one)",
    )
    p.add_argument("file", help="trace file (a --trace file or any "
                                "Chrome trace_event JSON)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the critical path and imbalance report "
                        "as JSON instead of the tables")

    p = sub.add_parser(
        "diff",
        help="attribute the performance delta between two runs",
    )
    p.add_argument("base", help="run to compare against: a ledger id "
                                "(e.g. '3' or 'ledger:3') or a --trace "
                                "file")
    p.add_argument("current", help="run under scrutiny (same forms)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="regression noise threshold as a fraction "
                        f"(default: {DEFAULT_THRESHOLD:.2f})")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable output")

    p = sub.add_parser(
        "history",
        help="metric trend + change-point report for a workload",
    )
    p.add_argument("workload", nargs="?",
                   help="ledger workload key, e.g. '3d7pt_star@sunway' "
                        "(omit to list recorded workloads)")
    p.add_argument("--metric", default=None, metavar="M",
                   help="track one metric (default: every gated metric)")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="only the newest N runs")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="change-point shift threshold as a fraction "
                        f"(default: {DEFAULT_THRESHOLD:.2f})")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable output")
    p.add_argument("--no-annotate", action="store_true",
                   help="do not write change-point verdicts back into "
                        "the ledger")

    sub.add_parser("list", help="list benchmarks, reports and the "
                                "trace format")
    return parser


def _cmd_compile(args) -> int:
    from .frontend.lang import parse_program

    with open(args.file) as fh:
        parsed = parse_program(fh.read())
    name = args.name or parsed.stencil_name
    code = parsed.program.compile_to_source_code(
        name, target=args.target, check=not args.no_check
    )
    paths = code.write_to(args.output)
    print(f"generated {len(paths)} files for target {args.target!r}:")
    for path in paths:
        print(f"  {path}")
    return 0


def _cmd_check(args) -> int:
    import os

    from .analysis import DIAGNOSTIC_CODES
    from .machine.spec import machine_by_name

    if args.list_codes:
        print("diagnostic codes (see docs/ANALYSIS.md):")
        for code, summary in DIAGNOSTIC_CODES.items():
            print(f"  {code:9s} {summary}")
        return 0
    if not args.source:
        print("error: a .msc file or benchmark name is required "
              "(or --list-codes)", file=sys.stderr)
        return 2

    machine = args.machine
    if os.path.exists(args.source):
        from .frontend.lang import parse_program

        with open(args.source) as fh:
            parsed = parse_program(fh.read())
        program, name = parsed.program, parsed.stencil_name
    else:
        from .evalsuite.harness import build_with_schedule

        machine = machine or "sunway"
        program, _ = build_with_schedule(args.source, machine)
        name = args.source
    machine = machine and machine_by_name(machine)
    if args.mpi_grid:
        program.mpi_grid = tuple(int(g) for g in args.mpi_grid.split(","))
    report = program.check(machine)
    label = machine.name if machine else "any machine"
    if len(report):
        print(report.format())
    if report.ok:
        print(f"{name}: schedule is legal on {label}")
        return 0
    print(f"{name}: schedule is ILLEGAL on {label}")
    return 1


def _cmd_run(args) -> int:
    import os

    from .backend.native import NativeBuildError, NativeUnavailable
    from .frontend.lang import parse_program
    from .obs import ledger as obs_ledger

    with open(args.file) as fh:
        parsed = parse_program(fh.read())
    obs_ledger.note(
        workload=f"run:{os.path.splitext(os.path.basename(args.file))[0]}",
        config={"file": os.path.basename(args.file),
                "steps": args.steps, "seed": args.seed},
    )
    program = parsed.program
    if args.serial:
        program.mpi_grid = None
    for item in args.scalar:
        name, _, value = item.partition("=")
        if not value:
            print(f"error: --scalar expects NAME=VALUE, got {item!r}",
                  file=sys.stderr)
            return 1
        program.set_scalar(name, float(value))
    rng = np.random.default_rng(args.seed)
    program.set_initial({
        out.name: [rng.random(out.shape).astype(out.dtype.np_dtype)
                   for _ in range(program.history[out.name])]
        for out in (stage.output for stage in program.stages)
    })
    distributed = bool(
        program.mpi_grid and int(np.prod(program.mpi_grid)) > 1
    )
    mode = (
        f"distributed over {program.mpi_grid}" if distributed
        else "single-node"
    )
    label = (repr(program.ir) if len(program.stages) > 1
             else repr(parsed.stencil_name))
    print(f"running {label}: grid {program.stages[0].output.shape}, "
          f"{args.steps} steps, {mode}")
    cfg = {"stencil": parsed.stencil_name, "backend": args.backend,
           "distributed": distributed}
    if distributed:
        cfg["mpi_grid"] = list(program.mpi_grid)
        if args.exchange_mode:
            cfg["exchange_mode"] = args.exchange_mode
    cfg.update(obs_ledger.program_fingerprints(program))
    obs_ledger.note(config=cfg)
    try:
        result = program.run(timesteps=args.steps,
                             check=not args.no_check,
                             backend=args.backend,
                             exchange_mode=args.exchange_mode)
    except (NativeUnavailable, NativeBuildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = program.last_run
    print(f"backend: {last['backend']} ({last['reason']})")
    if last["backend"] == "native":
        artifact = last["artifact"]
        print(f"native: plan {last['plan']}, artifact "
              f"{'cached' if artifact.cached else 'compiled'} "
              f"(key {artifact.key[:12]})")
    plans = last.get("numpy_plans")
    if plans:
        # stderr: stdout is the result report, identical across
        # exchange modes, and the bind count is not (CORE + OWNED)
        print(f"numpy: lowered {plans['lower']} kernel(s), "
              f"{plans['bind']} binds, {plans['reuse']} reuses",
              file=sys.stderr)
    planes = result if isinstance(result, dict) else {"": result}
    for name, plane in planes.items():
        print(f"result{name and ' ' + name}: mean={plane.mean():.6e} "
              f"l2={np.linalg.norm(plane):.6e}")
    obs_ledger.note(metrics={
        "run.result_l2": obs_ledger.metric_point(float(np.linalg.norm(
            np.concatenate([p.ravel() for p in planes.values()])))),
    })
    if args.out:
        if isinstance(result, dict):
            np.savez(args.out, **result)
        else:
            np.save(args.out, result)
        print(f"saved to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    from .evalsuite.harness import build_with_schedule
    from .ir.dtypes import f32, f64
    from .machine.spec import machine_by_name
    from .obs import ledger as obs_ledger

    dtype = f32 if args.precision == "fp32" else f64
    target = args.machine if args.machine != "cpu" else "cpu"
    prog, handle = build_with_schedule(args.benchmark, target, dtype)
    check = not args.no_check
    if not args.skip_pipeline:
        _simulate_codegen_stage(args.benchmark, prog, target, check=check)
    report = prog.simulate(args.machine, timesteps=args.timesteps,
                           check=check)
    # ledger: `<bench>@<machine>` is the longitudinal key of
    # `repro history`
    cfg = {"benchmark": args.benchmark, "machine": args.machine,
           "precision": args.precision, "timesteps": args.timesteps,
           "machine_spec": obs_ledger.machine_spec_hash(
               machine_by_name(args.machine))}
    if getattr(args, "exchange_mode", None):
        cfg["exchange_mode"] = args.exchange_mode
    cfg.update(obs_ledger.program_fingerprints(prog))
    obs_ledger.note(
        workload=f"{args.benchmark}@{args.machine}",
        config=cfg,
        metrics={
            "sim.step_s": obs_ledger.metric_point(
                report.step_s, unit="s", direction="lower", gate=True),
            "sim.gflops": obs_ledger.metric_point(
                report.gflops, unit="GFlop/s", direction="higher",
                gate=True),
        },
        phases_sim={name: {"time_s": float(t)}
                    for name, t in report.phases().items()},
    )
    print(f"{args.benchmark} on {report.machine} ({report.precision}):")
    print(f"  per-step: {report.step_s * 1e3:.3f} ms "
          f"(memory {report.memory_s * 1e3:.3f} ms, "
          f"compute {report.compute_s * 1e3:.3f} ms)")
    print(f"  achieved: {report.gflops:.1f} GFlops")
    for key, val in sorted(report.details.items()):
        print(f"  {key}: {val:.4g}")
    if not args.skip_pipeline:
        return _simulate_exchange_stage(
            args.benchmark, dtype, spec=args.inject_faults,
            seed=args.fault_seed,
            exchange_mode=getattr(args, "exchange_mode", None),
        )
    if args.inject_faults:
        print("warning: --inject-faults has no effect with "
              "--skip-pipeline", file=sys.stderr)
    return 0


def _simulate_codegen_stage(benchmark: str, prog, target: str,
                            check: bool = True) -> None:
    """AOT-generate the target bundle (the paper's full DSL→code flow)."""
    try:
        code = prog.compile_to_source_code(benchmark, target=target,
                                           check=check)
    except Exception as exc:  # noqa: BLE001 - report, don't abort timing
        print(f"codegen [{target}]: skipped ({exc})")
        return
    nbytes = sum(len(text) for text in code.files.values())
    print(f"codegen [{target}]: {len(code.files)} files, {nbytes} bytes")


def _simulate_exchange_stage(benchmark: str, dtype,
                             spec: Optional[str] = None,
                             seed: int = 0,
                             exchange_mode: Optional[str] = None) -> int:
    """Scaled-down distributed run: exercises the communication library
    and the distributed runtime (and records them under ``--trace``).

    With a fault ``spec``, a seeded injector is attached to the
    simulated world and the async exchanger's retransmission protocol
    keeps the run correct (or surfaces an unrecoverable failure)."""
    from .frontend.stencils import benchmark_by_name
    from .obs import registry
    from .runtime.executor import distributed_run
    from .runtime.faults import FaultInjector
    from .runtime.simmpi import SimMPIError

    injector = FaultInjector(spec, seed=seed) if spec else None
    bench = benchmark_by_name(benchmark)
    grid = (2, 2) if bench.ndim == 2 else (2, 1, 2)
    base = (24, 20) if bench.ndim == 2 else (12, 12, 12)
    shape = tuple(max(s, 4 * bench.radius) for s in base)
    steps = 2
    try:
        demo, _ = bench.build(grid=shape, dtype=dtype,
                              boundary="periodic")
        need = demo.ir.required_time_window - 1
        rng = np.random.default_rng(0)
        init = [
            rng.random(shape).astype(dtype.np_dtype) for _ in range(need)
        ]
        result = distributed_run(
            demo.ir, init, steps, grid, boundary="periodic",
            faults=injector, exchange_mode=exchange_mode,
        )
    except SimMPIError as exc:
        if injector is None:
            print(f"distributed exchange: skipped ({exc})")
            return 0
        # an unrecoverable injected failure is a result, not a skip
        print(f"distributed exchange: FAILED under injected faults "
              f"({injector.summary()})")
        print(f"  {exc}")
        return 1
    except Exception as exc:  # noqa: BLE001 - report, don't abort timing
        print(f"distributed exchange: skipped ({exc})")
        return 0
    mode_note = f" [{exchange_mode}]" if exchange_mode else ""
    print(f"distributed exchange{mode_note}: {steps} steps on {shape} "
          f"over MPI grid {grid}, l2={np.linalg.norm(result):.6e}")
    if injector is not None:
        print(f"  injected faults (seed {seed}): {injector.summary()}")
    reg = registry()
    if reg.enabled:
        msgs = reg.counter_total("comm.messages")
        byts = reg.counter_total("comm.bytes_sent")
        print(f"  halo traffic: {msgs:g} messages, {byts:g} bytes")
        if injector is not None:
            print(f"  retries: {reg.counter_total('comm.retry'):g}")
    return 0


def _cmd_tune(args) -> int:
    from .autotune import AutoTuner
    from .frontend.stencils import benchmark_by_name

    bench = benchmark_by_name(args.benchmark)
    if args.shape:
        shape = tuple(int(s) for s in args.shape.split(","))
    else:
        shape = bench.default_grid
    prog, _ = bench.build(grid=shape)
    tuner = AutoTuner(prog.ir, shape, nprocs=args.nprocs)
    result = tuner.tune(iterations=args.iterations, seed=args.seed)
    from .obs import ledger as obs_ledger

    obs_ledger.note(
        workload=f"tune:{args.benchmark}",
        config={"benchmark": args.benchmark, "nprocs": args.nprocs,
                "shape": list(shape), "iterations": args.iterations,
                "seed": args.seed,
                "best_tile": list(result.best.tile),
                "best_mpi_grid": list(result.best.mpi_grid),
                "best_exchange_mode": result.best.exchange_mode,
                **obs_ledger.program_fingerprints(prog)},
        metrics={
            "tune.best_time_s": obs_ledger.metric_point(
                result.best_time, unit="s", direction="lower",
                gate=True),
            "tune.improvement": obs_ledger.metric_point(
                result.improvement, unit="x", direction="higher",
                gate=True),
            "tune.pruned": obs_ledger.metric_point(
                float(result.pruned)),
        },
    )
    print(f"tuned {args.benchmark} over {shape} on {args.nprocs} CGs:")
    print(f"  best tiles {result.best.tile}, "
          f"MPI grid {result.best.mpi_grid}, "
          f"exchange mode {result.best.exchange_mode}")
    print(f"  step time {result.best_time * 1e3:.3f} ms, "
          f"improvement {result.improvement:.2f}x, "
          f"R^2 {result.model_r2:.3f}")
    print(f"  pruned {result.pruned} illegal points before the "
          "performance model")
    return 0


def _cmd_verify(args) -> int:
    from .evalsuite.verify import verify_benchmark
    from .ir.dtypes import f32, f64

    dtype = f32 if args.precision == "fp32" else f64
    results = verify_benchmark(
        args.benchmark, dtype=dtype, timesteps=args.timesteps,
        seed=args.seed,
    )
    print(f"{args.benchmark} ({args.precision}, tolerance "
          f"{dtype.tolerance:g}):")
    failed = False
    for r in results:
        if not r.ran:
            print(f"  {r.path:24s} SKIPPED ({r.note})")
            continue
        status = "PASS" if r.passed else "FAIL"
        failed |= not r.passed
        print(f"  {r.path:24s} rel. err = {r.rel_error:.3e}  {status}")

    from .obs import ledger as obs_ledger

    ran = [r for r in results if r.ran]
    obs_ledger.note(
        workload=f"verify:{args.benchmark}",
        config={"benchmark": args.benchmark,
                "precision": args.precision,
                "timesteps": args.timesteps, "seed": args.seed},
        metrics={
            "verify.paths_ran": obs_ledger.metric_point(
                float(len(ran)), direction="higher"),
            "verify.failures": obs_ledger.metric_point(
                float(sum(not r.passed for r in ran)),
                direction="lower", gate=True),
            "verify.max_rel_error": obs_ledger.metric_point(
                max((r.rel_error for r in ran), default=0.0),
                direction="lower"),
        },
    )
    return 1 if failed else 0


def _cmd_report(args) -> int:
    from .evalsuite import (
        fig7_rows, fig8_rows, fig9_points, fig10_curves, fig12_rows,
        fig13_rows, fig14_rows, format_table, table3_rows, table4_rows,
        table6_rows,
    )

    name = args.experiment
    if name == "table3":
        rows = [
            {"platform": r["platform"], "processor": r["processor"]}
            for r in table3_rows()
        ]
        print(format_table(rows, ["platform", "processor"], "Table 3"))
    elif name == "table4":
        print(format_table(
            table4_rows(),
            ["benchmark", "read_bytes", "write_bytes", "ops", "time_dep"],
            "Table 4",
        ))
    elif name == "table6":
        print(format_table(
            table6_rows(), ["benchmark", "msc", "openacc", "openmp"],
            "Table 6",
        ))
    elif name == "fig7":
        print(format_table(
            fig7_rows("fp64"), ["benchmark", "speedup"], "Fig. 7 (fp64)"
        ))
    elif name == "fig8":
        print(format_table(
            fig8_rows("fp64"), ["benchmark", "speedup"], "Fig. 8 (fp64)"
        ))
    elif name == "fig9":
        rows = [
            {"benchmark": p.name, "oi": p.operational_intensity,
             "bound": p.bound}
            for p in fig9_points("sunway")
        ]
        print(format_table(rows, ["benchmark", "oi", "bound"],
                           "Fig. 9 (Sunway)"))
    elif name == "fig10":
        for mode in ("strong", "weak"):
            curves = fig10_curves("sunway", mode,
                                  benchmarks=["3d7pt_star"])
            pts = curves["3d7pt_star"]
            print(f"Fig. 10 sunway {mode} 3d7pt_star: "
                  + " ".join(f"{p.cores}c={p.gflops:.0f}GF" for p in pts))
    elif name == "fig12":
        print(format_table(
            fig12_rows(), ["benchmark", "speedup_msc", "speedup_aot"],
            "Fig. 12",
        ))
    elif name == "fig13":
        print(format_table(
            fig13_rows(), ["benchmark", "speedup"], "Fig. 13"
        ))
    elif name == "fig14":
        print(format_table(
            fig14_rows(), ["benchmark", "speedup"], "Fig. 14"
        ))
    return 0


def _cmd_trace(args) -> int:
    import json

    from .obs.distributed import (
        DistributedTrace,
        extract_critical_path,
        format_by_rank,
        format_critical_path,
        imbalance_report,
    )
    from .obs.export import _summarize, load_trace

    doc = load_trace(args.file)
    dt = DistributedTrace.from_doc(doc)
    distributed = len(dt.ranks) >= 2
    problems = dt.validate() if distributed else []
    if problems:
        print(f"error: malformed trace DAG in {args.file}:",
              file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps({
            "file": args.file,
            "ranks": dt.ranks,
            "critical_path": extract_critical_path(dt).to_dict(),
            "imbalance": imbalance_report(dt).to_dict(),
        }, indent=2))
        return 0
    print(_summarize(doc.get("spans", []), doc.get("metrics", {})))
    if distributed:
        print()
        print(format_by_rank(dt, imbalance_report(dt)))
        print()
        print(f"flow edges: {len(dt.edges)} matched, "
              f"{len(dt.dangling_out)} dangling outbound (dropped), "
              f"{len(dt.orphan_in)} orphan inbound")
        print()
        print(format_critical_path(extract_critical_path(dt)))
    return 0


def _cmd_diff(args) -> int:
    import json

    from .obs.diff import RemovedFormatError, diff_runs, load_views

    try:
        base = load_views(args.base)
        current = load_views(args.current)
    except RemovedFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = diff_runs(base, current, threshold=args.threshold,
                       base_label=args.base, current_label=args.current)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _cmd_history(args) -> int:
    import json
    import os

    from .obs import ledger as obs_ledger
    from .obs.diff import annotate_history, history_report

    path = obs_ledger.ledger_path()
    if not os.path.exists(path):
        print(f"error: no run ledger at {path} (any run/simulate/tune/"
              f"verify invocation creates it)", file=sys.stderr)
        return 1
    with obs_ledger.open_ledger() as ledger:
        if not args.workload:
            recorded = ledger.workloads()
            if not recorded:
                print(f"run ledger at {path} is empty")
                return 0
            print(f"recorded workloads ({path}):")
            for wname, n in recorded:
                print(f"  {wname:36s} {n} run(s)")
            return 0
        if args.workload not in dict(ledger.workloads()):
            print(f"error: no ledger runs for workload "
                  f"{args.workload!r} ({path})", file=sys.stderr)
            return 1
        rows = ledger.query(workload=args.workload, limit=args.limit)
        report = history_report(rows, args.workload, metric=args.metric,
                                threshold=args.threshold)
        applied = [] if args.no_annotate else \
            annotate_history(ledger, report)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(report.format())
    for line in applied:
        print(f"ledger annotated: {line}")
    return 0


def _cmd_list(_args) -> int:
    from .frontend.stencils import ALL_BENCHMARKS
    from .obs import INSTRUMENTED_SUBSYSTEMS

    print("Table-4 benchmarks:")
    for bench in ALL_BENCHMARKS:
        print(f"  {bench.name:14s} {bench.ndim}D {bench.shape:4s} "
              f"radius {bench.radius}, {bench.points} points")
    print("reports:", ", ".join(_REPORTS))
    print("trace file: Chrome trace_event (--trace FILE; "
          "read with repro trace FILE)")
    print("instrumented subsystems:",
          ", ".join(INSTRUMENTED_SUBSYSTEMS))
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "check": _cmd_check,
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "tune": _cmd_tune,
    "verify": _cmd_verify,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "diff": _cmd_diff,
    "history": _cmd_history,
    "list": _cmd_list,
}


def main(argv: Optional[List[str]] = None) -> int:
    from . import obs

    args = build_parser().parse_args(argv)
    try:
        with obs.session(
            args.command,
            trace=getattr(args, "trace", None),
            serve=getattr(args, "serve_metrics", None),
            linger=getattr(args, "serve_linger", 0.0) or 0.0,
            event_log=getattr(args, "event_log", None),
        ) as run:
            run.rc = _COMMANDS[args.command](args)
    except (FileNotFoundError, KeyError, ValueError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run.rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
