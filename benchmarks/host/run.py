#!/usr/bin/env python3
"""hostbench: real seconds, end to end and per layer, for the MSC
pipeline driven through the library API (no CLI, ``repro.obs`` off).

    python3 benchmarks/host/run.py                     # full run
    python3 benchmarks/host/run.py --quick             # <1 min smoke
    python3 benchmarks/host/run.py --workload star3d --seed 3 \\
        --seconds 12 --trace 0                         # one contract run
    python3 benchmarks/host/run.py --compare A.json B.json

Works from a clean checkout with no install and no environment: it
finds ``src/`` from its own location, runs every workload in a fresh
subprocess against an empty artifact cache, and writes only under
``benchmarks/host/results/``.  Names, units, directions and bounds
come from ``BENCHMARK.json`` at the root of the checkout.

With one ``--workload`` and an explicit ``--trace 0|1`` the last line
of standard output is the contract object ``{"correct", "attempted",
"failed", "metrics"}``; otherwise it is the whole result document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")

#: fresh processes whose set-up time is sampled per untraced run
SETUP_SAMPLES = 3
#: ceiling on one worker; the driver allows a run 180 s in all
WORKER_TIMEOUT_S = 150
#: the full run of all workloads, untraced + traced, must fit in this
FULL_RUN_CAP_S = 240
#: --compare calls set-up worse only if it is also this much slower:
#: a second of set-up is mostly one gcc run, which the host's state
#: moves by more than the relative bound
SETUP_FLOOR_S = 0.5


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        sys.exit(f"hostbench: cannot read {path}: {exc}")


def host_info() -> dict:
    """What the numbers were measured on, cache sizes included (the
    working sets are judged against them)."""
    def read(*parts: str) -> str:
        try:
            with open(os.path.join(*parts)) as fh:
                return fh.read().strip()
        except OSError:
            return "?"

    base = "/sys/devices/system/cpu/cpu0/cache"
    indexes = sorted(os.listdir(base)) if os.path.isdir(base) else []
    caches = {
        f"L{read(base, i, 'level')} {read(base, i, 'type')}":
            read(base, i, "size")
        for i in indexes if i.startswith("index")
    }
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "caches": caches}


class WorkerFailed(RuntimeError):
    def __init__(self, code: int):
        super().__init__(f"worker exited with {code}")
        self.code = code


def run_worker(mode: str, workload: str, seed: int, seconds: float,
               work: str, extra: Sequence[str] = ()) -> dict:
    """One fresh process with its own empty artifact cache, no ledger,
    and its temporary files inside ``work``."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="cache-", dir=work)
    env["REPRO_LEDGER"] = "0"
    env["TMPDIR"] = work
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--t0", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: {workload} worker exceeded "
              f"{WORKER_TIMEOUT_S} s", file=sys.stderr)
        raise WorkerFailed(3) from None
    if proc.returncode != 0:
        raise WorkerFailed(proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1])


def contract(result: dict, units: Dict[str, str]) -> dict:
    """The object the driver reads: every metric by name, with unit."""
    missing = [n for n in units if n not in result["metrics"]]
    return {
        "correct": result["failed"] == 0 and not missing,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]}
                    for n in units if n not in missing},
    }


def measure_untraced(workload: str, seed: int, seconds: float,
                     setups: int, work: str, units: Dict[str, str]) -> dict:
    setup_s = [
        run_worker("setup", workload, seed, 0, work)["metrics"]["setup_s"]
        for _ in range(setups - 1)
    ]
    result = run_worker("timed", workload, seed, seconds, work)
    if result["metrics"]:
        setup_s.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setup_s)
    out = contract(result, units)
    out.update(tail_pct=result.get("tail_pct"),
               op_median_s=result.get("op_median_s"),
               setup_samples=setup_s)
    return out


def measure_traced(workload: str, seed: int, seconds: float, work: str,
                   units: Dict[str, str]) -> dict:
    trace = os.path.join(RESULTS, f"trace_{workload}.json")
    result = run_worker("traced", workload, seed, seconds, work,
                        ["--trace-out", trace])
    out = contract(result, units)
    out.update({k: result[k] for k in
                ("traced_ops", "working_set_mb", "dist_probe_steps")})
    out["trace_file"] = os.path.relpath(trace, ROOT)
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the driver's steadiness measure."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values) or 1.0)


def fold_repeats(runs: List[dict]) -> dict:
    """Several seeds of one workload: medians, spread and every run."""
    out = dict(runs[0])
    out["attempted"] = sum(r["attempted"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    out["correct"] = all(r["correct"] for r in runs)
    out["metrics"] = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        out["metrics"][name] = {
            "value": statistics.median(values), "unit": first["unit"],
            "spread": quartile_spread(values), "runs": values,
        }
    return out


def run_all(args, spec: dict, work: str) -> dict:
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = [args.workload] if args.workload else list(whys)
    for name in names:
        if name not in whys:
            sys.exit(f"hostbench: unknown workload {name!r}; "
                     f"known: {', '.join(whys)}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if args.quick:
        seconds /= 16
    doc = {
        "format": "hostbench/1", "claim": None, "quick": args.quick,
        "seed": args.seed, "seconds": seconds, "repeats": args.repeats,
        "host": host_info(), "workloads": {},
    }
    started = time.time()
    for name in names:
        entry = doc["workloads"][name] = {"why": whys[name]}
        seeds = range(args.seed, args.seed + args.repeats)
        if args.trace != 1:
            runs = [measure_untraced(
                name, s, seconds, 1 if args.quick else SETUP_SAMPLES,
                work, e2e_units) for s in seeds]
            entry["end_to_end"] = (
                runs[0] if len(runs) == 1 else fold_repeats(runs))
        if args.trace != 0:
            runs = [measure_traced(name, s, seconds, work, layer_units)
                    for s in seeds]
            entry["per_layer"] = (
                runs[0] if len(runs) == 1 else fold_repeats(runs))
    doc["wall_s"] = time.time() - started
    return doc


def print_lines(doc: dict) -> None:
    """One ``workload metric value unit`` line per metric."""
    for name, entry in doc["workloads"].items():
        for part in ("end_to_end", "per_layer"):
            if part not in entry:
                continue
            res = entry[part]
            for metric, m in res["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            print(f"{name} {part}.ops {res['attempted']} count")
            print(f"{name} {part}.ops_failed {res['failed']} count")
        layer = entry.get("per_layer")
        if layer:
            print(f"{name} working_set {layer['working_set_mb']:.1f} MiB "
                  f"(host caches: {doc['host']['caches']}; bandwidth "
                  "figures are computed, not measured)")


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """B against base A under the bounds of BENCHMARK.json."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if a["quick"] != b["quick"] or a["seconds"] != b["seconds"]:
        print("hostbench: refusing to compare runs of different length "
              f"(quick={a['quick']}/{b['quick']}, "
              f"seconds={a['seconds']}/{b['seconds']})", file=sys.stderr)
        return 2
    rc = 0
    print(f"{'workload':<11}{'metric':<13}{'base':>12}{'new':>12}"
          f"{'new/base':>10}{'bound':>7}  verdict")
    for name, entry_a in a["workloads"].items():
        ea = entry_a.get("end_to_end")
        eb = b["workloads"].get(name, {}).get("end_to_end")
        if not ea or not eb:
            continue
        for m in spec["end_to_end"]:
            ma, mb = ea["metrics"][m["name"]], eb["metrics"][m["name"]]
            base, new = ma["value"], mb["value"]
            worse_by = (new / base - 1 if m["better"] == "lower"
                        else 1 - new / base)
            spread = max(ma.get("spread", 0.0), mb.get("spread", 0.0))
            if worse_by <= m["bound"] or (
                    m["name"] == "setup_s" and new - base <= SETUP_FLOOR_S):
                verdict = "ok"
            elif spread > m["bound"]:
                # same-code runs differ by more than the bound: the
                # metric cannot resolve this difference
                verdict = f"unresolved (spread {spread:.3f})"
            else:
                verdict = "worse"
                rc = 1
            print(f"{name:<11}{m['name']:<13}{base:>12.6g}{new:>12.6g}"
                  f"{new / base:>10.3f}{m['bound']:>7.2f}  {verdict}")
        share_a = ea["failed"] / ea["attempted"]
        share_b = eb["failed"] / eb["attempted"]
        if share_b > share_a:
            print(f"{name:<11}failed-op share rose: {ea['failed']}/"
                  f"{ea['attempted']} -> {eb['failed']}/{eb['attempted']}")
            rc = 1
    return rc


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1,
                    help="feeds input data and the coldbuild draw")
    ap.add_argument("--seconds", type=float,
                    help="timed section per run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                    const=1, help="0: end-to-end run only, 1 (or bare "
                    "--trace): traced run only; default both")
    ap.add_argument("--quick", action="store_true",
                    help="a sixteenth of the run length, one set-up "
                         "sample; never comparable with a full run")
    ap.add_argument("--repeats", type=int, default=1,
                    help="seeds seed..seed+K-1; report medians and the "
                         "quartile spread")
    ap.add_argument("--out", help="also write the result document here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="judge B against base A by the bounds")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"hostbench: no src/repro under {ROOT}; run from a "
                 "checkout of the repository")
    os.makedirs(RESULTS, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        doc = run_all(args, spec, work)
    except WorkerFailed as exc:  # the worker has said why on stderr
        return exc.code or 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print_lines(doc)
    full = not (args.workload or args.quick or args.trace is not None
                or args.repeats > 1)
    if full:
        print(f"hostbench: full run took {doc['wall_s']:.0f} s "
              f"(cap {FULL_RUN_CAP_S} s)")
    parts = [entry[p] for entry in doc["workloads"].values()
             for p in ("end_to_end", "per_layer") if p in entry]
    if args.workload and args.trace is not None and args.repeats == 1:
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({k: parts[0][k] for k in keys}))
    else:
        print(json.dumps(doc))
    if not all(p["correct"] for p in parts):
        print("hostbench: some ops failed verification or a metric is "
              "missing", file=sys.stderr)
        return 1
    if full and doc["wall_s"] > FULL_RUN_CAP_S:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
