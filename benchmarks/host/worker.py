"""One workload in one fresh process (started by ``run.py``).

``--mode setup`` stops after set-up and reports its time; ``timed``
goes on to the closed loop with tracing off and reports the end-to-end
metrics; ``traced`` spends half the time on the ops, alternating the
real op with the op decomposed under the recorder, then runs the layer
probes, writes the trace file and reports the per-layer metrics.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def bootstrap() -> None:
    """Put ``src/`` on ``sys.path``; refuse to run without gcc (a numpy
    fallback would measure a different program)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        from repro.backend.native import native_available
    except ImportError as exc:
        sys.exit(f"hostbench: cannot import repro from {SRC}: {exc}")
    if not native_available():
        sys.exit("hostbench: no C compiler found (install gcc or set "
                 "REPRO_CC); refusing to fall back to numpy")


#: traced ops that get their own isolation probes (medians over more
#: samples than this gain nothing and cost traced-run time)
PROBED_OPS = 200


class Op(NamedTuple):
    index: int
    seconds: float
    digest: Optional[bytes]  # None: the op raised


def digest(arrays: Sequence) -> bytes:
    """Bitwise identity of an op's results (shape, dtype and bytes)."""
    import numpy as np

    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(a.data)
    return h.digest()


def closed_loop(w, run_op: Callable[[int], Sequence], seconds: float,
                round_ops: int) -> List[Op]:
    """Issue ops ``0, 1, ...`` back to back until ``seconds`` have
    passed (checked every ``round_ops`` ops) or the workload has no
    more.

    The result is hashed outside the timed interval; it is compared
    with the reference after the loop, by :func:`failed_ops`.
    """
    ops: List[Op] = []
    deadline = time.perf_counter() + seconds
    while w.max_ops is None or len(ops) < w.max_ops:
        i = len(ops)
        if i % round_ops == 0 and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        try:
            results = run_op(i)
        except Exception:  # a raising op is a failed op, not a crash
            traceback.print_exc()
            results = None
        elapsed = time.perf_counter() - start
        ops.append(Op(i, elapsed,
                      None if results is None else digest(results)))
    return ops


def failed_ops(w, ops: Sequence[Op]) -> List[int]:
    """Ops that raised or whose result is not bit-equal to what
    ``reference_run`` gives on the same inputs."""
    memo: Dict[tuple, tuple] = {}
    bad = []
    for op in ops:
        if op.digest is not None:
            expected = w.expected(op.index)
            key = tuple(id(a) for a in expected)
            if key not in memo:  # holding `expected` keeps the ids unique
                memo[key] = (expected, digest(expected))
            if memo[key][1] == op.digest:
                continue
        bad.append(op.index)
    return bad


def tail(samples: Sequence[float]) -> tuple:
    """The highest percentile, up to p99, with at least ten samples
    beyond it; the maximum when there are fewer than twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    beyond = max(10, n // 100)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def fastest_round(w, ops: Sequence[Op]) -> List[Op]:
    """The round of ``w.round`` consecutive ops that took least time.

    The host alternates between a fast and a slow state every 5-20 s
    (both cores, python and native code alike), so a median over one
    run lands in whichever state filled more of it; interference only
    ever adds time, and the fastest round is what the op costs without
    it.
    """
    rounds = [ops[k:k + w.round] for k in range(0, len(ops), w.round)]
    return min((r for r in rounds if len(r) == w.round),
               key=lambda r: sum(op.seconds for op in r))


def run_timed(w, seconds: float, setup_s: float) -> dict:
    ops = closed_loop(w, w.op, seconds, w.round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = failed_ops(w, ops)
    out = {"attempted": len(ops), "failed": len(bad), "metrics": {}}
    if bad:  # no timing is reported for a run with failed ops
        return out
    best = fastest_round(w, ops)
    op_s = sum(op.seconds for op in best) / len(best)
    op_tail_s, tail_pct = tail([op.seconds for op in ops])
    out["tail_pct"] = tail_pct
    out["op_median_s"] = statistics.median(op.seconds for op in ops)
    out["metrics"] = {
        "setup_s": setup_s,
        "op_s": op_s,
        "op_tail_s": op_tail_s,
        "mpts_per_s": sum(w.updates(op.index) for op in ops)
                      / (len(ops) * op_s) / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    return out


def run_traced(w, seconds: float, trace_out: str) -> dict:
    from repro.backend.native import ArtifactCache

    from layers import (layer_metrics, note_work, probe_build,
                        probe_layers, probe_static)
    from recorder import Recorder, self_times
    from workloads import make_program

    rec = Recorder()
    steps = w.subject(0).steps
    facts: dict = {"diagnostics": [], "cached": [], "work": [],
                   "codegen_bytes": [], "so_bytes": [],
                   "native_steps": steps, "dist_steps": steps}
    cache = ArtifactCache(os.environ["REPRO_CACHE_DIR"] + "-probe")

    def alternating(i: int):
        """Even rounds run the real op, odd rounds the decomposed one:
        neighbours share the host's speed state, so their ratio is
        the tracing overhead and not the state's change."""
        if (i // w.round) % 2 == 0:
            return w.op(i)
        with rec.op(i):
            return w.traced_op(i, rec, facts)

    ops = closed_loop(w, alternating, seconds / 2, 2 * w.round)
    rounds = [ops[k:k + w.round] for k in range(0, len(ops), w.round)]
    untraced = [op for r in rounds[0::2] for op in r]
    traced = [op for r in rounds[1::2] for op in r]
    # beside the ops, not between them: probes between ops would evict
    # what back-to-back ops keep warm
    programs: dict = {}
    if w.kind != "distributed":
        for op in traced:
            note_work(facts, w.subject(op.index))
        for op in traced[:PROBED_OPS]:
            s = w.subject(op.index)
            if s not in programs:
                prog = make_program(s.bench, s.grid, s.boundary, s.tiled)
                # a program seen once costs one extra gcc run per op
                programs[s] = prog, probe_build(
                    rec, prog, cache, facts,
                    misses=3 if w.max_ops is None else 1)
            probe_static(rec, *programs[s], facts)
    probe_layers(rec, w.subject(traced[0].index), cache, w.kind, facts)
    bad = failed_ops(w, ops)
    pairs = [(sum(op.seconds for op in u), [op.index for op in t])
             for u, t in zip(rounds[0::2], rounds[1::2])]
    op_median_s = statistics.median(op.seconds for op in untraced)
    metrics = layer_metrics(rec, facts, op_median_s, pairs)

    self_s = self_times(rec.spans)
    by_name: Dict[str, List[float]] = {}
    for s in rec.spans:
        by_name.setdefault(f"{s.kind}:{s.name}", []).append(self_s[s.sid])
    with open(trace_out, "w") as fh:
        json.dump({
            "workload": w.name,
            "untraced_op_median_s": op_median_s,
            "self_s_median": {k: statistics.median(v)
                              for k, v in sorted(by_name.items())},
            "spans": rec.to_json(),
        }, fh)
    return {
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": metrics,
        "traced_ops": len(traced),
        "working_set_mb": facts["working_set_bytes"] / 2 ** 20,
        "dist_probe_steps": facts["dist_steps"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() when the parent started us")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    bootstrap()
    from workloads import workload_by_name

    w = workload_by_name(args.workload)
    w.setup(args.seed)
    setup_s = time.time() - args.t0
    if args.mode == "setup":
        out = {"metrics": {"setup_s": setup_s}}
    elif args.mode == "timed":
        out = run_timed(w, args.seconds, setup_s)
    else:
        out = run_traced(w, args.seconds, args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
