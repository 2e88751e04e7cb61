"""Paired hostbench runs of a base revision against the working tree.

A perf change is judged by alternating runs of its parent and of the
change with identical benchmark settings.  This script runs them:

    python tools/bench_pairs.py --workload smallcalls --pairs 10
    python tools/bench_pairs.py --workload star3d --pairs 5 --base HEAD~1

Each run is ``benchmarks/host/run.py --workload W --trace 0 --seed S``
at the benchmark's own run length, in a checkout of its own: the base
revision (default ``HEAD``) is exported with ``git archive`` into a
temporary directory that is deleted afterwards, the change side is the
working tree as it stands.  Pair ``k`` uses seed ``FIRST_SEED + k``,
and the side that runs first alternates; one more pair runs on
``UNSEEN_SEED``, a seed no pair uses.  Nothing under
``benchmarks/host`` is changed.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median [q1, q3] over the seeded pairs, how many pairs the change won
and the verdict of :func:`verdict`, then the unseen pair.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("benchmarks", "host", "run.py")
#: one run.py call: three worker processes of at most 150 s each
RUN_TIMEOUT_S = 600
#: seed of the first pair; pair ``k`` uses ``FIRST_SEED + k``
FIRST_SEED = 1
#: seed of the extra pair, above any pair count in use
UNSEEN_SEED = 9001


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, the quantiles ``run.py`` reports."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[str, int]:
    """Judge one metric over paired runs; returns ``(verdict, wins)``.

    ``base[k]`` and ``change[k]`` are pair ``k``; ``better`` is
    ``lower`` or ``higher``; ``bound`` the relative worsening
    ``BENCHMARK.json`` allows.  ``wins`` counts the pairs the change
    read better (ties count for neither side).  The verdict is

    - ``gain`` when the change won at least nine tenths of the pairs
      and the medians differ, in its favour, by more than the distance
      between the base's quartiles;
    - else ``unresolved`` when either side's quartile spread, relative
      to its median, exceeds ``bound`` and not every change run reads
      better than every base run;
    - else ``worse`` when the change's median is worse than the base's
      by more than ``bound``;
    - else ``within bound``.
    """
    if len(base) != len(change) or not base:
        raise ValueError("verdict needs equally many runs per side, >= 1")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    if wins * 10 >= 9 * len(base) and sign * (b_med - c_med) > b_q3 - b_q1:
        return "gain", wins
    spread = max((b_q3 - b_q1) / abs(b_med or 1.0),
                 (c_q3 - c_q1) / abs(c_med or 1.0))
    separated = (max(change) < min(base) if better == "lower"
                 else min(change) > max(base))
    if spread > bound and not separated:
        return "unresolved", wins
    if sign * (c_med - b_med) / abs(b_med or 1.0) > bound:
        return "worse", wins
    return "within bound", wins


def export(rev: str, dest: str) -> None:
    """The tree of ``rev`` (committed files only) under ``dest``."""
    archive = os.path.join(dest, "base.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                    "-o", archive, rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "tree"))
    os.remove(archive)


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One ``run.py --trace 0`` call; its last line is the contract."""
    cmd = [sys.executable, os.path.join(checkout, RUNNER),
           "--workload", workload, "--trace", "0", "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode} "
                           "with no output")
    contract = json.loads(lines[-1])
    return {"seed": seed, "correct": contract["correct"],
            "attempted": contract["attempted"],
            "failed": contract["failed"],
            "metrics": {name: m["value"]
                        for name, m in contract["metrics"].items()}}


def run_pairs(base_tree: str, workload: str,
              seeds: Sequence[int]) -> List[Dict[str, dict]]:
    """One ``{"base": run, "change": run}`` per seed, alternating
    which side runs first."""
    pairs = []
    for k, seed in enumerate(seeds):
        order = [("base", base_tree), ("change", ROOT)]
        if k % 2:
            order.reverse()
        pair = {side: run_once(tree, workload, seed)
                for side, tree in order}
        op_s = {side: run["metrics"].get("op_s", float("nan"))
                for side, run in pair.items()}
        print(f"  {workload} seed {seed}: base op_s={op_s['base']:.6g}, "
              f"change op_s={op_s['change']:.6g}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def report(workload: str, pairs: List[Dict[str, dict]],
           unseen: Dict[str, dict], spec: dict) -> None:
    """The table of one workload."""
    print(f"{workload}: {len(pairs)} pairs + unseen seed "
          f"{unseen['base']['seed']}")
    print(f"  {'metric':<12}{'base median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'wins':>7}  {'verdict':<13}"
          "  unseen base -> change")
    for m in spec["end_to_end"]:
        name = m["name"]
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        text, wins = verdict(base, change, m["better"], m["bound"])
        cells = []
        for values in (base, change):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        ub = unseen["base"]["metrics"][name]
        uc = unseen["change"]["metrics"][name]
        print(f"  {name:<12}{cells[0]:>34}{cells[1]:>34}"
              f"{wins:>4}/{len(pairs):<2}  {text:<13}"
              f"  {ub:.4g} -> {uc:.4g}")
    for side in ("base", "change"):
        runs = [p[side] for p in pairs] + [unseen[side]]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"  {side}: {failed}/{attempted} ops failed, "
              f"{wrong} run(s) not correct")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True,
                    help="workload to pair (repeatable)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="seeded pairs per workload (default 10)")
    ap.add_argument("--base", default="HEAD",
                    help="base revision (default HEAD)")
    args = ap.parse_args(argv)
    if not 1 <= args.pairs < UNSEEN_SEED - FIRST_SEED:
        ap.error(f"--pairs must be in [1, {UNSEEN_SEED - FIRST_SEED})")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = range(FIRST_SEED, FIRST_SEED + args.pairs)

    work = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        export(args.base, work)
        base_tree = os.path.join(work, "tree")
        for workload in args.workload:
            pairs = run_pairs(base_tree, workload, seeds)
            (unseen,) = run_pairs(base_tree, workload, [UNSEEN_SEED])
            report(workload, pairs, unseen, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
