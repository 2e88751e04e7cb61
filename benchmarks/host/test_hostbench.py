"""Checks of the benchmark itself.

Run with ``pytest benchmarks/host``; the tier-1 suite (``testpaths =
tests``) does not collect this file.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.backend.native import native_available  # noqa: E402

if not native_available():
    pytest.skip("hostbench needs a C compiler", allow_module_level=True)

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder, Span, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_meets_the_contract_and_matches_the_code(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/host"]
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.workloads()]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_quick_run_reports_every_metric_for_every_workload(spec, tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert doc == json.loads(proc.stdout.splitlines()[-1])
    assert doc["quick"] is True and doc["claim"] is None
    assert list(doc["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in doc["workloads"].items():
        for part in ("end_to_end", "per_layer"):
            res = entry[part]
            assert res["correct"] and res["failed"] == 0, (name, part)
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[part]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            assert got == want, (name, part)
            for metric, m in res["metrics"].items():
                assert np.isfinite(m["value"]), (name, metric)
                assert f"{name} {metric} " in proc.stdout
        for metric in ("setup_s", "op_s", "op_tail_s", "mpts_per_s",
                       "peak_rss_mb"):
            assert entry["end_to_end"]["metrics"][metric]["value"] > 0
        assert os.path.isfile(
            os.path.join(ROOT, entry["per_layer"]["trace_file"]))
    hits = {n: e["per_layer"]["metrics"]["backend.native.cache_hit_frac"]
            for n, e in doc["workloads"].items()}
    assert hits["coldbuild"]["value"] == 0.0
    assert all(v["value"] == 1.0 for n, v in hits.items()
               if n != "coldbuild")


def test_coldbuild_draw_is_seeded():
    draw = workloads.draw_programs(1)
    assert draw == workloads.draw_programs(1)
    assert draw != workloads.draw_programs(2)
    assert len(draw) == len(set(draw)) == 128
    benches = [bench for bench, _ in draw]
    assert benches[:8] * 16 == benches  # round-robin over Table 4
    for bench, grid in draw:
        lo, hi = (40, 152) if len(grid) == 2 else (16, 40)
        assert all(lo <= e <= hi and e % 8 == 0 for e in grid)


def test_corrupted_result_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_LEDGER", "0")
    w = workloads.workload_by_name("smallcalls")
    w.setup(1)

    def op(i):
        results = w.op(i)
        if i == 2:  # flip the lowest mantissa bit of one point
            results[0].view(np.uint64)[3, 3] ^= 1
        if i == 4:
            raise RuntimeError("boom")
        return results

    ops = worker.closed_loop(w, op, 0.001, round_ops=6)
    assert len(ops) == 6
    assert worker.failed_ops(w, ops) == [2, 4]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = worker.tail(list(range(64)))
    assert value == 53 and sum(s > value for s in range(64)) == 10
    assert int(pct) == 84
    assert worker.tail(list(range(19))) == (18, 100.0)


def test_self_time_subtracts_the_union_of_children():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    inner, outer = rec.spans
    assert inner.parent == outer.sid
    spans = [Span(1, "run", 0.0, 10.0, None, 0, "op"),
             Span(2, "rank0", 1.0, 6.0, 1, 0, "op"),
             Span(3, "rank1", 4.0, 8.0, 1, 0, "op")]
    assert self_times(spans) == {1: 3.0, 2: 5.0, 3: 4.0}


def _doc(op_s, failed=0, spread=None):
    metrics = {m: {"value": 1.0, "unit": "x"} for m in
               ("setup_s", "op_tail_s", "mpts_per_s", "peak_rss_mb")}
    metrics["op_s"] = {"value": op_s, "unit": "s"}
    if spread is not None:
        metrics["op_s"]["spread"] = spread
    return {"quick": False, "seconds": 12, "workloads": {"w": {
        "end_to_end": {"attempted": 10, "failed": failed,
                       "metrics": metrics}}}}


def test_compare_applies_the_bounds(spec, tmp_path, capsys):
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "op_s")
    paths = {}
    for key, doc in {
        "base": _doc(1.0), "same": _doc(1.0 + bound / 2),
        "worse": _doc(1.0 + 2 * bound), "failing": _doc(1.0, failed=1),
        "noisy": _doc(1.0 + 2 * bound, spread=bound * 1.5),
    }.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(doc, fh)
    assert run.compare(paths["base"], paths["same"], spec) == 0
    assert run.compare(paths["base"], paths["worse"], spec) == 1
    assert " worse" in capsys.readouterr().out
    assert run.compare(paths["base"], paths["failing"], spec) == 1
    assert run.compare(paths["base"], paths["noisy"], spec) == 0
    assert "unresolved" in capsys.readouterr().out
