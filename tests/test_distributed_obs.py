"""Distributed-run telemetry: rank-scoped spans/metrics, message-flow
edges, the merged-timeline validation, the critical-path extractor and
the load-imbalance report (``repro.obs.distributed``)."""

import json

import numpy as np
import pytest

from repro import obs
from repro.comm.exchange import AsyncHaloExchanger
from repro.comm.halo import HaloSpec
from repro.obs import capture, registry, span, tracer
from repro.obs.distributed import (
    DistributedTrace,
    extract_critical_path,
    format_by_rank,
    format_critical_path,
    imbalance_report,
)
from repro.obs.export import export_chrome, trace_to_dict
from repro.runtime.simmpi import run_ranks


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _exchange_main(steps=2, sub=(16, 16)):
    def main(comm):
        spec = HaloSpec(sub_shape=sub, halo=(1, 1))
        ex = AsyncHaloExchanger(comm, spec)
        plane = np.full(spec.padded_shape, float(comm.rank))
        for _ in range(steps):
            ex.exchange(plane)
        return comm.gather(float(plane.sum()))

    return main


def _captured_exchange(nprocs=4, dims=(2, 2), steps=2):
    with capture() as (tr, reg):
        run_ranks(nprocs, _exchange_main(steps), cart_dims=dims,
                  periods=(True,) * len(dims))
    return tr, reg


def _span(sid, name, start, dur, thread="MainThread", parent=None,
          **attrs):
    return {
        "span_id": sid, "parent_id": parent, "name": name,
        "start_s": start, "duration_s": dur, "thread": thread,
        "attrs": attrs,
    }


class TestRankScoping:
    def test_rank_threads_tag_every_span(self):
        tr, _ = _captured_exchange()
        ranked = [s for s in tr.records
                  if s.thread.startswith("simmpi-rank-")]
        assert ranked
        for s in ranked:
            expected = int(s.thread.rsplit("-", 1)[1])
            assert s.attrs.get("rank") == expected, s.name

    def test_explicit_rank_attr_wins_over_scope(self):
        obs.enable()
        with tracer().scope(rank=1):
            with span("x", rank=2):
                pass
        assert tracer().records[-1].attrs["rank"] == 2

    def test_scope_nests_and_restores(self):
        obs.enable()
        with tracer().scope(rank=0, tier="a"):
            with tracer().scope(rank=1):
                with span("inner"):
                    pass
            with span("outer"):
                pass
        with span("bare"):
            pass
        by_name = {s.name: s.attrs for s in tracer().records}
        assert by_name["inner"] == {"rank": 1, "tier": "a"}
        assert by_name["outer"] == {"rank": 0, "tier": "a"}
        assert by_name["bare"] == {}

    def test_metrics_scope_labels_series(self):
        reg = registry()
        reg.enable()
        with reg.scope(rank=3):
            reg.counter("m.hits", 2)
            reg.counter("m.hits", 1, rank=5)  # explicit wins
        assert reg.counter_value("m.hits", rank=3) == 2
        assert reg.counter_value("m.hits", rank=5) == 1

    def test_counter_by_label_sums_across_series(self):
        reg = registry()
        reg.enable()
        reg.counter("m.bytes", 10, rank=0, dim=0)
        reg.counter("m.bytes", 5, rank=0, dim=1)
        reg.counter("m.bytes", 7, rank=1, dim=0)
        reg.counter("m.other", 99, rank=0)
        assert reg.counter_by_label("m.bytes", "rank") == {0: 15, 1: 7}

    def test_per_rank_metric_series_from_run(self):
        _, reg = _captured_exchange()
        by_rank = reg.counter_by_label("comm.bytes_sent", "rank")
        assert sorted(by_rank) == [0, 1, 2, 3]
        assert all(v > 0 for v in by_rank.values())


class TestFlowStamping:
    def test_every_halo_message_has_matched_flow(self):
        tr, reg = _captured_exchange()
        dt = DistributedTrace.from_live(tr, reg)
        assert dt.validate() == []
        assert not dt.orphan_in
        assert not dt.dangling_out  # clean fabric drops nothing
        # 2 steps x 4 ranks x 4 strips + 3 gather payloads
        assert len(dt.edges) == 2 * 4 * 4 + 3

    def test_flow_id_format(self):
        tr, reg = _captured_exchange()
        dt = DistributedTrace.from_live(tr, reg)
        for fid in dt.producers:
            src, rest = fid.split(">")
            dst, rest = rest.split(":")
            tag, seq = rest.split("#")
            assert int(src) in range(4) and int(dst) in range(4)
            assert int(tag) >= 0 and int(seq) >= 0

    def test_send_flows_land_on_send_spans(self):
        tr, reg = _captured_exchange()
        dt = DistributedTrace.from_live(tr, reg)
        names = {dt.by_id[e.src_span]["name"] for e in dt.edges}
        assert "comm.send" in names
        # the fast path consumes inside the wait span
        dst_names = {dt.by_id[e.dst_span]["name"] for e in dt.edges}
        assert "comm.wait" in dst_names

    def test_no_flow_tracking_while_disabled(self):
        run_ranks(4, _exchange_main(steps=1), cart_dims=(2, 2),
                  periods=(True, True))
        assert tracer().records == []

    def test_reliable_messages_untracked(self):
        import numpy as np

        def main(comm):
            buf = np.zeros(4)
            with span("app.send"):
                if comm.rank == 0:
                    comm.Send(buf, dest=1, tag=9, reliable=True)
            with span("app.recv"):
                if comm.rank == 1:
                    comm.Recv(buf, source=0, tag=9)

        with capture() as (tr, _):
            run_ranks(2, main)
        for s in tr.records:
            assert "flows_out" not in s.attrs
            assert "flows_in" not in s.attrs


class TestValidation:
    def test_orphan_inbound_is_malformed(self):
        dt = DistributedTrace([
            _span(1, "a", 0.0, 1.0, flows_in=["0>1:5#0"]),
        ])
        problems = dt.validate()
        assert any("orphan inbound" in p for p in problems)

    def test_dangling_outbound_is_legal(self):
        dt = DistributedTrace([
            _span(1, "a", 0.0, 1.0, flows_out=["0>1:5#0"]),
        ])
        assert dt.validate() == []
        assert dt.dangling_out == ["0>1:5#0"]

    def test_duplicate_producer_is_malformed(self):
        dt = DistributedTrace([
            _span(1, "a", 0.0, 1.0, flows_out=["0>1:5#0"]),
            _span(2, "b", 1.0, 1.0, flows_out=["0>1:5#0"]),
        ])
        assert any("more than one span" in p for p in dt.validate())

    def test_duplicate_consumer_is_legal(self):
        # an injected duplicate delivers one physical copy twice
        dt = DistributedTrace([
            _span(1, "a", 0.0, 1.0, flows_out=["0>1:5#0"]),
            _span(2, "b", 1.0, 1.0, flows_in=["0>1:5#0"]),
            _span(3, "c", 2.0, 1.0, flows_in=["0>1:5#0"]),
        ])
        assert dt.validate() == []
        assert len(dt.edges) == 2

    def test_dangling_parent_is_malformed(self):
        dt = DistributedTrace([_span(1, "a", 0.0, 1.0, parent=99)])
        assert any("dangling parent" in p for p in dt.validate())

    def test_real_run_is_well_formed(self):
        tr, reg = _captured_exchange()
        assert DistributedTrace.from_live(tr, reg).validate() == []


class TestCriticalPath:
    def test_synthetic_two_rank_chain(self):
        # rank 0: work(0-1) then send(1-2); rank 1: wait(0.5-3)
        # consuming the flow -> the chain crosses ranks once
        dt = DistributedTrace([
            _span(1, "runtime.kernel_eval", 0.0, 1.0,
                  thread="simmpi-rank-0", rank=0),
            _span(2, "comm.send", 1.0, 1.0, thread="simmpi-rank-0",
                  rank=0, flows_out=["0>1:5#0"]),
            _span(3, "comm.wait", 0.5, 2.5, thread="simmpi-rank-1",
                  rank=1, flows_in=["0>1:5#0"]),
        ])
        cp = extract_critical_path(dt)
        assert cp.chain_spans == 3
        assert cp.chain_crossings == 1
        assert cp.flow_edges == 1
        assert cp.crossings == 1
        assert cp.total_s == pytest.approx(3.0)
        # the wait span is credited only with the post-send stretch
        names = [(seg.name, seg.contribution_s) for seg in cp.segments]
        assert ("comm.wait", pytest.approx(1.0)) in [
            (n, c) for n, c in names
        ]
        flow_segs = [s for s in cp.segments if s.edge == "flow"]
        assert len(flow_segs) == 1
        assert flow_segs[0].flow_id == "0>1:5#0"

    def test_real_2x2_path_crosses_ranks(self):
        tr, reg = _captured_exchange()
        dt = DistributedTrace.from_live(tr, reg)
        cp = extract_critical_path(dt)
        assert cp.flow_edges > 0
        assert cp.chain_crossings >= 1
        assert cp.crossings >= 1
        path_ranks = {seg.rank for seg in cp.segments
                      if seg.rank is not None}
        assert len(path_ranks) >= 2

    def test_phase_times_sum_to_total(self):
        tr, reg = _captured_exchange()
        cp = extract_critical_path(DistributedTrace.from_live(tr, reg))
        assert sum(cp.phase_times.values()) == pytest.approx(cp.total_s)

    def test_chain_stats_deterministic_across_runs(self):
        stats = []
        for _ in range(2):
            obs.reset()
            tr, reg = _captured_exchange()
            cp = extract_critical_path(
                DistributedTrace.from_live(tr, reg)
            )
            stats.append(
                (cp.chain_spans, cp.chain_crossings, cp.flow_edges)
            )
        assert stats[0] == stats[1]

    def test_empty_trace(self):
        cp = extract_critical_path(DistributedTrace([]))
        assert cp.segments == [] and cp.total_s == 0.0

    def test_cycle_in_malformed_input_does_not_hang(self):
        # two spans consuming each other's flows: the DP must skip the
        # back edge instead of recursing forever
        dt = DistributedTrace([
            _span(1, "a", 0.0, 1.0, thread="t0",
                  flows_out=["x"], flows_in=["y"]),
            _span(2, "b", 0.0, 1.0, thread="t1",
                  flows_out=["y"], flows_in=["x"]),
        ])
        cp = extract_critical_path(dt)
        assert cp.chain_spans >= 2


class TestImbalance:
    def test_per_rank_totals_cover_all_ranks(self):
        tr, reg = _captured_exchange()
        rep = imbalance_report(DistributedTrace.from_live(tr, reg))
        assert sorted(rep.per_rank) == [0, 1, 2, 3]
        assert all(rep.totals[r] > 0 for r in range(4))
        assert rep.total_skew >= 1.0

    def test_bytes_by_rank_balanced_on_periodic_grid(self):
        tr, reg = _captured_exchange()
        rep = imbalance_report(DistributedTrace.from_live(tr, reg))
        assert sorted(rep.bytes_by_rank) == [0, 1, 2, 3]
        # periodic 2x2: every rank ships identical strips
        assert rep.bytes_skew == pytest.approx(1.0)

    def test_gating_ranks_counted_per_exchange(self):
        tr, reg = _captured_exchange(steps=3)
        rep = imbalance_report(DistributedTrace.from_live(tr, reg))
        assert sum(rep.gating.values()) == 3

    def test_report_survives_json_round_trip(self):
        tr, reg = _captured_exchange()
        doc = json.loads(json.dumps(trace_to_dict(tr, reg)))
        rep = imbalance_report(DistributedTrace.from_doc(doc))
        live = imbalance_report(DistributedTrace.from_live(tr, reg))
        assert rep.bytes_by_rank == live.bytes_by_rank
        assert rep.gating == live.gating

    def test_to_dict_is_json_serialisable(self):
        tr, reg = _captured_exchange()
        dt = DistributedTrace.from_live(tr, reg)
        rep = imbalance_report(dt)
        cp = extract_critical_path(dt)
        json.dumps(rep.to_dict())
        json.dumps(cp.to_dict())


class TestFormatting:
    def test_by_rank_table(self):
        tr, reg = _captured_exchange()
        text = format_by_rank(DistributedTrace.from_live(tr, reg))
        assert "PER-RANK SUMMARY" in text
        assert "4 ranks" in text
        assert "skew" in text
        assert "bytes sent" in text

    def test_by_rank_empty(self):
        text = format_by_rank(DistributedTrace([]))
        assert "no rank-attributed spans" in text

    def test_critical_path_rendering(self):
        tr, reg = _captured_exchange()
        dt = DistributedTrace.from_live(tr, reg)
        text = format_critical_path(extract_critical_path(dt))
        assert "CRITICAL PATH" in text
        assert "<- flow" in text
        assert "phase composition:" in text


class TestChromeFlowEvents:
    def test_flow_events_pair_up(self):
        tr, reg = _captured_exchange()
        doc = json.loads(export_chrome(tr, reg))
        evs = doc["traceEvents"]
        starts = [e for e in evs if e.get("ph") == "s"]
        ends = [e for e in evs if e.get("ph") == "f"]
        assert starts and ends
        assert {e["id"] for e in ends} <= {e["id"] for e in starts}
        for e in ends:
            assert e["bp"] == "e"

    def test_flow_events_bind_inside_slices(self):
        tr, reg = _captured_exchange()
        doc = json.loads(export_chrome(tr, reg))
        evs = doc["traceEvents"]
        xs = [e for e in evs if e.get("ph") == "X"]
        for f in (e for e in evs if e.get("ph") in ("s", "f")):
            holder = [
                x for x in xs
                if x["tid"] == f["tid"]
                and x["ts"] <= f["ts"] <= x["ts"] + x["dur"]
            ]
            assert holder, f"flow event {f['id']} binds to no slice"

    def test_chrome_trace_parses_back_to_same_ranks(self, tmp_path):
        from repro.obs.export import load_trace, write_trace

        tr, reg = _captured_exchange()
        live = DistributedTrace.from_live(tr, reg)
        path = tmp_path / "t.chrome.json"
        write_trace(str(path), tr, reg)
        loaded = DistributedTrace.from_doc(load_trace(str(path)))
        assert loaded.ranks == live.ranks
        assert len(loaded.edges) == len(live.edges)
        assert loaded.validate() == []


class TestTraceToDictCompat:
    def test_trace_doc_feeds_distributed_view(self):
        tr, reg = _captured_exchange()
        dt = DistributedTrace.from_doc(trace_to_dict(tr, reg))
        assert dt.ranks == [0, 1, 2, 3]
