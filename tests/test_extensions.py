"""Tests for the Sec. 5.6 extensions: temporal tiling, streaming
pipeline, and the inspector-executor."""

import numpy as np
import pytest

from repro.backend.numpy_backend import reference_run
from repro.backend.temporal_exec import TemporalTilingExecutor
from repro.evalsuite.harness import build_with_schedule
from repro.frontend import build_benchmark
from repro.inspector import (
    ExecutionOutcome,
    Inspector,
    WorkloadMap,
    decompose_weighted,
    execute_plan,
    hotspot_weights,
    ocean_land_mask,
    weighted_cuts,
)
from repro.machine import SPMAllocationError, simulate_streaming
from repro.schedule import TemporalTilePlan, plan_temporal_tiles


class TestTemporalTilePlan:
    def test_extension_is_time_block_times_radius(self, stencil_3d7pt_2dep):
        plan = plan_temporal_tiles(stencil_3d7pt_2dep, (8, 8, 8), 3)
        assert plan.extension == (3, 3, 3)
        assert plan.gathered_shape == (14, 14, 14)

    def test_validity_shrinks_linearly(self, stencil_3d7pt_2dep):
        plan = plan_temporal_tiles(stencil_3d7pt_2dep, (8, 8, 8), 3)
        assert plan.valid_margin_after(0) == (3, 3, 3)
        assert plan.valid_margin_after(3) == (0, 0, 0)
        with pytest.raises(ValueError):
            plan.valid_margin_after(4)

    def test_redundancy_grows_with_depth(self, stencil_3d7pt_2dep):
        shallow = plan_temporal_tiles(stencil_3d7pt_2dep, (8, 8, 8), 1)
        deep = plan_temporal_tiles(stencil_3d7pt_2dep, (8, 8, 8), 4)
        assert shallow.redundancy == 1.0
        assert deep.redundancy > shallow.redundancy

    def test_redundancy_shrinks_with_tile_size(self, stencil_3d7pt_2dep):
        small = plan_temporal_tiles(stencil_3d7pt_2dep, (4, 4, 4), 2)
        large = plan_temporal_tiles(stencil_3d7pt_2dep, (16, 16, 16), 2)
        assert large.redundancy < small.redundancy

    def test_exchanges_saved(self, stencil_3d7pt_2dep):
        plan = plan_temporal_tiles(stencil_3d7pt_2dep, (8, 8, 8), 4)
        assert plan.exchanges_saved() == 3

    def test_invalid_args(self, stencil_3d7pt_2dep):
        with pytest.raises(ValueError):
            plan_temporal_tiles(stencil_3d7pt_2dep, (8, 8, 8), 0)
        with pytest.raises(ValueError):
            plan_temporal_tiles(stencil_3d7pt_2dep, (32, 8, 8), 1)


class TestTemporalExecutor:
    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    @pytest.mark.parametrize("time_block", [1, 2, 3])
    def test_matches_reference(self, rng, boundary, time_block):
        prog, _ = build_benchmark("3d7pt_star", grid=(12, 12, 12),
                                  boundary=boundary)
        init = [rng.random((12, 12, 12)) for _ in range(2)]
        blocks = 2
        ref = reference_run(prog.ir, init, blocks * time_block,
                            boundary=boundary)
        ex = TemporalTilingExecutor(prog.ir, (6, 6, 6), time_block,
                                    boundary=boundary)
        got = ex.run(init, blocks)
        assert got.tobytes() == ref.tobytes()

    def test_box_stencil_corners_handled(self, rng):
        prog, _ = build_benchmark("2d9pt_box", grid=(20, 16),
                                  boundary="periodic")
        init = [rng.random((20, 16)) for _ in range(2)]
        ref = reference_run(prog.ir, init, 4, boundary="periodic")
        got = TemporalTilingExecutor(
            prog.ir, (10, 8), 2, boundary="periodic"
        ).run(init, 2)
        assert got.tobytes() == ref.tobytes()

    def test_wide_radius(self, rng):
        prog, _ = build_benchmark("3d13pt_star", grid=(14, 14, 14),
                                  boundary="zero")
        init = [rng.random((14, 14, 14)) for _ in range(2)]
        ref = reference_run(prog.ir, init, 4, boundary="zero")
        got = TemporalTilingExecutor(
            prog.ir, (7, 7, 7), 2, boundary="zero"
        ).run(init, 2)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_negative_zero_seed(self, boundary):
        """An all ``-0.0`` history steps to ``+0.0``, as the
        accumulator-into-zeros reference computes ``0 + 0.6*K``."""
        prog, _ = build_benchmark("2d9pt_star", grid=(12, 15),
                                  boundary=boundary)
        init = [np.full((12, 15), -0.0)] * 2
        ref = reference_run(prog.ir, init, 2, boundary=boundary)
        got = TemporalTilingExecutor(
            prog.ir, (5, 6), 2, boundary=boundary
        ).run(init, 1)
        assert got.tobytes() == ref.tobytes()

    def test_computed_points_tracked(self, rng):
        """Each of the ``time_block`` steps computes the whole gathered
        block of every tile, rim included."""
        prog, _ = build_benchmark("2d9pt_star", grid=(16, 16),
                                  boundary="periodic")
        init = [rng.random((16, 16)) for _ in range(2)]
        ex = TemporalTilingExecutor(prog.ir, (8, 8), 2,
                                    boundary="periodic")
        ex.run(init, 1)
        gathered = 4 * (8 + 2 * 2 * 2) ** 2  # 4 tiles, extension 2·2
        assert ex.computed_points == 2 * gathered
        assert ex.computed_points > 16 * 16 * 2  # redundancy is real

    def test_reflect_rejected(self):
        prog, _ = build_benchmark("2d9pt_star", grid=(16, 16))
        with pytest.raises(ValueError):
            TemporalTilingExecutor(prog.ir, (8, 8), 2,
                                   boundary="reflect")


class TestStreamingPipeline:
    def test_overlap_speedup_at_least_one(self):
        prog, handle = build_with_schedule("3d7pt_star", "sunway")
        report = simulate_streaming(prog.ir, handle.schedule)
        assert report.overlap_speedup >= 1.0
        assert report.dma_bound  # 3d7pt is memory-bound

    def test_double_buffer_capacity_enforced(self):
        prog, handle = build_with_schedule("3d13pt_star", "sunway")
        with pytest.raises(SPMAllocationError):
            simulate_streaming(prog.ir, handle.schedule)

    def test_compute_heavy_gains_more(self):
        lo_p, lo_h = build_with_schedule("3d7pt_star", "sunway")
        hi_p, hi_h = build_with_schedule("2d169pt_box", "sunway")
        lo = simulate_streaming(lo_p.ir, lo_h.schedule)
        hi = simulate_streaming(hi_p.ir, hi_h.schedule)
        assert hi.overlap_speedup > lo.overlap_speedup


class TestWorkload:
    def test_imbalance_of_uniform_weights_is_one(self):
        from repro.comm import decompose

        w = WorkloadMap(np.ones((16, 16)))
        subs = decompose((16, 16), (2, 2))
        assert w.imbalance(subs) == pytest.approx(1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            WorkloadMap(np.array([[-1.0, 1.0]]))

    def test_zero_map_rejected(self):
        with pytest.raises(ValueError):
            WorkloadMap(np.zeros((4, 4)))

    def test_hotspot_and_ocean_generators(self):
        h = hotspot_weights((12, 12), factor=4.0)
        assert h.max() == 4.0 and h.min() == 1.0
        o = ocean_land_mask((24, 24), land_fraction=0.4)
        assert 0.2 < (o < 1.0).mean() < 0.6


class TestWeightedCuts:
    def test_equal_weights_give_balanced_cuts(self):
        cuts = weighted_cuts(np.ones(12), 3)
        assert cuts == [(0, 4), (4, 8), (8, 12)]

    def test_skewed_weights_shift_cuts(self):
        marginal = np.array([10.0] * 4 + [1.0] * 12)
        cuts = weighted_cuts(marginal, 2)
        assert cuts[0][1] < 8  # heavy prefix gets fewer cells

    def test_every_part_nonempty_under_concentration(self):
        marginal = np.zeros(10)
        marginal[0] = 100.0
        cuts = weighted_cuts(marginal, 4)
        assert all(hi > lo for lo, hi in cuts)
        assert cuts[-1][1] == 10

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            weighted_cuts(np.ones(3), 4)


class TestInspectorExecutor:
    def _setup(self, rng):
        shape = (24, 24)
        prog, _ = build_benchmark("2d9pt_star", grid=shape,
                                  boundary="periodic")
        w = WorkloadMap(hotspot_weights(shape, factor=8.0))
        return prog, w, [rng.random(shape) for _ in range(2)]

    def test_balancing_reduces_imbalance(self, rng):
        prog, w, _ = self._setup(rng)
        plan = Inspector(prog.ir, w).inspect((2, 2))
        assert plan.imbalance_after < plan.imbalance_before
        assert plan.projected_speedup > 1.2

    def test_balanced_run_matches_reference(self, rng):
        prog, w, init = self._setup(rng)
        plan = Inspector(prog.ir, w).inspect((2, 2))
        outcome = execute_plan(prog.ir, plan, w, init, 4,
                               boundary="periodic")
        ref = reference_run(prog.ir, init, 4, boundary="periodic")
        np.testing.assert_array_equal(outcome.result, ref)
        assert outcome.speedup > 1.0

    def test_decompose_weighted_partitions(self, rng):
        w = WorkloadMap(hotspot_weights((20, 20), factor=5.0))
        subs = decompose_weighted((20, 20), (2, 2), w)
        seen = np.zeros((20, 20), dtype=int)
        for sd in subs:
            seen[sd.slices()] += 1
        assert (seen == 1).all()

    def test_per_rank_tiles_fit_subdomains(self, rng):
        prog, w, _ = self._setup(rng)
        plan = Inspector(prog.ir, w).inspect((2, 2))
        for sd in plan.balanced:
            tile = plan.tile_per_rank[sd.rank]
            assert all(t <= s for t, s in zip(tile, sd.shape))

    def test_workload_shape_mismatch_rejected(self, rng):
        prog, _, _ = self._setup(rng)
        with pytest.raises(ValueError, match="does not match"):
            Inspector(prog.ir, WorkloadMap(np.ones((8, 8))))

    def test_3d_inspection(self, rng):
        shape = (12, 12, 12)
        prog, _ = build_benchmark("3d7pt_star", grid=shape,
                                  boundary="zero")
        w = WorkloadMap(hotspot_weights(shape, factor=6.0))
        plan = Inspector(prog.ir, w).inspect((2, 2, 1))
        init = [rng.random(shape) for _ in range(2)]
        outcome = execute_plan(prog.ir, plan, w, init, 3,
                               boundary="zero")
        ref = reference_run(prog.ir, init, 3, boundary="zero")
        np.testing.assert_array_equal(outcome.result, ref)
