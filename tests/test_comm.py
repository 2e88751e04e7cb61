"""Tests for the communication library: decomposition, halo geometry,
packing, exchangers and the plugin registry (Sec. 4.4, Fig. 6)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    EXCHANGE_MODES,
    AsyncHaloExchanger,
    BufferPool,
    DiagHaloExchanger,
    HaloExchanger,
    HaloSpec,
    MasterCoordinatedExchanger,
    OverlapHaloExchanger,
    available_exchangers,
    core_owned_regions,
    create_exchanger,
    decompose,
    diag_regions,
    get_exchanger,
    halo_regions,
    owner_of,
    pack,
    pack_many,
    partition_regions,
    register_exchanger,
    suggest_grid,
    unpack,
    unpack_many,
)
from repro.runtime.executor import _overlap_split
from repro.runtime.simmpi import CartComm, _World, run_ranks


class TestDecompose:
    def test_even_split(self):
        subs = decompose((8, 8), (2, 2))
        assert len(subs) == 4
        assert all(sd.shape == (4, 4) for sd in subs)

    def test_uneven_split_balanced(self):
        subs = decompose((10,), (3,))
        sizes = [sd.shape[0] for sd in subs]
        assert sizes == [4, 3, 3]
        assert sum(sizes) == 10

    def test_cover_exactly_once(self):
        subs = decompose((7, 9, 5), (2, 3, 1))
        seen = np.zeros((7, 9, 5), dtype=int)
        for sd in subs:
            seen[sd.slices()] += 1
        assert (seen == 1).all()

    def test_rank_order_row_major(self):
        subs = decompose((4, 4), (2, 2))
        assert [sd.coords for sd in subs] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]

    def test_owner_of(self):
        subs = decompose((8, 8), (2, 2))
        assert owner_of((0, 0), subs) == 0
        assert owner_of((7, 7), subs) == 3
        with pytest.raises(ValueError):
            owner_of((8, 0), subs)

    def test_too_many_procs_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            decompose((4,), (8,))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decompose((4, 4), (2,))


class TestSuggestGrid:
    def test_product_matches(self):
        for n in (1, 2, 6, 12, 28, 64, 128):
            grid = suggest_grid(n, 3)
            assert np.prod(grid) == n

    def test_prefers_large_dims(self):
        grid = suggest_grid(8, 2, global_shape=(1024, 16))
        assert grid[0] >= grid[1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            suggest_grid(0, 2)


class TestHaloGeometry:
    def test_padded_shape(self):
        spec = HaloSpec((8, 8), (2, 1))
        assert spec.padded_shape == (12, 10)

    def test_regions_two_per_dimension(self):
        spec = HaloSpec((8, 8), (1, 1))
        regions = halo_regions(spec)
        assert len(regions) == 4
        assert {(r.dim, r.direction) for r in regions} == {
            (0, -1), (0, 1), (1, -1), (1, 1)
        }

    def test_zero_halo_dim_skipped(self):
        spec = HaloSpec((8, 8), (0, 1))
        regions = halo_regions(spec)
        assert {r.dim for r in regions} == {1}

    def test_send_strips_inside_valid_recv_outside(self):
        # Along its own exchange dimension, the send strip must lie
        # within the valid band [h, h+s) and the recv strip in the
        # ghost band; other dimensions span the full padded extent (so
        # corners propagate across phases).
        spec = HaloSpec((8, 8), (2, 2))
        for region in halo_regions(spec):
            d, h, s = region.dim, spec.halo[region.dim], spec.sub_shape[region.dim]
            lo, hi, _ = region.send[d].indices(spec.padded_shape[d])
            assert h <= lo and hi <= h + s
            rlo, rhi, _ = region.recv[d].indices(spec.padded_shape[d])
            assert rhi <= h or rlo >= h + s

    def test_halo_wider_than_domain_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            HaloSpec((2, 8), (3, 1))

    def test_partition_fig6(self):
        # Fig. 6b: inner region ∪ inner halo = valid region; outer halo
        # disjoint from valid
        spec = HaloSpec((8, 8), (1, 1))
        inner, inner_strips, outer_strips = partition_regions(spec)
        mask = np.zeros(spec.padded_shape, dtype=int)
        mask[inner] += 1
        for s in inner_strips:
            mask[s] += 1
        valid = np.zeros(spec.padded_shape, dtype=bool)
        valid[spec.interior()] = True
        assert (mask[valid] >= 1).all()
        assert (mask[~valid] == 0).all()
        for s in outer_strips:
            assert not valid[s].any()


class TestPacking:
    def test_roundtrip(self, rng):
        plane = rng.random((6, 6))
        strip = (slice(1, 3), slice(0, 6))
        buf = pack(plane, strip)
        target = np.zeros((6, 6))
        unpack(buf, target, strip)
        np.testing.assert_array_equal(target[strip], plane[strip])

    def test_pack_into_provided_buffer(self, rng):
        plane = rng.random((4, 4))
        out = np.zeros(8)
        buf = pack(plane, (slice(0, 2), slice(0, 4)), out)
        assert buf is out

    def test_size_mismatch(self, rng):
        plane = rng.random((4, 4))
        with pytest.raises(ValueError):
            pack(plane, (slice(0, 2), slice(0, 4)), np.zeros(4))
        with pytest.raises(ValueError):
            unpack(np.zeros(4), plane, (slice(0, 4), slice(0, 4)))

    def test_buffer_pool_reuses(self):
        pool = BufferPool()
        a = pool.get(100, np.float64, tag="x")
        b = pool.get(100, np.float64, tag="x")
        c = pool.get(100, np.float64, tag="y")
        assert a is b and a is not c
        assert len(pool) == 2
        assert pool.nbytes == 1600


def _exchange_world(exchanger_name, boundary, dims=(2, 2), halo=(1, 1),
                    sub=(4, 4)):
    """Each rank fills its interior with its rank id, exchanges, and
    returns the ghost values it received."""
    periods = tuple(boundary == "periodic" for _ in dims)

    def main(comm):
        spec = HaloSpec(sub, halo)
        ex = create_exchanger(exchanger_name, comm, spec)
        plane = np.zeros(spec.padded_shape)
        plane[spec.interior()] = float(comm.rank)
        ex.exchange(plane)
        up, down = comm.Shift(0, 1)
        left, right = comm.Shift(1, 1)
        h = halo[0]
        return {
            "up": plane[0, h] if up >= 0 else None,
            "down": plane[-1, h] if down >= 0 else None,
            "left": plane[h, 0] if left >= 0 else None,
            "right": plane[h, -1] if right >= 0 else None,
            "corner": plane[0, 0],
            "messages": ex.messages,
        }

    nprocs = int(np.prod(dims))
    return run_ranks(nprocs, main, cart_dims=dims, periods=periods)


#: per-step message count on a periodic 2x2 world: the staged modes
#: send 2 per dimension; diag/overlap coalesce the 8 neighbour offsets
#: into one message per *distinct* peer (3 on a 2x2 torus)
_WORLD_MESSAGES = {"async": 4, "master": 4, "diag": 3, "overlap": 3}


@pytest.mark.parametrize("name", ["async", "master", "diag", "overlap"])
class TestExchangers:
    def test_face_values_from_neighbours(self, name):
        res = _exchange_world(name, "periodic")
        # rank 0 at (0,0) in a periodic 2x2: up neighbour is rank 2,
        # left neighbour is rank 1
        assert res[0]["up"] == 2.0
        assert res[0]["down"] == 2.0
        assert res[0]["left"] == 1.0
        assert res[0]["right"] == 1.0

    def test_corner_propagated_via_dimension_phases(self, name):
        res = _exchange_world(name, "periodic")
        # rank 0's (0,0) corner ghost holds the diagonal neighbour (rank 3)
        assert res[0]["corner"] == 3.0

    def test_nonperiodic_edges_not_received(self, name):
        res = _exchange_world(name, "zero")
        assert res[0]["up"] is None and res[0]["left"] is None
        assert res[0]["down"] == 2.0 and res[0]["right"] == 1.0

    def test_message_count(self, name):
        res = _exchange_world(name, "periodic")
        assert res[0]["messages"] == _WORLD_MESSAGES[name]

    def test_wrong_plane_shape_rejected(self, name):
        def main(comm):
            spec = HaloSpec((4, 4), (1, 1))
            ex = create_exchanger(name, comm, spec)
            ex.exchange(np.zeros((4, 4)))

        from repro.runtime.simmpi import SimMPIError

        with pytest.raises(SimMPIError, match="padded"):
            run_ranks(4, main, cart_dims=(2, 2))


class TestRegistry:
    def test_builtins_available(self):
        assert set(available_exchangers()) >= {"async", "master"}
        assert get_exchanger("async") is AsyncHaloExchanger
        assert get_exchanger("master") is MasterCoordinatedExchanger

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown exchanger"):
            get_exchanger("rdma")

    def test_plugin_registration(self):
        class MyExchanger(AsyncHaloExchanger):
            pass

        register_exchanger("custom-gcl", MyExchanger)
        try:
            assert get_exchanger("custom-gcl") is MyExchanger
            with pytest.raises(ValueError, match="already registered"):
                register_exchanger("custom-gcl", MyExchanger)
            register_exchanger("custom-gcl", AsyncHaloExchanger,
                               replace=True)
        finally:
            from repro.comm import library

            library._REGISTRY.pop("custom-gcl", None)

    def test_non_exchanger_rejected(self):
        with pytest.raises(TypeError):
            register_exchanger("bad", dict)


class TestTrafficCounters:
    """Satellite: exact message/byte accounting on the exchangers."""

    @staticmethod
    def _run_async_2d():
        """Periodic 2x2 grid, sub (4,4), halo (1,1), fp64."""
        def main(comm):
            spec = HaloSpec((4, 4), (1, 1))
            ex = AsyncHaloExchanger(comm, spec)
            plane = np.zeros(spec.padded_shape)
            ex.exchange(plane)
            return ex

        return run_ranks(4, main, cart_dims=(2, 2),
                         periods=(True, True))

    def test_exact_counts_2d_async(self):
        # Each strip spans the full padded extent in the other
        # dimension: 1 x (4+2) = 6 float64 = 48 bytes per message;
        # 2 dims x 2 directions = 4 messages per rank.
        exchangers = self._run_async_2d()
        for ex in exchangers:
            assert ex.messages == 4
            assert ex.bytes_sent == 4 * 6 * 8
        assert sum(ex.messages for ex in exchangers) == 16
        assert sum(ex.bytes_sent for ex in exchangers) == 16 * 48

    def test_reset_counters(self):
        for ex in self._run_async_2d():
            assert ex.messages > 0 and ex.bytes_sent > 0
            ex.reset_counters()
            assert ex.messages == 0 and ex.bytes_sent == 0

    def test_nonperiodic_boundary_sends_fewer(self):
        # on a non-periodic 2x2 every rank is a corner: one neighbour
        # per dimension instead of two
        def main(comm):
            spec = HaloSpec((4, 4), (1, 1))
            ex = AsyncHaloExchanger(comm, spec)
            ex.exchange(np.zeros(spec.padded_shape))
            return (ex.messages, ex.bytes_sent)

        res = run_ranks(4, main, cart_dims=(2, 2),
                        periods=(False, False))
        assert all(m == 2 and b == 2 * 48 for m, b in res)

    def test_counters_mirrored_into_metrics_registry(self):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            exchangers = self._run_async_2d()
        finally:
            obs.disable()
        reg = obs.registry()
        try:
            assert reg.counter_total("comm.messages") == 16
            assert reg.counter_total("comm.bytes_sent") == 16 * 48
            # labeled per rank and per dimension
            assert reg.counter_value("comm.messages", rank=0) == 4
            assert reg.counter_value(
                "comm.bytes_sent", rank=0, dim=0
            ) == 2 * 48
            del exchangers
        finally:
            obs.reset()

    def test_master_strategy_counts_routing_header(self):
        # the master exchanger ships 2 routing slots with each strip
        def main(comm):
            spec = HaloSpec((4, 4), (1, 1))
            ex = MasterCoordinatedExchanger(comm, spec)
            ex.exchange(np.zeros(spec.padded_shape))
            return (ex.messages, ex.bytes_sent)

        res = run_ranks(4, main, cart_dims=(2, 2),
                        periods=(True, True))
        assert all(m == 4 for m, _ in res)
        assert all(b == 4 * (6 + 2) * 8 for _, b in res)


class TestDiagGeometry:
    """Direct-neighbour (diag) block geometry for the coalesced mode."""

    def test_all_offsets_present_2d(self):
        spec = HaloSpec((4, 4), (1, 1))
        regions = diag_regions(spec)
        assert len(regions) == 8  # 3^2 - 1
        assert {r.offset for r in regions} == {
            (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
            if (a, b) != (0, 0)
        }

    def test_zero_halo_dim_pinned(self):
        spec = HaloSpec((4, 4), (0, 1))
        regions = diag_regions(spec)
        assert {r.offset for r in regions} == {(0, -1), (0, 1)}

    def test_recv_blocks_tile_ghost_frame_exactly_once(self):
        # unlike the staged strips, diag recv blocks must cover every
        # ghost cell exactly once (no relaying through phases)
        spec = HaloSpec((4, 5), (2, 1))
        mask = np.zeros(spec.padded_shape, dtype=int)
        for r in diag_regions(spec):
            mask[r.recv] += 1
        interior = np.zeros(spec.padded_shape, dtype=bool)
        interior[spec.interior()] = True
        assert (mask[interior] == 0).all()
        assert (mask[~interior] == 1).all()

    def test_send_blocks_inside_valid_region(self):
        spec = HaloSpec((4, 5), (2, 1))
        valid = np.zeros(spec.padded_shape, dtype=bool)
        valid[spec.interior()] = True
        for r in diag_regions(spec):
            assert valid[r.send].all()

    def test_send_recv_counts_match(self):
        spec = HaloSpec((6, 4, 5), (1, 2, 1))
        plane_shape = spec.padded_shape
        for r in diag_regions(spec):
            send_n = int(np.zeros(plane_shape)[r.send].size)
            recv_n = int(np.zeros(plane_shape)[r.recv].size)
            assert send_n == recv_n == r.count(plane_shape)

    def test_3d_counts(self):
        spec = HaloSpec((4, 4, 4), (1, 1, 1))
        assert len(diag_regions(spec)) == 26  # 3^3 - 1


class TestCoreOwnedRegions:
    """CORE/OWNED split used by the overlap mode."""

    @staticmethod
    def _cover(sub_shape, width):
        core, owned = core_owned_regions(sub_shape, width)
        mask = np.zeros(sub_shape, dtype=int)
        if core is not None:
            mask[tuple(slice(lo, hi) for lo, hi in core)] += 1
        for box in owned:
            mask[tuple(slice(lo, hi) for lo, hi in box)] += 1
        return core, owned, mask

    def test_exact_tiling_2d(self):
        core, owned, mask = self._cover((6, 8), (1, 1))
        assert core == [(1, 5), (1, 7)]
        assert (mask == 1).all()

    def test_exact_tiling_3d_mixed_width(self):
        _, _, mask = self._cover((5, 6, 7), (2, 0, 1))
        assert (mask == 1).all()

    def test_zero_width_all_core(self):
        core, owned, mask = self._cover((4, 4), (0, 0))
        assert core == [(0, 4), (0, 4)]
        assert owned == []
        assert (mask == 1).all()

    def test_degenerate_no_core(self):
        # width >= half the extent: the shell swallows the interior
        core, owned, mask = self._cover((2, 4), (1, 1))
        assert core is None
        assert (mask == 1).all()

    def test_owned_boxes_disjoint(self):
        _, owned, _ = self._cover((8, 8, 8), (1, 1, 1))
        seen = np.zeros((8, 8, 8), dtype=int)
        for box in owned:
            seen[tuple(slice(lo, hi) for lo, hi in box)] += 1
        assert seen.max() == 1


    def test_width_per_side(self):
        core, owned, mask = self._cover((6, 8), ((0, 2), (1, 0)))
        assert core == [(0, 4), (1, 8)]
        assert owned == [[(4, 6), (0, 8)], [(0, 4), (0, 1)]]
        assert (mask == 1).all()


@st.composite
def rank_blocks(draw):
    """A rank of a cart grid (extent-1 periodic dimensions and global
    edges included), its block shape and a stage radius."""
    ndim = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=ndim,
                               max_size=ndim)))
    periods = tuple(draw(st.lists(st.booleans(), min_size=ndim,
                                  max_size=ndim)))
    radius = tuple(draw(st.lists(st.integers(0, 3), min_size=ndim,
                                 max_size=ndim)))
    shape = tuple(draw(st.integers(max(r, 1), r + 6)) for r in radius)
    rank = draw(st.integers(0, int(np.prod(dims)) - 1))
    return CartComm(_World(int(np.prod(dims))), rank, dims, periods), \
        shape, radius


class TestOverlapSplit:
    """The rank's CORE/OWNED split: shells only where ghosts come from
    another rank, and CORE never reads one of those."""

    @settings(max_examples=300)
    @given(case=rank_blocks())
    def test_core_reads_no_ghost_in_flight_and_the_split_tiles(self, case):
        comm, shape, radius = case
        core, owned = _overlap_split(comm, shape, radius)
        mask = np.zeros(shape, dtype=int)
        for box in ([core] if core else []) + owned:
            mask[tuple(slice(lo, hi) for lo, hi in box)] += 1
        assert (mask == 1).all()
        if core is None:
            return
        # the ghost sides CORE's footprint reaches, per dimension
        reach = [
            [0] + ([-1] if lo - r < 0 else []) + ([+1] if hi - 1 + r >= n
                                                   else [])
            for (lo, hi), r, n in zip(core, radius, shape)
        ]
        coords = comm.Get_coords(comm.rank)
        for offset in itertools.product(*reach):
            if not any(offset):
                continue
            owner = [c + o for c, o in zip(coords, offset)]
            if any(not p and not 0 <= c < n
                   for c, p, n in zip(owner, comm.periods, comm.dims)):
                continue  # a global edge: filled, not exchanged
            assert comm.Get_cart_rank(owner) == comm.rank, (
                f"CORE {core} reads the ghost block at {offset}, which "
                "comes from another rank")

    def test_periodic_1x2_splits_only_the_remote_dimension(self):
        comm = CartComm(_World(2), 0, (1, 2), (True, True))
        core, owned = _overlap_split(comm, (256, 128), (2, 2))
        assert core == [(0, 256), (2, 126)]
        assert owned == [[(0, 256), (0, 2)], [(0, 256), (126, 128)]]


class TestManyStripPacking:
    def test_roundtrip(self, rng):
        plane = rng.random((6, 6))
        strips = [(slice(0, 1), slice(1, 5)), (slice(5, 6), slice(1, 5)),
                  (slice(0, 1), slice(0, 1))]
        buf = pack_many(plane, strips)
        assert buf.size == 4 + 4 + 1
        target = np.zeros_like(plane)
        unpack_many(buf, target, strips)
        for s in strips:
            np.testing.assert_array_equal(target[s], plane[s])

    def test_pack_into_oversized_buffer(self, rng):
        plane = rng.random((4, 4))
        strips = [(slice(0, 1), slice(0, 4))]
        out = np.zeros(16)
        buf = pack_many(plane, strips, out)
        assert buf is out
        np.testing.assert_array_equal(out[:4], plane[0, :4])

    def test_undersized_buffer_rejected(self, rng):
        plane = rng.random((4, 4))
        strips = [(slice(0, 2), slice(0, 4))]
        with pytest.raises(ValueError):
            pack_many(plane, strips, np.zeros(4))
        with pytest.raises(ValueError):
            unpack_many(np.zeros(4), plane, strips)


class TestExchangeModeContracts:
    """Counter contracts of the exchange-mode axis (ISSUE satellites):
    diag must beat basic on messages, and the zero-copy fast path must
    never touch the staging pool."""

    @staticmethod
    def _run_mode(mode, periods=(True, True)):
        def main(comm):
            spec = HaloSpec((4, 4), (1, 1))
            ex = AsyncHaloExchanger(comm, spec, mode=mode)
            plane = np.zeros(spec.padded_shape)
            plane[spec.interior()] = float(comm.rank)
            ex.exchange(plane)
            return (ex.messages, ex.bytes_sent, ex.pool.nbytes)

        return run_ranks(4, main, cart_dims=(2, 2), periods=periods)

    def test_modes_registered(self):
        assert EXCHANGE_MODES == ("basic", "diag", "overlap")
        assert set(available_exchangers()) >= {
            "async", "diag", "overlap", "master"
        }
        assert get_exchanger("diag") is DiagHaloExchanger
        assert get_exchanger("overlap") is OverlapHaloExchanger

    def test_unknown_mode_rejected(self):
        from repro.runtime.simmpi import SimMPIError

        def main(comm):
            AsyncHaloExchanger(comm, HaloSpec((4, 4), (1, 1)),
                               mode="warp")

        with pytest.raises(SimMPIError, match="unknown exchange mode"):
            run_ranks(1, main, cart_dims=(1, 1))

    def test_diag_sends_fewer_messages_than_basic(self):
        # periodic 2x2, sub (4,4), halo (1,1), fp64: basic sends 4
        # messages of 6 elements (strips span the padded extent so
        # corners relay); diag sends one coalesced message per distinct
        # peer: 3 messages carrying 4+4+4+4+1x4=20 elements total
        basic = self._run_mode("basic")
        diag = self._run_mode("diag")
        for (bm, bb, _), (dm, db, _) in zip(basic, diag):
            assert bm == 4 and bb == 4 * 6 * 8
            assert dm == 3 and db == 20 * 8
            assert dm < bm and db < bb

    def test_clean_fast_path_never_touches_pool(self):
        # zero-copy contract: on a fault-free world the staging pool
        # stays empty in every mode
        for mode in EXCHANGE_MODES:
            for _, _, pool_bytes in self._run_mode(mode):
                assert pool_bytes == 0, mode

    def test_resilient_path_stages_through_pool(self):
        def main(comm):
            spec = HaloSpec((4, 4), (1, 1))
            ex = AsyncHaloExchanger(comm, spec)
            plane = np.zeros(spec.padded_shape)
            ex.exchange(plane)
            return ex.pool.nbytes

        res = run_ranks(4, main, cart_dims=(2, 2),
                        periods=(True, True), faults="drop:p=0.2")
        assert all(nbytes > 0 for nbytes in res)

    def test_reset_counters_zeroes_retries(self):
        # regression: reset_counters() used to leave the resilience
        # retry counter behind
        def main(comm):
            spec = HaloSpec((4, 4), (1, 1))
            ex = AsyncHaloExchanger(comm, spec)
            plane = np.zeros(spec.padded_shape)
            ex.exchange(plane)
            return ex

        res = run_ranks(4, main, cart_dims=(2, 2),
                        periods=(True, True), faults="drop:p=0.4")
        assert sum(ex.retries for ex in res) > 0
        for ex in res:
            ex.reset_counters()
            assert ex.messages == 0 and ex.bytes_sent == 0
            assert ex.retries == 0


class TestSelfCopies:
    """A rank that is its own neighbour (a periodic dimension of extent
    1) copies those ghost strips locally: they are not wire messages,
    so they are neither counted nor exposed to injected faults."""

    @pytest.mark.parametrize("faults", [None, "drop:p=0.3"],
                             ids=["clean", "drop"])
    @pytest.mark.parametrize("mode", EXCHANGE_MODES)
    def test_periodic_1x2_counts_wire_traffic_only(self, mode, faults):
        sub, halo = (4, 6), (2, 2)
        whole = np.arange(4 * 12, dtype=float).reshape(4, 12)
        wrapped = np.pad(whole, [(h, h) for h in halo], mode="wrap")

        def main(comm):
            spec = HaloSpec(sub, halo)
            ex = AsyncHaloExchanger(comm, spec, mode=mode)
            plane = np.full(spec.padded_shape, -1.0)
            first = comm.rank * sub[1]
            plane[spec.interior()] = whole[:, first:first + sub[1]]
            for _ in range(3):
                ex.exchange(plane)
            want = wrapped[:, first:first + sub[1] + 2 * halo[1]]
            return (plane.tobytes() == want.tobytes(), ex.messages,
                    ex.bytes_sent, sorted(comm._world.traffic))

        for ghosts_right, messages, sent, pairs in run_ranks(
                2, main, cart_dims=(1, 2), periods=(True, True),
                faults=faults):
            assert ghosts_right
            # per exchange: basic sends both dim-1 faces (8 x 2 cells
            # each), diag one coalesced message of the same 32 cells;
            # dimension 0 is a local copy in every mode
            assert messages == 3 * (2 if mode == "basic" else 1)
            assert sent == 3 * 32 * 8
            assert pairs == [(0, 1), (1, 0)]


class TestPerExchangeInvariants:
    """What depends on geometry and topology only is worked out once
    per exchanger, not per exchange."""

    def test_transfers_are_built_once_and_carry_their_counts(self):
        def main(comm):
            spec = HaloSpec((4, 6), (1, 2))
            plane = np.empty(spec.padded_shape)
            ex = AsyncHaloExchanger(comm, spec)
            phases = [ex._phase_transfers(d) for d in range(2)]
            again = [ex._phase_transfers(d) for d in range(2)]
            diag = ex._diag_transfers()
            counts = [
                (tr.send_count, tr.recv_count,
                 sum(plane[s].size for s in tr.send_strips),
                 sum(plane[s].size for s in tr.recv_strips))
                for tr in phases[0] + phases[1] + diag
            ]
            return (all(a is b for a, b in zip(phases, again)),
                    diag is ex._diag_transfers(), counts)

        for same_phases, same_diag, counts in run_ranks(
                4, main, cart_dims=(2, 2), periods=(True, True)):
            assert same_phases and same_diag
            assert counts
            for send_count, recv_count, sent, received in counts:
                assert (send_count, recv_count) == (sent, received)

    @pytest.mark.parametrize("periods,expected", [
        ((True, True), 0), ((False, False), 2), ((False, True), 1)])
    def test_edge_ghosts_are_the_neighbourless_strips(self, periods,
                                                      expected):
        def main(comm):
            spec = HaloSpec((4, 4), (1, 1))
            ex = AsyncHaloExchanger(comm, spec)
            want = [r.recv for r in ex.regions if ex._neighbour(r) < 0]
            return ex.edge_ghosts == want, len(ex.edge_ghosts)

        for matches, count in run_ranks(4, main, cart_dims=(2, 2),
                                        periods=periods):
            # on a 2x2 grid every rank sits on one edge per open dim
            assert matches and count == expected

    def test_recycled_plane_ghosts_cleared_on_open_edges(self):
        """A zero-boundary distributed run over more steps than the
        window holds planes: stale ghosts on the global edge would
        leak into the result."""
        from repro.backend.numpy_backend import reference_run
        from repro.frontend.stencils import build_benchmark
        from repro.runtime.executor import distributed_run

        prog, _ = build_benchmark("2d9pt_box", grid=(16, 16))
        rng = np.random.default_rng(8)
        init = [rng.random((16, 16)) for _ in range(2)]
        ref = reference_run(prog.ir, init, 7, "zero")
        for mode in EXCHANGE_MODES:
            got = distributed_run(prog.ir, init, 7, (2, 2),
                                  exchange_mode=mode)
            assert got.tobytes() == ref.tobytes(), mode
