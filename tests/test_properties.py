"""Property-based tests (hypothesis) on core invariants.

Covers: decomposition partitions, halo-region geometry, pack/unpack
round-trips, tile coverage under arbitrary schedules, the sliding
window vs full history equivalence, SPM allocator invariants, the
expression algebra, and simmpi message delivery.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.backend.numpy_backend import ScheduledExecutor, reference_run
from repro.comm import HaloSpec, decompose, halo_regions, pack, unpack
from repro.ir import Kernel, SpNode, Stencil, VarExpr
from repro.ir.expr import ConstExpr
from repro.machine.spm import SPMAllocationError, SPMAllocator
from repro.schedule import Schedule, SlidingTimeWindow
from tests.strategies import (
    process_grids,
    seeds,
    shapes,
    tile_factors,
)


# -- decomposition ----------------------------------------------------------------
@given(
    shape=shapes(2, 4, 40),
    grid=process_grids(2, 4),
)
@settings(max_examples=60)
def test_decomposition_partitions_domain(shape, grid):
    assume(all(g <= s for g, s in zip(grid, shape)))
    subs = decompose(shape, grid)
    seen = np.zeros(shape, dtype=int)
    for sd in subs:
        seen[sd.slices()] += 1
    assert (seen == 1).all()
    # balanced: extents differ by at most one per dimension
    for d in range(2):
        sizes = {sd.shape[d] for sd in subs}
        assert max(sizes) - min(sizes) <= 1


@given(
    sub=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    halo=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
@settings(max_examples=60)
def test_halo_regions_send_recv_disjoint_and_equal_sized(sub, halo):
    assume(all(h <= s for s, h in zip(sub, halo)))
    spec = HaloSpec(sub, halo)
    plane = np.zeros(spec.padded_shape, dtype=bool)
    for region in halo_regions(spec):
        send = np.zeros_like(plane)
        recv = np.zeros_like(plane)
        send[region.send] = True
        recv[region.recv] = True
        # send and recv strips of one region never overlap
        assert not (send & recv).any()
        # both strips have the same element count (they pair up across
        # neighbouring processes)
        assert send.sum() == recv.sum() == region.count(spec.padded_shape)


@given(
    shape=st.tuples(st.integers(3, 10), st.integers(3, 10)),
    data=st.integers(0, 2 ** 31),
)
@settings(max_examples=50)
def test_pack_unpack_roundtrip(shape, data):
    rng = np.random.default_rng(data)
    plane = rng.random(shape)
    strip = (slice(1, shape[0] - 1), slice(0, shape[1]))
    buf = pack(plane, strip)
    out = np.zeros(shape)
    unpack(buf, out, strip)
    np.testing.assert_array_equal(out[strip], plane[strip])
    assert (out[0] == 0).all()


# -- schedules ---------------------------------------------------------------------
@given(
    extent=shapes(3, 4, 20),
    factors=tile_factors(3),
)
@settings(max_examples=50)
def test_tiles_cover_domain_once_for_any_factors(extent, factors):
    assume(all(f <= e for f, e in zip(factors, extent)))
    k, j, i = VarExpr("k"), VarExpr("j"), VarExpr("i")
    B = SpNode("B", extent, halo=(1, 1, 1))
    kern = Kernel("S", (k, j, i), B[k, j, i])
    sched = Schedule(kern).tile(
        *factors, "xo", "xi", "yo", "yi", "zo", "zi"
    )
    nest = sched.lower(extent)
    seen = np.zeros(extent, dtype=int)
    for tile in nest.iter_tiles():
        sl = tuple(slice(*tile.extent(v)) for v in ("k", "j", "i"))
        seen[sl] += 1
    assert (seen == 1).all()


@given(
    nworkers=st.integers(1, 9),
    factors=tile_factors(2, 1, 6),
)
@settings(max_examples=40)
def test_worker_assignment_partitions_tiles(nworkers, factors):
    j, i = VarExpr("j"), VarExpr("i")
    B = SpNode("B", (12, 12), halo=(1, 1))
    kern = Kernel("S", (j, i), B[j, i])
    nest = Schedule(kern).tile(*factors, "xo", "xi", "yo", "yi").lower(
        (12, 12)
    )
    counts = [
        sum(1 for _ in nest.tiles_for_worker(w, nworkers))
        for w in range(nworkers)
    ]
    assert sum(counts) == nest.ntiles
    assert max(counts) - min(counts) <= 1  # round-robin is balanced


# -- sliding window ------------------------------------------------------------------
@given(steps=st.integers(1, 12), window=st.integers(2, 4))
@settings(max_examples=30)
def test_window_equals_full_history(steps, window):
    """Keeping only W planes gives the same result as keeping all."""
    B = SpNode("B", (6, 6), halo=(1, 1), time_window=window)
    win = SlidingTimeWindow(B)
    rng = np.random.default_rng(steps * 7 + window)
    planes_full = [rng.random((6, 6))]
    win.seed(0, planes_full[0])
    for t in range(1, steps + 1):
        depth = min(t, window - 1)
        new = sum(
            planes_full[t - d] * (0.3 + 0.1 * d) for d in range(1, depth + 1)
        )
        planes_full.append(new)
        plane = win.advance(t)
        win.interior_view(plane)[...] = sum(
            win.valid(t - d) * (0.3 + 0.1 * d) for d in range(1, depth + 1)
        )
    np.testing.assert_allclose(
        win.valid(steps), planes_full[steps], rtol=1e-12
    )


# -- SPM allocator -----------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=12),
)
@settings(max_examples=60)
def test_spm_allocator_invariants(sizes):
    spm = SPMAllocator(16 * 1024, align=32)
    live = {}
    for idx, size in enumerate(sizes):
        name = f"b{idx}"
        try:
            block = spm.alloc(name, size)
        except SPMAllocationError:
            continue
        live[name] = block
        assert block.nbytes >= size
        assert block.offset % 32 == 0
    # no two live blocks overlap
    blocks = sorted(live.values(), key=lambda b: b.offset)
    for a, b in zip(blocks, blocks[1:]):
        assert a.end <= b.offset
    assert spm.used <= spm.capacity
    assert spm.peak <= spm.capacity


# -- expression algebra -------------------------------------------------------------
@given(
    a=st.floats(-100, 100, allow_nan=False),
    b=st.floats(-100, 100, allow_nan=False),
)
@settings(max_examples=60)
def test_constant_folding_matches_python(a, b):
    """The lowering folds a literal-only sub-tree to exactly the value
    python (hence the oracle's ``_eval``) computes for it."""
    j, i = VarExpr("j"), VarExpr("i")
    B = SpNode("B", (8, 8), halo=(1, 1), time_window=2)
    e = (ConstExpr(a) + ConstExpr(b)) * ConstExpr(2.0) - ConstExpr(a)
    program = Kernel("k", (j, i), e * B[j, i]).program
    assert program.code == (
        ("mul", (("value", (a + b) * 2.0 - a), ("slot", 0))),)


@given(
    coef=st.lists(st.floats(-1, 1, allow_nan=False, allow_infinity=False),
                  min_size=3, max_size=3),
    seed=seeds(),
)
@settings(max_examples=25)
def test_stencil_linearity(coef, seed):
    """The stencil operator is linear: S(a·x) == a·S(x)."""
    assume(any(abs(c) > 1e-6 for c in coef))
    j, i = VarExpr("j"), VarExpr("i")
    B = SpNode("B", (8, 8), halo=(1, 1), time_window=2)
    kern = Kernel(
        "lin", (j, i),
        coef[0] * B[j, i] + coef[1] * B[j, i - 1] + coef[2] * B[j + 1, i],
    )
    stencil = Stencil(B, kern[Stencil.t - 1])
    rng = np.random.default_rng(seed)
    x = rng.random((8, 8))
    y1 = reference_run(stencil, [x], 1, boundary="periodic")
    y2 = reference_run(stencil, [3.0 * x], 1, boundary="periodic")
    np.testing.assert_allclose(y2, 3.0 * y1, rtol=1e-10, atol=1e-12)


@pytest.mark.slow
@given(
    factors=tile_factors(2),
    seed=seeds(),
)
@settings(max_examples=25)
def test_schedule_never_changes_results(factors, seed):
    """Any legal tiling produces bitwise-identical results (Sec. 5.1)."""
    j, i = VarExpr("j"), VarExpr("i")
    B = SpNode("B", (10, 14), halo=(1, 1), time_window=3)
    kern = Kernel(
        "S", (j, i),
        0.3 * B[j, i] + 0.2 * (B[j, i - 1] + B[j - 1, i]),
    )
    st_ = Stencil(B, 0.7 * kern[Stencil.t - 1] + 0.3 * kern[Stencil.t - 2])
    sched = Schedule(kern).tile(
        min(factors[0], 10), min(factors[1], 14), "a", "b", "c", "d"
    )
    rng = np.random.default_rng(seed)
    init = [rng.random((10, 14)) for _ in range(2)]
    ref = reference_run(st_, init, 3, boundary="periodic")
    got = ScheduledExecutor(
        st_, {"S": sched}, boundary="periodic"
    ).run(init, 3)
    np.testing.assert_array_equal(got, ref)
