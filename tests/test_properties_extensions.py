"""Property-based tests for the extension subsystems."""

import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.backend.numpy_backend import reference_run
from repro.backend.pipeline_exec import PipelineExecutor
from repro.backend.temporal_exec import TemporalTilingExecutor
from repro.frontend import build_benchmark
from repro.inspector import WorkloadMap, decompose_weighted, weighted_cuts
from repro.ir import Kernel, SpNode, StagePipeline, Stencil, VarExpr, f64
from repro.runtime.topology import fat_tree, route_exchange, torus
from tests.strategies import (
    boundaries,
    process_grids,
    seeds,
    shapes,
    tile_factors,
)


@pytest.mark.slow
@given(
    tile=tile_factors(2, 3, 10),
    depth=st.integers(1, 3),
    seed=seeds(),
    boundary=boundaries,
)
@settings(max_examples=20)
def test_temporal_tiling_always_exact(tile, depth, seed, boundary):
    """Any tile/depth combination reproduces the reference bitwise."""
    grid = (12, 15)
    prog, _ = build_benchmark("2d9pt_star", grid=grid, boundary=boundary)
    rng = np.random.default_rng(seed)
    init = [rng.random(grid) for _ in range(2)]
    ref = reference_run(prog.ir, init, 2 * depth, boundary=boundary)
    got = TemporalTilingExecutor(
        prog.ir, tile, depth, boundary=boundary
    ).run(init, 2)
    np.testing.assert_array_equal(got, ref)


@given(
    marginal=st.lists(st.floats(0, 100, allow_nan=False),
                      min_size=4, max_size=30),
    parts=st.integers(1, 4),
)
@settings(max_examples=60)
def test_weighted_cuts_partition_and_balance(marginal, parts):
    marginal = np.asarray(marginal)
    assume(parts <= len(marginal))
    cuts = weighted_cuts(marginal, parts)
    # cuts partition [0, n) contiguously and are non-empty
    assert cuts[0][0] == 0 and cuts[-1][1] == len(marginal)
    for (a0, a1), (b0, b1) in zip(cuts, cuts[1:]):
        assert a1 == b0
    assert all(hi > lo for lo, hi in cuts)


@given(
    shape=shapes(2, 6, 24),
    grid=process_grids(2, 3),
    seed=seeds(),
)
@settings(max_examples=40)
def test_weighted_decomposition_partitions_domain(shape, grid, seed):
    assume(all(g <= s for g, s in zip(grid, shape)))
    rng = np.random.default_rng(seed)
    w = WorkloadMap(rng.random(shape) + 0.01)
    subs = decompose_weighted(shape, grid, w)
    seen = np.zeros(shape, dtype=int)
    for sd in subs:
        seen[sd.slices()] += 1
    assert (seen == 1).all()


def _averaging_chain(stages, shape):
    j, i = VarExpr("j"), VarExpr("i")
    tensors = [
        SpNode(f"T{s}", shape, f64, halo=(1, 1), time_window=2)
        for s in range(stages)
    ]
    stencils = []
    t = Stencil.t
    for s, tensor in enumerate(tensors):
        src = tensors[s - 1] if s > 0 else tensor
        kern = Kernel(
            f"avg{s}", (j, i),
            0.5 * src[j, i] + 0.25 * (src[j, i - 1] + src[j, i + 1]),
        )
        stencils.append(Stencil(tensor, kern[t - 1]))
    return StagePipeline(tuple(stencils))


#: the smoother + residual pipeline of examples/multigrid_smoother.py
_multigrid = runpy.run_path(str(
    Path(__file__).parent.parent / "examples" / "multigrid_smoother.py"
))["build_pipeline"]


@given(seed=seeds(), stages=st.integers(1, 3) | st.just("multigrid"))
@settings(max_examples=15)
def test_pipeline_stage_chain_linear(seed, stages):
    """A chain of averaging stages — or the multigrid smoother and
    residual — stays linear in its data: P(a·x) == a·P(x)."""
    shape = (10, 10)
    if stages == "multigrid":
        pipe = _multigrid(shape[0])
    else:
        pipe = _averaging_chain(stages, shape)
    rng = np.random.default_rng(seed)
    seeds = {
        name: [rng.random(shape) for _ in range(k)]
        for name, k in pipe.required_history().items()
    }
    inputs = {name: rng.random(shape) for name in pipe.aux_tensors()}

    def run(a):
        return PipelineExecutor(
            pipe, boundary="periodic",
            inputs={name: a * x for name, x in inputs.items()},
        ).run({name: [a * x for x in planes]
               for name, planes in seeds.items()}, 2)

    out1, out2 = run(1.0), run(2.5)
    for name in out1:
        np.testing.assert_allclose(
            out2[name], 2.5 * out1[name], rtol=1e-12, atol=1e-12
        )


@given(
    radix=st.integers(2, 8),
    nhosts=st.integers(4, 32),
)
@settings(max_examples=30)
def test_fat_tree_always_connected(radix, nhosts):
    import networkx as nx

    topo = fat_tree(nhosts, radix=radix)
    assert len(topo.hosts) == nhosts
    assert nx.is_connected(topo.graph)


@given(
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    pgrid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
@settings(max_examples=20)
@pytest.mark.slow
def test_routed_bytes_conserved_on_any_torus(dims, pgrid):
    """Total routed bytes equal the analytical per-process halo sum."""
    from repro.ir.analysis import halo_traffic_bytes

    nprocs = pgrid[0] * pgrid[1]
    nhosts = dims[0] * dims[1]
    assume(nprocs <= nhosts)
    grid_shape = (pgrid[0] * 8, pgrid[1] * 8)
    prog, _ = build_benchmark("2d9pt_star", grid=grid_shape)
    load = route_exchange(prog.ir, pgrid, torus(dims), periodic=True)
    sub = (grid_shape[0] // pgrid[0], grid_shape[1] // pgrid[1])
    expected = nprocs * halo_traffic_bytes(prog.ir, sub)
    if nprocs == 1:
        # self-neighbours collapse: no off-host messages
        assert load.total_bytes == 0
    else:
        # messages to self-hosted ranks are skipped when a grid dim is 1
        assert load.total_bytes <= expected
        assert load.total_bytes > 0
