"""Integration tests: distributed execution == serial reference.

This is the core correctness guarantee of the communication library
(Fig. 6): the distributed result must match the single-node serial
reference exactly, for every combination of stencil shape, boundary
condition, MPI grid and exchanger strategy.
"""

import numpy as np
import pytest

from repro.backend.numpy_backend import reference_run
from repro.frontend import build_benchmark
from repro.backend.pipeline_exec import distributed_pipeline_run
from repro.ir import Kernel, SpNode, StagePipeline, Stencil, VarExpr
from repro.runtime.executor import distributed_run


@pytest.mark.parametrize("mpi_grid", [(2, 1, 1), (1, 2, 2), (2, 2, 2),
                                      (3, 1, 2)])
def test_3d_star_grids(rng, mpi_grid):
    prog, _ = build_benchmark("3d7pt_star", grid=(12, 12, 12),
                              boundary="periodic")
    init = [rng.random((12, 12, 12)) for _ in range(2)]
    ref = reference_run(prog.ir, init, 4, boundary="periodic")
    got = distributed_run(prog.ir, init, 4, mpi_grid, boundary="periodic")
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("boundary", ["zero", "periodic"])
@pytest.mark.parametrize("name", ["2d9pt_box", "2d9pt_star"])
def test_2d_shapes_and_boundaries(rng, name, boundary):
    prog, _ = build_benchmark(name, grid=(20, 24), boundary=boundary)
    init = [rng.random((20, 24)) for _ in range(2)]
    ref = reference_run(prog.ir, init, 5, boundary=boundary)
    got = distributed_run(prog.ir, init, 5, (2, 3), boundary=boundary)
    np.testing.assert_array_equal(got, ref)


def test_wide_halo_high_order(rng):
    # radius-4 star: multi-cell halo strips
    prog, _ = build_benchmark("3d25pt_star", grid=(16, 16, 16),
                              boundary="periodic")
    init = [rng.random((16, 16, 16)) for _ in range(2)]
    ref = reference_run(prog.ir, init, 3, boundary="periodic")
    got = distributed_run(prog.ir, init, 3, (2, 2, 1),
                          boundary="periodic")
    np.testing.assert_array_equal(got, ref)


def test_uneven_decomposition(rng):
    prog, _ = build_benchmark("2d9pt_star", grid=(23, 19), boundary="zero")
    init = [rng.random((23, 19)) for _ in range(2)]
    ref = reference_run(prog.ir, init, 4, boundary="zero")
    got = distributed_run(prog.ir, init, 4, (3, 2), boundary="zero")
    np.testing.assert_array_equal(got, ref)


def test_master_exchanger_equivalent(rng):
    prog, _ = build_benchmark("2d9pt_box", grid=(16, 16),
                              boundary="periodic")
    init = [rng.random((16, 16)) for _ in range(2)]
    got_async = distributed_run(prog.ir, init, 3, (2, 2),
                                boundary="periodic", exchanger="async")
    got_master = distributed_run(prog.ir, init, 3, (2, 2),
                                 boundary="periodic", exchanger="master")
    np.testing.assert_array_equal(got_async, got_master)


def test_single_rank_degenerates_to_serial(rng):
    prog, _ = build_benchmark("3d7pt_star", grid=(10, 10, 10))
    init = [rng.random((10, 10, 10)) for _ in range(2)]
    ref = reference_run(prog.ir, init, 3)
    got = distributed_run(prog.ir, init, 3, (1, 1, 1))
    np.testing.assert_array_equal(got, ref)


def test_auxiliary_tensor_scattered(rng):
    B = SpNode("B", (12, 12), halo=(1, 1), time_window=2)
    C = SpNode("C", (12, 12), halo=(1, 1), time_window=2)
    j, i = VarExpr("j"), VarExpr("i")
    kern = Kernel(
        "varcoef", (j, i),
        C[j, i] * (B[j, i - 1] + B[j, i + 1] + B[j - 1, i] + B[j + 1, i])
        + 0.5 * B[j, i],
    )
    st = Stencil(B, kern[Stencil.t - 1])
    init = [rng.random((12, 12))]
    coef = rng.random((12, 12))
    ref = reference_run(st, init, 3, boundary="periodic",
                        inputs={"C": coef})
    got = distributed_run(st, init, 3, (2, 2), boundary="periodic",
                          inputs={"C": coef})
    np.testing.assert_array_equal(got, ref)


def test_missing_aux_input_rejected(rng):
    B = SpNode("B", (8, 8), halo=(1, 1), time_window=2)
    C = SpNode("C", (8, 8), halo=(1, 1), time_window=2)
    j, i = VarExpr("j"), VarExpr("i")
    kern = Kernel("k", (j, i), B[j, i] * C[j, i])
    st = Stencil(B, kern[Stencil.t - 1])
    with pytest.raises(ValueError, match="missing data"):
        distributed_run(st, [rng.random((8, 8))], 1, (2, 2))


def test_grid_rank_mismatch():
    prog, _ = build_benchmark("3d7pt_star", grid=(8, 8, 8))
    with pytest.raises(ValueError, match="-D"):
        distributed_run(prog.ir, [np.zeros((8, 8, 8))] * 2, 1, (2, 2))


def test_subdomain_narrower_than_halo_rejected():
    prog, _ = build_benchmark("3d25pt_star", grid=(12, 12, 12))
    with pytest.raises(ValueError, match="narrower"):
        distributed_run(prog.ir, [np.zeros((12, 12, 12))] * 2, 1,
                        (4, 1, 1))


def test_wrong_init_plane_count():
    prog, _ = build_benchmark("3d7pt_star", grid=(8, 8, 8))
    with pytest.raises(ValueError, match="initial planes"):
        distributed_run(prog.ir, [np.zeros((8, 8, 8))], 1, (2, 1, 1))


@pytest.mark.parametrize("entry", ["stencil", "pipeline"])
def test_inputs_validated_before_any_rank_starts(entry, rng):
    """Both distributed entry points share one up-front validation."""
    B = SpNode("B", (8, 8), halo=(1, 1), time_window=3)
    C = SpNode("C", (8, 8), halo=(1, 1), time_window=2)
    j, i = VarExpr("j"), VarExpr("i")
    kern = Kernel("k", (j, i), 0.5 * B[j, i] * C[j, i] + B[j, i - 1])
    t = Stencil.t
    st = Stencil(B, 0.5 * kern[t - 1] + 0.5 * kern[t - 2])
    good = [rng.random((8, 8)) for _ in range(2)]
    coef = {"C": rng.random((8, 8))}

    def run(init, grid=(2, 2), inputs=coef):
        if entry == "stencil":
            return distributed_run(st, init, 1, grid, inputs=inputs)
        return distributed_pipeline_run(
            StagePipeline((st,)), {"B": init} if init else {}, 1, grid,
            inputs=inputs,
        )["B"]

    assert run(good).shape == (8, 8)
    with pytest.raises(ValueError, match="'B' needs 2 initial planes.*got 0"):
        run([])
    with pytest.raises(ValueError, match="'B' needs 2 initial planes.*got 1"):
        run(good[:1])
    with pytest.raises(ValueError, match=r"seed plane of 'B' has shape \(8, 7\)"):
        run([good[0], rng.random((8, 7))])
    with pytest.raises(ValueError, match="missing data for auxiliary"):
        run(good, inputs=None)
    with pytest.raises(ValueError, match=r"input 'C' has shape \(4, 4\)"):
        run(good, inputs={"C": np.zeros((4, 4))})
    with pytest.raises(ValueError, match="-D"):
        run(good, grid=(2, 2, 1))


def test_subdomain_narrower_than_halo_rejected_for_pipelines():
    prog, _ = build_benchmark("3d25pt_star", grid=(12, 12, 12))
    with pytest.raises(ValueError, match="narrower than halo"):
        distributed_pipeline_run(
            StagePipeline((prog.ir,)), {"B": [np.zeros((12, 12, 12))] * 2},
            1, (4, 1, 1),
        )


def test_many_timesteps_window_recycling(rng):
    # runs long enough that every window slot is recycled several times
    prog, _ = build_benchmark("2d9pt_star", grid=(16, 16),
                              boundary="periodic")
    init = [rng.random((16, 16)) for _ in range(2)]
    ref = reference_run(prog.ir, init, 12, boundary="periodic")
    got = distributed_run(prog.ir, init, 12, (2, 2), boundary="periodic")
    np.testing.assert_array_equal(got, ref)
