"""Tests for the executable numpy backend (reference + scheduled)."""

import numpy as np
import pytest

from repro.backend.numpy_backend import (
    BOUNDARY_CONDITIONS,
    ScheduledExecutor,
    evaluate_kernel,
    fill_halo,
    reference_run,
)
from repro.ir import Kernel, SpNode, Stencil, VarExpr, f32, f64
from repro.schedule import Schedule
from tests.conftest import make_2d5pt, make_3d7pt


class TestFillHalo:
    def test_zero(self):
        p = np.ones((6, 6))
        fill_halo(p, (1, 1), "zero")
        assert p[0].sum() == 0 and p[-1].sum() == 0
        assert p[:, 0].sum() == 0 and p[:, -1].sum() == 0
        assert p[1:-1, 1:-1].sum() == 16

    def test_periodic_wraps(self):
        p = np.zeros((6, 6))
        p[1:5, 1:5] = np.arange(16).reshape(4, 4)
        fill_halo(p, (1, 1), "periodic")
        assert (p[0, 1:5] == p[4, 1:5]).all()
        assert (p[5, 1:5] == p[1, 1:5]).all()
        assert (p[1:5, 0] == p[1:5, 4]).all()

    def test_reflect_mirrors(self):
        p = np.zeros((1, 8))
        p[0, 2:6] = [1, 2, 3, 4]
        fill_halo(p, (0, 2), "reflect")
        assert list(p[0, :2]) == [2, 1]
        assert list(p[0, 6:]) == [4, 3]

    def test_unknown_boundary(self):
        with pytest.raises(ValueError, match="unknown boundary"):
            fill_halo(np.zeros((4, 4)), (1, 1), "dirichlet")

    def test_zero_halo_noop(self):
        p = np.ones((4, 4))
        fill_halo(p, (0, 0), "zero")
        assert p.sum() == 16


class TestEvaluateKernel:
    def test_matches_manual_computation(self):
        tensor, kern = make_2d5pt(shape=(4, 4))
        padded = np.zeros((6, 6))
        rng = np.random.default_rng(0)
        padded[1:5, 1:5] = rng.random((4, 4))
        out = evaluate_kernel(
            kern, {("A", 0): padded}, {"A": (1, 1)}
        )
        expected = (
            0.5 * padded[1:5, 1:5]
            + 0.125 * (padded[1:5, 0:4] + padded[1:5, 2:6]
                       + padded[0:4, 1:5] + padded[2:6, 1:5])
        )
        np.testing.assert_allclose(out, expected)

    def test_region_restriction(self):
        tensor, kern = make_2d5pt(shape=(4, 4))
        padded = np.ones((6, 6))
        out = evaluate_kernel(
            kern, {("A", 0): padded}, {"A": (1, 1)},
            region=[(1, 3), (0, 2)],
        )
        assert out.shape == (2, 2)

    def test_missing_plane_reported(self):
        _, kern = make_2d5pt()
        with pytest.raises(KeyError, match="no plane bound"):
            evaluate_kernel(kern, {}, {"A": (1, 1)}, region=[(0, 2), (0, 2)])

    def test_out_of_halo_region_rejected(self):
        _, kern = make_2d5pt(shape=(4, 4))
        padded = np.zeros((6, 6))
        with pytest.raises(IndexError, match="halo"):
            evaluate_kernel(
                kern, {("A", 0): padded}, {"A": (0, 0)},
                region=[(0, 4), (0, 4)],
            )


class TestReferenceRun:
    def test_single_step_matches_naive_loops(self, rng):
        tensor, kern = make_2d5pt(shape=(5, 7))
        st = Stencil(tensor, kern[Stencil.t - 1])
        a0 = rng.random((5, 7))
        got = reference_run(st, [a0], 1, boundary="zero")
        pad = np.zeros((7, 9))
        pad[1:6, 1:8] = a0
        exp = np.zeros((5, 7))
        for j in range(5):
            for i in range(7):
                exp[j, i] = 0.5 * pad[j + 1, i + 1] + 0.125 * (
                    pad[j + 1, i] + pad[j + 1, i + 2]
                    + pad[j, i + 1] + pad[j + 2, i + 1]
                )
        np.testing.assert_allclose(got, exp, rtol=1e-14)

    def test_two_time_dependencies(self, rng, stencil_3d7pt_2dep):
        st = stencil_3d7pt_2dep
        init = [rng.random((16, 16, 16)) for _ in range(2)]
        out = reference_run(st, init, 3, boundary="periodic")
        assert out.shape == (16, 16, 16)
        assert np.isfinite(out).all()

    def test_zero_steps_returns_newest_init(self, rng, stencil_3d7pt_2dep):
        init = [rng.random((16, 16, 16)) for _ in range(2)]
        out = reference_run(stencil_3d7pt_2dep, init, 0)
        np.testing.assert_array_equal(out, init[1])

    def test_wrong_init_count(self, stencil_3d7pt_2dep):
        with pytest.raises(ValueError, match="initial plane"):
            reference_run(stencil_3d7pt_2dep, [np.zeros((16, 16, 16))], 1)

    def test_missing_aux_input_reported(self, rng):
        B = SpNode("B", (8, 8), halo=(1, 1), time_window=2)
        C = SpNode("C", (8, 8), halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("k", (j, i), B[j, i] * C[j, i])
        st = Stencil(B, kern[Stencil.t - 1])
        with pytest.raises(ValueError, match="auxiliary"):
            reference_run(st, [rng.random((8, 8))], 1)

    def test_aux_input_used(self, rng):
        B = SpNode("B", (8, 8), halo=(1, 1), time_window=2)
        C = SpNode("C", (8, 8), halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("k", (j, i), B[j, i] * C[j, i])
        st = Stencil(B, kern[Stencil.t - 1])
        b0 = rng.random((8, 8))
        coef = rng.random((8, 8))
        out = reference_run(st, [b0], 1, inputs={"C": coef})
        np.testing.assert_allclose(out, b0 * coef, rtol=1e-14)


class TestScheduledExecutor:
    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_matches_reference(self, rng, stencil_3d7pt_2dep, boundary):
        st = stencil_3d7pt_2dep
        kern = st.kernels[0]
        sched = Schedule(kern)
        sched.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        sched.reorder("xo", "yo", "zo", "xi", "yi", "zi")
        sched.parallel("xo", 4)
        init = [rng.random((16, 16, 16)) for _ in range(2)]
        ref = reference_run(st, init, 5, boundary=boundary)
        ex = ScheduledExecutor(st, {kern.name: sched}, boundary=boundary)
        got = ex.run(init, 5)
        np.testing.assert_array_equal(got, ref)

    def test_odd_tile_sizes_still_exact(self, rng):
        tensor, kern = make_3d7pt(shape=(13, 11, 17))
        st = Stencil(tensor, 0.7 * kern[Stencil.t - 1]
                     + 0.3 * kern[Stencil.t - 2])
        sched = Schedule(kern).tile(5, 3, 7, "a", "b", "c", "d", "e", "f")
        init = [rng.random((13, 11, 17)) for _ in range(2)]
        ref = reference_run(st, init, 4, boundary="periodic")
        got = ScheduledExecutor(
            st, {kern.name: sched}, boundary="periodic"
        ).run(init, 4)
        np.testing.assert_array_equal(got, ref)

    def test_step_before_initialize_raises(self, stencil_3d7pt_2dep):
        ex = ScheduledExecutor(stencil_3d7pt_2dep, {})
        with pytest.raises(RuntimeError, match="initialize"):
            ex.step()

    def test_result_before_run_raises(self, stencil_3d7pt_2dep):
        ex = ScheduledExecutor(stencil_3d7pt_2dep, {})
        with pytest.raises(RuntimeError):
            ex.result()

    def test_default_schedule_for_unlisted_kernels(self, rng,
                                                   stencil_3d7pt_2dep):
        ex = ScheduledExecutor(stencil_3d7pt_2dep, {})
        init = [rng.random((16, 16, 16)) for _ in range(2)]
        out = ex.run(init, 2)
        ref = reference_run(stencil_3d7pt_2dep, init, 2)
        np.testing.assert_array_equal(out, ref)
