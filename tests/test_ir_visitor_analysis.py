"""Unit tests for the lowering's constant fold and the Table-4 analyses."""

import pytest

from repro.ir import (
    Kernel,
    SpNode,
    Stencil,
    VarExpr,
    characterize_kernel,
    classify_shape,
    f32,
    halo_traffic_bytes,
    stencil_flops_per_point,
    total_traffic_bytes,
)
from repro.ir.expr import CallFuncExpr, ConstExpr
from tests.conftest import make_2d5pt, make_3d7pt


def _program(expr):
    j, i = VarExpr("j"), VarExpr("i")
    A = SpNode("A", (8, 8), halo=(1, 1))
    return Kernel("k", (j, i), expr * A[j, i]).program


class TestFoldConstants:
    """The one fold, in ``ir.program``: python arithmetic, at lowering."""

    def test_folds_nested(self):
        program = _program((ConstExpr(2) + ConstExpr(3)) * ConstExpr(4))
        assert program.code == (("mul", (("value", 20), ("slot", 0))),)
        assert program.unfoldable == ()

    def test_int_division_is_true_division(self):
        program = _program(ConstExpr(1) / ConstExpr(2))
        assert program.code == (("mul", (("value", 0.5), ("slot", 0))),)

    def test_known_funcs_fold_through_numpy(self):
        (_, ((_, value), _)), = _program(
            CallFuncExpr("pow", (2.0, -1)) + CallFuncExpr("sqrt", (4,))
        ).code
        assert value == 2.5

    def test_division_by_zero_raises(self):
        """Lowering records it (``ir.validate`` reports it); the fold
        raises what the oracle's ``1 / 0`` raises."""
        program = _program(ConstExpr(1) / ConstExpr(0))
        assert program.unfoldable == (
            "div(1, 0) raises ZeroDivisionError: division by zero",)
        with pytest.raises(ZeroDivisionError):
            program.fold({})

    def test_scalars_fold_once_bound(self):
        c0 = VarExpr("c0", "f64")
        program = _program(c0 * ConstExpr(2) - 1)
        assert len(program.code) == 3  # nothing to fold yet
        code, result = program.fold({"c0": 0.75})
        assert code == (("mul", (("value", 0.5), ("slot", 0))),)
        assert result == ("temp", 0)
        with pytest.raises(KeyError, match="free scalar 'c0'"):
            program.fold({})
        with pytest.raises(ZeroDivisionError):
            _program(1 / c0).fold({"c0": 0})

    def test_mixed_left_unfolded(self):
        _, kern = make_2d5pt()
        program = kern.program
        assert len(program.accesses) == 5
        assert len(program.code) == kern.flops()
        assert program.fold({}) == (program.code, program.result)


class TestCharacterize:
    def test_3d7pt_matches_table4(self):
        _, kern = make_3d7pt()
        ch = characterize_kernel(kern, time_dependencies=2)
        assert ch.read_bytes == 56  # 7 points × 8 B
        assert ch.write_bytes == 8
        assert ch.time_dependencies == 2

    def test_fp32_halves_bytes(self):
        _, kern = make_3d7pt(dtype=f32)
        ch = characterize_kernel(kern)
        assert ch.read_bytes == 28

    def test_operational_intensity(self):
        _, kern = make_3d7pt()
        ch = characterize_kernel(kern)
        assert ch.operational_intensity == pytest.approx(
            ch.ops / (56 + 8)
        )


class TestClassifyShape:
    def test_star(self):
        _, kern = make_3d7pt()
        assert classify_shape(kern) == "star"

    def test_box(self):
        B = SpNode("B", (8, 8), halo=(1, 1))
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("box", (j, i), B[j - 1, i - 1] + B[j, i])
        assert classify_shape(kern) == "box"


class TestTraffic:
    def test_stencil_flops_include_combine(self, stencil_3d7pt_2dep):
        kern = stencil_3d7pt_2dep.kernels[0]
        assert stencil_flops_per_point(stencil_3d7pt_2dep) == (
            2 * kern.flops() + 1
        )

    def test_total_traffic(self, stencil_3d7pt_2dep):
        read, write = total_traffic_bytes(stencil_3d7pt_2dep, 1000)
        kern = stencil_3d7pt_2dep.kernels[0]
        assert read == 2 * kern.npoints * 8 * 1000
        assert write == 8 * 1000

    def test_halo_traffic_star_faces_only(self, stencil_3d7pt_2dep):
        # 8^3 sub-domain, radius 1 star: 6 faces of 64 points
        bytes_ = halo_traffic_bytes(stencil_3d7pt_2dep, (8, 8, 8))
        assert bytes_ == 6 * 64 * 8

    def test_halo_traffic_box_includes_corners(self):
        B = SpNode("B", (8, 8), halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("box", (j, i), B[j - 1, i - 1] + B[j, i])
        st = Stencil(B, kern[Stencil.t - 1])
        bytes_ = halo_traffic_bytes(st, (8, 8))
        faces = 4 * 8 * 8
        corners = 4 * 1 * 8
        assert bytes_ == faces + corners

    def test_rank_mismatch_rejected(self, stencil_3d7pt_2dep):
        with pytest.raises(ValueError):
            halo_traffic_bytes(stencil_3d7pt_2dep, (8, 8))
