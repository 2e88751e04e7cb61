"""Unit tests for IR validation and the Axis node."""

import pytest

from repro.ir import (
    Axis,
    Kernel,
    SpNode,
    Stencil,
    ValidationError,
    VarExpr,
    f32,
    f64,
    validate_stencil,
)
from repro.ir.expr import CallFuncExpr, ConstExpr
from repro.ir.validate import stencil_issues
from tests.conftest import make_3d7pt


class TestValidateStencil:
    def test_valid_program_passes(self, stencil_3d7pt_2dep):
        validate_stencil(stencil_3d7pt_2dep)

    def test_halo_too_small(self):
        B = SpNode("B", (8, 8), halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("wide", (j, i), B[j, i - 2] + B[j, i])
        st = Stencil.__new__(Stencil)
        object.__setattr__(st, "output", B)
        object.__setattr__(st, "expr", kern[Stencil.t - 1])
        with pytest.raises(ValidationError) as err:
            validate_stencil(st)
        assert any("radius" in issue for issue in err.value.issues)

    def test_mixed_dtypes_flagged(self):
        B = SpNode("B", (8, 8), f64, halo=(1, 1), time_window=2)
        C = SpNode("C", (8, 8), f32, halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("mix", (j, i), B[j, i] + C[j, i])
        st = Stencil(B, kern[Stencil.t - 1])
        with pytest.raises(ValidationError) as err:
            validate_stencil(st)
        assert any("mixed dtypes" in issue for issue in err.value.issues)

    def test_all_issues_collected(self):
        B = SpNode("B", (8, 8), f64, halo=(0, 0), time_window=2)
        C = SpNode("C", (8, 8), f32, halo=(0, 0), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("bad", (j, i), B[j, i - 1] + C[j, i])
        st = Stencil.__new__(Stencil)
        object.__setattr__(st, "output", B)
        object.__setattr__(st, "expr", kern[Stencil.t - 1])
        with pytest.raises(ValidationError) as err:
            validate_stencil(st)
        assert len(err.value.issues) >= 2


def _scaled_by(constant):
    """``constant * B[j, i] + 0.5 * B[j, i - 1]`` as a stencil."""
    B = SpNode("B", (8, 8), f64, halo=(1, 1), time_window=2)
    j, i = VarExpr("j"), VarExpr("i")
    kern = Kernel("S", (j, i), constant * B[j, i] + 0.5 * B[j, i - 1])
    return Stencil(B, kern[Stencil.t - 1])


class TestConstantsWithNoCLiteral:
    """A literal-only sub-tree that raises or is not finite is a
    diagnostic from every consumer, not a traceback, an ``inf`` or
    (``1 / 0`` as C ``int``) a trap in generated code."""

    @pytest.mark.parametrize("constant, named", [
        (ConstExpr(1) / 0, "div(1, 0) raises ZeroDivisionError"),
        (CallFuncExpr("pow", (0, -1)), "pow(0, -1) raises ValueError"),
        (CallFuncExpr("pow", (2, -1)), "pow(2, -1) raises ValueError"),
        (CallFuncExpr("exp", (1000.0,)), "exp(1000.0) is inf"),
        (1 / CallFuncExpr("exp", (1000.0,)), "exp(1000.0) is inf"),
        (CallFuncExpr("sqrt", (-1.0,)), "sqrt(-1.0) is nan"),
        (ConstExpr(float("inf")), "literal inf is not finite"),
    ])
    def test_reported_by_every_consumer(self, constant, named):
        import numpy as np

        from repro.analysis.checker import check_stencil_ir
        from repro.backend import (
            CCodeGenerator, generate_mpi, generate_sunway,
        )
        from repro.backend.numpy_backend import BlockEngine, reference_run
        from repro.ir import StagePipeline

        stencil = _scaled_by(constant)
        ((category, message),) = stencil_issues(stencil)
        assert category == "constant"
        assert message.startswith(f"kernel 'S': constant {named}")
        (diagnostic,) = check_stencil_ir(stencil).by_code("IR001")
        assert diagnostic.message == message
        for consume in (
            lambda: reference_run(stencil, [np.ones((8, 8))], 1),
            lambda: BlockEngine.serial(stencil, "zero"),
            lambda: CCodeGenerator(stencil, {}),
            lambda: generate_mpi(stencil, {}, "m", (1, 1)),
            lambda: generate_sunway(stencil, {}, "s"),
            lambda: StagePipeline((stencil,)),  # what generate_pipeline takes
        ):
            with pytest.raises(ValidationError, match="constant"):
                consume()

    def test_a_float_to_a_negative_power_is_a_value(self):
        stencil = _scaled_by(CallFuncExpr("pow", (2.0, -1)))
        assert stencil_issues(stencil) == []
        (kern,) = stencil.kernels
        assert kern.program.code[0] == (
            "mul", (("value", 0.5), ("slot", 0)))

    def test_a_bare_index_is_an_issue_not_a_traceback(self):
        B = SpNode("B", (8, 8), f64, halo=(1, 1), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("S", (j, i), B[j, i] + (i + 1))
        ((category, message),) = stencil_issues(
            Stencil(B, kern[Stencil.t - 1]))
        assert category == "expression" and "bare index" in message


class TestAxis:
    def test_extent(self):
        ax = Axis(VarExpr("i"), 0, 0, 10)
        assert ax.extent == 10

    def test_strided_extent_rounds_up(self):
        ax = Axis(VarExpr("i"), 0, 0, 10, stride=3)
        assert ax.extent == 4

    def test_split_exact(self):
        ax = Axis(VarExpr("i"), 0, 0, 64)
        outer, inner = ax.split(16, "io", "ii")
        assert outer.extent == 4 and inner.extent == 16
        assert outer.parent == "i" and outer.role == "outer"
        assert inner.parent == "i" and inner.role == "inner"

    def test_split_rounds_up(self):
        ax = Axis(VarExpr("i"), 0, 0, 10)
        outer, inner = ax.split(4, "io", "ii")
        assert outer.extent == 3  # ceil(10/4)

    def test_split_factor_too_large(self):
        ax = Axis(VarExpr("i"), 0, 0, 8)
        with pytest.raises(ValueError, match="exceeds"):
            ax.split(16, "io", "ii")

    def test_split_strided_rejected(self):
        ax = Axis(VarExpr("i"), 0, 0, 8, stride=2)
        with pytest.raises(ValueError, match="strided"):
            ax.split(2, "io", "ii")

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Axis(VarExpr("i"), 0, 5, 3)

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            Axis(VarExpr("i"), 0, 0, 4, stride=0)

    def test_with_order(self):
        ax = Axis(VarExpr("i"), 0, 0, 4)
        assert ax.with_order(3).order == 3
