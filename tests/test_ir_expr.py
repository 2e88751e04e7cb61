"""Unit tests for the expression IR (Table 2 nodes)."""

import pytest

from repro.ir.expr import (
    AssignExpr,
    CallFuncExpr,
    ConstExpr,
    IndexExpr,
    OperatorExpr,
    TensorAccess,
    VarExpr,
    as_expr,
)
from repro.ir.tensor import SpNode


def c_source(expr, ji):
    """``expr`` as the one C printer spells it (no halo shift)."""
    from repro.backend.c_codegen import render_kernel_c
    from repro.ir import Kernel

    return render_kernel_c(Kernel("k", ji, expr), {},
                           lambda tensor, time_offset: "p", {"B": (0, 0)})


@pytest.fixture
def B():
    return SpNode("B", (8, 8), halo=(1, 1))


@pytest.fixture
def ji():
    return VarExpr("j"), VarExpr("i")


class TestOperatorOverloading:
    def test_add_builds_operator_expr(self, B, ji):
        j, i = ji
        e = B[j, i] + B[j, i - 1]
        assert isinstance(e, OperatorExpr) and e.op == "add"

    def test_scalar_coefficients_coerce(self, B, ji):
        j, i = ji
        e = 0.25 * B[j, i]
        assert isinstance(e.operands[0], ConstExpr)
        assert e.operands[0].value == 0.25

    def test_right_operations(self, B, ji):
        j, i = ji
        for e in (1 - B[j, i], 2 / B[j, i], 3 + B[j, i]):
            assert isinstance(e, OperatorExpr)
            assert isinstance(e.operands[0], ConstExpr)

    def test_negation(self, B, ji):
        j, i = ji
        e = -B[j, i]
        assert e.op == "neg" and len(e.operands) == 1

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="boolean"):
            as_expr(True)

    def test_unconvertible_rejected(self):
        with pytest.raises(TypeError):
            as_expr("hello")


class TestIndexExpr:
    def test_var_plus_int_is_index(self):
        i = VarExpr("i")
        ix = i + 3
        assert isinstance(ix, IndexExpr) and ix.offset == 3

    def test_var_minus_int_is_index(self):
        i = VarExpr("i")
        ix = i - 2
        assert isinstance(ix, IndexExpr) and ix.offset == -2

    def test_index_offsets_accumulate(self):
        i = VarExpr("i")
        ix = (i + 3) - 1
        assert isinstance(ix, IndexExpr) and ix.offset == 2

    def test_var_plus_float_is_arithmetic(self):
        i = VarExpr("i")
        e = i + 0.5
        assert isinstance(e, OperatorExpr)

    def test_c_source(self, B, ji):
        j, i = ji
        assert c_source(B[j, i], ji) == "AT_B(p, j, i)"
        assert c_source(B[j, i + 2], ji) == "AT_B(p, j, i + 2)"
        assert c_source(B[j - 1, i], ji) == "AT_B(p, j - 1, i)"

    def test_non_int_offset_rejected(self):
        with pytest.raises(TypeError):
            IndexExpr(VarExpr("i"), 1.5)


class TestTensorAccess:
    def test_offsets_property(self, B, ji):
        j, i = ji
        acc = B[j - 1, i + 1]
        assert acc.offsets == (-1, 1)

    def test_bare_var_normalised(self, B, ji):
        j, i = ji
        acc = B[j, i]
        assert all(isinstance(ix, IndexExpr) for ix in acc.indices)
        assert acc.offsets == (0, 0)

    def test_future_time_offset_rejected(self, B, ji):
        j, i = ji
        with pytest.raises(ValueError, match="future"):
            TensorAccess(B, (IndexExpr(j), IndexExpr(i)), time_offset=1)

    def test_expression_subscript_rejected(self, B, ji):
        j, i = ji
        with pytest.raises(TypeError):
            B[j * 2, i]

    def test_rank_mismatch_rejected(self, B, ji):
        j, _ = ji
        with pytest.raises(IndexError):
            B[j]


class TestOperatorExpr:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            OperatorExpr("pow", (ConstExpr(1), ConstExpr(2)))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            OperatorExpr("add", (ConstExpr(1),))
        with pytest.raises(ValueError):
            OperatorExpr("neg", (ConstExpr(1), ConstExpr(2)))

    def test_c_source_parenthesised(self, B, ji):
        j, i = ji
        assert c_source(B[j, i] + B[j, i - 1], ji) == (
            "(AT_B(p, j, i) + AT_B(p, j, i - 1))")
        assert c_source(-B[j, i] / 3, ji) == (
            "((-AT_B(p, j, i)) / ((real)3.0))")


class TestCallFuncExpr:
    def test_known_function(self):
        e = CallFuncExpr("sqrt", (ConstExpr(4.0),))
        assert (e.func, e.args) == ("sqrt", (ConstExpr(4.0),))

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError, match="unknown external function"):
            CallFuncExpr("mystery", (ConstExpr(1),))

    def test_args_coerced(self):
        e = CallFuncExpr("pow", (2, 3))
        assert all(isinstance(a, ConstExpr) for a in e.args)


class TestAssignExpr:
    def test_target_must_be_centre(self, B, ji):
        j, i = ji
        with pytest.raises(ValueError, match="centre"):
            AssignExpr(B[j, i - 1], ConstExpr(0))

    def test_valid_assignment(self, B, ji):
        j, i = ji
        a = AssignExpr(B[j, i], B[j, i - 1] + 1.0)
        assert a.children() == (a.target, a.value)

    def test_non_access_target_rejected(self):
        with pytest.raises(TypeError):
            AssignExpr(ConstExpr(1), ConstExpr(2))


class TestWalk:
    def test_walk_visits_all_nodes(self, B, ji):
        j, i = ji
        e = 0.5 * B[j, i] + 0.25 * B[j, i - 1]
        accesses = [n for n in e.walk() if isinstance(n, TensorAccess)]
        consts = [n for n in e.walk() if isinstance(n, ConstExpr)]
        assert len(accesses) == 2
        assert len(consts) == 2

    def test_walk_preorder_root_first(self, B, ji):
        j, i = ji
        e = B[j, i] + 1.0
        assert next(iter(e.walk())) is e

    def test_walk_is_preorder_left_to_right(self, B, ji):
        j, i = ji
        e = 0.5 * B[j, i] + (B[j, i - 1] - 2.0)

        def recursive(node):
            yield node
            for child in node.children():
                yield from recursive(child)

        assert [id(n) for n in e.walk()] == [id(n) for n in recursive(e)]

    def test_walk_survives_a_sum_deeper_than_the_recursion_limit(self, B, ji):
        import sys

        j, i = ji
        e = B[j, i]
        terms = sys.getrecursionlimit() + 50
        for _ in range(terms):
            e = e + 1.0
        assert sum(isinstance(n, ConstExpr) for n in e.walk()) == terms

    def test_const_nonfinite_c_source_raises(self):
        from repro.backend.c_codegen import c_literal

        assert c_literal(1) == "((real)1.0)"
        with pytest.raises(ValueError, match="no C literal"):
            c_literal(float("inf"))
