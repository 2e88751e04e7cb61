"""Tests for the IR -> MSC-text pretty-printer and its round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.numpy_backend import reference_run
from repro.frontend import build_benchmark, parse_program, render_program
from repro.frontend.printer import render_expr
from repro.ir import Kernel, SpNode, Stencil, VarExpr
from repro.ir.expr import ConstExpr
from tests.strategies import coefficients, seeds


class TestRenderExpr:
    def test_access_with_offsets(self):
        B = SpNode("B", (8, 8), halo=(1, 1))
        j, i = VarExpr("j"), VarExpr("i")
        assert render_expr(B[j - 1, i + 2]) == "B[j-1,i+2]"

    def test_precedence_parentheses(self):
        a, b, c = ConstExpr(1.0), ConstExpr(2.0), ConstExpr(3.0)
        assert render_expr((a + b) * c) == "(1.0 + 2.0) * 3.0"
        assert render_expr(a + b * c) == "1.0 + 2.0 * 3.0"

    def test_right_associativity_of_subtraction(self):
        a, b, c = ConstExpr(1.0), ConstExpr(2.0), ConstExpr(3.0)
        # 1 - (2 - 3) must keep its parentheses
        assert render_expr(a - (b - c)) == "1.0 - (2.0 - 3.0)"

    def test_negation(self):
        assert render_expr(-ConstExpr(2.0)) == "-2.0"


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["3d7pt_star", "2d9pt_box",
                                      "2d121pt_box"])
    def test_benchmark_roundtrip_same_numerics(self, name, rng):
        grid = (14, 14, 14) if name.startswith("3d") else (24, 24)
        prog, handle = build_benchmark(name, grid=grid)
        src = render_program(prog.ir, prog.schedules())
        parsed = parse_program(src)
        init = [rng.random(grid) for _ in range(2)]
        r1 = reference_run(prog.ir, init, 3)
        r2 = reference_run(parsed.program.ir, init, 3)
        np.testing.assert_array_equal(r1, r2)

    def test_schedule_survives_roundtrip(self):
        prog, handle = build_benchmark("3d7pt_star", grid=(16, 16, 16))
        handle.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
        handle.reorder("xo", "yo", "zo", "xi", "yi", "zi")
        handle.cache_read(prog.ir.output, "br", "global")
        handle.cache_write("bw", "global")
        handle.compute_at("br", "zo")
        handle.vectorize("zi")
        handle.unroll("yi", 2)
        handle.parallel("xo", 8)
        src = render_program(prog.ir, prog.schedules())
        parsed = parse_program(src)
        sched = parsed.kernels["S_3d7pt_star"].schedule
        assert sched.tile_factors == {"k": 4, "j": 8, "i": 16}
        assert sched.vectorized_axis == "zi"
        assert sched.unroll_factors == {"yi": 2}
        assert sched.nthreads == 8
        assert {b.buffer for b in sched.cache_bindings()} == {"br", "bw"}

    def test_mpi_grid_roundtrip(self):
        prog, _ = build_benchmark("2d9pt_star", grid=(16, 16))
        src = render_program(prog.ir, mpi_grid=(2, 4))
        assert parse_program(src).mpi_grid == (2, 4)

    def test_nonuniform_halo_rejected(self):
        B = SpNode("B", (8, 8), halo=(1, 2), time_window=2)
        j, i = VarExpr("j"), VarExpr("i")
        kern = Kernel("S", (j, i), B[j, i - 2] + B[j - 1, i])
        stencil = Stencil(B, kern[Stencil.t - 1])
        with pytest.raises(ValueError, match="uniform"):
            render_program(stencil)


@given(
    coef=coefficients(2, 5, nonzero=True),
    seed=seeds(),
)
@settings(max_examples=25)
def test_roundtrip_property_random_coefficients(coef, seed):
    """Any linear 1-D stencil survives the print->parse round trip."""
    i = VarExpr("i")
    B = SpNode("B", (16,), halo=(len(coef),), time_window=2)
    expr = coef[0] * B[i]
    for d, c in enumerate(coef[1:], start=1):
        expr = expr + c * B[i - d]
    kern = Kernel("S", (i,), expr)
    stencil = Stencil(B, kern[Stencil.t - 1])
    src = render_program(stencil)
    parsed = parse_program(src)
    rng = np.random.default_rng(seed)
    init = [rng.random(16)]
    r1 = reference_run(stencil, init, 2, boundary="periodic")
    r2 = reference_run(parsed.program.ir, init, 2, boundary="periodic")
    np.testing.assert_array_equal(r1, r2)
