"""The numpy engine's kernel program: lowered once, bound per region,
written straight into the window plane.

Bitwise and counted, never timed.  The oracle throughout is the
tree-walking ``evaluate_kernel`` / ``reference_run``; the program must
produce the same bytes because it applies the same ufuncs to the same
operands in the same order with the same dtypes.
"""

import gc
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.backend.numpy_backend import (
    BlockEngine,
    ScheduledExecutor,
    TermProgram,
    _access_view,
    evaluate_kernel,
    reference_run,
    typed_term,
)
from repro.comm.decomposition import decompose
from repro.comm.halo import core_owned_regions
from repro.frontend.stencils import build_benchmark
from repro.ir import (
    Kernel, KernelProgram, SpNode, StagePipeline, Stencil, VarExpr, f32, f64,
    i32,
)
from repro.ir.expr import CallFuncExpr, ConstExpr, OperatorExpr
from repro.runtime.executor import DistributedStencil, distributed_run
from repro.runtime.simmpi import run_ranks
from tests.conftest import make_2d5pt
from tests.strategies import FUNC_ARITY, expression_kernel_cases

J, I = VarExpr("j"), VarExpr("i")


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def run_term(kernel, planes, halos, region, scalars, scale, out_dtype):
    """``scale * kernel`` over ``region`` through the flat program, in
    the output dtype — what the engine adds into the plane."""
    typed = TermProgram(kernel.program, scalars, scale, np.dtype(out_dtype))
    views = [
        _access_view(a, planes[a.tensor.name, a.time_offset],
                     halos[a.tensor.name], region)
        for a in typed.accesses
    ]
    shape = tuple(hi - lo for lo, hi in region)
    registers = [np.empty(shape, dtype) for dtype in typed.reg_dtypes]
    calls = typed.bind(views, registers, shape)
    for fn, args, out in calls:
        fn(*args, out=out)
    return calls[-1][2]


def oracle_term(kernel, planes, halos, region, scalars, scale, out_dtype):
    """The same value as ``reference_run`` computes it."""
    val = evaluate_kernel(kernel, planes, halos, region, scalars=scalars)
    return np.asarray(scale * val, dtype=out_dtype)


def planes_for(kernel, tensors, seed):
    """A random padded plane per (tensor, time offset) the kernel reads."""
    rng = np.random.default_rng(seed)
    planes = {}
    for access in kernel.accesses:
        tensor = tensors[access.tensor.name]
        padded = tuple(s + 2 * h for s, h in zip(tensor.shape, tensor.halo))
        data = rng.uniform(-2.0, 2.0, padded)
        planes.setdefault(
            (tensor.name, access.time_offset),
            (data * 3 if tensor.dtype is i32 else data).astype(
                tensor.dtype.np_dtype),
        )
    return planes


def block_regions(shape, radius):
    """Whole block, CORE, and the thin (partly strided) OWNED slabs."""
    core, owned = core_owned_regions(shape, (radius,) * len(shape))
    whole = [(0, s) for s in shape]
    return [whole] + ([core] if core else []) + owned


def check_against_oracle(kernel, tensors, scalars, scale, out_dtype, seed):
    planes = planes_for(kernel, tensors, seed)
    halos = {name: t.halo for name, t in tensors.items()}
    radius = tensors["A"].halo[0]
    for region in block_regions(tensors["A"].shape, radius):
        args = (kernel, planes, halos, region, scalars, scale, out_dtype)
        with np.errstate(all="ignore"):
            try:
                want = oracle_term(*args)
            except Exception as exc:  # e.g. a folded ``1 / 0``
                with pytest.raises(type(exc)):
                    run_term(*args)
                continue
            assert_same_bits(run_term(*args), want)


# -- the program against the interpreter ---------------------------------------


class TestProgramMatchesInterpreter:
    @settings(max_examples=120)
    @given(case=expression_kernel_cases(),
           scale=st.sampled_from([1.0, -1.0, 0.6, 0.25]),
           seed=st.integers(0, 2 ** 16))
    def test_random_expressions_bitwise(self, case, scale, seed):
        kernel, A, C, scalars = case
        check_against_oracle(kernel, {"A": A, "C": C}, scalars, scale,
                             A.dtype.np_dtype, seed)

    @settings(max_examples=40)
    @given(case=expression_kernel_cases(),
           weight=st.sampled_from([0.3, 0.5, 1.0]),
           boundary=st.sampled_from(["zero", "periodic"]),
           seed=st.integers(0, 2 ** 16))
    def test_random_kernels_through_the_engine(self, case, weight,
                                               boundary, seed):
        """The same kernels end to end: planes bound per rotation, aux
        planes at any depth, direct write, against ``reference_run``."""
        kernel, A, C, scalars = case
        t = Stencil.t
        stencil = Stencil(A, weight * kernel[t - 1]
                          + (1.0 - weight) * kernel[t - 2])
        rng = np.random.default_rng(seed)
        init = [rng.uniform(-1, 1, A.shape).astype(A.dtype.np_dtype)
                for _ in range(2)]
        inputs = None
        if any(tensor.name == "C" for tensor in kernel.input_tensors):
            inputs = {"C": (rng.uniform(-2, 2, C.shape) * 2).astype(
                C.dtype.np_dtype)}
        with np.errstate(all="ignore"):
            def engine():
                return ScheduledExecutor(
                    stencil, {}, boundary, inputs=inputs, scalars=scalars
                ).run(init, 4)

            try:
                want = reference_run(stencil, init, 4, boundary,
                                     inputs=inputs, scalars=scalars)
            except Exception as exc:
                # a constant kernel, ``pow(0, -1)``, a ``1 / w0`` with
                # ``w0 = 0``: the engine must refuse it the same way
                with pytest.raises(type(exc)):
                    engine()
                assume(False)
            got = engine()
        assert_same_bits(got, want)

    @pytest.mark.parametrize("out_dtype", [f32, f64], ids=["f32", "f64"])
    @pytest.mark.parametrize("aux_dtype", [f32, f64, i32],
                             ids=["aux-f32", "aux-f64", "aux-i32"])
    @pytest.mark.parametrize("node", ["neg", "add", "sub", "mul", "div",
                                      *FUNC_ARITY])
    def test_every_node_kind(self, node, out_dtype, aux_dtype):
        """Each operator and each ``KNOWN_FUNCS`` entry, on array and on
        scalar operands, with an aux dtype that may not be the output's."""
        A = SpNode("A", (7, 9), out_dtype, halo=(1, 1), time_window=3)
        C = SpNode("C", (7, 9), aux_dtype, halo=(1, 1), time_window=6)
        w = VarExpr("w0", "f64")
        a, c = A[J, I - 1], C.at(-4)[J + 1, I]
        if node in FUNC_ARITY:
            def make(*args):
                return CallFuncExpr(node, args[:FUNC_ARITY[node]])
        else:
            def make(*args):
                return OperatorExpr(node, args[:1 if node == "neg" else 2])
        # array/array, array/scalar, scalar/array, folded scalars
        expr = (make(a, c) + make(c, ConstExpr(2))
                + make(w, a) * make(ConstExpr(0.5), w))
        kernel = Kernel("k", (J, I), expr)
        check_against_oracle(kernel, {"A": A, "C": C}, {"w0": 1.25},
                             0.6, out_dtype.np_dtype, seed=3)

    @pytest.mark.parametrize("dtype", [f32, f64], ids=["f32", "f64"])
    def test_constants_only_kernel(self, dtype):
        A = SpNode("A", (6, 8), dtype, halo=(1, 1), time_window=2)
        expr = CallFuncExpr("sqrt", (ConstExpr(2) * VarExpr("w0", "f64"),))
        kernel = Kernel("k", (J, I), expr - 1)
        typed = TermProgram(kernel.program, {"w0": 0.75}, 0.4,
                            dtype.np_dtype)
        # only the term's own ``scale *`` (and cast) run per region
        assert len(typed.code) <= 2
        check_against_oracle(kernel, {"A": A}, {"w0": 0.75}, 0.4,
                             dtype.np_dtype, seed=0)

    def test_bare_access_kernel(self):
        A = SpNode("A", (6, 8), f64, halo=(1, 1), time_window=2)
        kernel = Kernel("k", (J, I), A[J, I + 1])
        assert kernel.program.code == ()
        check_against_oracle(kernel, {"A": A}, {}, -0.5, np.float64, seed=1)

    def test_left_deep_sum_needs_two_registers(self):
        prog, _ = build_benchmark("2d9pt_star", grid=(16, 16))
        kernel = prog.ir.kernels[0]
        lowered = kernel.program
        typed = TermProgram(lowered, {}, 0.6, np.dtype(np.float64))
        assert len(lowered.accesses) == 9
        assert len(lowered.code) == kernel.flops()
        assert typed.reg_dtypes == [np.dtype(np.float64)] * 2
        # the 17 kernel instructions plus the term's ``scale *``
        assert len(typed.code) == kernel.flops() + 1

    def test_register_dtypes_are_the_interpreters(self):
        """An f32 plane times a folded ``sqrt`` (a float64 *numpy*
        scalar, not a weak python float) is float64 under the
        interpreter: the register must be too, then the cast."""
        A = SpNode("A", (6, 6), f32, halo=(1, 1), time_window=2)
        kernel = Kernel(
            "k", (J, I), CallFuncExpr("sqrt", (ConstExpr(2.0),)) * A[J, I]
            + 0.5 * A[J, I - 1])
        typed = TermProgram(kernel.program, {}, 1.0, np.dtype(np.float32))
        assert np.dtype(np.float64) in typed.reg_dtypes
        assert typed.reg_dtypes[typed.code[-1][2]] == np.float32
        check_against_oracle(kernel, {"A": A}, {}, 1.0, np.float32, seed=2)

    def test_errors_are_raised_at_typing_and_binding(self):
        A = SpNode("A", (4, 4), f64, halo=(1, 1), time_window=2)
        kernel = Kernel("k", (J, I), VarExpr("w", "f64") * A[J, I])
        with pytest.raises(KeyError, match="free scalar 'w' has no bound"):
            TermProgram(kernel.program, {}, 1.0, np.dtype(np.float64))
        with pytest.raises(TypeError, match="bare index"):
            KernelProgram(Kernel("k", (J, I), A[J, I] + (I + 1)))
        stencil = Stencil(A, Kernel("k", (J, I), A[J, I - 1])[Stencil.t - 1])
        engine = BlockEngine.serial(stencil, "zero")
        engine.halos["A"] = (0, 0)  # as if the buffer had no halo
        engine.seed({"A": [np.ones((4, 4))]})
        with pytest.raises(IndexError, match="halo too small"):
            engine.step()


# -- lowered once, bound per region, re-used -----------------------------------


def _bench_program(grid=(32, 32), boundary="periodic"):
    prog, _ = build_benchmark("2d9pt_star", grid=grid, boundary=boundary)
    rng = np.random.default_rng(4)
    init = [rng.random(grid) for _ in range(2)]
    prog.set_initial(init)
    return prog, init


class TestLoweredOnce:
    def test_program_is_kept_on_the_kernel_node(self):
        tensor, kernel = make_2d5pt()
        stencil = Stencil(tensor, kernel[Stencil.t - 1])
        assert "program" not in vars(kernel)  # validating kept none
        with obs.capture() as (_tracer, reg):
            first = BlockEngine.serial(stencil, "zero")
            again = BlockEngine.serial(stencil, "zero")
        assert first.plan_stats["lower"] == 1
        assert again.plan_stats["lower"] == 0
        assert first._terms["A"][0].lowered is kernel.program
        assert again._terms["A"][0].lowered is kernel.program
        assert reg.counter_total("numpy.plan.lower") == 1

    @pytest.mark.parametrize("grid", [None, (2, 1)], ids=["serial", "mpi"])
    def test_second_run_lowers_nothing(self, grid):
        prog, init = _bench_program()
        if grid:
            prog.set_mpi_grid(grid)
        ref = reference_run(prog.ir, init, 4, "periodic")
        with obs.capture() as (_tracer, reg):
            first = prog.run(4, backend="numpy")
            assert prog.last_run["numpy_plans"]["lower"] == 1
            assert reg.counter_total("numpy.plan.lower") == 1
            second = prog.run(4, backend="numpy")
            assert prog.last_run["numpy_plans"]["lower"] == 0
            assert reg.counter_total("numpy.plan.lower") == 1
        assert_same_bits(first, ref)
        assert_same_bits(second, ref)

    def test_rank_threads_lower_a_shared_kernel_once(self):
        prog, init = _bench_program()
        with obs.capture() as (_tracer, reg):
            distributed_run(prog.ir, init, 2, (2, 2), boundary="periodic")
        assert reg.counter_total("numpy.plan.lower") == 1


def _rank_steps(prog, init, mode, steps, probe, grid=(2, 1)):
    """Run periodic ranks; ``probe(dist, step)`` after every step."""
    subdomains = decompose(prog.ir.output.shape, grid)

    def main(comm):
        dist = DistributedStencil(prog.ir, comm, subdomains,
                                  exchange_mode=mode)
        dist.scatter({prog.ir.output.name: init}, {})
        seen = []
        for step in range(1, steps + 1):
            dist.step()
            seen.append(probe(dist, step))
        for ex in dist.exchangers.values():
            ex.finish_exchange()
        return seen

    return run_ranks(len(subdomains), main, cart_dims=grid,
                     periods=(True,) * len(grid))


def _split_sizes(dist):
    """``(CORE, OWNED)`` region counts of the rank's overlap split."""
    ((core, owned),) = dist._split.values()
    return (0 if core is None else len(core)), len(owned)


class TestBoundPlans:
    @pytest.mark.parametrize("mode,regions", [
        ("basic", 1), ("diag", 1), ("overlap", None)])
    def test_rank_binds_regions_x_terms_x_window_then_reuses(
            self, mode, regions):
        """``regions`` per term and step: the whole block, or (None)
        the rank's CORE/OWNED split, as its neighbours shape it."""
        prog, init = _bench_program()
        terms, window = 2, prog.ir.output.time_window
        per_rank = _rank_steps(
            prog, init, mode, 2 * window + 1,
            lambda dist, _step: (dict(dist.engine.plan_stats),
                                 sum(_split_sizes(dist))))
        for seen in per_rank:
            binds = [s["bind"] for s, _ in seen]
            reuses = [s["reuse"] for s, _ in seen]
            per_step = (regions or seen[0][1]) * terms
            assert binds[:window] == [per_step * k
                                      for k in range(1, window + 1)]
            # from step W on the window is in a rotation already bound
            assert binds[window:] == [per_step * window] * (window + 1)
            assert reuses[-1] == per_step * (window + 1)

    @pytest.mark.parametrize("mode", ["basic", "overlap"])
    def test_steady_rank_step_allocates_no_block_sized_array(self, mode):
        """From step W on a rank step is the bound plans' ufunc calls
        into scratch and plane: no accumulator, no temporaries (numpy's
        own 64 KiB iterator buffer is all a call allocates).  One rank,
        its own periodic neighbour, so the traced peak is its."""
        grid = (256, 256)
        prog, init = _bench_program(grid)
        window = prog.ir.output.time_window

        def probe(dist, step):
            if step == window:
                tracemalloc.reset_peak()
                return (tracemalloc.get_traced_memory()[0],
                        dist.engine.plan_stats["bind"])
            return (tracemalloc.get_traced_memory()[1],
                    dist.engine.plan_stats["bind"])

        tracemalloc.start()
        try:
            (seen,) = _rank_steps(prog, init, mode, window + 4, probe,
                                  grid=(1, 1))
        finally:
            tracemalloc.stop()
        (base, binds), later = seen[window - 1], seen[window:]
        assert [b for _, b in later] == [binds] * 4
        assert max(peak for peak, _ in later) - base < 256 * 256 * 8 // 2

    def test_serial_steady_step_allocates_no_block_sized_array(self):
        grid = (256, 256)
        prog, init = _bench_program(grid)
        ex = ScheduledExecutor(StagePipeline((prog.ir,)), {}, "periodic")
        ex.initialize({prog.ir.output.name: init})
        for _ in range(prog.ir.output.time_window):
            ex.step()
        binds = ex.engine.plan_stats["bind"]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(4):
                ex.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ex.engine.plan_stats["bind"] == binds
        assert peak - base < grid[0] * grid[1] * 8 // 2

    def test_plans_past_the_bound_are_bound_on_the_fly(self, monkeypatch):
        from repro.backend import numpy_backend

        monkeypatch.setattr(numpy_backend, "_MAX_BOUND_PLANS", 8)
        prog, handle = build_benchmark("2d9pt_star", grid=(32, 32),
                                       boundary="periodic")
        handle.tile(4, 8, "xo", "xi", "yo", "yi")
        rng = np.random.default_rng(9)
        init = [rng.random((32, 32)) for _ in range(2)]
        ex = ScheduledExecutor(prog.ir, prog.schedules(), "periodic")
        got = ex.run(init, 7)
        assert len(ex.engine._plans) == 8
        tiles = 8 * 4
        stats = ex.engine.plan_stats
        assert stats["bind"] + stats["reuse"] == tiles * 2 * 7
        assert stats["reuse"] > 0
        # scratch is per tile *shape*, not per tile
        assert len(ex.engine._scratch) == 2
        assert_same_bits(got, reference_run(prog.ir, init, 7, "periodic"))

    def test_reseeding_drops_plans_bound_to_the_old_planes(self):
        prog, init = _bench_program()
        ex = ScheduledExecutor(prog.ir, {}, "periodic")
        first = ex.run(init, 5)
        other = [p * 0.5 for p in init]
        assert_same_bits(ex.run(other, 5),
                         reference_run(prog.ir, other, 5, "periodic"))
        assert_same_bits(ex.run(init, 5), first)

    def test_kernel_eval_span_reports_ops_and_regions(self):
        prog, init = _bench_program()
        ((core, owned),) = {
            split for (split,) in _rank_steps(
                prog, init, "overlap", 1,
                lambda dist, _step: _split_sizes(dist))}
        with obs.capture() as (tracer, reg):
            distributed_run(prog.ir, init, 4, (2, 1), boundary="periodic",
                            exchange_mode="overlap")
        evals = [s for s in tracer.records
                 if s.name == "runtime.kernel_eval"]
        # per rank and step: the CORE region, then the OWNED slabs, each
        # over both terms of 19 calls (17 + ``scale *`` + the write)
        assert sorted({(s.attrs["regions"], s.attrs["ops"])
                       for s in evals}) == sorted(
            {(2 * n, 2 * n * 19) for n in (core, owned)})
        # 4 steps through a window of 3: 3 bound, 1 re-used
        per_step = 2 * (core + owned)
        by_rank = reg.counter_by_label("numpy.plan.bind", "rank")
        assert by_rank == {0: 3 * per_step, 1: 3 * per_step}
        assert reg.counter_by_label("numpy.plan.reuse", "rank") == {
            0: per_step, 1: per_step}


class TestTypedOnce:
    def test_engines_share_the_typed_term(self):
        prog, init = _bench_program()
        engines = [BlockEngine.serial(prog.ir, "periodic") for _ in range(2)]
        for engine in engines:
            engine.seed({prog.ir.output.name: init})
            engine.step()
        first, second = (engine._terms[prog.ir.output.name]
                         for engine in engines)
        assert all(a.typed is b.typed for a, b in zip(first, second))
        assert all(term.typed in term.lowered.typed.values()
                   for term in first)

    def test_memo_keys_tell_signed_zeros_and_int_from_float(self):
        tensor, kernel = make_2d5pt()
        program = Kernel("k", (J, I), VarExpr("w", "f64") * tensor[J, I]
                         ).program
        f8 = np.dtype("f8")
        typed = typed_term(program, {"w": 0.0}, 1.0, f8)
        assert typed_term(program, {"w": 0.0}, 1.0, f8) is typed
        assert typed_term(program, {"w": -0.0}, 1.0, f8) is not typed
        assert typed_term(program, {"w": 0}, 1.0, f8) is not typed
        assert typed_term(program, {"w": 0.0}, -1.0, f8) is not typed
        assert typed_term(program, {"w": 0.0}, 1.0, np.dtype("f4")) \
            is not typed


class TestFlatHull:
    """A region that spans the block in every trailing dimension is
    bound over its flat hull: one contiguous run per access, whose
    cells between rows are ghosts of the plane being written."""

    @pytest.mark.parametrize("bench,grid,rows", [
        ("2d9pt_star", (16, 12), (3, 9)),
        ("2d9pt_box", (16, 12), (0, 16)),
        ("3d7pt_star", (8, 6, 5), (2, 5)),
    ])
    def test_whole_row_region_writes_no_interior_cell_outside_itself(
            self, bench, grid, rows):
        prog, _ = build_benchmark(bench, grid=grid, boundary="periodic")
        rng = np.random.default_rng(5)
        init = [rng.random(grid)
                for _ in range(prog.ir.required_time_window - 1)]
        name = prog.ir.output.name
        whole = BlockEngine.serial(prog.ir, "periodic")
        whole.seed({name: init})
        whole.step()
        engine = BlockEngine.serial(prog.ir, "periodic")
        engine.seed({name: init})
        t = engine.t + 1
        window = engine.windows[name]
        window.advance(t)[...] = 7.0  # a sentinel in every cell
        region = (rows,) + tuple((0, n) for n in grid[1:])
        engine.compute(engine.pipeline.stages[0], t, lambda _k: (region,))
        assert all(plan[-1][2].ndim == 1
                   for plan in engine._plans.values())
        inside = tuple(slice(lo, hi) for lo, hi in region)
        got = window.valid(t)
        assert_same_bits(got[inside], whole.windows[name].valid(t)[inside])
        outside = np.ones(grid, dtype=bool)
        outside[inside] = False
        assert (got[outside] == 7.0).all()

    def test_trapping_programs_and_partial_rows_stay_boxed(self):
        tensor, kernel = make_2d5pt(shape=(8, 8))
        divided = Kernel("k", (J, I), tensor[J, I - 1] / tensor[J, I + 1])
        rng = np.random.default_rng(6)
        init = [rng.random((8, 8)) + 1.0]
        for kern, region in ((divided, ((0, 8), (0, 8))),
                             (kernel, ((0, 8), (0, 4)))):
            stencil = Stencil(tensor, kern[Stencil.t - 1])
            engine = BlockEngine.serial(stencil, "periodic")
            engine.seed({"A": init})
            rest = ((0, 8), (region[1][1], 8))
            regions = (region,) + ((rest,) if rest[1][0] < 8 else ())
            engine.step(partial(engine.compute,
                                regions=lambda _k: regions))
            assert {plan[-1][2].ndim
                    for plan in engine._plans.values()} == {2}
            assert_same_bits(engine.results()["A"],
                             reference_run(stencil, init, 1, "periodic"))


# -- direct write ---------------------------------------------------------------


class TestDirectWrite:
    @pytest.mark.parametrize("dtype", [f32, f64], ids=["f32", "f64"])
    def test_negative_zero_term_seeds_positive_zero(self, dtype):
        """``reference_run`` accumulates into zeros, so an all ``-0.0``
        first term is ``+0.0``: the plan's ``0 + scale*K`` write."""
        tensor, kern = make_2d5pt(shape=(8, 8), dtype=dtype)
        stencil = Stencil(tensor, kern[Stencil.t - 1])
        init = [np.full((8, 8), -0.0, dtype=dtype.np_dtype)]
        ref = reference_run(stencil, init, 1, boundary="periodic")
        assert not np.signbit(ref).any()
        assert_same_bits(
            ScheduledExecutor(stencil, {}, "periodic").run(init, 1), ref)
        for mode in ("basic", "overlap"):
            assert_same_bits(
                distributed_run(stencil, init, 1, (2, 2),
                                boundary="periodic", exchange_mode=mode),
                ref)

    def test_recycled_plane_is_fully_overwritten(self):
        """Plane ``t`` still holds step ``t - W``: nothing of it may
        survive, whatever the region split."""
        prog, handle = build_benchmark("2d9pt_star", grid=(24, 20))
        handle.tile(5, 7, "xo", "xi", "yo", "yi")
        rng = np.random.default_rng(2)
        init = [rng.random((24, 20)) * 1e6 for _ in range(2)]
        ex = ScheduledExecutor(prog.ir, prog.schedules(), "zero")
        assert_same_bits(ex.run(init, 7),
                         reference_run(prog.ir, init, 7, "zero"))

    def test_regions_with_a_hole_are_rejected(self):
        """A region set that leaves cells of the block unwritten would
        keep the recycled plane's values there: ``step`` refuses it."""
        prog, init = _bench_program((16, 16))
        engine = BlockEngine.serial(prog.ir, "periodic")
        engine.seed({prog.ir.output.name: init})
        holed = (((0, 16), (0, 8)), ((0, 8), (8, 16)))
        with pytest.raises(ValueError, match="cover it exactly once"):
            engine.step(partial(engine.compute, regions=lambda _k: holed))
        # ... and so is a set that writes cells twice
        engine = BlockEngine.serial(prog.ir, "periodic")
        engine.seed({prog.ir.output.name: init})
        twice = (((0, 16), (0, 16)), ((0, 4), (0, 4)))
        with pytest.raises(ValueError, match="cover it exactly once"):
            engine.step(partial(engine.compute, regions=lambda _k: twice))

    @pytest.mark.parametrize("regions", [
        (((0, 8), (0, 16)), ((0, 8), (0, 16))),  # rows 8..15 never
        (((0, 12), (0, 16)), ((4, 8), (0, 16))),  # 4..7 twice, 12.. never
        (((0, 8), (0, 16)), ((8, 16), (0, 8)), ((4, 12), (0, 8))),
    ])
    def test_regions_with_the_right_cell_count_must_still_tile(
            self, regions):
        """The cell totals add up to the block's 256, yet part of the
        block is never written and would keep the recycled plane."""
        prog, init = _bench_program((16, 16))
        engine = BlockEngine.serial(prog.ir, "periodic")
        engine.seed({prog.ir.output.name: init})
        with pytest.raises(ValueError, match="cover it exactly once"):
            engine.step(partial(engine.compute, regions=lambda _k: regions))

    def test_a_steady_step_checks_its_cover_by_lookup(self, monkeypatch):
        """Each distinct region sequence is painted once; later steps
        (and the other terms of the same kernel) only look it up."""
        prog, handle = build_benchmark("2d9pt_star", grid=(24, 20))
        handle.tile(5, 7, "xo", "xi", "yo", "yi")
        init = [np.random.default_rng(4).random((24, 20))
                for _ in range(2)]
        checked = []
        real_check = BlockEngine._check_cover

        def counting_check(engine, name, t, index, regions):
            checked.append((t, index))
            real_check(engine, name, t, index, regions)

        monkeypatch.setattr(BlockEngine, "_check_cover", counting_check)
        ex = ScheduledExecutor(prog.ir, prog.schedules(), "zero")
        got = ex.run(init, 6)
        assert checked == [(2, 0)]
        assert_same_bits(got, reference_run(prog.ir, init, 6, "zero"))

    def test_reading_the_slot_being_written_fails(self):
        """The slot is claimed before anything is computed, so a read
        of the plane being overwritten cannot be served from
        half-written data: here a window one plane too small, whose
        step 2 recycles the slot of step 0 the ``t-2`` term reads."""
        from repro.schedule.timewindow import SlidingTimeWindow

        A = SpNode("A", (8, 8), f64, halo=(1, 1), time_window=3)
        kern = Kernel("k", (J, I), 0.5 * A[J, I] + 0.5 * A[J, I - 1])
        t = Stencil.t
        engine = BlockEngine.serial(Stencil(A, kern[t - 1] + kern[t - 2]),
                                    "zero")
        engine.seed({"A": [np.ones((8, 8)), np.ones((8, 8))]})
        small = SlidingTimeWindow(A, window=2)
        small.seed(0, np.ones((8, 8)))
        small.seed(1, np.ones((8, 8)))
        engine.windows["A"] = small
        with pytest.raises(KeyError, match="no longer in the window"):
            engine.step()

    def test_window_refuses_a_reclaimed_slot(self):
        from repro.schedule.timewindow import SlidingTimeWindow

        A = SpNode("A", (4, 4), f64, halo=(1, 1), time_window=2)
        window = SlidingTimeWindow(A)
        window.seed(0, np.ones((4, 4)))
        window.seed(1, np.ones((4, 4)))
        window.advance(2)
        with pytest.raises(KeyError, match="slot holds 2"):
            window.plane(0)


# -- no reference cycle ----------------------------------------------------------


class TestNoReferenceCycle:
    def test_dropped_rank_engine_frees_its_planes_without_gc(self):
        """Bound plans hold views and scratch, never the engine: with
        the cycle collector off, dropping a stepped rank frees its
        engine and its window storage at once (a cycle here cost
        +20 MiB of peak RSS on ``disthalo``)."""
        prog, init = _bench_program()
        subdomains = decompose(prog.ir.output.shape, (2, 1))

        def main(comm):
            dist = DistributedStencil(prog.ir, comm, subdomains,
                                      exchange_mode="overlap")
            dist.scatter({prog.ir.output.name: init}, {})
            for _ in range(4):
                dist.step()
            for ex in dist.exchangers.values():
                ex.finish_exchange()
            refs = [weakref.ref(dist), weakref.ref(dist.engine),
                    weakref.ref(dist.engine.windows["B"].data)]
            del dist
            return [ref() is None for ref in refs]

        gc.collect()
        gc.disable()
        try:
            dead = run_ranks(2, main, cart_dims=(2, 1),
                             periods=(True, True))
        finally:
            gc.enable()
        assert dead == [[True, True, True]] * 2

    def test_dropped_serial_executor_frees_its_planes_without_gc(self):
        prog, init = _bench_program()
        gc.collect()
        gc.disable()
        try:
            ex = ScheduledExecutor(prog.ir, prog.schedules(), "periodic")
            ex.run(init, 4)
            refs = [weakref.ref(ex.engine),
                    weakref.ref(ex.engine.windows["B"].data)]
            del ex
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
