"""Compile once, run many: the structural keys and the plan memo.

A second ``run`` of an unchanged program must not re-enter the compiler
pipeline at all (counted, not timed), anything the generated code can
see must give a new plan, and the keys that make skipping the generator
safe must be sound: equal key => byte-identical generated C.
"""

from __future__ import annotations

import copy
import ctypes
import gc
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as msc
from repro import obs
from repro.analysis.diagnostics import DiagnosticError
from repro.backend import native
from repro.backend.native import (
    ArtifactCache,
    NativeExecutor,
    SharedLibGenerator,
    ir_fingerprint,
    native_plan,
    schedule_fingerprint,
)
from repro.backend.numpy_backend import reference_run
from repro.frontend.stencils import benchmark_by_name
from repro.ir import Kernel, SpNode, Stencil, VarExpr, f64
from repro.schedule import Schedule, schedule_key
from tests.strategies import (
    boundaries,
    legal_schedules,
    star_stencil_cases,
)

needs_cc = pytest.mark.skipif(
    not native.native_available(), reason="no C compiler"
)


@pytest.fixture(autouse=True)
def _fresh_plan_table():
    native.clear_plans()
    yield
    native.clear_plans()


def _three_point(expr_of, name="k", halo=(1, 1), time_window=2):
    """``B[t] << k[t-1]`` over 12x16 with ``expr_of(B, j, i)`` inside."""
    B = SpNode("B", (12, 16), f64, halo=halo, time_window=time_window)
    j, i = VarExpr("j"), VarExpr("i")
    kern = Kernel(name, (j, i), expr_of(B, j, i))
    return Stencil(B, kern[Stencil.t - 1]), kern


def _star_program(grid=(16, 16), boundary="zero", seed=5):
    prog, handle = benchmark_by_name("2d9pt_star").build(
        grid=grid, dtype=f64, boundary=boundary
    )
    rng = np.random.default_rng(seed)
    init = [rng.random(grid)
            for _ in range(prog.ir.required_time_window - 1)]
    prog.set_initial(init)
    return prog, handle, init


def _expected(prog, init, steps):
    return reference_run(
        prog.ir, init, steps, prog.boundary,
        scalars=prog._scalars or None,
    ).tobytes()


# -- keys --------------------------------------------------------------------


class TestFingerprintSoundness:
    """Each case collided (or raised) while the fingerprints hashed
    the surface-syntax printer's text."""

    def test_association_of_a_sum_is_part_of_the_ir(self, rng):
        left, _ = _three_point(
            lambda B, j, i:
            (0.1 * B[j, i - 1] + 0.2 * B[j, i]) + 0.3 * B[j, i + 1])
        right, _ = _three_point(
            lambda B, j, i:
            0.1 * B[j, i - 1] + (0.2 * B[j, i] + 0.3 * B[j, i + 1]))
        assert ir_fingerprint(left) != ir_fingerprint(right)
        # ... because it is part of the result
        init = [rng.random((12, 16))]
        assert (reference_run(left, init, 3, "zero").tobytes()
                != reference_run(right, init, 3, "zero").tobytes())

    def test_tensor_time_offset_is_part_of_the_ir(self):
        now, _ = _three_point(
            lambda B, j, i: 0.5 * B[j, i] + 0.5 * B[j + 1, i],
            time_window=3)
        back, _ = _three_point(
            lambda B, j, i: 0.5 * B[j, i] + 0.5 * B.at(-1)[j + 1, i],
            time_window=3)
        assert ir_fingerprint(now) != ir_fingerprint(back)

    def test_tiled_variable_is_part_of_the_schedule(self):
        st_, kern = _three_point(lambda B, j, i: 0.5 * B[j, i])
        on_j = Schedule(kern).tile("j", 8, "a", "b")
        on_i = Schedule(kern).tile("i", 8, "a", "b")
        assert (schedule_fingerprint({kern.name: on_j})
                != schedule_fingerprint({kern.name: on_i}))
        c_j, c_i = (
            SharedLibGenerator(st_, {kern.name: s}).generate("x").main_source
            for s in (on_j, on_i)
        )
        assert c_j != c_i

    @needs_cc
    def test_non_uniform_halo_fingerprints_and_runs_native(self, rng):
        st_, _ = _three_point(
            lambda B, j, i: 0.4 * B[j, i] + 0.3 * B[j, i - 2]
            + 0.3 * B[j + 1, i],
            halo=(1, 2))
        assert len(ir_fingerprint(st_)) == 64
        init = [rng.random((12, 16))]
        want = reference_run(st_, init, 3, "periodic").tobytes()
        got = NativeExecutor(st_, {}, boundary="periodic").run(init, 3)
        assert got.tobytes() == want

    def test_constant_type_and_default_schedule(self):
        as_int, kern = _three_point(lambda B, j, i: 2 * B[j, i])
        as_float, _ = _three_point(lambda B, j, i: 2.0 * B[j, i])
        assert ir_fingerprint(as_int) != ir_fingerprint(as_float)
        # no entry and the explicit default schedule lower alike
        assert (schedule_key({}, as_int.kernels)
                == schedule_key({kern.name: Schedule(kern)}))


def _case_key_and_sources(stencil, sched, boundary):
    schedules = {stencil.kernels[0].name: sched}
    key = native._plan_key(
        stencil, schedule_key(schedules, stencil.kernels), boundary,
        None, ArtifactCache("/nonexistent"), None,
    )
    files = SharedLibGenerator(
        stencil, schedules, boundary=boundary
    ).generate("msc_native").files
    return key, files


@st.composite
def _scheduled_cases(draw):
    stencil, kern, shape = draw(star_stencil_cases(
        ndim=draw(st.sampled_from([2, 3])), max_side=10))
    return stencil, draw(legal_schedules(kern, shape)), draw(boundaries)


@given(a=_scheduled_cases(), b=_scheduled_cases())
@settings(max_examples=25)
def test_equal_plan_key_means_identical_generated_c(a, b):
    key_a, files_a = _case_key_and_sources(*a)
    key_b, files_b = _case_key_and_sources(*b)
    if key_a == key_b:
        assert files_a == files_b
    # a separately built, structurally equal program: same key, same C
    twin_key, twin_files = _case_key_and_sources(
        copy.deepcopy(a[0]), copy.deepcopy(a[1]), a[2])
    assert twin_key == key_a and twin_files == files_a


# -- the memo ----------------------------------------------------------------


class _Calls:
    """Counting wrappers around the pipeline's entry points."""

    def __init__(self, monkeypatch):
        import repro.analysis
        import repro.analysis.checker
        import repro.ir.validate

        self.count = {}
        for owner, attr in (
            (SharedLibGenerator, "generate"),
            (repro.analysis, "check_program"),
            (repro.analysis.checker, "stencil_issues"),
            (repro.ir.validate, "stencil_issues"),
            (native, "build_artifact"),
            (native.subprocess, "run"),
            (ctypes, "CDLL"),
        ):
            self._wrap(monkeypatch, owner, attr)

    def _wrap(self, monkeypatch, owner, attr):
        real = getattr(owner, attr)
        self.count.setdefault(attr, 0)

        def counted(*args, **kwargs):
            self.count[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    def reset(self):
        self.count = dict.fromkeys(self.count, 0)


@needs_cc
class TestPlanMemo:
    def test_second_run_reenters_nothing(self, monkeypatch):
        prog, _handle, init = _star_program()
        calls = _Calls(monkeypatch)
        first = prog.run(4, backend="native")
        assert prog.last_run["plan"] == "miss"
        assert calls.count["generate"] == 1
        assert calls.count["check_program"] == 1
        calls.reset()
        second = prog.run(4, backend="native")
        assert prog.last_run["plan"] == "hit"
        assert prog.last_run["artifact"].cached
        assert calls.count == dict.fromkeys(calls.count, 0)
        assert second.tobytes() == first.tobytes() == _expected(prog, init, 4)

    def test_observability_of_hit_and_miss(self):
        prog, _handle, _init = _star_program()
        with obs.capture() as (tracer, reg):
            prog.run(2, backend="native")
        assert reg.counter_total("native.plan.miss") == 1
        assert reg.counter_total("native.plan.hit") == 0
        by_name = {s.name: s for s in tracer.records}
        assert by_name["native.plan"].attrs["outcome"] == "miss"
        assert by_name["analysis.check"].attrs["memo"] == "miss"
        assert by_name["runtime.run"].attrs["plan"] == "miss"
        with obs.capture() as (tracer, reg):
            prog.run(2, backend="native")
        assert reg.counter_total("native.plan.hit") == 1
        assert reg.counter_total("native.plan.miss") == 0
        assert reg.counter_total("native.cache.hit") == 0
        assert reg.counter_total("native.cache.miss") == 0
        by_name = {s.name: s for s in tracer.records}
        assert "native.compile" not in by_name
        assert by_name["native.plan"].attrs["outcome"] == "hit"
        assert by_name["analysis.check"].attrs["memo"] == "hit"
        assert by_name["runtime.run"].attrs["plan"] == "hit"

    def test_whatever_the_code_can_see_gives_a_new_plan(
            self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CC", raising=False)
        prog, handle, init = _star_program()

        def run_is(outcome):
            got = prog.run(3, backend="native")
            assert prog.last_run["plan"] == outcome
            assert got.tobytes() == _expected(prog, init, 3)

        run_is("miss")
        run_is("hit")
        handle.tile(4, 8, "yo", "yi", "xo", "xi")
        run_is("miss")
        run_is("hit")
        prog.boundary = "periodic"
        run_is("miss")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        run_is("miss")
        assert not prog.last_run["artifact"].cached  # a new, empty root
        monkeypatch.setenv("REPRO_CC", native.which_cc())
        run_is("miss")
        assert prog.last_run["artifact"].cached  # same compiler, on disk
        run_is("hit")

    def test_set_scalar_gives_a_new_plan(self, rng):
        j, i = msc.indices("j i")
        c0 = msc.DefVar("c0", msc.f64)
        A = msc.DefTensor2D_TimeWin("A", 2, 1, msc.f64, 12, 16)
        K = msc.Kernel("K", (j, i), c0 * A[j, i] + 0.25 * A[j, i - 1])
        prog = msc.StencilProgram(A, K[msc.StencilProgram.t - 1])
        init = [rng.random((12, 16))]
        prog.set_initial(init)
        for value, outcome in ((0.5, "miss"), (0.5, "hit"), (0.75, "miss"),
                               (0.5, "hit")):
            prog.set_scalar("c0", value)
            got = prog.run(2, backend="native")
            assert prog.last_run["plan"] == outcome
            assert got.tobytes() == _expected(prog, init, 2)

    def test_structure_not_identity_keys_the_plan(self):
        first, _h, init = _star_program()
        first.run(2, backend="native")
        twin, _h, _ = _star_program()  # built separately, same structure
        assert twin.ir is not first.ir
        got = twin.run(2, backend="native")
        assert twin.last_run["plan"] == "hit"
        assert got.tobytes() == _expected(twin, init, 2)
        other, _h, other_init = _star_program(grid=(16, 24))
        got = other.run(2, backend="native")
        assert other.last_run["plan"] == "miss"
        assert got.tobytes() == _expected(other, other_init, 2)

    def test_cold_plan_is_built_once_under_contention(
            self, monkeypatch, tmp_path):
        prog, _handle, init = _star_program(grid=(24, 24))
        cache = ArtifactCache(str(tmp_path / "cache"))
        calls = _Calls(monkeypatch)
        want = _expected(prog, init, 3)
        gate = threading.Barrier(8)
        got, errors = [], []

        def construct_and_run():
            try:
                gate.wait(timeout=60)
                ex = NativeExecutor(prog.ir, prog.schedules(),
                                    prog.boundary, cache=cache)
                got.append((ex.plan_hit, ex.run(init, 3).tobytes()))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=construct_and_run)
                   for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert calls.count["generate"] == 1
        assert calls.count["build_artifact"] == 1
        assert sorted(hit for hit, _ in got) == [False] + [True] * 7
        assert {result for _, result in got} == {want}

    def test_lru_eviction_rebuilds_through_the_disk_cache(
            self, monkeypatch):
        monkeypatch.setattr(native, "PLAN_CAPACITY", 2)
        progs = [_star_program(grid=(16, 16 + 8 * n)) for n in range(3)]
        for prog, _h, _init in progs:
            prog.run(1, backend="native")
            assert prog.last_run["plan"] == "miss"
        # the table now holds programs 1 and 2; 0 was the oldest
        progs[2][0].run(1, backend="native")
        assert progs[2][0].last_run["plan"] == "hit"
        prog, _h, init = progs[0]
        with obs.capture() as (_tracer, reg):
            got = prog.run(1, backend="native")
        assert prog.last_run["plan"] == "miss"
        assert prog.last_run["artifact"].cached
        assert reg.counter_total("native.cache.hit") == 1
        assert got.tobytes() == _expected(prog, init, 1)

    def test_a_failed_build_is_not_memoised(self, monkeypatch):
        prog, _h, _init = _star_program()
        monkeypatch.setattr(native, "which_cc", lambda cc=None: None)
        for _ in range(2):
            with pytest.raises(native.NativeUnavailable):
                prog.run(1, backend="native")
        monkeypatch.undo()
        prog.run(1, backend="native")
        assert prog.last_run["plan"] == "miss"

    def test_plan_holds_no_plane(self, rng):
        from tests.test_differential import _aux_offset_stencil

        stencil = _aux_offset_stencil()
        ex = NativeExecutor(
            stencil, {}, inputs={"C": rng.random((12, 16))})
        ex.run([rng.random((12, 16))], 1)
        plan, hit = native_plan(stencil, {})
        assert hit and plan.aux_tensors[0].name == "C"
        opaque = (type, types.ModuleType, types.FunctionType,
                  types.BuiltinFunctionType)
        seen, stack = set(), [plan]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, opaque):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, np.ndarray)
            stack.extend(gc.get_referents(obj))
        assert len(seen) > 20  # the walk did enter the plan


def _window_address(prog) -> int:
    """Where the window of the program's kept executor lives."""
    return prog._idle["native"]._win.data.ctypes.data


@needs_cc
class TestKeptExecutor:
    """A warm run binds the last run's executor again: one window
    buffer, re-seeded in place, and nothing of the previous run shows."""

    def test_two_warm_runs_use_one_window(self):
        prog, _handle, init = _star_program()
        first = prog.run(4, backend="native")
        address = _window_address(prog)
        second = prog.run(4, backend="native")
        assert _window_address(prog) == address
        assert second.tobytes() == first.tobytes() == _expected(
            prog, init, 4)
        # the result is the caller's own, not a view of the window
        third = prog.run(1, backend="native")
        assert second.tobytes() == first.tobytes()
        assert third.tobytes() == _expected(prog, init, 1)

    @pytest.mark.parametrize("backend", ["native", "auto"])
    def test_warm_run_looks_no_compiler_up(self, monkeypatch, backend):
        prog, handle, init = _star_program()
        prog.run(2, backend=backend)
        assert prog.last_run["reason"] != "kept executor"
        monkeypatch.setattr(native, "which_cc", lambda cc=None: None)
        got = prog.run(2, backend=backend)
        assert prog.last_run["backend"] == "native"
        assert prog.last_run["reason"] == "kept executor"
        assert got.tobytes() == _expected(prog, init, 2)
        # a new plan must be built, and without a compiler it cannot
        handle.tile(4, 8, "xo", "xi", "yo", "yi")
        if backend == "native":
            with pytest.raises(native.NativeUnavailable):
                prog.run(2, backend=backend)
        else:
            assert prog.run(2, backend=backend).tobytes() == _expected(
                prog, init, 2)
            assert prog.last_run["backend"] == "numpy"

    @pytest.mark.parametrize("boundary", ["zero", "periodic", "reflect"])
    def test_repeated_runs_leave_no_stale_halo(self, boundary, rng):
        prog, _handle, _init = _star_program(boundary=boundary)
        address = None
        for steps in (5, 3, 0, 4, 1):
            init = [rng.random((16, 16)) * 10 ** steps for _ in range(2)]
            prog.set_initial(init)
            got = prog.run(steps, backend="native")
            assert got.tobytes() == _expected(prog, init, steps)
            address = address or _window_address(prog)
            assert _window_address(prog) == address

    def test_next_run_sees_every_change(self, rng):
        j, i = msc.indices("j i")
        c0 = msc.DefVar("c0", msc.f64)
        B = msc.DefTensor2D_TimeWin("B", 2, 1, msc.f64, 12, 16)
        C = msc.DefTensor2D("C", 1, msc.f64, 12, 16)
        K = msc.Kernel("K", (j, i), c0 * C[j, i] * B[j, i]
                       + 0.125 * (B[j, i - 1] + B[j + 1, i])
                       + 0.01 * C[j, i + 1])
        prog = msc.StencilProgram(B, K[msc.StencilProgram.t - 1])
        coeff = rng.random((12, 16))
        prog.set_input("C", coeff).set_scalar("c0", 0.5)
        prog.set_initial([rng.random((12, 16))])

        def run_is_reference():
            got = prog.run(3, backend="native")
            want = reference_run(
                prog.ir, prog._initial, 3, prog.boundary,
                inputs={"C": coeff}, scalars=prog._scalars)
            assert got.tobytes() == want.tobytes()

        run_is_reference()
        prog.set_initial([rng.random((12, 16))])
        run_is_reference()
        prog.set_scalar("c0", 0.75)
        run_is_reference()
        K.tile(4, 8, "yo", "yi", "xo", "xi")
        run_is_reference()
        coeff *= 3.0  # the program holds this very array
        run_is_reference()
        prog.boundary = "periodic"
        run_is_reference()

    def test_threads_on_one_program(self):
        prog, _handle, init = _star_program(grid=(48, 48))
        want = _expected(prog, init, 6)
        prog.run(6, backend="native")
        gate = threading.Barrier(4)
        got, errors = [], []

        def runs():
            try:
                gate.wait(timeout=60)
                for _ in range(20):
                    got.append(prog.run(6, backend="native").tobytes())
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=runs) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert len(got) == 80 and set(got) == {want}

    def test_initialize_twice_reuses_storage(self, rng):
        prog, _handle, _init = _star_program()
        ex = NativeExecutor(prog.ir, prog.schedules(), prog.boundary)
        address = None
        for steps in (4, 2):
            init = [rng.random((16, 16)) for _ in range(2)]
            ex.initialize(init)
            address = address or ex._win.data.ctypes.data
            assert ex._win.data.ctypes.data == address
            ex.advance(steps)
            assert ex.result().tobytes() == _expected(prog, init, steps)
        ex.bind(prog.ir, prog.schedules(), prog.boundary)
        ex.initialize(init)
        assert ex._win.data.ctypes.data == address
        old = ex._win
        prog.boundary = "periodic"  # a new plan: the window is dropped
        ex.bind(prog.ir, prog.schedules(), prog.boundary)
        with pytest.raises(RuntimeError, match="initialize"):
            ex.advance(1)
        ex.initialize(init)
        assert ex._win is not old

    def test_a_failed_bind_keeps_the_old_plan(self, rng):
        from tests.test_differential import _aux_offset_stencil

        stencil = _aux_offset_stencil()
        coeff = {"C": rng.random((12, 16))}
        init = [rng.random((12, 16))]
        ex = NativeExecutor(stencil, {}, inputs=coeff)
        ex.run(init, 2)
        with pytest.raises(ValueError, match="missing data"):
            ex.bind(stencil, {}, "periodic")  # a new plan, no inputs
        with pytest.raises(RuntimeError, match="initialize"):
            ex.advance(1)
        want = reference_run(stencil, init, 3, "zero", inputs=coeff)
        assert ex.run(init, 3).tobytes() == want.tobytes()


@needs_cc
class TestGateStillEnforces:
    """The report is cached; raising and logging are not."""

    def test_error_raises_on_every_run(self, monkeypatch):
        prog, handle, _init = _star_program()
        handle.tile(4, 4, "yo", "yi", "xo", "xi")
        handle.parallel("yi", 2)  # RACE001: a tile-inner axis
        calls = _Calls(monkeypatch)
        for _ in range(3):
            with pytest.raises(DiagnosticError, match="RACE001"):
                prog.run(1, backend="native")
        assert calls.count["check_program"] == 1
        assert calls.count["generate"] == 0

    def test_warning_logged_on_every_run(self, monkeypatch, capsys):
        prog, handle, _init = _star_program()
        handle.tile(5, 4, "yo", "yi", "xo", "xi")  # TILE002: 16 % 5
        calls = _Calls(monkeypatch)
        for _ in range(3):
            prog.run(1, backend="native")
            assert "TILE002" in capsys.readouterr().err
        assert calls.count["check_program"] == 1

    def test_returned_report_is_the_callers_own(self):
        prog, _handle, _init = _star_program()
        report = prog.check("cpu")
        report.add("X001", "error", "added by the caller")
        assert prog.check("cpu").ok
