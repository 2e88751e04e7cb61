"""Native execution backend: compile the generated C, run it in-process.

The paper's headline claim is that *generated* code runs at native
speed; executing the lowered schedule tile-by-tile in numpy (the
:class:`~repro.backend.numpy_backend.ScheduledExecutor`) keeps every
transformation observable but leaves the raw-speed claim untested.
This module closes that gap the way Devito does (Luporini et al.): the
:class:`~repro.backend.c_codegen.CCodeGenerator` bundle is compiled
into a shared library and driven through ``ctypes`` on the same padded
numpy planes, so results are bit-comparable with the numpy backend.

MSC is an AOT system, so compilation is paid once: everything that
depends only on *what is compiled* — generated sources, fingerprints,
the built artifact, the loaded and bound library — is a
:class:`NativePlan`, memoised per process by :func:`native_plan` on the
program's content.  A :class:`NativeExecutor` is a plan plus the data
being stepped; a program keeps the executor of its last run and binds
it again, so a warm ``run`` re-seeds that window in place and costs
its ``msc_run`` plus a few copies.

Two pieces are reusable beyond the executor:

- :func:`build_artifact` / :class:`ArtifactCache` — a content-addressed
  on-disk binary cache keyed by (sources, resolved flags, compiler
  fingerprint, program fingerprints).  ``repro verify`` builds its
  check binaries through the same helper, so one codegen change cannot
  drift between the run and verify paths.
- :func:`run_binary` — timeout-guarded execution of a generated
  program (a wedged compile or runaway binary must never hang the
  pipeline; see the ``REPRO_COMPILE_TIMEOUT`` / ``REPRO_RUN_TIMEOUT``
  knobs).

Cache layout (``REPRO_CACHE_DIR``, default ``~/.cache/repro/artifacts``)::

    <root>/<key[:2]>/<key>/meta.json   # fingerprints, flags, size
    <root>/<key[:2]>/<key>/<binary>    # the .so or executable
    <root>/<key[:2]>/<key>/<sources>   # what was compiled

``-march=native`` is resolved to the concrete architecture name before
keying, so a cache directory copied between hosts misses (and
recompiles) instead of silently running foreign code.

Observability: ``native.plan`` (``outcome=hit|miss``) /
``native.compile`` / ``native.run`` / ``native.exec`` spans,
``native.plan.hit`` / ``native.plan.miss`` and ``native.cache.hit`` /
``native.cache.miss`` counters.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.pipeline import StagePipeline
from ..ir.stencil import Stencil
from ..ir.tensor import SpNode
from ..schedule.schedule import Schedule, schedule_key
from ..schedule.timewindow import SlidingTimeWindow
from .c_codegen import CCodeGenerator
from .makefile import TOOLCHAINS, toolchain_cflags
from .numpy_backend import seed_window, static_planes

__all__ = [
    "NativeUnavailable",
    "NativeBuildError",
    "NativeRunError",
    "ArtifactCache",
    "BuiltArtifact",
    "build_artifact",
    "run_binary",
    "which_cc",
    "native_available",
    "compiler_fingerprint",
    "compile_timeout",
    "run_timeout",
    "cache_dir",
    "artifact_key",
    "ir_fingerprint",
    "schedule_fingerprint",
    "SharedLibGenerator",
    "NativePlan",
    "native_plan",
    "clear_plans",
    "NativeExecutor",
    "select_backend",
]

#: default ceilings; override with REPRO_COMPILE_TIMEOUT / REPRO_RUN_TIMEOUT
DEFAULT_COMPILE_TIMEOUT_S = 120.0
DEFAULT_RUN_TIMEOUT_S = 300.0


class NativeUnavailable(RuntimeError):
    """No usable C compiler on this host (native backend cannot run)."""


class NativeBuildError(RuntimeError):
    """Compilation failed (or timed out: see ``timed_out``)."""

    def __init__(self, message: str, stderr: str = "",
                 timed_out: bool = False):
        super().__init__(message)
        self.stderr = stderr
        self.timed_out = timed_out


class NativeRunError(RuntimeError):
    """A generated binary failed or exceeded its run timeout."""

    def __init__(self, message: str, timed_out: bool = False):
        super().__init__(message)
        self.timed_out = timed_out


def compile_timeout() -> float:
    """Seconds a single compiler invocation may take."""
    return float(
        os.environ.get("REPRO_COMPILE_TIMEOUT", DEFAULT_COMPILE_TIMEOUT_S)
    )


def run_timeout() -> float:
    """Seconds a generated binary may run."""
    return float(os.environ.get("REPRO_RUN_TIMEOUT", DEFAULT_RUN_TIMEOUT_S))


def cache_dir() -> str:
    """Artifact-cache root (``REPRO_CACHE_DIR`` wins; read per call)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "artifacts"
    )


def which_cc(cc: Optional[str] = None) -> Optional[str]:
    """Resolve the C compiler path, or None when absent.

    Order: explicit ``cc`` argument, ``REPRO_CC``, the cpu-toolchain
    default (gcc).
    """
    cand = cc or os.environ.get("REPRO_CC") or TOOLCHAINS["cpu"]["cc"]
    return _which(cand, os.environ.get("PATH"))


@lru_cache(maxsize=16)
def _which(cand: str, path: Optional[str]) -> Optional[str]:
    """``shutil.which`` once per (name, PATH): every native ``run``
    resolves its compiler; a PATH scan costs more than a warm run."""
    return shutil.which(cand, path=path)


def native_available(cc: Optional[str] = None) -> bool:
    """True when a C compiler is on PATH."""
    return which_cc(cc) is not None


@lru_cache(maxsize=8)
def compiler_fingerprint(cc_path: str) -> Tuple[Tuple[str, str], ...]:
    """Identity of the toolchain: version, target triple, resolved arch.

    Cached per compiler path, so the warm (cache-hit) path spawns no
    subprocesses at all.  Returned as a sorted tuple of pairs so it is
    hashable; use ``dict(...)`` for metadata.
    """
    def q(args: List[str]) -> str:
        try:
            proc = subprocess.run(
                [cc_path] + args, capture_output=True, text=True,
                timeout=compile_timeout(),
            )
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return proc.stdout.strip() if proc.returncode == 0 else ""

    version = q(["-dumpfullversion"]) or q(["-dumpversion"])
    machine = q(["-dumpmachine"])
    # resolve what -march=native means *here*: a cache directory shared
    # or copied across hosts must miss, not run foreign code
    march = ""
    try:
        help_out = subprocess.run(
            [cc_path, "-march=native", "-Q", "--help=target"],
            capture_output=True, text=True, timeout=compile_timeout(),
            stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.TimeoutExpired):
        help_out = None
    if help_out is not None and help_out.returncode == 0:
        for line in help_out.stdout.splitlines():
            parts = line.split()
            if len(parts) >= 2 and parts[0] == "-march=":
                march = parts[1]
                break
    return tuple(sorted({
        "cc": os.path.basename(cc_path),
        "version": version,
        "machine": machine,
        "march": march,
    }.items()))


def resolve_flags(flags: Sequence[str], fingerprint: Mapping[str, str]
                  ) -> List[str]:
    """Flags with host-dependent values made explicit for keying."""
    resolved = []
    for f in flags:
        if f == "-march=native" and fingerprint.get("march"):
            resolved.append(f"-march={fingerprint['march']}")
        else:
            resolved.append(f)
    return resolved


def artifact_key(sources: Mapping[str, str], flags: Sequence[str],
                 fingerprint: Mapping[str, str], kind: str,
                 extra: Optional[Mapping[str, Any]] = None) -> str:
    """Content address for one build: sha256 over everything that can
    change the binary."""
    payload = {
        "sources": {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in sorted(sources.items())
        },
        "flags": resolve_flags(flags, fingerprint),
        "compiler": dict(fingerprint),
        "kind": kind,
        "extra": dict(extra or {}),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class BuiltArtifact:
    """One resolved binary: where it is and how it was keyed."""

    path: str
    key: str
    cached: bool
    meta: Dict[str, Any]


class ArtifactCache:
    """Content-addressed binary store under :func:`cache_dir`.

    Corrupt entries (unreadable ``meta.json``, size mismatch against
    the recorded binary size) are purged at lookup and reported as a
    miss — never surfaced as an error.
    """

    def __init__(self, root: Optional[str] = None):
        self._root = root

    @property
    def root(self) -> str:
        return self._root or cache_dir()

    def _entry(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key)

    def lookup(self, key: str, binary_name: str
               ) -> Optional[Tuple[str, Dict[str, Any]]]:
        entry = self._entry(key)
        meta_path = os.path.join(entry, "meta.json")
        bin_path = os.path.join(entry, binary_name)
        if not (os.path.isfile(meta_path) and os.path.isfile(bin_path)):
            return None
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            if int(meta["size"]) != os.path.getsize(bin_path):
                raise ValueError("binary size mismatch")
        except (ValueError, KeyError, OSError, json.JSONDecodeError):
            self.invalidate(key)
            return None
        return bin_path, meta

    def store(self, key: str, binary_path: str,
              sources: Mapping[str, str],
              meta: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
        """Publish one built entry; safe against concurrent writers of
        the same key (threads or processes): each stages into a
        directory of its own and renames it into place, and a writer
        that finds a valid entry already there adopts it.
        """
        entry = self._entry(key)
        binary_name = os.path.basename(binary_path)
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=key + ".tmp",
                               dir=os.path.dirname(entry))
        try:
            shutil.copy2(binary_path, os.path.join(tmp, binary_name))
            for name, text in sources.items():
                with open(os.path.join(tmp, name), "w") as fh:
                    fh.write(text)
            meta = dict(meta)
            meta["size"] = os.path.getsize(binary_path)
            meta["key"] = key
            with open(os.path.join(tmp, "meta.json"), "w") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True, default=str)
            for _ in range(3):
                try:
                    os.replace(tmp, entry)
                    break
                except OSError:
                    # a non-empty entry is in the way: another writer's
                    # (same key, same content) or left-over junk
                    won = self.lookup(key, binary_name)
                    if won is not None:
                        return won
                    self.invalidate(key)
            else:
                raise OSError(f"cannot publish cache entry {entry}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return os.path.join(entry, binary_name), meta

    def invalidate(self, key: str) -> None:
        shutil.rmtree(self._entry(key), ignore_errors=True)


def build_artifact(sources: Mapping[str, str], binary_name: str,
                   kind: str = "exe",
                   cc: Optional[str] = None,
                   flags: Optional[Sequence[str]] = None,
                   compile_files: Optional[Sequence[str]] = None,
                   libs: Sequence[str] = ("-lm",),
                   cache: Optional[ArtifactCache] = None,
                   key_extra: Optional[Mapping[str, Any]] = None,
                   timeout: Optional[float] = None) -> BuiltArtifact:
    """Compile ``sources`` into ``binary_name``, through the cache.

    ``kind`` is ``"exe"`` or ``"shared"`` (adds ``-shared -fPIC``);
    ``compile_files`` selects which sources are passed to the compiler
    (default: every ``.c``); headers just need to be in ``sources``.
    A hit spawns no compiler subprocess and bumps ``native.cache.hit``.
    """
    from ..obs import counter, span
    from ..obs.events import emit

    cc_path = which_cc(cc)
    if cc_path is None:
        raise NativeUnavailable(
            "no C compiler found (install gcc or set REPRO_CC)"
        )
    fp = dict(compiler_fingerprint(cc_path))
    if flags is None:
        flags = toolchain_cflags("cpu")
    flags = list(flags)
    if kind == "shared":
        for extra in ("-shared", "-fPIC"):
            if extra not in flags:
                flags.append(extra)
    elif kind != "exe":
        raise ValueError(f"unknown artifact kind {kind!r}")
    key = artifact_key(sources, flags, fp, kind, key_extra)
    cache = cache or ArtifactCache()
    hit = cache.lookup(key, binary_name)
    if hit is not None:
        counter("native.cache.hit", kind=kind)
        emit("native.cache.hit", kind=kind, key=key[:12])
        return BuiltArtifact(path=hit[0], key=key, cached=True,
                             meta=hit[1])
    counter("native.cache.miss", kind=kind)
    emit("native.cache.miss", level="warn", kind=kind, key=key[:12])
    cfiles = list(compile_files) if compile_files is not None else sorted(
        name for name in sources if name.endswith(".c")
    )
    with span("native.compile", kind=kind, key=key[:12]):
        tmpdir = tempfile.mkdtemp(prefix="repro-native-")
        try:
            for name, text in sources.items():
                with open(os.path.join(tmpdir, name), "w") as fh:
                    fh.write(text)
            cmd = ([cc_path] + flags + ["-I."] + cfiles
                   + ["-o", binary_name] + list(libs))
            try:
                proc = subprocess.run(
                    cmd, cwd=tmpdir, capture_output=True, text=True,
                    timeout=timeout or compile_timeout(),
                )
            except subprocess.TimeoutExpired as exc:
                raise NativeBuildError(
                    f"compile timed out after {exc.timeout:.0f}s",
                    timed_out=True,
                ) from exc
            if proc.returncode != 0:
                raise NativeBuildError(
                    f"{os.path.basename(cc_path)} failed "
                    f"(rc={proc.returncode})",
                    stderr=proc.stderr,
                )
            meta = {
                "kind": kind,
                "compiler": fp,
                "flags": resolve_flags(flags, fp),
                "binary": binary_name,
                "sources": sorted(sources),
                "extra": dict(key_extra or {}),
            }
            path, meta = cache.store(
                key, os.path.join(tmpdir, binary_name), sources, meta
            )
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
    return BuiltArtifact(path=path, key=key, cached=False, meta=meta)


def run_binary(path: str, args: Sequence[str],
               cwd: Optional[str] = None,
               timeout: Optional[float] = None
               ) -> "subprocess.CompletedProcess[str]":
    """Run a generated binary with the run-timeout guard.

    Raises :class:`NativeRunError` on timeout; nonzero exit status is
    the caller's to interpret (the CompletedProcess is returned).
    """
    from ..obs import span

    with span("native.run", binary=os.path.basename(path)):
        try:
            return subprocess.run(
                [path] + list(args), cwd=cwd, capture_output=True,
                text=True, timeout=timeout or run_timeout(),
            )
        except subprocess.TimeoutExpired as exc:
            raise NativeRunError(
                f"run timed out after {exc.timeout:.0f}s",
                timed_out=True,
            ) from exc


# -- program fingerprints --------------------------------------------------


def _digest(key: Tuple) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()


def ir_fingerprint(stencil: Stencil) -> str:
    """Stable hash of the stencil IR's *structure* (see
    :attr:`Stencil.fingerprint`): total over everything
    ``validate_stencil`` accepts, equal only for equal trees."""
    return stencil.fingerprint


def schedule_fingerprint(schedules: Mapping[str, Schedule]) -> str:
    """Stable hash of every kernel's schedule primitives, field for
    field (:func:`~repro.schedule.schedule.schedule_key`)."""
    return _digest(schedule_key(schedules))


# -- shared-library flavour of the C generator -----------------------------


class SharedLibGenerator(CCodeGenerator):
    """C generator variant exporting an in-process entry point.

    Instead of the file-I/O ``main``, the bundle exports::

        long msc_plane_elems(void);   /* padded elems per plane   */
        long msc_time_window(void);   /* TWIN                     */
        long msc_history(void);       /* initial planes expected  */
        int  msc_run(real *win, real **aux, long t0, long steps);

    ``win`` is the caller-owned TWIN-plane window (contiguous,
    ``TWIN * PLANE_ELEMS`` reals, plane ``t`` at slot ``t % TWIN``)
    with the initial halos already filled; ``aux`` the padded static
    input planes in :meth:`_aux_tensors` order.  The library has no
    file-scope state: any number of threads may call ``msc_run`` at
    once, each on its own window.
    """

    target = "c-shared"
    includes = ("math.h",)  # no I/O, no allocation: each costs gcc time

    def entry_point(self) -> str:
        """The exports; everything they touch arrives as an argument, so
        the library keeps no mutable state and ``msc_run`` is re-entrant.
        """
        hist = self.stencil.required_time_window - 1
        lines = [
            "long msc_plane_elems(void) { return PLANE_ELEMS; }",
            "long msc_time_window(void) { return TWIN; }",
            f"long msc_history(void) {{ return {hist}; }}",
            "int msc_run(real *win, real **aux, long t0, long steps) {",
            "  (void)aux;",
            "  for (long t = t0; t < t0 + steps; t++) {",
        ]
        lines += self._timestep_body()
        lines += [
            "  }",
            "  return 0;",
            "}",
        ]
        return "\n".join(lines)


# -- compile once: the plan and its per-process memo ------------------------

#: plans one process keeps; the least recently used goes first
PLAN_CAPACITY = 64


@dataclass(frozen=True)
class NativePlan:
    """What compiling one program produced — everything an executor
    needs that does not depend on the data being stepped.

    Holds no plane (no ndarray), so any number of executors share one
    plan.  ``lib`` is loaded *and bound*; the mapping it holds keeps a
    live plan working after its on-disk entry is deleted or replaced.
    """

    sources: Mapping[str, str]
    key_extra: Mapping[str, Any]
    artifact: BuiltArtifact
    lib: ctypes.CDLL
    c_real: type  #: ctypes scalar of the working precision
    twin: int
    history: int  #: initial planes ``msc_run`` expects
    aux_tensors: Tuple[SpNode, ...]  #: static inputs, in ``aux`` order


class _PlanSlot:
    """One table entry; ``lock`` makes the build single-flight."""

    __slots__ = ("lock", "plan")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.plan: Optional[NativePlan] = None


_plans: "OrderedDict[Tuple, _PlanSlot]" = OrderedDict()
_plans_lock = threading.Lock()


def clear_plans() -> None:
    """Forget every memoised plan (test hook: the next construction
    goes through the generator and the on-disk cache again)."""
    with _plans_lock:
        _plans.clear()


def native_plan(stencil: Stencil, schedules: Mapping[str, Schedule],
                boundary: str = "zero",
                scalars: Optional[Mapping[str, float]] = None,
                cache: Optional[ArtifactCache] = None,
                cc: Optional[str] = None,
                sched_key: Optional[Tuple] = None
                ) -> Tuple[NativePlan, bool]:
    """The compiled plan of a program and whether it was memoised.

    Keyed on content, not identity: the IR's structural fingerprint,
    the schedules field for field (defaults filled in; pass
    ``sched_key`` when ``schedule_key(schedules, stencil.kernels)`` is
    already at hand), boundary, scalar bindings, the artifact-cache
    root and the compiler request — so two structurally equal programs
    share a plan and any change of the above gets a new one.  A miss
    generates, fingerprints, builds through the on-disk cache, loads
    and binds; a hit does none of that.  Concurrent requests for one
    missing plan build it once.
    """
    from ..obs import counter, span

    cache = cache or ArtifactCache()
    if sched_key is None:
        sched_key = schedule_key(schedules, stencil.kernels)
    key = _plan_key(stencil, sched_key, boundary, scalars, cache, cc)
    with span("native.plan") as sp:
        with _plans_lock:
            slot = _plans.get(key)
            if slot is None:
                slot = _plans[key] = _PlanSlot()
                if len(_plans) > PLAN_CAPACITY:
                    _plans.popitem(last=False)
            else:
                _plans.move_to_end(key)
        with slot.lock:
            hit = slot.plan is not None
            if not hit:
                # a failed build leaves the slot empty: the next
                # request (or waiter) tries again
                slot.plan = _compile_plan(
                    stencil, schedules, boundary, scalars, cache, cc,
                    sched_key,
                )
        outcome = "hit" if hit else "miss"
        sp.set(outcome=outcome, key=slot.plan.artifact.key[:12])
    counter("native.plan." + outcome)
    return slot.plan, hit


def _plan_key(stencil: Stencil, sched_key: Tuple, boundary: str,
              scalars: Optional[Mapping[str, float]],
              cache: ArtifactCache, cc: Optional[str]) -> Tuple:
    """Everything the generated sources, the build and the cache entry
    depend on.  Must stay at least as fine as the sources: a hit skips
    generating them, so nothing downstream can catch a collision."""
    return (
        stencil.fingerprint, sched_key, boundary,
        # repr: 0.0 == -0.0 and 1 == 1.0, yet each prints its own C
        tuple(sorted((n, repr(v)) for n, v in (scalars or {}).items())),
        cache.root, cc or os.environ.get("REPRO_CC"),
    )


def _compile_plan(stencil: Stencil, schedules: Mapping[str, Schedule],
                  boundary: str, scalars: Optional[Mapping[str, float]],
                  cache: ArtifactCache, cc: Optional[str],
                  sched_key: Tuple) -> NativePlan:
    from ..machine.spec import machine_by_name

    gen = SharedLibGenerator(
        stencil, schedules, boundary=boundary, scalars=scalars
    )
    sources = gen.generate("msc_native").files
    key_extra = {
        "ir": ir_fingerprint(stencil),
        "schedule": _digest(sched_key),
        "boundary": boundary,
        "machine": machine_by_name("cpu").name,
        "scalars": sorted(gen.scalars.items()),
    }

    def build() -> BuiltArtifact:
        return build_artifact(
            sources, "msc_native.so", kind="shared", cc=cc,
            cache=cache, key_extra=key_extra,
        )

    out = stencil.output
    c_real = ctypes.c_float if out.dtype.nbytes == 4 else ctypes.c_double
    plane_elems = int(np.prod(out.padded_shape))

    def load(path: str) -> ctypes.CDLL:
        return _bind(ctypes.CDLL(path), c_real, plane_elems,
                     out.time_window)

    artifact = build()
    try:
        lib = load(artifact.path)
    except (OSError, AttributeError):
        # a same-size-corrupt cached .so (dlopen fails), or one
        # that loads but lacks our symbols: purge, rebuild once
        cache.invalidate(artifact.key)
        artifact = build()
        lib = load(artifact.path)
    return NativePlan(
        sources=sources, key_extra=key_extra, artifact=artifact, lib=lib,
        c_real=c_real, twin=out.time_window,
        history=stencil.required_time_window - 1,
        aux_tensors=tuple(gen.aux_tensors),
    )


def _bind(lib: ctypes.CDLL, c_real: type, plane_elems: int,
          twin: int) -> ctypes.CDLL:
    realp = ctypes.POINTER(c_real)
    lib.msc_run.restype = ctypes.c_int
    lib.msc_run.argtypes = [
        realp, ctypes.POINTER(realp), ctypes.c_long, ctypes.c_long
    ]
    lib.msc_plane_elems.restype = ctypes.c_long
    lib.msc_time_window.restype = ctypes.c_long
    lib.msc_history.restype = ctypes.c_long
    got = int(lib.msc_plane_elems())
    if got != plane_elems or int(lib.msc_time_window()) != twin:
        raise NativeBuildError(
            f"shared library layout mismatch: plane_elems={got} "
            f"(want {plane_elems})"
        )
    return lib


# -- the executor ----------------------------------------------------------


class NativeExecutor:
    """Runs the compiled shared library on numpy-owned planes.

    API mirrors :class:`~repro.backend.numpy_backend.ScheduledExecutor`
    (``initialize`` / ``step`` / ``run`` / ``result``) so callers can
    swap backends; results are bit-comparable because the generated C
    is built with ``-ffp-contract=off`` and evaluates in the working
    precision.

    Construction is :meth:`bind`: a :func:`native_plan` lookup plus
    this run's static input planes; ``artifact.cached`` says no
    compiler ran for *this* binding, so it is True on a plan hit.  The
    first ``initialize`` allocates the window, every later one re-seeds
    it in place, so an executor bound again to the same plan (the next
    warm run of one program) allocates nothing and keeps the ctypes
    pointers ``msc_run`` is called with.
    """

    def __init__(self, stencil: Stencil,
                 schedules: Mapping[str, Schedule],
                 boundary: str = "zero",
                 inputs: Optional[Mapping[str, np.ndarray]] = None,
                 scalars: Optional[Mapping[str, float]] = None,
                 cache: Optional[ArtifactCache] = None,
                 cc: Optional[str] = None,
                 sched_key: Optional[Tuple] = None):
        self._plan: Optional[NativePlan] = None
        self._win: Optional[SlidingTimeWindow] = None
        self._aux: Optional[Dict[str, np.ndarray]] = None
        self.bind(stencil, schedules, boundary, inputs, scalars, cache,
                  cc, sched_key)

    def bind(self, stencil: Stencil,
             schedules: Mapping[str, Schedule],
             boundary: str = "zero",
             inputs: Optional[Mapping[str, np.ndarray]] = None,
             scalars: Optional[Mapping[str, float]] = None,
             cache: Optional[ArtifactCache] = None,
             cc: Optional[str] = None,
             sched_key: Optional[Tuple] = None) -> None:
        """Look the program's plan up (one :func:`native_plan` call)
        and pad its static inputs again, so a changed or in-place
        mutated input is seen.  When the plan is the one this executor
        already held, its window, static planes and pointers are kept
        and refilled in place; otherwise they are dropped and the next
        ``initialize`` allocates them afresh.  Either way
        ``initialize`` must run before ``advance``.  A one-stage
        pipeline runs as its stage; a longer one is a row of
        :data:`~repro.runtime.executor.UNSUPPORTED`."""
        if isinstance(stencil, StagePipeline):
            from ..runtime.executor import UnsupportedRun, unsupported

            if message := unsupported("native", False, stencil.nstages):
                raise UnsupportedRun(message)
            (stencil,) = stencil.stages
        self._t: Optional[int] = None
        plan, hit = native_plan(
            stencil, schedules, boundary, scalars, cache, cc, sched_key
        )
        kept = plan is self._plan
        # a failure from here on leaves the executor on its old plan
        aux = static_planes(
            {tensor.name: tensor for tensor in plan.aux_tensors}, inputs,
            boundary, into=self._aux if kept else None,
        )
        if not kept:
            realp = ctypes.POINTER(plan.c_real)
            self._aux_ptrs = (realp * max(len(aux), 1))(
                *[a.ctypes.data_as(realp) for a in aux.values()]
            )
            self._plan, self._win = plan, None
        self._aux = aux
        self.stencil, self.boundary, self.plan_hit = stencil, boundary, hit
        self.artifact = (
            replace(plan.artifact, cached=True) if hit else plan.artifact
        )

    def initialize(self, init: Sequence[np.ndarray]) -> None:
        """Seed the window with the initial planes: allocated by the
        first call after a new plan, re-seeded in place by later ones."""
        # msc_run steps the window's storage in place
        fresh = self._win is None
        self._win = seed_window(
            self.stencil.output, self._plan.history, init, self.boundary,
            window=self._win,
        )
        if fresh:
            self._win_ptr = self._win.data.ctypes.data_as(
                ctypes.POINTER(self._plan.c_real)
            )
        self._t = self._plan.history

    def advance(self, steps: int) -> None:
        """Run ``steps`` sweeps inside the shared library."""
        from ..obs import span

        if self._t is None:
            raise RuntimeError("call initialize() before advance()")
        if steps <= 0:
            return
        with span("native.exec", steps=steps,
                  key=self.artifact.key[:12]):
            rc = int(self._plan.lib.msc_run(self._win_ptr, self._aux_ptrs,
                                            self._t, steps))
        if rc != 0:
            raise NativeRunError(f"msc_run returned {rc}")
        self._t += steps

    def step(self) -> None:
        self.advance(1)

    def run(self, init: Sequence[np.ndarray],
            timesteps: int) -> np.ndarray:
        if timesteps < 0:
            raise ValueError("timesteps must be >= 0")
        self.initialize(init)
        self.advance(timesteps)
        return self.result()

    def result(self) -> np.ndarray:
        if self._t is None:
            raise RuntimeError("executor has not run yet")
        newest = self._win.data[(self._t - 1) % self._plan.twin]
        return self._win.interior_view(newest).copy()


def select_backend(requested: str = "auto",
                   cc: Optional[str] = None) -> Tuple[str, str]:
    """Resolve an execution-backend request to ``(choice, reason)``.

    ``auto`` picks native when a C compiler is available and numpy
    otherwise; ``native`` raises :class:`NativeUnavailable` when it
    cannot be honoured.
    """
    if requested == "numpy":
        return "numpy", "requested"
    if requested == "native":
        path = which_cc(cc)
        if path is None:
            raise NativeUnavailable(
                "native backend requested but no C compiler found "
                "(install gcc or set REPRO_CC)"
            )
        return "native", f"requested ({path})"
    if requested == "auto":
        path = which_cc(cc)
        if path is not None:
            return "native", f"auto: {path} available"
        return "numpy", "auto: no C compiler found"
    raise ValueError(
        f"unknown backend {requested!r}; choose auto/native/numpy"
    )
