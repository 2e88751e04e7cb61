"""Native execution backend: compile the generated C, run it in-process.

The paper's headline claim is that *generated* code runs at native
speed; executing the lowered schedule tile-by-tile in numpy (the
:class:`~repro.backend.numpy_backend.ScheduledExecutor`) keeps every
transformation observable but leaves the raw-speed claim untested.
This module closes that gap the way Devito does (Luporini et al.): the
:class:`~repro.backend.c_codegen.CCodeGenerator` bundle is compiled
into a shared library and driven through ``ctypes`` on the same padded
numpy planes, so results are bit-comparable with the numpy backend.

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

Observability: ``native.compile`` / ``native.run`` / ``native.exec``
spans, ``native.cache.hit`` / ``native.cache.miss`` counters.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.stencil import Stencil
from ..schedule.schedule import Schedule
from ..schedule.timewindow import SlidingTimeWindow
from .c_codegen import CCodeGenerator
from .makefile import toolchain_cflags
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
    from .makefile import TOOLCHAINS

    cand = cc or os.environ.get("REPRO_CC") or TOOLCHAINS["cpu"]["cc"]
    return shutil.which(cand)


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
        entry = self._entry(key)
        tmp = entry + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        binary_name = os.path.basename(binary_path)
        shutil.copy2(binary_path, os.path.join(tmp, binary_name))
        for name, text in sources.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        meta = dict(meta)
        meta["size"] = os.path.getsize(binary_path)
        meta["key"] = key
        with open(os.path.join(tmp, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        shutil.rmtree(entry, ignore_errors=True)
        os.replace(tmp, entry)
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
        flags = toolchain_cflags("cpu") + ["-ffp-contract=off"]
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


def ir_fingerprint(stencil: Stencil) -> str:
    """Stable hash of the stencil IR (via the MSC pretty-printer)."""
    from ..frontend.printer import render_program

    return hashlib.sha256(render_program(stencil).encode()).hexdigest()


def schedule_fingerprint(schedules: Mapping[str, Schedule]) -> str:
    """Stable hash of every kernel's schedule primitives."""
    from ..frontend.printer import _render_schedule

    lines: List[str] = []
    for name in sorted(schedules):
        lines.extend(_render_schedule(name, schedules[name]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


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


# -- the executor ----------------------------------------------------------


class NativeExecutor:
    """Runs the compiled shared library on numpy-owned planes.

    API mirrors :class:`~repro.backend.numpy_backend.ScheduledExecutor`
    (``initialize`` / ``step`` / ``run`` / ``result``) so callers can
    swap backends; results are bit-comparable because the generated C
    is built with ``-ffp-contract=off`` and evaluates in the working
    precision.
    """

    def __init__(self, stencil: Stencil,
                 schedules: Mapping[str, Schedule],
                 boundary: str = "zero",
                 inputs: Optional[Mapping[str, np.ndarray]] = None,
                 scalars: Optional[Mapping[str, float]] = None,
                 cache: Optional[ArtifactCache] = None,
                 cc: Optional[str] = None):
        gen = SharedLibGenerator(
            stencil, schedules, boundary=boundary, scalars=scalars
        )
        self.stencil = stencil
        self.boundary = boundary
        self._gen = gen
        out = stencil.output
        self._twin = out.time_window
        self._hist = stencil.required_time_window - 1
        self._c_real = (
            ctypes.c_float if out.dtype.nbytes == 4 else ctypes.c_double
        )
        self._aux_arrays = list(static_planes(
            {aux.name: aux for aux in gen.aux_tensors}, inputs, boundary
        ).values())
        self._cache = cache or ArtifactCache()
        self._cc = cc
        self._sources = gen.generate("msc_native").files
        self._key_extra = {
            "ir": ir_fingerprint(stencil),
            "schedule": schedule_fingerprint(gen.schedules),
            "boundary": boundary,
            "machine": self._machine_name(),
            "scalars": sorted((gen.scalars or {}).items()),
        }
        self.artifact = self._build()
        self._lib = self._load()
        self._win: Optional[SlidingTimeWindow] = None
        self._t: Optional[int] = None

    @staticmethod
    def _machine_name() -> str:
        from ..machine.spec import machine_by_name

        return machine_by_name("cpu").name

    def _build(self) -> BuiltArtifact:
        return build_artifact(
            self._sources, "msc_native.so", kind="shared", cc=self._cc,
            cache=self._cache, key_extra=self._key_extra,
        )

    def _load(self) -> ctypes.CDLL:
        try:
            return self._bind(ctypes.CDLL(self.artifact.path))
        except (OSError, AttributeError):
            # a same-size-corrupt cached .so (dlopen fails), or one
            # that loads but lacks our symbols: purge, rebuild once
            self._cache.invalidate(self.artifact.key)
            self.artifact = self._build()
            return self._bind(ctypes.CDLL(self.artifact.path))

    def _bind(self, lib: ctypes.CDLL) -> ctypes.CDLL:
        realp = ctypes.POINTER(self._c_real)
        lib.msc_run.restype = ctypes.c_int
        lib.msc_run.argtypes = [
            realp, ctypes.POINTER(realp), ctypes.c_long, ctypes.c_long
        ]
        lib.msc_plane_elems.restype = ctypes.c_long
        lib.msc_time_window.restype = ctypes.c_long
        lib.msc_history.restype = ctypes.c_long
        expect = int(np.prod(self.stencil.output.padded_shape))
        got = int(lib.msc_plane_elems())
        if got != expect or int(lib.msc_time_window()) != self._twin:
            raise NativeBuildError(
                f"shared library layout mismatch: plane_elems={got} "
                f"(want {expect})"
            )
        return lib

    def initialize(self, init: Sequence[np.ndarray]) -> None:
        # msc_run steps the window's storage in place
        self._win = seed_window(
            self.stencil.output, self._hist, init, self.boundary
        )
        self._t = self._hist

    def advance(self, steps: int) -> None:
        """Run ``steps`` sweeps inside the shared library."""
        from ..obs import span

        if self._win is None or self._t is None:
            raise RuntimeError("call initialize() before advance()")
        if steps <= 0:
            return
        realp = ctypes.POINTER(self._c_real)
        win_ptr = self._win.data.ctypes.data_as(realp)
        n_aux = len(self._aux_arrays)
        aux_arr = (realp * max(n_aux, 1))(
            *[a.ctypes.data_as(realp) for a in self._aux_arrays]
        )
        with span("native.exec", steps=steps,
                  key=self.artifact.key[:12]):
            rc = int(self._lib.msc_run(win_ptr, aux_arr,
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
        if self._win is None or self._t is None:
            raise RuntimeError("executor has not run yet")
        newest = self._win.data[(self._t - 1) % self._twin]
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
