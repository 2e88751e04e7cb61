"""Code generation backends (Sec. 3: the MSC backend).

AOT generation of standard C plus Makefiles for the ``cpu``, ``matrix``
(OpenMP) and ``sunway`` (athread master/slave) targets, and the
executable numpy backend used to run and verify schedules in-process.
"""

from .c_codegen import (
    CCodeGenerator, GeneratedCode, generate_pipeline, render_kernel_c,
)
from .sunway import SunwayCodeGenerator, generate_sunway
from .makefile import generate_makefile, toolchain_cflags, TOOLCHAINS
from .native import (
    ArtifactCache,
    NativeBuildError,
    NativeExecutor,
    NativeRunError,
    NativeUnavailable,
    SharedLibGenerator,
    build_artifact,
    native_available,
    run_binary,
    select_backend,
)
from .targets import generate, KNOWN_TARGETS
from .temporal_exec import TemporalTilingExecutor
from .pipeline_exec import PipelineExecutor, distributed_pipeline_run
from .mpi_codegen import MPICodeGenerator, generate_mpi, COMM_HEADER, COMM_SOURCE
from .numpy_backend import (
    BOUNDARY_CONDITIONS,
    ScheduledExecutor,
    evaluate_kernel,
    fill_halo,
    reference_run,
)

__all__ = [
    "CCodeGenerator", "GeneratedCode", "generate_pipeline", "render_kernel_c",
    "SunwayCodeGenerator", "generate_sunway",
    "generate_makefile", "toolchain_cflags", "TOOLCHAINS",
    "ArtifactCache", "NativeBuildError", "NativeExecutor",
    "NativeRunError", "NativeUnavailable", "SharedLibGenerator",
    "build_artifact", "native_available", "run_binary",
    "select_backend",
    "generate", "KNOWN_TARGETS",
    "BOUNDARY_CONDITIONS", "ScheduledExecutor", "evaluate_kernel",
    "fill_halo", "reference_run",
    "TemporalTilingExecutor",
    "PipelineExecutor", "distributed_pipeline_run",
    "MPICodeGenerator", "generate_mpi", "COMM_HEADER", "COMM_SOURCE",
]
