"""Target dispatch: generate a complete code bundle for a named target.

``generate(stencil, schedules, name, target)`` is the single entry the
frontend's ``compile_to_source_code`` (and ``repro compile``) calls.
Targets:

- ``"cpu"``    — portable C + OpenMP (compilable here with gcc),
- ``"matrix"`` — same program shape, Matrix toolchain flags,
- ``"sunway"`` — athread master/slave bundle (structural validation
  only; sw5cc is not available off-platform),
- ``"mpi"``    — the rank program plus the communication library.

``cpu``/``matrix`` also take a multi-stage
:class:`~repro.ir.pipeline.StagePipeline`; ``sunway``/``mpi`` generate
single-stencil programs.  Every bundle includes its Makefile.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from ..ir.pipeline import StagePipeline
from ..ir.stencil import Stencil
from ..obs import span
from ..schedule.schedule import Schedule
from .c_codegen import CCodeGenerator, GeneratedCode
from .makefile import generate_makefile
from .sunway import SunwayCodeGenerator

__all__ = ["generate", "check_target", "KNOWN_TARGETS"]

KNOWN_TARGETS = ("cpu", "matrix", "sunway", "mpi")


def check_target(stencil: Union[Stencil, StagePipeline],
                 target: str) -> None:
    """Reject an unknown target, or a pipeline for a target that
    generates single-stencil programs."""
    if target not in KNOWN_TARGETS:
        raise ValueError(
            f"unknown target {target!r}; known: {KNOWN_TARGETS}"
        )
    if isinstance(stencil, StagePipeline) and target in ("sunway", "mpi"):
        raise ValueError(
            f"target {target!r} generates single-stencil programs; this "
            f"program is a {stencil.nstages}-stage pipeline (use cpu or "
            "matrix)"
        )


def generate(stencil: Union[Stencil, StagePipeline],
             schedules: Mapping[str, Schedule],
             name: str, target: str = "cpu", boundary: str = "zero",
             nthreads: Optional[int] = None,
             mpi_grid=None, scalars=None) -> GeneratedCode:
    """Generate source + Makefile for ``target``."""
    check_target(stencil, target)
    label = (stencil.output.name if isinstance(stencil, Stencil)
             else repr(stencil))
    with span("codegen.generate", target=target, bundle=name,
              stencil=label) as sp:
        if target == "mpi":
            from .mpi_codegen import generate_mpi

            if mpi_grid is None:
                raise ValueError(
                    "target 'mpi' needs an mpi_grid (set one on the "
                    "program or pass mpi_grid=...)"
                )
            code = generate_mpi(stencil, schedules, name, mpi_grid,
                                boundary, scalars)
        elif target == "sunway":
            gen = SunwayCodeGenerator(stencil, schedules, boundary,
                                      scalars=scalars)
            code = gen.generate(name)
        else:
            gen = CCodeGenerator(
                stencil, schedules, boundary, use_openmp=True,
                nthreads=nthreads, scalars=scalars,
            )
            code = gen.generate(name)
            code.target = target
        if "Makefile" not in code.files:
            code.files["Makefile"] = generate_makefile(name, target)
        sp.set(files=len(code.files),
               bytes=sum(len(v) for v in code.files.values()))
    return code
