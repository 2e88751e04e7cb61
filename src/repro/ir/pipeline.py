"""Multi-stage stencil pipelines (the STELLA-style pattern).

The related work (Sec. 2.4) singles out STELLA for "stencils with
multiple stages in PDEs": one timestep applies a *sequence* of stencil
sweeps, each reading the previous stages' fresh output (plus history).
A classic instance is a smoother followed by a residual evaluation in a
multigrid solver such as HPGMG — the very benchmark family the paper's
3d7pt comes from.

A :class:`StagePipeline` is an ordered list of
:class:`~repro.ir.stencil.Stencil` stages with distinct output tensors.

Time semantics (what a tensor access means while computing step ``t``):

- accesses to the stage's *own* output tensor follow ordinary stencil
  semantics — the kernel application offset selects the history plane
  (``K[t-1]`` reads the previous step);
- accesses to an **earlier stage's output** are *stage references*: the
  access's own time offset is relative to the current step, so offset 0
  reads the plane that stage just produced (``A.at(-1)[...]`` reads its
  previous step's output);
- reading a *later* stage (or one's own output) at offset 0 is a
  dependency violation and rejected at validation.

Each stage's halo is refreshed (boundary fill / exchange) before the
next stage starts, so cross-stage reads may use spatial offsets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Set, Tuple, Union

from .stencil import Stencil
from .tensor import SpNode
from .validate import ValidationError, validate_stencil

__all__ = ["StagePipeline", "as_pipeline"]


@dataclass(frozen=True)
class StagePipeline:
    """An ordered sequence of stencil stages executed each timestep."""

    stages: Tuple[Stencil, ...]

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [st.output.name for st in stages]
        if len(set(names)) != len(names):
            raise ValueError(
                f"stage outputs must be distinct tensors, got {names}"
            )
        self._validate()

    # -- validation ------------------------------------------------------------
    def _validate(self) -> None:
        issues: List[str] = []
        produced: Set[str] = set()
        all_outputs = {st.output.name for st in self.stages}
        shapes = {st.output.shape for st in self.stages}
        if len(shapes) != 1:
            issues.append(
                f"stages must share one domain shape, got {sorted(shapes)}"
            )
        for idx, stage in enumerate(self.stages):
            try:
                validate_stencil(stage)
            except ValidationError as err:
                issues.extend(
                    f"stage {idx} ({stage.output.name}): {i}"
                    for i in err.issues
                )
            for app in stage.applications:
                for acc in app.kernel.accesses:
                    name = acc.tensor.name
                    if name in all_outputs and name != stage.output.name:
                        # stage reference: offset relative to step t
                        if acc.time_offset == 0 and name not in produced:
                            issues.append(
                                f"stage {idx} ({stage.output.name}) reads "
                                f"{name!r} at the current step, but that "
                                "stage runs later in the pipeline"
                            )
                        src = self.stage_by_output(name).output
                        if -acc.time_offset + 1 > src.time_window:
                            issues.append(
                                f"stage {idx} reads {name!r} at offset "
                                f"{acc.time_offset}, beyond its window of "
                                f"{src.time_window}"
                            )
            produced.add(stage.output.name)
        if issues:
            raise ValidationError(issues)

    # -- derived properties -------------------------------------------------------
    @property
    def nstages(self) -> int:
        return len(self.stages)

    @property
    def outputs(self) -> Tuple[SpNode, ...]:
        return tuple(st.output for st in self.stages)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.stages[0].output.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @cached_property
    def kernels(self):
        """Distinct kernels of every stage, in first-seen order."""
        seen = {}
        for stage in self.stages:
            for kern in stage.kernels:
                seen.setdefault(kern.name, kern)
        return tuple(seen.values())

    @cached_property
    def fingerprint(self) -> str:
        """Structural identity: the stages' fingerprints, in order."""
        return hashlib.sha256(repr(
            tuple(st.fingerprint for st in self.stages)).encode()
        ).hexdigest()

    def stage_by_output(self, name: str) -> Stencil:
        for st in self.stages:
            if st.output.name == name:
                return st
        raise KeyError(f"no stage produces {name!r}")

    def aux_tensors(self) -> Dict[str, SpNode]:
        """Read-only tensors not produced by any stage."""
        outputs = {st.output.name for st in self.stages}
        aux: Dict[str, SpNode] = {}
        for stage in self.stages:
            for kern in stage.kernels:
                for tensor in kern.input_tensors:
                    if tensor.name not in outputs:
                        aux.setdefault(tensor.name, tensor)
        return aux

    def required_history(self) -> Dict[str, int]:
        """Per stage-output tensor: how many initial planes are needed.

        Own-output reads go through the application offsets (a stage
        reading ``K[t-2]`` needs 2 seed planes); cross-stage references
        at negative offsets need that many seeds of the source stage.
        """
        depth: Dict[str, int] = {st.output.name: 0 for st in self.stages}
        for stage in self.stages:
            own = stage.output.name
            reads_own = any(
                acc.tensor.name == own
                for app in stage.applications
                for acc in app.kernel.accesses
            )
            if reads_own:
                depth[own] = max(
                    depth[own], stage.required_time_window - 1
                )
            for app in stage.applications:
                for acc in app.kernel.accesses:
                    name = acc.tensor.name
                    if name in depth and name != own:
                        depth[name] = max(depth[name], -acc.time_offset)
        return depth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        chain = " -> ".join(st.output.name for st in self.stages)
        return f"StagePipeline({chain})"


def as_pipeline(program: Union[Stencil, StagePipeline]
                ) -> Tuple[StagePipeline, Dict[str, int]]:
    """``(pipeline, initial planes needed per output)``; a lone stencil
    is the one-stage pipeline and keeps its W-1 initial planes."""
    if isinstance(program, StagePipeline):
        return program, program.required_history()
    return StagePipeline((program,)), {
        program.output.name: program.required_time_window - 1
    }
