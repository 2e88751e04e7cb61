"""Executors for multi-stage pipelines: serial and distributed.

Per timestep, stages run in order; each stage's freshly produced plane
is halo-filled (serial: boundary condition; distributed: exchange +
boundary) before later stages — or the next timestep — read it.  Both
entry points drive :class:`~repro.backend.numpy_backend.BlockEngine`,
whose plane binding implements the stage-reference semantics documented
in :mod:`repro.ir.pipeline`; a lone stencil is the one-stage case.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..ir.pipeline import StagePipeline
from .numpy_backend import BlockEngine

__all__ = ["PipelineExecutor", "distributed_pipeline_run"]


class PipelineExecutor:
    """Serial executor for a :class:`StagePipeline`."""

    def __init__(self, pipeline: StagePipeline, boundary: str = "zero",
                 inputs: Optional[Mapping[str, np.ndarray]] = None):
        self.pipeline = pipeline
        self.boundary = boundary
        self.engine = BlockEngine.serial(pipeline, boundary, inputs)

    def initialize(self, seeds: Mapping[str, Sequence[np.ndarray]]) -> None:
        """Seed history planes: ``{tensor: [oldest ... newest]}``."""
        self.engine.seed(seeds)

    def step(self) -> None:
        self.engine.step()

    def run(self, seeds: Mapping[str, Sequence[np.ndarray]],
            timesteps: int) -> Dict[str, np.ndarray]:
        """Initialize, run, and return each stage's newest valid plane."""
        self.initialize(seeds)
        for _ in range(timesteps):
            self.step()
        return self.results()

    def results(self) -> Dict[str, np.ndarray]:
        return self.engine.results()


def distributed_pipeline_run(
    pipeline: StagePipeline,
    seeds: Mapping[str, Sequence[np.ndarray]],
    timesteps: int,
    grid: Sequence[int],
    boundary: str = "zero",
    inputs: Optional[Mapping[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Run a pipeline over an MPI grid; returns gathered global results.

    Each stage's fresh plane is halo-exchanged before the next stage
    runs, so cross-stage spatial reads see neighbour data — one
    exchange per stage per timestep, exactly what generated multi-stage
    code does.
    """
    from ..runtime.executor import _run_distributed  # an import cycle

    return _run_distributed(
        pipeline, seeds, timesteps, grid, boundary, inputs
    )[0]
