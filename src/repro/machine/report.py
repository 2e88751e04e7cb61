"""Timing report produced by the machine simulators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .dma import DMAStats

__all__ = ["TimingReport"]


@dataclass
class TimingReport:
    """Result of simulating one stencil execution on one machine.

    Times are per *timestep* unless stated otherwise; ``total_s`` covers
    the whole run (``timesteps`` sweeps).
    """

    machine: str
    stencil: str
    precision: str
    timesteps: int
    compute_s: float  # per-timestep arithmetic time (critical path)
    memory_s: float  # per-timestep memory/DMA time (critical path)
    overhead_s: float = 0.0  # per-run fixed overhead (launch, JIT, ...)
    flops_per_step: float = 0.0
    dma: Optional[DMAStats] = None
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def step_s(self) -> float:
        """Per-timestep wall time: memory and compute do not overlap."""
        return self.compute_s + self.memory_s

    @property
    def total_s(self) -> float:
        return self.step_s * self.timesteps + self.overhead_s

    @property
    def gflops(self) -> float:
        """Achieved arithmetic rate over the whole run.

        An *empty* run (zero flops or zero timesteps) did no arithmetic
        and rates at 0.0; a run that claims work but took no time is a
        malformed report and raises :class:`ValueError`.
        """
        total_flops = self.flops_per_step * self.timesteps
        if self.total_s <= 0:
            if total_flops == 0:
                return 0.0
            raise ValueError(
                f"malformed report for {self.stencil!r} on "
                f"{self.machine!r}: {total_flops:g} flops recorded but "
                "zero elapsed time"
            )
        return total_flops / self.total_s / 1e9

    def speedup_over(self, baseline: "TimingReport") -> float:
        """Baseline time / this time (>1 means we are faster).

        A zero-time baseline did no (modelled) work; comparing against
        it is meaningless, so it raises rather than returning inf.
        """
        if baseline.total_s <= 0:
            raise ValueError(
                f"baseline report for {baseline.stencil!r} on "
                f"{baseline.machine!r} has zero elapsed time — nothing "
                "to speed up over"
            )
        return baseline.total_s / self.total_s

    # -- phase attribution -----------------------------------------------
    def phases(self) -> Dict[str, float]:
        """Whole-run modelled time per phase of the stable taxonomy.

        Maps onto the stable taxonomy of :mod:`repro.obs.phases`:
        ``compute`` is the arithmetic critical path, ``spm-dma`` the
        memory/DMA critical path (DMA on cache-less machines, cache
        traffic otherwise), ``other`` the fixed per-run overhead.

        A zero-work report (no modelled time at all) attributes to no
        phase: the empty dict lets callers print "nothing to show"
        instead of a table of zeros.
        """
        if self.total_s == 0:
            return {}
        return {
            "compute": self.compute_s * self.timesteps,
            "spm-dma": self.memory_s * self.timesteps,
            "other": self.overhead_s,
        }

    # -- (de)serialisation -----------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, including the derived phase attribution."""
        return {
            "machine": self.machine,
            "stencil": self.stencil,
            "precision": self.precision,
            "timesteps": self.timesteps,
            "compute_s": self.compute_s,
            "memory_s": self.memory_s,
            "overhead_s": self.overhead_s,
            "flops_per_step": self.flops_per_step,
            "dma": None if self.dma is None else {
                "n_gets": self.dma.n_gets,
                "n_puts": self.dma.n_puts,
                "bytes_get": self.dma.bytes_get,
                "bytes_put": self.dma.bytes_put,
                "time_s": self.dma.time_s,
            },
            "details": dict(self.details),
            "phases": self.phases(),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TimingReport":
        """Inverse of :meth:`to_dict` (``phases`` is derived, not read)."""
        dma = doc.get("dma")
        return cls(
            machine=doc["machine"],
            stencil=doc["stencil"],
            precision=doc["precision"],
            timesteps=doc["timesteps"],
            compute_s=doc["compute_s"],
            memory_s=doc["memory_s"],
            overhead_s=doc.get("overhead_s", 0.0),
            flops_per_step=doc.get("flops_per_step", 0.0),
            dma=None if dma is None else DMAStats(
                n_gets=dma["n_gets"],
                n_puts=dma["n_puts"],
                bytes_get=dma["bytes_get"],
                bytes_put=dma["bytes_put"],
                time_s=dma["time_s"],
            ),
            details=dict(doc.get("details", {})),
        )
