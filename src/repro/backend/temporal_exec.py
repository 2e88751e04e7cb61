"""Executor for overlapped temporal tiling.

Advances a stencil ``time_block`` timesteps per tile visit.  A tile is
a :class:`~repro.backend.numpy_backend.BlockEngine` on a halo-extended
block: the tile grown by ``time_block × radius`` per side, seeded with
that block of the global history planes, stepped ``time_block`` times
over the whole block without any intermediate synchronisation, and only
its exact interior copied out.  Results must equal the step-by-step
reference — redundant computation buys fewer synchronisation rounds,
never different numerics.

The seed gather wraps around the domain.  That is the ``periodic``
boundary; under ``zero`` the engine's ghost refresh re-zeroes every
out-of-domain cell after each step.  The block's own rim goes stale at
the known rate of ``radius`` per step; the copy-out reads only the
provably-valid interior.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from ..ir.stencil import Stencil
from ..ir.validate import validate_stencil
from ..schedule.temporal import TemporalTilePlan, plan_temporal_tiles
from .numpy_backend import BlockEngine, checked_seeds

__all__ = ["TemporalTilingExecutor"]


class TemporalTilingExecutor:
    """Run a stencil with overlapped temporal tiling.

    Parameters
    ----------
    stencil:
        The stencil program (any number of time dependencies).
    tile:
        Spatial tile extents.
    time_block:
        Timesteps advanced per tile visit (1 = ordinary tiling).
    boundary:
        ``"zero"`` or ``"periodic"``.
    """

    def __init__(self, stencil: Stencil, tile: Sequence[int],
                 time_block: int, boundary: str = "zero",
                 inputs: Optional[Mapping[str, np.ndarray]] = None):
        validate_stencil(stencil)
        if boundary not in ("zero", "periodic"):
            raise ValueError(
                f"temporal tiling supports zero/periodic, got {boundary!r}"
            )
        if inputs:
            raise NotImplementedError(
                "auxiliary input tensors are not supported by the "
                "temporal-tiling executor yet"
            )
        self.stencil = stencil
        self.plan: TemporalTilePlan = plan_temporal_tiles(
            stencil, tile, time_block
        )
        self.boundary = boundary
        #: points the engines computed: every step covers the whole
        #: gathered block, rim included
        self.computed_points = 0

    def _refresh(self, origin: Sequence[int]):
        """Ghost refresh of a block whose first cell is global
        ``origin``: under ``zero``, re-zero every cell of a padded plane
        that lies outside the domain; ``periodic`` has nothing to do."""
        domain = self.plan.domain

        def refresh(_name, halo, plane):
            if self.boundary != "zero":
                return
            for d, (lo, n, h) in enumerate(zip(origin, domain, halo)):
                index = [slice(None)] * plane.ndim
                for cells in (slice(0, max(h - lo, 0)),
                              slice(h - lo + n, None)):
                    index[d] = cells
                    plane[tuple(index)] = 0
        return refresh

    def run(self, init: Sequence[np.ndarray], blocks: int) -> np.ndarray:
        """Run ``blocks × time_block`` timesteps; returns the newest plane.

        ``init`` supplies the W−1 initial history planes (as for the
        reference executor).
        """
        out = self.stencil.output
        need = self.stencil.required_time_window - 1
        history = checked_seeds([out], {out.name: need}, {out.name: init},
                                out.shape)[out.name]
        plan = self.plan
        for _ in range(blocks):
            new_history = [np.empty_like(p) for p in history]
            for index in np.ndindex(*plan.tiles_per_dim):
                lo = [c * t for c, t in zip(index, plan.tile)]
                hi = [min(l + t, n)
                      for l, t, n in zip(lo, plan.tile, plan.domain)]
                origin = [l - e for l, e in zip(lo, plan.extension)]
                gather = np.ix_(*(
                    np.arange(l - e, h + e) % n
                    for l, h, e, n in zip(lo, hi, plan.extension,
                                          plan.domain)
                ))
                shape = [h - l + 2 * e
                         for l, h, e in zip(lo, hi, plan.extension)]
                engine = BlockEngine(self.stencil, self._refresh(origin),
                                     shape=shape)
                engine.seed({out.name: [p[gather] for p in history]})
                for _ in range(plan.time_block):
                    engine.step()
                self.computed_points += plan.time_block * math.prod(shape)
                window = engine.windows[out.name]
                interior = tuple(slice(e, e + h - l)
                                 for l, h, e in zip(lo, hi, plan.extension))
                tile = tuple(slice(l, h) for l, h in zip(lo, hi))
                for dst, t in zip(new_history,
                                  range(engine.t - need + 1, engine.t + 1)):
                    dst[tile] = window.valid(t)[interior]
            history = new_history
        return history[-1]

    @property
    def redundancy(self) -> float:
        """Planned computed/useful points ratio."""
        return self.plan.redundancy
