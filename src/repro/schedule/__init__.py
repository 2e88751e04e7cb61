"""Scheduling layer: optimization primitives and their lowering.

Implements the paper's Sec. 4.3 primitives — ``tile``, ``reorder``,
``parallel``, ``cache_read``, ``cache_write``, ``compute_at`` — plus the
sliding time window, and machine-constraint legality checking.
"""

from .primitives import (
    CacheReadPrim,
    CacheWritePrim,
    ComputeAtPrim,
    ParallelPrim,
    ReorderPrim,
    TilePrim,
    BUFFER_SCOPES,
)
from .schedule import CacheBinding, Schedule, ScheduleError, schedule_key
from .loopnest import LoopNest, Tile
from .timewindow import (
    SlidingTimeWindow,
    full_history_bytes,
    window_memory_bytes,
)
from .legality import LegalityError, check_schedule, spm_tile_bytes
from .temporal import TemporalTilePlan, plan_temporal_tiles

__all__ = [
    "TilePrim", "ReorderPrim", "ParallelPrim", "CacheReadPrim",
    "CacheWritePrim", "ComputeAtPrim", "BUFFER_SCOPES",
    "Schedule", "ScheduleError", "CacheBinding", "schedule_key",
    "LoopNest", "Tile",
    "SlidingTimeWindow", "window_memory_bytes", "full_history_bytes",
    "LegalityError", "check_schedule", "spm_tile_bytes",
    "TemporalTilePlan", "plan_temporal_tiles",
]
