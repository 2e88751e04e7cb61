"""Sliding time window (Sec. 4.3, Fig. 5).

A stencil that reads ``t-1`` and ``t-2`` needs three live planes: the
two history planes and the one being produced.  Instead of keeping every
timestep's output (memory grows linearly with T, Fig. 5(b)), the window
keeps ``W = deepest-dependency + 1`` planes and recycles the oldest
(Fig. 5(c)).

:class:`SlidingTimeWindow` owns the actual numpy storage used by every
executable backend: a ``(W, *padded_shape)`` array whose planes are
addressed modulo W.  It is allocated for one *block* of the domain —
the whole domain on one node, a rank's sub-domain when distributed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..ir.tensor import SpNode

__all__ = ["SlidingTimeWindow", "window_memory_bytes", "full_history_bytes"]


class SlidingTimeWindow:
    """Rotating storage for the last W timesteps of an SpNode.

    Planes include the halo region.  ``plane(t)`` returns the padded
    plane holding timestep ``t``; ``valid(t)`` returns the halo-free
    interior view of the same plane (a view, not a copy).  ``shape`` is
    the block the planes cover (default: the tensor's whole domain).
    """

    def __init__(self, tensor: SpNode, window: Optional[int] = None,
                 shape: Optional[Sequence[int]] = None):
        self.tensor = tensor
        self.shape = tuple(shape) if shape is not None else tensor.shape
        self.window = int(window) if window is not None else tensor.time_window
        if self.window < 2:
            raise ValueError("time window must hold at least 2 planes")
        if self.window > tensor.time_window:
            raise ValueError(
                f"requested window {self.window} exceeds the tensor's "
                f"declared time_window {tensor.time_window}"
            )
        padded = tuple(s + 2 * h for s, h in zip(self.shape, tensor.halo))
        #: the ``(W, *padded)`` storage, timestep ``t`` in slot ``t % W``
        #: — the layout the generated C's ``msc_run`` steps in place
        self.data = np.zeros(
            (self.window, *padded), dtype=tensor.dtype.np_dtype
        )
        #: timestep currently held by each slot; -10**9 = none
        self._held = [-(10 ** 9)] * self.window
        self.newest = -1

    # -- plane addressing --------------------------------------------------------
    def _slot(self, t: int) -> int:
        return t % self.window

    def plane(self, t: int) -> np.ndarray:
        """Padded plane for timestep ``t`` (halo included)."""
        slot = self._slot(t)
        if self._held[slot] != t:
            raise KeyError(
                f"timestep {t} is no longer in the window (slot holds "
                f"{self._held[slot]}); deepest live step is "
                f"{self.newest - self.window + 1}"
            )
        return self.data[slot]

    def valid(self, t: int) -> np.ndarray:
        """Halo-free interior view of timestep ``t``."""
        return self.interior_view(self.plane(t))

    def interior_view(self, padded: np.ndarray) -> np.ndarray:
        sl = tuple(
            slice(h, h + s)
            for h, s in zip(self.tensor.halo, self.shape)
        )
        return padded[sl]

    def live_steps(self) -> Tuple[int, ...]:
        return tuple(sorted(t for t in self._held if t >= self.newest - self.window + 1 and t >= 0))

    # -- writing -------------------------------------------------------------------
    def seed(self, t: int, valid_data: np.ndarray) -> None:
        """Install initial-condition data for timestep ``t`` (interior only).

        The halo keeps what the slot held — zero in a fresh window —
        until a halo exchange or boundary fill runs.
        """
        if valid_data.shape != self.shape:
            raise ValueError(
                f"seed data shape {valid_data.shape} != domain shape "
                f"{self.shape}"
            )
        slot = self._slot(t)
        self.interior_view(self.data[slot])[...] = valid_data
        self._held[slot] = t
        self.newest = max(self.newest, t)

    def advance(self, t: int) -> np.ndarray:
        """Claim the slot for timestep ``t`` and return its padded plane.

        The oldest plane is recycled in place — this is the Fig. 5(c)
        rotation.  ``t`` must be exactly ``newest + 1``.
        """
        if self.newest >= 0 and t != self.newest + 1:
            raise ValueError(
                f"time window advances one step at a time (newest="
                f"{self.newest}, requested {t})"
            )
        slot = self._slot(t)
        self._held[slot] = t
        self.newest = t
        return self.data[slot]

    # -- memory accounting (Fig. 5) -------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.data.nbytes


def window_memory_bytes(tensor: SpNode, window: Optional[int] = None) -> int:
    """Bytes held with the sliding window (constant in T, Fig. 5(c))."""
    w = window if window is not None else tensor.time_window
    n = 1
    for s in tensor.padded_shape:
        n *= s
    return n * tensor.dtype.nbytes * w


def full_history_bytes(tensor: SpNode, timesteps: int) -> int:
    """Bytes held if every timestep were kept (grows with T, Fig. 5(b))."""
    n = 1
    for s in tensor.padded_shape:
        n *= s
    return n * tensor.dtype.nbytes * int(timesteps)
