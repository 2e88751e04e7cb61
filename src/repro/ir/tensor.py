"""Tensor IR nodes: ``SpNode`` and ``TeNode`` (Table 2).

``SpNode`` is the user-visible tensor *with* a halo region and a sliding
time window; it records the number of dimensions, per-dimension shape,
data type, and per-dimension halo width.  ``TeNode`` is a compiler
temporary *without* a halo region, used to buffer one timestep of the
computation domain.

Subscripting an ``SpNode`` with loop variables produces a
:class:`~repro.ir.expr.TensorAccess`, so users write stencil expressions
directly, e.g. ``B[k, j, i - 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from .dtypes import DType, f64
from .expr import IndexExpr, TensorAccess, VarExpr

__all__ = ["TensorNode", "SpNode", "TeNode", "normalize_halo"]


def normalize_halo(halo: Union[int, Tuple[int, ...]], ndim: int) -> Tuple[int, ...]:
    """Expand a scalar halo width to one entry per dimension and validate."""
    if isinstance(halo, int):
        halo = (halo,) * ndim
    halo = tuple(int(h) for h in halo)
    if len(halo) != ndim:
        raise ValueError(f"halo has {len(halo)} entries for a {ndim}-D tensor")
    if any(h < 0 for h in halo):
        raise ValueError(f"halo widths must be non-negative, got {halo}")
    return halo


@dataclass(frozen=True)
class TensorNode:
    """Common behaviour of SpNode and TeNode."""

    name: str
    shape: Tuple[int, ...]
    dtype: DType = f64

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"invalid tensor name {self.name!r}")
        shape = tuple(int(s) for s in self.shape)
        if not 1 <= len(shape) <= 3:
            raise ValueError("only 1-D, 2-D and 3-D tensors are supported")
        if any(s <= 0 for s in shape):
            raise ValueError(f"tensor extents must be positive, got {shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def npoints(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        """Bytes of one (halo-free) timestep plane of this tensor."""
        return self.npoints * self.dtype.nbytes

    @property
    def signature(self) -> Tuple:
        """What distinguishes this tensor from every other in generated
        code and at run time (consumed by the structural fingerprints).
        """
        d = self.dtype
        return (type(self).__name__, self.name, self.shape,
                (d.name, d.c_name, d.nbytes))

    def _subscript(self, key, time_offset: int = 0) -> TensorAccess:
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) != self.ndim:
            raise IndexError(
                f"{self.name} is {self.ndim}-D but was subscripted with "
                f"{len(key)} indices"
            )
        idxs = []
        for k in key:
            if isinstance(k, VarExpr):
                k = IndexExpr(k, 0)
            if not isinstance(k, IndexExpr):
                raise TypeError(
                    "tensor subscripts must be loop variables (optionally "
                    f"plus a constant), got {type(k).__name__}"
                )
            idxs.append(k)
        return TensorAccess(self, tuple(idxs), time_offset=time_offset)

    def __getitem__(self, key) -> TensorAccess:
        return self._subscript(key)


@dataclass(frozen=True)
class SpNode(TensorNode):
    """A tensor with a halo region and a sliding time window.

    ``shape`` is the *valid* (halo-free) computation domain.  The
    allocated buffer for each time plane is ``shape + 2*halo`` per
    dimension, and ``time_window`` planes are kept live at once (Fig. 5:
    a stencil that reads ``t-1`` and ``t-2`` needs a window of 3).
    """

    halo: Tuple[int, ...] = field(default=())
    time_window: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        halo = self.halo if self.halo else (1,) * len(self.shape)
        object.__setattr__(self, "halo", normalize_halo(halo, self.ndim))
        if self.time_window < 2:
            raise ValueError(
                "time_window must be >= 2 (one plane read, one written)"
            )

    @property
    def signature(self) -> Tuple:
        """:attr:`TensorNode.signature` plus halo widths and window."""
        return super().signature + (self.halo, self.time_window)

    @property
    def padded_shape(self) -> Tuple[int, ...]:
        """Per-plane allocation shape, halo included."""
        return tuple(s + 2 * h for s, h in zip(self.shape, self.halo))

    @property
    def alloc_bytes(self) -> int:
        """Total allocated bytes: time_window planes, halo included."""
        n = 1
        for s in self.padded_shape:
            n *= s
        return n * self.dtype.nbytes * self.time_window

    def at(self, time_offset: int):
        """A view of this tensor at a relative timestep (0, -1, -2, ...)."""
        return _TimeView(self, time_offset)


class _TimeView:
    """Subscriptable view of an SpNode at a fixed time offset."""

    def __init__(self, node: SpNode, time_offset: int):
        if time_offset > 0:
            raise ValueError("cannot read a tensor at a future timestep")
        if -time_offset >= node.time_window:
            raise ValueError(
                f"time offset {time_offset} outside window of size "
                f"{node.time_window} for tensor {node.name!r}"
            )
        self.node = node
        self.time_offset = time_offset

    def __getitem__(self, key) -> TensorAccess:
        return self.node._subscript(key, time_offset=self.time_offset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.node.name}.at({self.time_offset})"


@dataclass(frozen=True)
class TeNode(TensorNode):
    """A compiler temporary holding one timestep, without halo.

    TeNodes are created by the compiler (they are transparent to users,
    Sec. 4.2) to buffer the output domain of a kernel before it is
    committed into the sliding time window of the owning SpNode.
    """

    @classmethod
    def for_spnode(cls, sp: SpNode, suffix: str = "tmp") -> "TeNode":
        return cls(name=f"{sp.name}_{suffix}", shape=sp.shape, dtype=sp.dtype)
