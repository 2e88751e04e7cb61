"""Halo-region geometry (Fig. 6b).

Each sub-tensor is dissected into three parts:

- the **outer halo region**: ghost cells receiving neighbours' data,
- the **inner halo region**: boundary strips of valid data that are
  *sent* to neighbours,
- the **inner region**: valid data not participating in exchange.

This module computes the numpy slices for each region over a process's
*padded* local array, per dimension and direction, for the
dimension-by-dimension exchange protocol (exchanging dimension 0 first,
then dimension 1 including the freshly-filled dim-0 ghosts, and so on —
which delivers edge/corner data for box stencils with only ``2·ndim``
messages per process).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

__all__ = [
    "HaloSpec",
    "Region",
    "DiagRegion",
    "halo_regions",
    "diag_regions",
    "partition_regions",
    "core_owned_regions",
]

Slices = Tuple[slice, ...]


@dataclass(frozen=True)
class Region:
    """One face strip of the exchange, for one dimension + direction.

    ``send`` selects the inner-halo strip to pack; ``recv`` the outer
    halo strip to fill.  Both are slices over the padded local array.
    ``dim`` is the exchange dimension; ``direction`` is -1 (towards
    lower coordinates) or +1.
    """

    dim: int
    direction: int
    send: Slices
    recv: Slices

    def count(self, padded_shape: Sequence[int]) -> int:
        """Number of elements in the strip."""
        n = 1
        for d, sl in enumerate(self.send):
            start, stop, _ = sl.indices(padded_shape[d])
            n *= stop - start
        return n


@dataclass(frozen=True)
class HaloSpec:
    """Halo configuration of one sub-domain."""

    sub_shape: Tuple[int, ...]
    halo: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sub_shape) != len(self.halo):
            raise ValueError("halo rank mismatch")
        for s, h in zip(self.sub_shape, self.halo):
            if h < 0:
                raise ValueError("halo widths must be >= 0")
            if h > s:
                raise ValueError(
                    f"halo {h} wider than sub-domain extent {s}: "
                    "the inner halo strips would overlap"
                )

    @property
    def padded_shape(self) -> Tuple[int, ...]:
        return tuple(s + 2 * h for s, h in zip(self.sub_shape, self.halo))

    def interior(self) -> Slices:
        """The valid region of the padded array."""
        return tuple(
            slice(h, h + s) for s, h in zip(self.sub_shape, self.halo)
        )


def halo_regions(spec: HaloSpec) -> List[Region]:
    """Exchange regions in dimension order, both directions per dim.

    The strips of dimension ``d`` span the *full padded extent* of all
    earlier dimensions (so corners propagate) and the padded extent of
    later dimensions as well — later dims' ghosts are garbage until
    their own phase, but sending them is harmless and keeps strips
    rectangular; what matters is that dimension phases run in order.
    """
    ndim = len(spec.sub_shape)
    regions: List[Region] = []
    for d in range(ndim):
        h = spec.halo[d]
        if h == 0:
            continue
        s = spec.sub_shape[d]
        full = [slice(None)] * ndim
        for direction in (-1, +1):
            send = list(full)
            recv = list(full)
            if direction == -1:
                # send the low inner strip, receive into the low ghosts
                send[d] = slice(h, 2 * h)
                recv[d] = slice(0, h)
            else:
                send[d] = slice(s, s + h)  # == h + s - h .. h + s
                recv[d] = slice(h + s, h + s + h)
            regions.append(
                Region(d, direction, tuple(send), tuple(recv))
            )
    return regions


@dataclass(frozen=True)
class DiagRegion:
    """One *direct* exchange block, addressed by a neighbour offset.

    ``offset`` is a vector in ``{-1, 0, +1}^ndim`` naming the
    neighbouring sub-domain the block is exchanged with (face blocks
    have one nonzero component, edge/corner blocks several).  Unlike
    the staged :class:`Region` strips, the slices span only the *valid*
    extent of the zero-offset dimensions, so every ghost cell is
    covered by exactly one block and no relaying through dimension
    phases is needed.
    """

    offset: Tuple[int, ...]
    send: Slices
    recv: Slices

    def count(self, padded_shape: Sequence[int]) -> int:
        """Number of elements in the block."""
        n = 1
        for d, sl in enumerate(self.send):
            start, stop, _ = sl.indices(padded_shape[d])
            n *= stop - start
        return n


def diag_regions(spec: HaloSpec) -> List[DiagRegion]:
    """Direct-neighbour exchange blocks in canonical offset order.

    One block per offset in ``{-1, 0, +1}^ndim`` (origin excluded;
    dimensions with zero halo are pinned to 0), ordered
    lexicographically.  The block at offset ``o`` sent by a rank lands
    in the receiver's ghost block at offset ``-o``; because both sides
    enumerate offsets in the same canonical order, coalesced
    per-neighbour messages have a deterministic strip layout even when
    one peer is a neighbour at several offsets (small periodic grids).
    """
    ndim = len(spec.sub_shape)
    choices = [
        (-1, 0, +1) if spec.halo[d] > 0 else (0,) for d in range(ndim)
    ]
    regions: List[DiagRegion] = []
    for offset in itertools.product(*choices):
        if all(o == 0 for o in offset):
            continue
        send: List[slice] = []
        recv: List[slice] = []
        for d, o in enumerate(offset):
            s, h = spec.sub_shape[d], spec.halo[d]
            if o == 0:
                send.append(slice(h, h + s))
                recv.append(slice(h, h + s))
            elif o == -1:
                send.append(slice(h, 2 * h))
                recv.append(slice(0, h))
            else:
                send.append(slice(s, s + h))
                recv.append(slice(h + s, h + s + h))
        regions.append(DiagRegion(offset, tuple(send), tuple(recv)))
    return regions


def core_owned_regions(
    sub_shape: Sequence[int],
    width: Sequence[Union[int, Tuple[int, int]]],
) -> Tuple[Optional[List[Tuple[int, int]]], List[List[Tuple[int, int]]]]:
    """Split the iteration space for compute/communication overlap.

    Returns ``(core, owned)`` in *interior* coordinates (the executor's
    ``(lo, hi)`` region format).  ``width[d]`` is the shell depth on the
    low and high side of dimension ``d``: a ``(lo, hi)`` pair, or one
    int for both.  ``core`` is the block of cells at least that far
    away from each side — its stencil footprint never reaches the
    ghosts behind a side of nonzero width, so it can be computed while
    those are in flight.  ``owned`` is a list of disjoint shell slabs
    covering the rest; they read those ghost cells and must wait for
    the exchange to finish.  A side of width 0 gets no slab.  ``core``
    is ``None`` when the sub-domain is too thin to have one (then the
    shell covers everything).
    """
    ndim = len(sub_shape)
    if len(width) != ndim:
        raise ValueError("width rank mismatch")
    sides = [tuple(w) if isinstance(w, (tuple, list)) else (w, w)
             for w in width]
    lo = [min(max(int(w), 0), s) for (w, _), s in zip(sides, sub_shape)]
    hi = [max(s - max(int(w), 0), l)
          for (_, w), s, l in zip(sides, sub_shape, lo)]
    have_core = all(l < h for l, h in zip(lo, hi))
    core = [(l, h) for l, h in zip(lo, hi)] if have_core else None
    owned: List[List[Tuple[int, int]]] = []
    for d in range(ndim):
        if lo[d] == 0 and hi[d] == sub_shape[d]:
            continue  # no shell in this dimension
        # dims before d are restricted to their core interval (already
        # covered by earlier slabs outside it), dim d takes the edge
        # bands, dims after d span the full extent
        prefix = [(lo[k], hi[k]) for k in range(d)]
        if any(a >= b for a, b in prefix):
            continue
        suffix = [(0, sub_shape[k]) for k in range(d + 1, ndim)]
        if lo[d] > 0:
            owned.append(prefix + [(0, lo[d])] + suffix)
        if hi[d] < sub_shape[d]:
            owned.append(prefix + [(hi[d], sub_shape[d])] + suffix)
    return core, owned


def partition_regions(spec: HaloSpec) -> Tuple[Slices, List[Slices], List[Slices]]:
    """(inner region, inner halo strips, outer halo strips) — Fig. 6b.

    The *inner region* excludes the inner-halo strips; the strips here
    are face-aligned over the valid region only (no padding), used for
    accounting and the Fig. 6 geometry tests rather than the exchange
    protocol itself.
    """
    ndim = len(spec.sub_shape)
    inner = tuple(
        slice(2 * h, h + s - h) if h > 0 else slice(0, s + 2 * h)
        for s, h in zip(spec.sub_shape, spec.halo)
    )
    inner_strips: List[Slices] = []
    outer_strips: List[Slices] = []
    valid = spec.interior()
    for d in range(ndim):
        h = spec.halo[d]
        if h == 0:
            continue
        s = spec.sub_shape[d]
        lo_in = list(valid)
        hi_in = list(valid)
        lo_in[d] = slice(h, 2 * h)
        hi_in[d] = slice(s, s + h)
        inner_strips += [tuple(lo_in), tuple(hi_in)]
        lo_out = list(valid)
        hi_out = list(valid)
        lo_out[d] = slice(0, h)
        hi_out[d] = slice(h + s, h + s + h)
        outer_strips += [tuple(lo_out), tuple(hi_out)]
    return inner, inner_strips, outer_strips
