"""Asynchronous halo exchange (Fig. 6b/6c) with an exchange-mode axis.

The async exchanger speaks three wire protocols, selected by the
``mode`` knob (Devito's ``HaloExchangeBuilder`` taxonomy):

- ``basic`` — the staged dimension-by-dimension protocol: for every
  spatial dimension in order, each process posts ``Irecv``/``Isend``
  with both face neighbours, waits, and installs the ghost strips.
  The dimension phases give box stencils their corner data with only
  ``2·ndim`` messages per process, at the cost of ``ndim`` dependent
  phases.
- ``diag`` — direct-neighbour exchange: edge/corner blocks go straight
  to their diagonal owners instead of relaying through dimension
  phases.  All blocks destined for the same rank are coalesced into
  one message, so the whole exchange is a *single* phase — on the
  small process grids of the bench workloads that is strictly fewer
  messages than ``basic`` (e.g. 3 vs 4 per rank on a periodic 2×2
  grid), and face blocks shrink to the valid extent.
- ``overlap`` — the ``diag`` wire protocol split into
  :meth:`~AsyncHaloExchanger.begin_exchange` /
  :meth:`~AsyncHaloExchanger.finish_exchange` so the executor can
  compute the CORE of the next step while messages are in flight and
  only the OWNED shell waits for completion (see
  :func:`repro.comm.halo.core_owned_regions`).

Packing is zero-copy on the clean fast path: single-strip messages
hand strided views of the padded plane straight to the transport
(which copies once at post time) and receive straight into the ghost
views, so :class:`~repro.comm.packing.BufferPool` staging only happens
for coalesced multi-strip messages (transient buffers) and on the
resilient path, which must hold every in-flight message stable until
it is acknowledged.

A process that is its own neighbour — a periodic dimension of extent
1 — copies those strips into its own ghosts as the exchange begins, in
every mode: a local copy is not a message, so the traffic counters,
the flow edges and the fault injector see wire traffic only.

At non-periodic global boundaries a process has no neighbour on a
side; those ghost strips are filled by the boundary condition instead
(zero/reflect), handled by the caller's plane fill.

Two exchanger strategies are provided:

- :class:`AsyncHaloExchanger` — MSC's library (this paper), plus the
  ``diag``/``overlap`` convenience subclasses for the registry;
- :class:`MasterCoordinatedExchanger` — the Physis-style comparison
  strategy where every message is relayed through a master rank, the
  bottleneck discussed in Sec. 5.5 (used by the baseline model *and*
  runnable here for functional demonstration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import counter, span
from ..obs.events import emit
from ..obs.trace import attach_flow
from ..runtime.simmpi import CartComm, Request, SimMPIError
from .halo import HaloSpec, Region, Slices, diag_regions, halo_regions
from .packing import BufferPool, pack_many, unpack_many

__all__ = [
    "EXCHANGE_MODES",
    "HaloExchanger",
    "AsyncHaloExchanger",
    "DiagHaloExchanger",
    "OverlapHaloExchanger",
    "MasterCoordinatedExchanger",
]

#: the exchange-mode axis (autotuner search space, CLI knob)
EXCHANGE_MODES = ("basic", "diag", "overlap")

_TAG_BASE = 4096

# The async exchanger stamps every strip with its exchange sequence
# number so a retransmitted (or duplicated) strip from exchange *k* can
# never satisfy a receive posted by exchange *k+1*: stale copies simply
# never match.  512 in-flight sequence slots is far beyond any window
# the per-operation timeouts allow.
_SEQ_WINDOW = 512
_TAG_STRIDE = 8  # sub-tags 0..5: (dim, direction) faces; 6: coalesced
_ACK_BASE = _TAG_BASE + _TAG_STRIDE * _SEQ_WINDOW

#: sub-tag for diag/overlap per-neighbour coalesced messages (at most
#: one such message per ordered rank pair per exchange)
_DIAG_SUB = 6
#: key of the one diag/overlap phase beside the basic dimension phases
_DIAG_PHASE = -1


@dataclass
class _Transfer:
    """One peer-to-peer message of an exchange: strips + tag plumbing.

    ``send_strips``/``recv_strips`` are laid out back to back in the
    message, in an order both sides derive canonically (basic: one
    strip; diag: offsets sorted lexicographically on the sender, by
    negated offset on the receiver, so strip *k* of the incoming
    message is exactly the block the sender packed *k*-th).
    """

    peer: int
    send_strips: Tuple[Slices, ...]
    recv_strips: Tuple[Slices, ...]
    send_sub: int
    recv_sub: int
    dim: int  # span/counter label; -1 for coalesced messages
    dir: int  # ±1 for face strips, 0 for coalesced messages
    key: str  # stable id for pool tags / error messages
    send_count: int  # elements in the outgoing / incoming message
    recv_count: int


class HaloExchanger:
    """Common machinery: geometry, buffers, neighbour lookup."""

    def __init__(self, comm: CartComm, spec: HaloSpec):
        if len(spec.sub_shape) != len(comm.dims):
            raise ValueError(
                f"halo spec is {len(spec.sub_shape)}-D, cart grid is "
                f"{len(comm.dims)}-D"
            )
        self.comm = comm
        self.spec = spec
        self.regions = halo_regions(spec)
        #: ghost strips on neighbour-less (global) edges: no exchange
        #: writes them, so a recycled plane's must be cleared by hand
        self.edge_ghosts = [
            r.recv for r in self.regions if self._neighbour(r) < 0
        ]
        self.pool = BufferPool()
        #: messages sent / bytes moved by this process (for the tuner)
        self.messages = 0
        self.bytes_sent = 0

    def reset_counters(self) -> None:
        """Zero the per-exchanger traffic counters (between runs)."""
        self.messages = 0
        self.bytes_sent = 0

    def _count_message(self, nbytes: int, dim: int) -> None:
        """One sent message: instance counters + the metrics registry."""
        self.messages += 1
        self.bytes_sent += nbytes
        rank = self.comm.rank
        counter("comm.messages", rank=rank)
        counter("comm.bytes_sent", nbytes, rank=rank, dim=dim)

    def _neighbour(self, region: Region) -> int:
        src, dst = self.comm.Shift(region.dim, 1)
        return dst if region.direction == +1 else src

    def _tag(self, region: Region) -> int:
        # receiving the +1 face means the sender sent its -1-direction
        # strip: tags pair by (dim, sender's direction)
        return _TAG_BASE + 2 * region.dim + (0 if region.direction > 0 else 1)

    def exchange(self, plane: np.ndarray) -> None:
        raise NotImplementedError

    # -- split exchange (compute/communication overlap) -------------------
    def begin_exchange(self, plane: np.ndarray) -> None:
        """Start an exchange; default strategies complete it eagerly."""
        self.exchange(plane)

    def finish_exchange(self) -> None:
        """Complete a begun exchange (no-op when none is pending)."""

    @property
    def pending(self) -> bool:
        """True while a begun exchange has not been finished."""
        return False


class AsyncHaloExchanger(HaloExchanger):
    """MSC's exchanger: concurrent Isend/Irecv, three wire modes.

    ``mode`` selects the protocol: ``"basic"`` (staged per-dimension
    phases), ``"diag"`` (one phase of per-neighbour coalesced direct
    messages) or ``"overlap"`` (the diag protocol split into
    ``begin_exchange``/``finish_exchange`` for compute overlap; a plain
    :meth:`exchange` call runs both halves back to back).

    When the world has a fault injector attached (or ``resilient=True``
    is forced) every mode runs a retransmission protocol: messages
    carry sequence-numbered tags, the receiver acknowledges each over
    the reliable control channel, and a sender whose ACK misses its
    per-operation deadline re-sends the identical message (idempotent
    by tag) with exponential backoff, up to ``max_retries`` times.
    Clean worlds take the zero-copy fast path — identical traffic, no
    ACKs, no staging buffers.
    """

    def __init__(self, comm: CartComm, spec: HaloSpec,
                 mode: str = "basic",
                 retry_timeout: float = 0.25, max_retries: int = 6,
                 backoff: float = 2.0, op_timeout: float = 60.0,
                 resilient: Optional[bool] = None):
        super().__init__(comm, spec)
        if mode not in EXCHANGE_MODES:
            raise ValueError(
                f"unknown exchange mode {mode!r}; expected one of "
                f"{EXCHANGE_MODES}"
            )
        if retry_timeout <= 0:
            raise ValueError("retry_timeout must be positive")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        self.mode = mode
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.op_timeout = op_timeout
        self.resilient = resilient
        #: retransmissions performed by this process (for diagnostics)
        self.retries = 0
        self._seq = 0
        self._pending = None
        # the transfers depend on geometry and topology only
        self._phase_transfer_cache: Dict[int, List[_Transfer]] = {}
        self._diag_transfer_cache: Optional[List[_Transfer]] = None
        #: per phase (a basic-mode dimension, or ``_DIAG_PHASE``): the
        #: ``(inner strip, ghost strip)`` pairs of the transfers whose
        #: peer is this rank, copied locally instead of sent
        self._self_copies: Dict[int, Tuple[Tuple[Slices, Slices], ...]] = {}

    def reset_counters(self) -> None:
        """Zero traffic *and* retransmission counters (between runs)."""
        super().reset_counters()
        self.retries = 0

    @property
    def pending(self) -> bool:
        return self._pending is not None

    # sequence-stamped data/ACK tags; the ``sub`` slot keeps the
    # pre-existing pairing: a face strip sent in direction ``dir``
    # matches the peer's receive on its opposite face, a coalesced
    # message always travels under the single diag sub-tag (at most one
    # per ordered rank pair per exchange)
    def _data_tag(self, seq: int, sub: int) -> int:
        return _TAG_BASE + (seq % _SEQ_WINDOW) * _TAG_STRIDE + sub

    def _ack_tag(self, seq: int, sub: int) -> int:
        return _ACK_BASE + (seq % _SEQ_WINDOW) * _TAG_STRIDE + sub

    @staticmethod
    def _send_bit(region: Region) -> int:
        return 0 if region.direction < 0 else 1

    @staticmethod
    def _recv_bit(region: Region) -> int:
        return 0 if region.direction > 0 else 1

    def _check_plane(self, plane: np.ndarray) -> None:
        if plane.shape != self.spec.padded_shape:
            raise ValueError(
                f"plane shape {plane.shape} != padded shape "
                f"{self.spec.padded_shape}"
            )

    def _resilient_now(self) -> bool:
        return (
            self.comm.faults_active if self.resilient is None
            else self.resilient
        )

    def _strips_count(self, strips: Sequence[Slices]) -> int:
        padded = self.spec.padded_shape
        total = 0
        for strip in strips:
            n = 1
            for d, sl in enumerate(strip):
                start, stop, _ = sl.indices(padded[d])
                n *= stop - start
            total += n
        return total

    # -- transfer construction --------------------------------------------
    def _without_self(self, phase: int,
                      transfers: List[_Transfer]) -> List[_Transfer]:
        """``transfers`` to other ranks; the ones whose peer is this
        rank (a periodic dimension of extent 1) become the phase's
        :attr:`_self_copies`.  Such a strip never touches the wire: it
        is not counted, not flow-tracked and cannot be faulted.  The
        strip sent under sub-tag ``s`` is the one received under ``s``,
        so each inner strip is paired with that transfer's ghost
        strip."""
        me = self.comm.rank
        own = {tr.recv_sub: tr for tr in transfers if tr.peer == me}
        self._self_copies[phase] = tuple(
            pair for tr in transfers if tr.peer == me
            for pair in zip(tr.send_strips, own[tr.send_sub].recv_strips)
        )
        return [tr for tr in transfers if tr.peer != me]

    def _copy_self(self, plane: np.ndarray, phase: int) -> None:
        for src, dst in self._self_copies[phase]:
            plane[dst] = plane[src]

    def _phase_transfers(self, d: int) -> List[_Transfer]:
        """The face transfers to other ranks of one basic-mode
        dimension phase."""
        cached = self._phase_transfer_cache.get(d)
        if cached is not None:
            return cached
        out: List[_Transfer] = []
        for region in (r for r in self.regions if r.dim == d):
            peer = self._neighbour(region)
            if peer < 0:
                continue
            out.append(_Transfer(
                peer=peer,
                send_strips=(region.send,),
                recv_strips=(region.recv,),
                send_sub=2 * d + self._send_bit(region),
                recv_sub=2 * d + self._recv_bit(region),
                dim=d,
                dir=region.direction,
                key=f"{d}{'m' if region.direction < 0 else 'p'}",
                send_count=self._strips_count((region.send,)),
                recv_count=self._strips_count((region.recv,)),
            ))
        out = self._phase_transfer_cache[d] = self._without_self(d, out)
        return out

    def _offset_neighbour(self, offset: Sequence[int]) -> int:
        coords = list(self.comm.Get_coords(self.comm.rank))
        for d, o in enumerate(offset):
            c = coords[d] + o
            if self.comm.periods[d]:
                c %= self.comm.dims[d]
            elif not 0 <= c < self.comm.dims[d]:
                return -1
            coords[d] = c
        return self.comm.Get_cart_rank(coords)

    def _diag_transfers(self) -> List[_Transfer]:
        """Per-neighbour coalesced transfers (diag/overlap modes).

        Blocks are grouped by owning rank; the sender lays out its
        blocks by lexicographic offset, the receiver expects them by
        negated-offset order (its ghost block at ``o`` is the peer's
        inner block at ``-o``), so both sides agree on the message
        layout even when one peer is a neighbour at several offsets
        (degenerate periodic grids).
        """
        if self._diag_transfer_cache is not None:
            return self._diag_transfer_cache
        sends: Dict[int, list] = {}
        recvs: Dict[int, list] = {}
        for reg in diag_regions(self.spec):
            peer = self._offset_neighbour(reg.offset)
            if peer < 0:
                continue
            sends.setdefault(peer, []).append(reg)
            recvs.setdefault(peer, []).append(reg)
        transfers: List[_Transfer] = []
        for peer in sorted(sends):
            out_blocks = sorted(sends[peer], key=lambda r: r.offset)
            in_blocks = sorted(
                recvs[peer],
                key=lambda r: tuple(-c for c in r.offset),
            )
            send_strips = tuple(r.send for r in out_blocks)
            recv_strips = tuple(r.recv for r in in_blocks)
            transfers.append(_Transfer(
                peer=peer,
                send_strips=send_strips,
                recv_strips=recv_strips,
                send_sub=_DIAG_SUB,
                recv_sub=_DIAG_SUB,
                dim=-1,
                dir=0,
                key=f"n{peer}",
                send_count=self._strips_count(send_strips),
                recv_count=self._strips_count(recv_strips),
            ))
        transfers = self._without_self(_DIAG_PHASE, transfers)
        self._diag_transfer_cache = transfers
        return transfers

    # -- public protocol --------------------------------------------------
    def exchange(self, plane: np.ndarray) -> None:
        if self.mode == "overlap":
            # blocking call on a split-capable exchanger: run both
            # halves back to back (seed planes, static inputs)
            self.begin_exchange(plane)
            self.finish_exchange()
            return
        self._check_plane(plane)
        seq = self._seq
        self._seq += 1
        resilient = self._resilient_now()
        ndim = len(self.spec.sub_shape)
        with span("comm.exchange", rank=self.comm.rank, strategy="async",
                  mode=self.mode, seq=seq, resilient=resilient):
            if self.mode == "basic":
                for d in range(ndim):
                    transfers = self._phase_transfers(d)
                    self._copy_self(plane, d)
                    if not transfers:
                        continue
                    if resilient:
                        self._run_transfers_resilient(
                            plane, transfers, seq, f"dim {d}"
                        )
                    else:
                        self._run_transfers_fast(plane, transfers, seq)
            else:  # diag: one phase of coalesced direct messages
                transfers = self._diag_transfers()
                self._copy_self(plane, _DIAG_PHASE)
                if transfers:
                    if resilient:
                        self._run_transfers_resilient(
                            plane, transfers, seq, "diag"
                        )
                    else:
                        self._run_transfers_fast(plane, transfers, seq)
        # staging-pool growth audit: stays at 0 on the zero-copy clean
        # path in every mode; only the resilient protocol stages
        counter("comm.pool_bytes", self.pool.nbytes, rank=self.comm.rank)

    def begin_exchange(self, plane: np.ndarray) -> None:
        """Post all sends/receives of one exchange without waiting.

        Only ``mode="overlap"`` actually splits; the other modes
        complete eagerly.  At most one exchange may be in flight.
        """
        if self.mode != "overlap":
            self.exchange(plane)
            return
        if self._pending is not None:
            raise SimMPIError(
                f"rank {self.comm.rank}: begin_exchange while a "
                "previous overlap exchange is still in flight"
            )
        self._check_plane(plane)
        seq = self._seq
        self._seq += 1
        resilient = self._resilient_now()
        transfers = self._diag_transfers()
        with span("comm.exchange", rank=self.comm.rank, strategy="async",
                  mode="overlap", stage="begin", seq=seq,
                  resilient=resilient):
            # self-copies land now: the split computes CORE over them
            self._copy_self(plane, _DIAG_PHASE)
            if resilient:
                state = self._post_transfers_resilient(
                    plane, transfers, seq
                )
            else:
                state = self._post_transfers_fast(plane, transfers, seq)
        self._pending = (plane, seq, resilient, state)

    def finish_exchange(self) -> None:
        """Wait out a begun exchange and install the ghost blocks."""
        if self._pending is None:
            return
        plane, seq, resilient, state = self._pending
        self._pending = None
        with span("comm.exchange", rank=self.comm.rank, strategy="async",
                  mode="overlap", stage="finish", seq=seq,
                  resilient=resilient):
            if resilient:
                recv_pending, ack_pending = state
                # retry clocks start now: peers deep in CORE compute
                # have not drained their receives yet, and that is not
                # a lost message
                now = time.monotonic()
                for entry in ack_pending.values():
                    entry["deadline"] = now + self.retry_timeout
                self._progress_resilient(
                    plane, recv_pending, ack_pending, seq,
                    now + self.op_timeout, "overlap",
                )
            else:
                self._complete_transfers_fast(plane, state)
        counter("comm.pool_bytes", self.pool.nbytes, rank=self.comm.rank)

    # -- clean fast path (zero-copy) --------------------------------------
    def _post_transfers_fast(self, plane: np.ndarray,
                             transfers: Sequence[_Transfer],
                             seq: int) -> list:
        rank = self.comm.rank
        recvs = []
        for tr in transfers:
            tag = self._data_tag(seq, tr.recv_sub)
            if len(tr.recv_strips) == 1:
                # zero-copy: the transport scatters straight into the
                # strided ghost view at completion time
                buf = None
                req = self.comm.Irecv(plane[tr.recv_strips[0]],
                                      source=tr.peer, tag=tag)
            else:
                buf = np.empty(tr.recv_count, dtype=plane.dtype)
                req = self.comm.Irecv(buf, source=tr.peer, tag=tag)
            recvs.append((tr, req, buf))
        for tr in transfers:
            zero_copy = len(tr.send_strips) == 1
            with span("comm.pack", rank=rank, dim=tr.dim, dir=tr.dir,
                      zero_copy=zero_copy):
                if zero_copy:
                    # strided view — the transport makes the one copy
                    msg = plane[tr.send_strips[0]]
                else:
                    msg = pack_many(plane, tr.send_strips)
            with span("comm.send", rank=rank, dim=tr.dim, dir=tr.dir,
                      bytes=msg.nbytes):
                self.comm.Isend(
                    msg, dest=tr.peer,
                    tag=self._data_tag(seq, tr.send_sub),
                ).Wait()
            self._count_message(msg.nbytes, tr.dim)
        return recvs

    def _complete_transfers_fast(self, plane: np.ndarray,
                                 recvs: Sequence[tuple]) -> None:
        rank = self.comm.rank
        for tr, req, buf in recvs:
            with span("comm.wait", rank=rank, dim=tr.dim, dir=tr.dir):
                req.Wait(self.op_timeout)
            with span("comm.unpack", rank=rank, dim=tr.dim, dir=tr.dir,
                      zero_copy=buf is None):
                if buf is not None:
                    unpack_many(buf, plane, tr.recv_strips)

    def _run_transfers_fast(self, plane: np.ndarray,
                            transfers: Sequence[_Transfer],
                            seq: int) -> None:
        recvs = self._post_transfers_fast(plane, transfers, seq)
        self._complete_transfers_fast(plane, recvs)

    # -- fault-tolerant path (pool-staged) --------------------------------
    def _post_transfers_resilient(self, plane: np.ndarray,
                                  transfers: Sequence[_Transfer],
                                  seq: int) -> tuple:
        comm = self.comm
        rank = comm.rank
        recv_pending = {}
        for i, tr in enumerate(transfers):
            buf = self.pool.get(tr.recv_count, plane.dtype,
                                tag=f"recv-{tr.key}")
            # data receives complete inside req.Test() below, under the
            # outer comm.exchange span; defer the flow so it can be
            # re-homed onto the unpack span that consumes the strip
            req = comm.Irecv(
                buf, source=tr.peer,
                tag=self._data_tag(seq, tr.recv_sub),
                defer_flow=True,
            )
            recv_pending[i] = (tr, req, buf)
        ack_pending = {}
        for i, tr in enumerate(transfers):
            sbuf = self.pool.get(tr.send_count, plane.dtype,
                                 tag=f"send-{tr.key}")
            with span("comm.pack", rank=rank, dim=tr.dim, dir=tr.dir):
                pack_many(plane, tr.send_strips, sbuf)
            send_tag = self._data_tag(seq, tr.send_sub)
            with span("comm.send", rank=rank, dim=tr.dim, dir=tr.dir,
                      bytes=sbuf.nbytes):
                comm.Isend(sbuf, dest=tr.peer, tag=send_tag)
            self._count_message(sbuf.nbytes, tr.dim)
            ack_buf = self.pool.get(1, np.uint8, tag=f"ack-in-{tr.key}")
            ack_pending[i] = {
                "tr": tr,
                "sbuf": sbuf,
                "send_tag": send_tag,
                "req": comm.Irecv(ack_buf, source=tr.peer,
                                  tag=self._ack_tag(seq, tr.send_sub)),
                "deadline": time.monotonic() + self.retry_timeout,
                "attempts": 0,
            }
        return recv_pending, ack_pending

    def _run_transfers_resilient(self, plane: np.ndarray,
                                 transfers: Sequence[_Transfer],
                                 seq: int, where: str) -> None:
        recv_pending, ack_pending = self._post_transfers_resilient(
            plane, transfers, seq
        )
        self._progress_resilient(
            plane, recv_pending, ack_pending, seq,
            time.monotonic() + self.op_timeout, where,
        )

    def _progress_resilient(self, plane: np.ndarray, recv_pending: dict,
                            ack_pending: dict, seq: int,
                            overall_deadline: float, where: str) -> None:
        comm = self.comm
        rank = comm.rank
        ack_out = self.pool.get(1, np.uint8, tag="ack-out")
        while recv_pending or ack_pending:
            gen = comm.activity()
            progressed = False
            for key in list(recv_pending):
                tr, req, buf = recv_pending[key]
                if not req.Test():  # terminal errors re-raise here
                    continue
                # acknowledge over the reliable control channel, then
                # install the ghost strips
                comm.Send(
                    ack_out, dest=tr.peer, reliable=True,
                    tag=self._ack_tag(seq, tr.recv_sub),
                )
                with span("comm.unpack", rank=rank, dim=tr.dim,
                          dir=tr.dir):
                    flow = comm.pop_parked_flow()
                    if flow is not None:
                        attach_flow("recv", flow)
                    unpack_many(buf, plane, tr.recv_strips)
                del recv_pending[key]
                progressed = True
            for key in list(ack_pending):
                if ack_pending[key]["req"].Test():
                    del ack_pending[key]
                    progressed = True
            if not (recv_pending or ack_pending):
                break
            if progressed:
                continue
            now = time.monotonic()
            for entry in ack_pending.values():
                if now < entry["deadline"]:
                    continue
                tr = entry["tr"]
                if entry["attempts"] >= self.max_retries:
                    raise SimMPIError(
                        f"rank {comm.rank}: halo transfer {tr.key} "
                        f"({where}) to rank {tr.peer} unacknowledged "
                        f"after {entry['attempts']} retries"
                    )
                entry["attempts"] += 1
                self.retries += 1
                counter("comm.retry", rank=comm.rank, dim=tr.dim)
                emit("comm.retry", level="warn", rank=comm.rank,
                     dim=tr.dim, dir=tr.dir, peer=tr.peer,
                     attempt=entry["attempts"])
                with span("comm.retry", rank=rank, dim=tr.dim,
                          dir=tr.dir, attempt=entry["attempts"],
                          bytes=entry["sbuf"].nbytes):
                    comm.Isend(entry["sbuf"], dest=tr.peer,
                               tag=entry["send_tag"])
                entry["deadline"] = now + self.retry_timeout * (
                    self.backoff ** entry["attempts"]
                )
                progressed = True
            if progressed:
                continue
            if now >= overall_deadline:
                waiting = sorted(
                    recv_pending[k][0].key for k in recv_pending
                ) + sorted(
                    ack_pending[k]["tr"].key for k in ack_pending
                )
                raise SimMPIError(
                    f"rank {comm.rank}: halo exchange ({where}) did not "
                    f"complete within {self.op_timeout}s "
                    f"(outstanding transfers {waiting})"
                )
            next_deadline = min(
                [e["deadline"] for e in ack_pending.values()]
                + [overall_deadline]
            )
            comm.wait_for_activity(
                max(0.0, next_deadline - now), seen=gen
            )


class DiagHaloExchanger(AsyncHaloExchanger):
    """``async`` preset to ``mode="diag"`` (registry convenience)."""

    def __init__(self, comm: CartComm, spec: HaloSpec, **options):
        options.setdefault("mode", "diag")
        super().__init__(comm, spec, **options)


class OverlapHaloExchanger(AsyncHaloExchanger):
    """``async`` preset to ``mode="overlap"`` (registry convenience)."""

    def __init__(self, comm: CartComm, spec: HaloSpec, **options):
        options.setdefault("mode", "overlap")
        super().__init__(comm, spec, **options)


class MasterCoordinatedExchanger(HaloExchanger):
    """Physis-style exchanger: all halo traffic relayed via rank 0.

    Every process sends its strips to the master, which forwards each
    to the destination — serialising the exchange through one process.
    Functionally identical to the async exchanger; the serialisation is
    what Sec. 5.5 identifies as Physis's large-scale bottleneck.
    """

    MASTER = 0

    def exchange(self, plane: np.ndarray) -> None:
        if plane.shape != self.spec.padded_shape:
            raise ValueError(
                f"plane shape {plane.shape} != padded shape "
                f"{self.spec.padded_shape}"
            )
        comm = self.comm
        ndim = len(self.spec.sub_shape)
        with span("comm.exchange", rank=comm.rank, strategy="master"):
            for d in range(ndim):
                phase = [r for r in self.regions if r.dim == d]
                if not phase:
                    continue
                # 1) everyone ships strips to the master with routing info
                sends = []
                for region in phase:
                    peer = self._neighbour(region)
                    if peer < 0:
                        continue
                    n = region.count(self.spec.padded_shape)
                    sbuf = self.pool.get(
                        n + 2, plane.dtype,
                        tag=f"m-send-{d}-{region.direction}"
                    )
                    sbuf[0] = float(peer)
                    sbuf[1] = float(self._tag_for_peer(region))
                    with span("comm.pack", rank=comm.rank, dim=d,
                              dir=region.direction):
                        pack_many(plane, (region.send,), sbuf[2:])
                    sends.append((sbuf, region))
                counts = comm.gather(len(sends), root=self.MASTER)
                # strip sizes differ across ranks (balanced decomposition);
                # the master's relay scratch must fit the largest
                max_strip = comm.allreduce(self._max_strip(phase), "max")
                for sbuf, region in sends:
                    with span("comm.send", rank=comm.rank, dim=d,
                              bytes=sbuf.nbytes):
                        comm.Send(sbuf, dest=self.MASTER,
                                  tag=_TAG_BASE - 1)
                    self._count_message(sbuf.nbytes, d)
                # 2) master relays every message, one at a time
                if comm.rank == self.MASTER:
                    total = sum(counts)
                    scratch = self.pool.get(max_strip + 2, plane.dtype,
                                            tag="relay")
                    with span("comm.relay", rank=comm.rank, dim=d,
                              total=total):
                        for _ in range(total):
                            _, _, count = comm.Recv(scratch,
                                                    tag=_TAG_BASE - 1)
                            dest = int(scratch[0])
                            fwd_tag = int(scratch[1])
                            comm.Send(scratch[2:count], dest=dest,
                                      tag=fwd_tag)
                # 3) everyone receives its ghost strips from the master
                for region in phase:
                    peer = self._neighbour(region)
                    if peer < 0:
                        continue
                    n = region.count(self.spec.padded_shape)
                    rbuf = self.pool.get(
                        n, plane.dtype, tag=f"m-recv-{d}-{region.direction}"
                    )
                    with span("comm.wait", rank=comm.rank, dim=d,
                              dir=region.direction):
                        comm.Recv(rbuf, source=self.MASTER,
                                  tag=self._tag(region))
                    with span("comm.unpack", rank=comm.rank, dim=d,
                              dir=region.direction):
                        unpack_many(rbuf, plane, (region.recv,))
                    # ``Recv`` fills the buffer prefix; the unpack above
                    # consumes exactly the strip elements

    def _tag_for_peer(self, region: Region) -> int:
        # the tag under which the *peer* expects this strip
        return _TAG_BASE + 2 * region.dim + (0 if region.direction < 0 else 1)

    def _max_strip(self, phase: Sequence[Region]) -> int:
        return max(r.count(self.spec.padded_shape) for r in phase)
