"""Simulated MPI: an in-process message-passing runtime.

mpi4py is not available in this environment, so the communication
library runs on this runtime instead: every rank is a Python thread,
messages are numpy-buffer copies matched by ``(source, tag)`` in FIFO
order, and the API mirrors mpi4py's buffer interface (``Send``/
``Recv``/``Isend``/``Irecv``/``Sendrecv``, ``Barrier``, ``Bcast``,
``Allreduce``, ``Gather``, plus Cartesian communicators with
``Shift``).  Functional behaviour — who receives which bytes — is
exactly MPI's; timing comes from the separate
:mod:`~repro.runtime.network` model.

Deadlock safety: every blocking receive carries a timeout (default
60 s); expiry raises :class:`SimMPITimeout` in the offending rank and
the run reports it instead of hanging the test suite.  Timeouts are
tracked against a monotonic-clock deadline and waits are event-driven
(condition variables, no polling interval), so heavy ``notify_all``
traffic neither shrinks nor stretches a rank's deadline.

Fault injection: a :class:`~repro.runtime.faults.FaultInjector` may be
attached to a world (``run_ranks(..., faults=...)``); it then vets
every data-plane message for drop/delay/duplication/reordering and can
crash a rank at a chosen operation.  Messages sent with
``reliable=True`` (the exchanger's ACKs, collective payloads) bypass
message faults but nothing escapes a crashed rank.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import rank_scope, span
from ..obs.trace import attach_flow
from ..obs.trace import is_enabled as _trace_enabled

__all__ = [
    "SimMPIError",
    "SimMPITimeout",
    "RankCrashedError",
    "Request",
    "Communicator",
    "CartComm",
    "run_ranks",
]

ANY_SOURCE = -1
ANY_TAG = -1

_DEFAULT_TIMEOUT = 60.0
#: how long a timed-out ``run_ranks`` waits for its aborted ranks to end
_RELEASE_S = 1.0


class SimMPIError(RuntimeError):
    """A communication error in the simulated MPI runtime."""


class SimMPITimeout(SimMPIError):
    """No matching message arrived within the deadline.

    The only *retryable* failure: pollers (``Request.Test``, the
    resilient exchanger) treat it as "not ready yet"; every other
    :class:`SimMPIError` is terminal and must propagate.
    """


class RankCrashedError(SimMPIError):
    """An injected fault killed this rank (see ``runtime.faults``)."""


class _World:
    """Shared state of one simulated MPI world."""

    def __init__(self, size: int, injector=None):
        self.size = size
        self.lock = threading.Condition()
        # mailbox per destination: deque of
        # (source, tag, ndarray copy, flow id or None)
        self.mail: List[deque] = [deque() for _ in range(size)]
        self.barrier = threading.Barrier(size)
        self.bcast_slots: Dict[int, Any] = {}
        self.reduce_slots: Dict[str, list] = {}
        self.failed = threading.Event()
        #: per rank blocked in a receive: the (source, tag) it waits for
        self.waiting: Dict[int, Tuple[int, int]] = {}
        self.injector = injector
        self.crashed: set = set()
        #: delivery generation — bumped on every mailbox change so
        #: waiters can detect activity without polling
        self.events = 0
        # traffic accounting (bytes by (src, dst))
        self.traffic: Dict[Tuple[int, int], int] = {}
        # per-(src, dst, tag) monotonically increasing message sequence
        # numbers — the flow identity stamped on send and recv spans
        self._flow_seq: Dict[Tuple[int, int, int], int] = {}

    def _flow_id(self, source: int, dest: int, tag: int) -> str:
        """Allocate the next ``(src, dst, tag, seq)`` flow identity.

        Every *physical* send gets a fresh seq (a retransmission is a
        new flow; an injected duplicate shares its original's), so a
        flow edge in the merged timeline always names the copy the
        receiver actually consumed.
        """
        key = (source, dest, tag)
        with self.lock:
            seq = self._flow_seq.get(key, 0)
            self._flow_seq[key] = seq + 1
        return f"{source}>{dest}:{tag}#{seq}"

    def _deliver(self, source: int, dest: int, tag: int,
                 data: np.ndarray, flow: Optional[str] = None,
                 front: bool = False) -> None:
        with self.lock:
            if front:
                self.mail[dest].appendleft((source, tag, data, flow))
            else:
                self.mail[dest].append((source, tag, data, flow))
            key = (source, dest)
            self.traffic[key] = self.traffic.get(key, 0) + data.nbytes
            self.events += 1
            self.lock.notify_all()

    def mark_crashed(self, rank: int) -> None:
        """Record an injected rank death and wake every waiter."""
        with self.lock:
            self.crashed.add(rank)
        self.abort()

    def abort(self) -> None:
        """Fail the world and wake every waiter: a blocked receive
        raises at once instead of sitting out its timeout."""
        with self.lock:
            self.failed.set()
            self.events += 1
            self.lock.notify_all()
        self.barrier.abort()

    def stuck(self) -> str:
        """Each blocked receive and each message no receive took, for a
        deadlock report."""
        def shown(value: int) -> str:  # ANY_SOURCE and ANY_TAG are -1
            return "any" if value == ANY_SOURCE else str(value)

        with self.lock:
            pending = [
                f"rank {rank} from {shown(src)} tag {shown(tag)}"
                for rank, (src, tag) in sorted(self.waiting.items())
            ]
            unmatched = [
                f"to rank {dest} from {src} tag {tag}"
                for dest, box in enumerate(self.mail)
                for src, tag, _data, _flow in box
            ]
        return (f"pending receives: {'; '.join(pending) or 'none'}; "
                f"unmatched messages: {'; '.join(unmatched) or 'none'}")

    def post(self, source: int, dest: int, tag: int,
             data: np.ndarray, reliable: bool = False,
             track_flow: Optional[bool] = None) -> Optional[str]:
        """Send one message; returns its flow id when tracked.

        Data-plane messages are flow-tracked while tracing is enabled
        (control-plane ``reliable`` traffic is not, unless forced via
        ``track_flow=True``): each physical copy posted here carries a
        ``(src, dst, tag, seq)`` identity that the receiver's span
        records, giving the merged timeline its cross-rank edges.
        """
        track = (not reliable) if track_flow is None else track_flow
        flow = (
            self._flow_id(source, dest, tag)
            if track and _trace_enabled() else None
        )
        inj = self.injector
        if inj is not None:
            if inj.crash_due(source):
                self.mark_crashed(source)
                raise RankCrashedError(
                    f"rank {source} crashed (injected fault)"
                )
            if not reliable:
                verdict = inj.on_message(source, dest, tag)
                if verdict.drop:
                    return flow
                copies = 2 if verdict.duplicate else 1
                if verdict.delay_s > 0.0:
                    for _ in range(copies):
                        timer = threading.Timer(
                            verdict.delay_s, self._deliver,
                            args=(source, dest, tag, data, flow),
                            kwargs={"front": verdict.reorder},
                        )
                        timer.daemon = True
                        timer.start()
                    return flow
                for _ in range(copies):
                    self._deliver(source, dest, tag, data, flow,
                                  front=verdict.reorder)
                return flow
        self._deliver(source, dest, tag, data, flow)
        return flow

    def take(self, dest: int, source: int, tag: int,
             timeout: float) -> Tuple[int, int, np.ndarray, Optional[str]]:
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self.lock:
            try:
                return self._take(dest, source, tag, deadline)
            finally:
                self.waiting.pop(dest, None)

    def _take(self, dest: int, source: int, tag: int,
              deadline: Optional[float]
              ) -> Tuple[int, int, np.ndarray, Optional[str]]:
        """:meth:`take` with the lock held."""
        while True:
            box = self.mail[dest]
            for idx, (src, tg, data, flow) in enumerate(box):
                if source in (ANY_SOURCE, src) and tag in (ANY_TAG, tg):
                    del box[idx]
                    return src, tg, data, flow
            if self.crashed:
                names = ",".join(str(r) for r in sorted(self.crashed))
                raise SimMPIError(
                    f"rank {dest}: peer rank {names} crashed while "
                    f"waiting for a message from {source} tag {tag}"
                )
            if self.failed.is_set():
                raise SimMPIError(
                    f"rank {dest}: peer failed while waiting for a "
                    f"message from {source} tag {tag}"
                )
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise SimMPITimeout(
                        f"rank {dest}: timeout waiting for message from "
                        f"{source} tag {tag} (likely deadlock)"
                    )
            self.waiting[dest] = (source, tag)
            self.lock.wait(remaining)


class Request:
    """A nonblocking-operation handle (mpi4py-style)."""

    def __init__(self, fn: Optional[Callable[[float], Any]] = None,
                 done: bool = True, value: Any = None):
        self._fn = fn
        self._done = done
        self._value = value

    def Wait(self, timeout: float = _DEFAULT_TIMEOUT) -> Any:
        if not self._done:
            self._value = self._fn(timeout)
            self._done = True
        return self._value

    wait = Wait

    def Test(self) -> bool:
        """Poll for completion without blocking.

        Only the zero-timeout "no matching message yet" case
        (:class:`SimMPITimeout`) reads as not-done; terminal errors — a
        crashed peer, message truncation — re-raise so the caller never
        spins on an operation that can no longer complete.
        """
        if self._done:
            return True
        try:
            self._value = self._fn(0.0)
            self._done = True
        except SimMPITimeout:
            return False
        return True

    test = Test

    @staticmethod
    def Waitall(requests: Sequence["Request"],
                timeout: float = _DEFAULT_TIMEOUT) -> None:
        """Wait for all requests against one *shared* deadline.

        ``timeout`` bounds the whole batch, not each request — N stuck
        requests fail after ``timeout``, not ``N * timeout``.
        """
        deadline = time.monotonic() + timeout
        for req in requests:
            req.Wait(max(0.0, deadline - time.monotonic()))


class Communicator:
    """One rank's endpoint into the simulated world."""

    def __init__(self, world: _World, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size
        # recv flows parked by defer_flow receives (see Recv) — this
        # rank's thread only, so a plain list is safe
        self._parked_flows: List[str] = []

    # -- rank info (mpi4py spelling) ------------------------------------------
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    @property
    def faults_active(self) -> bool:
        """True when a fault injector is attached to this world."""
        return self._world.injector is not None

    # -- point to point ----------------------------------------------------------
    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise SimMPIError(
                f"rank {self.rank}: invalid peer {peer} "
                f"(world size {self.size})"
            )

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0,
             reliable: bool = False) -> None:
        """Buffered send: the payload is copied at send time.

        ``reliable=True`` marks a control-plane message (exchanger ACKs,
        collective payloads) that injected message faults must not
        touch; a crashed rank still cannot send it.

        ``buf`` may be a strided (non-contiguous) view: the copy made
        here is the only one, so callers can hand halo strips of the
        padded plane straight to ``Send``/``Isend`` without staging
        them first (zero-copy packing on the caller's side).
        """
        self._check_peer(dest)
        data = np.ascontiguousarray(buf)
        if data is buf:  # already contiguous: still need a private copy
            data = data.copy()
        flow = self._world.post(self.rank, dest, tag, data,
                                reliable=reliable)
        if flow is not None:
            attach_flow("send", flow)

    def Recv(self, buf: np.ndarray, source: int = ANY_SOURCE,
             tag: int = ANY_TAG, timeout: float = _DEFAULT_TIMEOUT,
             defer_flow: bool = False) -> Tuple[int, int, int]:
        """Receive into ``buf``; returns (source, tag, count).

        As in MPI, the message may be *smaller* than the receive buffer
        (the prefix is filled and ``count`` reports the element count);
        a larger message is a truncation error.

        ``buf`` may also be a strided (non-contiguous) view — e.g. a
        ghost strip of the padded plane — in which case the payload is
        scattered straight into the view (a strided receive is the
        other half of zero-copy packing).  Strided receives require an
        exact size match: there is no meaningful "prefix" of a strided
        region.

        A flow-tracked message's id is recorded on the innermost open
        span — unless ``defer_flow`` is set, which parks it for
        :meth:`pop_parked_flow` so a caller completing receives inside
        a progress loop (the resilient exchanger) can re-home the flow
        onto the span that actually consumes the data.
        """
        if source != ANY_SOURCE:
            self._check_peer(source)
        src, tg, data, flow = self._world.take(
            self.rank, source, tag, timeout
        )
        if buf.flags.c_contiguous:
            flat = buf.reshape(-1)
            if data.size > flat.size:
                raise SimMPIError(
                    f"rank {self.rank}: message truncation — message from "
                    f"{src} tag {tg} has {data.size} elements, receive "
                    f"buffer only {flat.size}"
                )
            flat[: data.size] = data.reshape(-1)
        else:
            # strided view: reshape(-1) would copy and the write would
            # be lost, so scatter element-for-element into the view
            if data.size != buf.size:
                raise SimMPIError(
                    f"rank {self.rank}: strided receive needs an exact "
                    f"size match — message from {src} tag {tg} has "
                    f"{data.size} elements, view has {buf.size}"
                )
            buf[...] = data.reshape(buf.shape)
        if flow is not None:
            if defer_flow:
                self._parked_flows.append(flow)
            else:
                attach_flow("recv", flow)
        return src, tg, data.size

    def pop_parked_flow(self) -> Optional[str]:
        """Oldest flow id parked by a ``defer_flow`` receive, if any."""
        return self._parked_flows.pop(0) if self._parked_flows else None

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0,
              reliable: bool = False) -> Request:
        """Nonblocking send (buffered: completes immediately)."""
        self.Send(buf, dest, tag, reliable=reliable)
        return Request(done=True)

    def Irecv(self, buf: np.ndarray, source: int = ANY_SOURCE,
              tag: int = ANY_TAG, defer_flow: bool = False) -> Request:
        """Nonblocking receive completing at Wait()."""

        def complete(timeout: float):
            return self.Recv(buf, source, tag, timeout=timeout,
                             defer_flow=defer_flow)

        return Request(fn=complete, done=False)

    def Sendrecv(self, sendbuf: np.ndarray, dest: int,
                 recvbuf: np.ndarray, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> None:
        """Combined send+receive (deadlock-free)."""
        self.Send(sendbuf, dest, sendtag)
        self.Recv(recvbuf, source, recvtag)

    # -- collectives -----------------------------------------------------------
    def Barrier(self, timeout: float = _DEFAULT_TIMEOUT) -> None:
        try:
            self._world.barrier.wait(timeout)
        except threading.BrokenBarrierError:
            raise SimMPIError(
                f"rank {self.rank}: barrier broken (peer failure/timeout)"
            ) from None

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Generic-object broadcast.

        Non-root ranks receive a **deep copy**, exactly as real MPI
        deserialises a fresh object per rank — one rank mutating its
        result can never corrupt the others.
        """
        world = self._world
        with world.lock:
            if self.rank == root:
                world.bcast_slots[root] = obj
                world.lock.notify_all()
            else:
                deadline = time.monotonic() + _DEFAULT_TIMEOUT
                while root not in world.bcast_slots:
                    if world.failed.is_set():
                        raise SimMPIError(
                            f"rank {self.rank}: peer failed during bcast")
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise SimMPITimeout("bcast timeout")
                    world.lock.wait(remaining)
                obj = copy.deepcopy(world.bcast_slots[root])
        self.Barrier()
        if self.rank == root:
            with world.lock:
                world.bcast_slots.pop(root, None)
        self.Barrier()
        return obj

    def allreduce(self, value, op: str = "sum"):
        """Scalar all-reduce: op in {sum, max, min}."""
        if op not in ("sum", "max", "min"):
            raise ValueError(f"unsupported allreduce op {op!r}")
        world = self._world
        key = f"reduce-{op}"
        with world.lock:
            slot = world.reduce_slots.setdefault(key, [None] * self.size)
            slot[self.rank] = value
        self.Barrier()
        with world.lock:
            vals = world.reduce_slots[key]
            fn = {"sum": sum, "max": max, "min": min}[op]
            result = fn(vals)
        self.Barrier()
        if self.rank == 0:
            with world.lock:
                world.reduce_slots.pop(key, None)
        self.Barrier()
        return result

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Generic-object gather to ``root``."""
        tag = 1 << 20
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[self.rank] = obj
            for _ in range(self.size - 1):
                src, _, data, flow = self._world.take(
                    self.rank, ANY_SOURCE, tag, _DEFAULT_TIMEOUT
                )
                if flow is not None:
                    attach_flow("recv", flow)
                out[src] = data.item(0)
            return out
        # objects ride the numpy mailbox inside 1-element object arrays;
        # collectives travel the reliable channel (only point-to-point
        # halo traffic is subject to message faults).  Gather payloads
        # are still flow-tracked: the root's collect genuinely depends
        # on every rank, and the critical path should see that.
        box = np.empty(1, dtype=object)
        box[0] = obj
        flow = self._world.post(self.rank, root, tag, box,
                                reliable=True, track_flow=True)
        if flow is not None:
            attach_flow("send", flow)
        return None

    # -- topology -----------------------------------------------------------------
    def Create_cart(self, dims: Sequence[int],
                    periods: Optional[Sequence[bool]] = None) -> "CartComm":
        return CartComm(self._world, self.rank, tuple(dims), periods)

    # -- progress -----------------------------------------------------------------
    def activity(self) -> int:
        """Current delivery generation (see :meth:`wait_for_activity`)."""
        with self._world.lock:
            return self._world.events

    def wait_for_activity(self, timeout: float,
                          seen: Optional[int] = None) -> int:
        """Block until the world delivers something, or ``timeout``.

        ``seen`` is a generation returned by :meth:`activity`; if
        anything was delivered since that snapshot the call returns
        immediately, closing the check-then-wait race without a polling
        loop.  Returns the new generation.
        """
        world = self._world
        deadline = time.monotonic() + timeout
        with world.lock:
            while seen is None or world.events == seen:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                world.lock.wait(remaining)
                if seen is None:
                    break
            return world.events

    # -- accounting ----------------------------------------------------------------
    def traffic_bytes(self) -> int:
        """Total bytes this world has moved so far."""
        with self._world.lock:
            return sum(self._world.traffic.values())


class CartComm(Communicator):
    """Cartesian communicator: row-major rank ↔ coordinates mapping."""

    def __init__(self, world: _World, rank: int, dims: Tuple[int, ...],
                 periods: Optional[Sequence[bool]] = None):
        super().__init__(world, rank)
        n = 1
        for d in dims:
            if d < 1:
                raise ValueError(f"invalid cart dims {dims}")
            n *= d
        if n != world.size:
            raise ValueError(
                f"cart dims {dims} require {n} ranks, world has {world.size}"
            )
        self.dims = dims
        self.periods = (
            tuple(bool(p) for p in periods)
            if periods is not None else (False,) * len(dims)
        )
        if len(self.periods) != len(dims):
            raise ValueError("periods length must match dims")

    def Get_coords(self, rank: int) -> Tuple[int, ...]:
        coords = []
        rem = rank
        for d in reversed(self.dims):
            coords.append(rem % d)
            rem //= d
        return tuple(reversed(coords))

    def Get_cart_rank(self, coords: Sequence[int]) -> int:
        rank = 0
        for c, d, p in zip(coords, self.dims, self.periods):
            if p:
                c %= d
            if not 0 <= c < d:
                raise ValueError(
                    f"coordinate {c} out of range for extent {d} "
                    "(non-periodic)"
                )
            rank = rank * d + c
        return rank

    def Shift(self, direction: int, disp: int = 1) -> Tuple[int, int]:
        """(source, dest) ranks for a shift; -1 marks 'no neighbour'."""
        coords = list(self.Get_coords(self.rank))

        def neighbour(delta: int) -> int:
            c = list(coords)
            c[direction] += delta
            if self.periods[direction]:
                c[direction] %= self.dims[direction]
            elif not 0 <= c[direction] < self.dims[direction]:
                return -1
            return self.Get_cart_rank(c)

        return neighbour(-disp), neighbour(+disp)


def _error_severity(exc: BaseException) -> int:
    """Root-cause ordering: app errors, then injected crashes, then
    other comm errors, then timeouts (which are usually consequences)."""
    if not isinstance(exc, SimMPIError):
        return 0
    if isinstance(exc, RankCrashedError):
        return 1
    if not isinstance(exc, SimMPITimeout):
        return 2
    return 3


def run_ranks(nprocs: int, main: Callable[[Communicator], Any],
              cart_dims: Optional[Sequence[int]] = None,
              periods: Optional[Sequence[bool]] = None,
              timeout: float = 120.0, faults=None,
              scope_attrs: Optional[Dict[str, Any]] = None) -> List[Any]:
    """Run ``main(comm)`` on ``nprocs`` simulated ranks; return results.

    This is the ``mpiexec -n`` of the simulated runtime.  If any rank
    raises, the root-cause exception is re-raised after all threads
    stop, with per-rank diagnostics when several ranks failed.

    ``faults`` attaches a fault injector to the world: a
    :class:`~repro.runtime.faults.FaultInjector`, a spec string such as
    ``"drop:p=0.2"``, or a sequence of ``FaultSpec``.

    ``scope_attrs`` (e.g. ``backend=``, ``exchange_mode=``) join each
    rank thread's span scope alongside ``rank=``, so every span a rank
    emits can be grouped by run configuration.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    injector = faults
    if faults is not None and not hasattr(faults, "on_message"):
        from .faults import FaultInjector

        injector = FaultInjector(faults)
    world = _World(nprocs, injector=injector)
    results: List[Any] = [None] * nprocs
    errors: List[Tuple[int, BaseException]] = []

    def entry(rank: int) -> None:
        try:
            # every span/counter on this thread carries rank=, under a
            # per-rank root span — the merged-timeline track for this
            # rank (see repro.obs.distributed)
            with rank_scope(rank, **(scope_attrs or {})), \
                    span("runtime.rank", rank=rank):
                comm: Communicator = Communicator(world, rank)
                if cart_dims is not None:
                    comm = CartComm(world, rank, tuple(cart_dims),
                                    periods)
                results[rank] = main(comm)
        except BaseException as exc:  # noqa: BLE001 - report to caller
            errors.append((rank, exc))
            world.abort()

    threads = [
        threading.Thread(target=entry, args=(r,), name=f"simmpi-rank-{r}")
        for r in range(nprocs)
    ]
    for th in threads:
        th.start()
    deadline = time.monotonic() + timeout
    for th in threads:
        th.join(max(0.0, deadline - time.monotonic()))
        if th.is_alive():
            # name what each rank still waits for before the abort
            # wakes the blocked receives, so the threads end now
            stuck = world.stuck()
            world.abort()
            for other in threads:
                other.join(_RELEASE_S)
            raise SimMPIError(
                f"{th.name} did not finish within {timeout}s (deadlock?); "
                f"{stuck}"
            )
    if errors:
        # prefer the root cause: secondary SimMPIErrors (broken barriers,
        # peer-failure aborts, timeouts) are consequences, not causes
        rank, exc = min(
            errors, key=lambda e: (_error_severity(e[1]), e[0])
        )
        message = f"rank {rank} failed: {exc!r}"
        if len(errors) > 1:
            lines = "\n".join(
                f"  rank {r}: {type(e).__name__}: {e}"
                for r, e in sorted(errors, key=lambda item: item[0])
            )
            message += f"\nper-rank diagnostics:\n{lines}"
        raise SimMPIError(message) from exc
    return results
