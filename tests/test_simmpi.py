"""Tests for the simulated MPI runtime."""

import threading
import time

import numpy as np
import pytest

from repro.runtime.simmpi import (
    ANY_SOURCE,
    CartComm,
    Request,
    SimMPIError,
    SimMPITimeout,
    run_ranks,
)


class TestPointToPoint:
    def test_send_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(4.0), dest=1, tag=5)
                return None
            buf = np.zeros(4)
            src, tag, count = comm.Recv(buf, source=0, tag=5)
            assert (src, tag, count) == (0, 5, 4)
            return buf.tolist()

        res = run_ranks(2, main)
        assert res[1] == [0.0, 1.0, 2.0, 3.0]

    def test_send_copies_at_send_time(self):
        def main(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.Send(data, dest=1)
                data[:] = 99  # must not affect the message
                comm.Barrier()
            else:
                comm.Barrier()
                buf = np.zeros(4)
                comm.Recv(buf, source=0)
                return buf[0]
            return None

        assert run_ranks(2, main)[1] == 1.0

    def test_fifo_order_per_source_and_tag(self):
        def main(comm):
            if comm.rank == 0:
                for v in range(5):
                    comm.Send(np.array([float(v)]), dest=1, tag=3)
                return None
            got = []
            buf = np.zeros(1)
            for _ in range(5):
                comm.Recv(buf, source=0, tag=3)
                got.append(buf[0])
            return got

        assert run_ranks(2, main)[1] == [0, 1, 2, 3, 4]

    def test_tag_matching_skips_other_tags(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.0]), dest=1, tag=7)
                comm.Send(np.array([2.0]), dest=1, tag=8)
                return None
            buf = np.zeros(1)
            comm.Recv(buf, source=0, tag=8)
            first = buf[0]
            comm.Recv(buf, source=0, tag=7)
            return (first, buf[0])

        assert run_ranks(2, main)[1] == (2.0, 1.0)

    def test_any_source(self):
        def main(comm):
            if comm.rank != 0:
                comm.Send(np.array([float(comm.rank)]), dest=0)
                return None
            got = set()
            buf = np.zeros(1)
            for _ in range(2):
                src, _, _ = comm.Recv(buf, source=ANY_SOURCE)
                got.add(src)
            return got

        assert run_ranks(3, main)[0] == {1, 2}

    def test_truncation_error(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(10), dest=1)
                return None
            buf = np.zeros(4)
            comm.Recv(buf, source=0)

        with pytest.raises(SimMPIError, match="truncation"):
            run_ranks(2, main)

    def test_short_message_into_large_buffer(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.ones(3), dest=1)
                return None
            buf = np.zeros(10)
            _, _, count = comm.Recv(buf, source=0)
            return count

        assert run_ranks(2, main)[1] == 3

    def test_invalid_peer(self):
        def main(comm):
            comm.Send(np.zeros(1), dest=5)

        with pytest.raises(SimMPIError, match="invalid peer"):
            run_ranks(2, main)

    def test_recv_timeout_is_deadlock_error(self):
        def main(comm):
            buf = np.zeros(1)
            comm.Recv(buf, source=(comm.rank + 1) % 2, timeout=0.3)

        with pytest.raises(SimMPIError):
            run_ranks(2, main)


class TestNonblocking:
    def test_irecv_wait(self):
        def main(comm):
            if comm.rank == 0:
                buf = np.zeros(2)
                req = comm.Irecv(buf, source=1, tag=1)
                req.Wait()
                return buf.tolist()
            comm.Isend(np.array([3.0, 4.0]), dest=0, tag=1).Wait()
            return None

        assert run_ranks(2, main)[0] == [3.0, 4.0]

    def test_test_polls_without_blocking(self):
        def main(comm):
            if comm.rank == 0:
                buf = np.zeros(1)
                req = comm.Irecv(buf, source=1)
                comm.Barrier()  # now the message surely exists
                assert req.Test()
                return buf[0]
            comm.Send(np.array([9.0]), dest=0)
            comm.Barrier()
            return None

        assert run_ranks(2, main)[0] == 9.0

    def test_waitall(self):
        def main(comm):
            peer = (comm.rank + 1) % 2
            recv = np.zeros(1)
            reqs = [
                comm.Irecv(recv, source=peer),
                comm.Isend(np.array([float(comm.rank)]), dest=peer),
            ]
            Request.Waitall(reqs)
            return recv[0]

        assert run_ranks(2, main) == [1.0, 0.0]


class TestCollectives:
    def test_allreduce_ops(self):
        def main(comm):
            return (
                comm.allreduce(comm.rank, "sum"),
                comm.allreduce(comm.rank, "max"),
                comm.allreduce(comm.rank, "min"),
            )

        for result in run_ranks(4, main):
            assert result == (6, 3, 0)

    def test_allreduce_unknown_op(self):
        def main(comm):
            comm.allreduce(1, "prod")

        with pytest.raises(SimMPIError):
            run_ranks(2, main)

    def test_bcast_object(self):
        def main(comm):
            payload = {"grid": (2, 2)} if comm.rank == 0 else None
            return comm.bcast(payload, root=0)

        for result in run_ranks(3, main):
            assert result == {"grid": (2, 2)}

    def test_gather_arbitrary_objects(self):
        def main(comm):
            return comm.gather(("rank", comm.rank), root=0)

        res = run_ranks(3, main)
        assert res[0] == [("rank", 0), ("rank", 1), ("rank", 2)]
        assert res[1] is None

    def test_sequential_collectives_do_not_interfere(self):
        def main(comm):
            a = comm.allreduce(1, "sum")
            b = comm.allreduce(comm.rank, "sum")
            return (a, b)

        for result in run_ranks(3, main):
            assert result == (3, 3)


class TestCartComm:
    def test_coords_roundtrip(self):
        def main(comm):
            coords = comm.Get_coords(comm.rank)
            return comm.Get_cart_rank(coords)

        assert run_ranks(6, main, cart_dims=(2, 3)) == list(range(6))

    def test_shift_nonperiodic_edge(self):
        def main(comm):
            return comm.Shift(0, 1)

        res = run_ranks(4, main, cart_dims=(2, 2), periods=(False, False))
        assert res[0] == (-1, 2)  # top row has no upper neighbour
        assert res[2] == (0, -1)

    def test_shift_periodic_wraps(self):
        def main(comm):
            return comm.Shift(1, 1)

        res = run_ranks(4, main, cart_dims=(2, 2), periods=(False, True))
        assert res[0] == (1, 1)  # wraps around in dim 1

    def test_dims_must_match_world(self):
        def main(comm):
            pass

        with pytest.raises(SimMPIError):
            run_ranks(3, main, cart_dims=(2, 2))


class TestFailurePropagation:
    def test_rank_exception_reported(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.Barrier()

        with pytest.raises(SimMPIError, match="rank 1 failed"):
            run_ranks(2, main)

    def test_deadlock_names_receives_and_releases_ranks(self):
        """A run that times out says what each stuck rank waits for and
        what no receive took, and its rank threads end at once instead
        of sitting out their own receive timeout."""
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1), dest=1, tag=1)
            else:
                comm.Recv(np.zeros(1), source=0, tag=2)

        before = set(threading.enumerate())
        with pytest.raises(SimMPIError) as err:
            run_ranks(2, main, timeout=1.0)
        message = str(err.value)
        assert "simmpi-rank-1 did not finish within 1.0s (deadlock?)" \
            in message
        assert "pending receives: rank 1 from 0 tag 2" in message
        assert "unmatched messages: to rank 1 from 0 tag 1" in message
        assert not [th for th in threading.enumerate()
                    if th not in before and th.is_alive()
                    and th.name.startswith("simmpi-rank-")]

    def test_failing_rank_wakes_a_blocked_receive(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.Recv(np.zeros(1), source=1, timeout=30.0)

        start = time.monotonic()
        with pytest.raises(SimMPIError, match="rank 1 failed"):
            run_ranks(2, main)
        assert time.monotonic() - start < 10.0

    def test_traffic_accounting(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(100), dest=1)
            else:
                buf = np.zeros(100)
                comm.Recv(buf, source=0)
            comm.Barrier()
            return comm.traffic_bytes()

        res = run_ranks(2, main)
        assert res[0] == res[1] == 800


class TestRegressionBugfixes:
    """Regressions for the comm-layer bugfix sweep (ISSUE 2)."""

    def test_test_raises_on_peer_crash(self):
        """``Test()`` must re-raise terminal errors, not report
        'not ready' and let the caller spin until the outer timeout."""
        outcome = {}

        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            buf = np.zeros(1)
            req = comm.Irecv(buf, source=1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    if req.Test():
                        outcome["result"] = "completed"
                        return
                except SimMPIError:
                    outcome["result"] = "raised"
                    return
                time.sleep(0.005)
            outcome["result"] = "spun until timeout"

        with pytest.raises(SimMPIError, match="rank 1 failed"):
            run_ranks(2, main)
        assert outcome["result"] == "raised"

    def test_timeout_survives_notify_storm(self):
        """Deadlines are monotonic-clock based: a flood of unrelated
        deliveries (each a ``notify_all``) must not shrink them."""
        elapsed = {}

        def main(comm):
            if comm.rank == 0:
                buf = np.zeros(1)
                start = time.monotonic()
                try:
                    comm.Recv(buf, source=1, tag=9, timeout=0.6)
                finally:
                    elapsed["s"] = time.monotonic() - start
                return None
            # storm rank 0 with non-matching traffic for ~0.8 s
            payload = np.zeros(1)
            stop = time.monotonic() + 0.8
            while time.monotonic() < stop:
                comm.Send(payload, dest=0, tag=1)
                time.sleep(0.002)
            return None

        with pytest.raises(SimMPIError):
            run_ranks(2, main)
        assert elapsed["s"] >= 0.5, (
            f"deadline shrank to {elapsed['s']:.3f}s under notify load"
        )

    def test_recv_timeout_is_timeout_subclass(self):
        seen = {}

        def main(comm):
            buf = np.zeros(1)
            try:
                comm.Recv(buf, source=(comm.rank + 1) % 2, timeout=0.2)
            except SimMPIError as exc:
                seen.setdefault(comm.rank, exc)
                raise

        with pytest.raises(SimMPIError):
            run_ranks(2, main)
        assert any(
            isinstance(e, SimMPITimeout) for e in seen.values()
        )

    def test_bcast_hands_out_isolated_copies(self):
        """One rank mutating its bcast result must not corrupt the
        object the other ranks received."""

        def main(comm):
            payload = {"grid": [1, 2]} if comm.rank == 0 else None
            obj = comm.bcast(payload, root=0)
            if comm.rank == 1:
                obj["grid"].append(99)
            comm.Barrier()
            return obj["grid"]

        res = run_ranks(3, main)
        assert res[1] == [1, 2, 99]
        assert res[0] == [1, 2]
        assert res[2] == [1, 2]

    def test_waitall_charges_one_shared_deadline(self):
        """N stuck requests fail after ~timeout, not N * timeout."""

        def main(comm):
            if comm.rank != 0:
                return None
            bufs = [np.zeros(1) for _ in range(4)]
            reqs = [
                comm.Irecv(buf, source=1, tag=i)
                for i, buf in enumerate(bufs)
            ]
            start = time.monotonic()
            try:
                Request.Waitall(reqs, timeout=0.4)
            except SimMPITimeout:
                return time.monotonic() - start
            return -1.0

        took = run_ranks(2, main)[0]
        assert took != -1.0, "Waitall should have timed out"
        assert 0.3 <= took < 1.2, (
            f"4 stuck requests took {took:.2f}s — deadline not shared"
        )


class TestStressAndDeterminism:
    def test_many_ranks_many_tags(self):
        """Contention stress: every pair exchanges on several tags."""

        def main(comm):
            rng = np.random.default_rng(comm.rank)
            reqs = []
            bufs = {}
            for peer in range(comm.size):
                if peer == comm.rank:
                    continue
                for tag in (1, 2, 3):
                    buf = np.zeros(tag)
                    bufs[(peer, tag)] = buf
                    reqs.append(comm.Irecv(buf, source=peer, tag=tag))
            for peer in range(comm.size):
                if peer == comm.rank:
                    continue
                for tag in (1, 2, 3):
                    comm.Isend(
                        np.full(tag, comm.rank * 10.0 + tag), peer, tag
                    )
            Request.Waitall(reqs)
            for (peer, tag), buf in bufs.items():
                assert (buf == peer * 10.0 + tag).all()
            return True

        assert all(run_ranks(6, main))

    def test_distributed_run_is_deterministic(self):
        """Two identical distributed runs produce identical bytes
        despite thread scheduling."""
        from repro.frontend import build_benchmark
        from repro.runtime.executor import distributed_run

        prog, _ = build_benchmark("2d9pt_box", grid=(20, 20),
                                  boundary="periodic")
        rng = np.random.default_rng(0)
        init = [rng.random((20, 20)) for _ in range(2)]
        a = distributed_run(prog.ir, init, 5, (2, 2), boundary="periodic")
        b = distributed_run(prog.ir, init, 5, (2, 2), boundary="periodic")
        np.testing.assert_array_equal(a, b)
