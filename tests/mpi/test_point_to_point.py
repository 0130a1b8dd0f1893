"""Point-to-point semantics of the in-process MPI runtime."""

import sys
import time

import numpy as np
import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    MPIError,
    Status,
    run_spmd,
)
from repro.mpi.runtime import BACKENDS, SpmdJob


def test_send_recv_roundtrip():
    def main(comm):
        if comm.rank == 0:
            comm.send({"x": 1, "y": [1, 2, 3]}, dest=1, tag=7)
            return None
        return comm.recv(source=0, tag=7)

    results = run_spmd(2, main)
    assert results[1] == {"x": 1, "y": [1, 2, 3]}


def test_fifo_ordering_same_source_tag():
    """Messages from one sender with the same tag arrive in send order."""

    def main(comm):
        if comm.rank == 0:
            for i in range(50):
                comm.send(i, dest=1, tag=3)
            return None
        return [comm.recv(source=0, tag=3) for _ in range(50)]

    results = run_spmd(2, main)
    assert results[1] == list(range(50))


@pytest.mark.parametrize("backend", BACKENDS)
def test_many_senders_into_one_mailbox(backend):
    """More ranks than cores post into one mailbox under a short switch
    interval: nothing is lost, each sender's messages stay in order, and
    every rank's fault-gate op count is exact."""
    nprocs, per = 6, 200

    def main(comm):
        if comm.rank != 0:
            for i in range(per):
                comm.send(i, dest=0, tag=1)
            return None
        seen = {src: [] for src in range(1, nprocs)}
        for _ in range((nprocs - 1) * per):
            st = Status()
            obj = comm.recv(source=ANY_SOURCE, tag=1, status=st)
            seen[st.source].append(obj)
        return seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        job = SpmdJob(nprocs, main, op_timeout=30.0, backend=backend)
        results = job.run(join_timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == {src: list(range(per)) for src in range(1, nprocs)}
    assert [job.network.op_count(r) for r in range(nprocs)] == \
        [(nprocs - 1) * per] + [per] * (nprocs - 1)


def test_tag_selective_receive_out_of_order():
    """A receive can pick a later-sent message by tag, skipping earlier ones."""

    def main(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    assert run_spmd(2, main)[1] == ("first", "second")


def test_any_source_any_tag_with_status():
    def main(comm):
        if comm.rank == 0:
            received = []
            for _ in range(comm.size - 1):
                st = Status()
                val = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
                assert val == st.Get_source() * 100
                assert st.Get_tag() == st.Get_source()
                received.append(st.Get_source())
            return sorted(received)
        comm.send(comm.rank * 100, dest=0, tag=comm.rank)
        return None

    assert run_spmd(4, main)[0] == [1, 2, 3]


def test_payload_isolation_mutable_objects():
    """Sender-side mutation after send must not leak to the receiver."""

    def main(comm):
        if comm.rank == 0:
            payload = [1, 2, 3]
            comm.send(payload, dest=1)
            payload.append(99)  # must not be visible on rank 1
            return None
        return comm.recv(source=0)

    assert run_spmd(2, main)[1] == [1, 2, 3]


def test_numpy_send_recv_inplace():
    def main(comm):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        if comm.rank == 0:
            comm.Send(a * 2, dest=1, tag=5)
            return None
        buf = np.zeros((2, 3))
        st = Status()
        comm.Recv(buf, source=0, tag=5, status=st)
        assert st.Get_count() == 6
        return buf

    out = run_spmd(2, main)[1]
    np.testing.assert_array_equal(out, np.arange(6, dtype=np.float64).reshape(2, 3) * 2)


def test_recv_buffer_size_mismatch_raises():
    def main(comm):
        if comm.rank == 0:
            comm.Send(np.zeros(3), dest=1)
            return None
        with pytest.raises(MPIError, match="buffer size"):
            comm.Recv(np.zeros(5), source=0)
        return True

    assert run_spmd(2, main)[1] is True


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocking_recv_times_out_on_its_budget(backend):
    """A receive nothing matches raises DeadlockError at op_timeout, not late."""

    def main(comm):
        t0 = time.monotonic()
        with pytest.raises(DeadlockError):
            comm.recv(source=0, tag=99)
        return time.monotonic() - t0

    elapsed = run_spmd(1, main, op_timeout=2.0, backend=backend)[0]
    assert 2.0 <= elapsed <= 2.2


def test_negative_user_tag_rejected():
    def main(comm):
        with pytest.raises(MPIError, match="tags must be >= 0"):
            comm.send(1, dest=0, tag=-5)
        return True

    assert run_spmd(1, main)[0] is True


def test_invalid_peer_rank_rejected():
    def main(comm):
        with pytest.raises(MPIError, match="peer rank"):
            comm.send(1, dest=7)
        return True

    assert run_spmd(2, main) == [True, True]


def test_deadlock_detection():
    """Two ranks both receiving first must time out, not hang, and say
    after how long: a sub-second budget prints as given, not as "0s"."""

    def main(comm):
        comm.recv(source=(comm.rank + 1) % 2, tag=0)

    with pytest.raises(DeadlockError, match=r"timed out after 0\.3s "):
        run_spmd(2, main, op_timeout=0.3)


def test_exception_propagates_and_aborts_peers():
    def main(comm):
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        comm.recv(source=1)  # would block forever without abort

    with pytest.raises(ValueError, match="boom on rank 1"):
        run_spmd(2, main, op_timeout=30)
