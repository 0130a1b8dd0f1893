"""Collective operations, validated against numpy references at many sizes."""

import numpy as np
import pytest

from repro.mpi import MAX, MIN, PROD, SUM, LAND, LOR, MPIError, run_spmd

SIZES = [1, 2, 3, 4, 5, 7, 8, 13]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_all_roots_and_sizes(size, root):
    root = size - 1 if root == "last" else root

    def main(comm):
        obj = {"data": list(range(10))} if comm.rank == root else None
        return comm.bcast(obj, root=root)

    results = run_spmd(size, main)
    assert all(r == {"data": list(range(10))} for r in results)


@pytest.mark.parametrize("size", SIZES)
def test_reduce_sum_matches_formula(size):
    def main(comm):
        return comm.reduce(comm.rank + 1, op=SUM, root=0)

    results = run_spmd(size, main)
    assert results[0] == size * (size + 1) // 2
    assert all(r is None for r in results[1:])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize(
    "op,ref",
    [
        (SUM, sum),
        (PROD, lambda xs: int(np.prod(xs))),
        (MIN, min),
        (MAX, max),
    ],
)
def test_allreduce_ops(size, op, ref):
    def main(comm):
        return comm.allreduce(comm.rank + 2, op=op)

    results = run_spmd(size, main)
    expected = ref([r + 2 for r in range(size)])
    assert results == [expected] * size


def test_allreduce_logical_ops():
    def main(comm):
        any_true = comm.allreduce(comm.rank == 2, op=LOR)
        all_true = comm.allreduce(comm.rank < 3, op=LAND)
        return (any_true, all_true)

    assert run_spmd(4, main) == [(True, False)] * 4


@pytest.mark.parametrize("size", SIZES)
def test_barrier_completes(size):
    def main(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert run_spmd(size, main) == [True] * size


def test_barrier_synchronizes_phases():
    """No rank may enter phase 2 before every rank finished phase 1."""
    import threading

    phase1_done = [False] * 4
    violations = []
    lock = threading.Lock()

    def main(comm):
        with lock:
            phase1_done[comm.rank] = True
        comm.barrier()
        with lock:
            if not all(phase1_done):
                violations.append(comm.rank)

    run_spmd(4, main)
    assert violations == []


@pytest.mark.parametrize("size", SIZES)
def test_gather_scatter_roundtrip(size):
    def main(comm):
        gathered = comm.gather(comm.rank * 11, root=0)
        items = [x + 1 for x in gathered] if comm.rank == 0 else None
        return comm.bcast(items, root=0)[comm.rank]

    results = run_spmd(size, main)
    assert results == [r * 11 + 1 for r in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_allgather(size):
    def main(comm):
        return comm.allgather(comm.rank**2)

    expected = [r**2 for r in range(size)]
    assert run_spmd(size, main) == [expected] * size


@pytest.mark.parametrize("size", [1, 2, 4, 7])
def test_alltoall_transpose(size):
    def main(comm):
        send = [(comm.rank, dst) for dst in range(comm.size)]
        return comm.alltoall(send)

    results = run_spmd(size, main)
    for dst in range(size):
        assert results[dst] == [(src, dst) for src in range(size)]


def test_numpy_reduce_and_bcast_buffers():
    def main(comm):
        send = np.full((3, 2), float(comm.rank + 1))
        recv = np.zeros((3, 2)) if comm.rank == 0 else None
        comm.Reduce(send, recv, op=SUM, root=0)
        codebook = recv if comm.rank == 0 else np.zeros((3, 2))
        comm.Bcast(codebook, root=0)
        return codebook

    size = 4
    results = run_spmd(size, main)
    expected = np.full((3, 2), float(sum(range(1, size + 1))))
    for arr in results:
        np.testing.assert_array_equal(arr, expected)


def test_reduce_rank_order_for_noncommutative_combine():
    """The tree reduction must combine partial results in rank order."""

    def main(comm):
        return comm.reduce([comm.rank], op=SUM, root=0)  # list concat

    for size in SIZES:
        results = run_spmd(size, main)
        assert results[0] == list(range(size))


def test_dup_isolates_contexts():
    def main(comm):
        dup = comm.dup()
        if comm.rank == 0:
            dup.send("via-dup", dest=1, tag=0)
            comm.send("via-world", dest=1, tag=0)
            return None
        # Receive from world first: the dup message must not match.
        world_msg = comm.recv(source=0, tag=0)
        dup_msg = dup.recv(source=0, tag=0)
        return (world_msg, dup_msg)

    assert run_spmd(2, main)[1] == ("via-world", "via-dup")


def test_no_message_leaks_after_collectives():
    """After a rank exits a barrier its own mailbox must be drained.

    (The global mailbox count is racy — peers may still be inside the
    barrier — so each rank checks only the messages addressed to itself.)
    """

    def main(comm):
        comm.allreduce(1)
        comm.barrier()
        comm.allgather(comm.rank)
        comm.barrier()
        return len(comm.network._mailboxes[comm.rank]._items)

    results = run_spmd(5, main)
    assert all(n == 0 for n in results)
