"""The payload contract, held on both transport backends.

On both backends a received payload equals the payload as it was at the
send, every numpy array in it is read-only, and whatever pickle refuses is
refused at the send (:mod:`repro.mpi.transport`).  A rank's own share of a
collective is not a message and comes back as the object it passed.

Payloads come in two sizes where it matters: under ``SHM_MIN_BYTES`` of
buffers a process-backend frame carries them inline, over it they take an
arena slot, or a per-message block with ``$REPRO_MPI_ARENA_MB=0``.
"""

import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.mpi.runtime import BACKENDS
from repro.mpi.shm import SHM_MIN_BYTES

#: Elements of a float64 array over the inline limit.
BIG = SHM_MIN_BYTES // 8 * 2


@dataclass
class Holder:
    name: str
    table: np.ndarray


def _arrays(obj):
    """Every ndarray reachable through tuples, lists, dicts and Holders."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)
    elif isinstance(obj, Holder):
        yield obj.table


def _send_to_one(payloads):
    """Rank function: rank 0 sends each payload to rank 1, which returns
    what arrived and whether each array in it was writable."""
    def prog(comm):
        if comm.rank == 0:
            for p in payloads(comm):
                comm.send(p, dest=1)
            return None
        got = [comm.recv(source=0) for _ in payloads(comm)]
        return got, [[a.flags.writeable for a in _arrays(g)] for g in got]
    return prog


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_same(got[key], want[key])
    elif isinstance(want, Holder):
        assert got.name == want.name
        _assert_same(got.table, want.table)
    else:
        assert got == want


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [10, BIG], ids=["inline", "bulk"])
class TestContract:
    def test_mutation_after_the_send_is_invisible(self, backend, n):
        """The sender's buffer is free once the send returns, as with
        ``MPI_Send``: the receiver sees the values at the send."""
        def prog(comm):
            a = np.arange(float(n))
            if comm.rank == 0:
                comm.send((a, a), dest=1)
                comm.send(a, dest=0)  # a send to itself is a message too
                a[:] = -1.0
                mine = comm.recv(source=0)
                comm.barrier()
                return float(mine.sum())
            comm.barrier()  # rank 0 has mutated by now
            x, y = comm.recv(source=0)
            return float(x.sum()), np.shares_memory(x, y)

        out = run_spmd(2, prog, backend=backend, op_timeout=30.0)
        want = float(n * (n - 1) / 2)
        assert out == [want, (want, True)]

    def test_arrays_inside_objects_arrive_read_only(self, backend, n):
        def payloads(comm):
            arr = np.arange(float(n))
            return [arr, (arr, 1), {"a": arr}, Holder("h", arr.reshape(-1, 2)),
                    [None, (arr, [arr[:2]])]]

        got, writable = run_spmd(2, _send_to_one(payloads), backend=backend,
                                 op_timeout=30.0)[1]
        for g, w in zip(got, payloads(None)):
            _assert_same(g, w)
        assert writable == [[False], [False], [False], [False], [False, False]]

    def test_unusual_arrays_round_trip(self, backend, n):
        def payloads(comm):
            rec = np.zeros(n, dtype=[("k", "<i8"), ("v", "<f8"), ("s", "S3")])
            rec["k"] = np.arange(n)
            rec["s"] = b"ab"
            square = np.arange(float(n * 4)).reshape(-1, 4)
            return [
                rec,
                np.array([f"subject-{i}" for i in range(n)]),
                np.asfortranarray(square),
                square[::2, 1:3],  # neither C- nor F-contiguous
                rec["v"],  # a strided field view
                np.zeros((0, 3)),
                (np.zeros(0, dtype=np.uint8), np.arange(float(n))),
                np.float64(2.5),  # a numpy scalar is not an array
            ]

        got, writable = run_spmd(2, _send_to_one(payloads), backend=backend,
                                 op_timeout=30.0)[1]
        want = payloads(None)
        for g, w in zip(got, want):
            _assert_same(g, w)
        assert got[2].flags.f_contiguous
        assert not any(flag for flags in writable for flag in flags)

    def test_sub_communicators_carry_the_sender_payload(self, backend, n):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2, key=-comm.rank)
            page = {"rank": comm.rank, "rows": np.full(n, float(comm.rank))}
            got = sub.allgather(page)
            if comm.rank == 0:
                return [g["rank"] for g in got], [float(g["rows"][-1]) for g in got]
            survivors = comm.shrink([0])
            inbox = survivors.alltoall(
                [(comm.rank, np.full(n, comm.rank * 10.0))] * survivors.size)
            return ([g["rank"] for g in got], [float(g["rows"][-1]) for g in got],
                    [(r, float(a[0]), a.flags.writeable) for r, a in inbox])

        out = run_spmd(4, prog, backend=backend, op_timeout=30.0)
        assert out[0] == ([2, 0], [2.0, 0.0])
        for rank in (1, 2, 3):
            order = [3, 1] if rank % 2 else [2, 0]
            own = [(r, r * 10.0, r == rank) for r in (1, 2, 3)]
            assert out[rank] == (order, [float(r) for r in order], own)

    def test_own_share_of_a_collective_is_the_object_passed(self, backend, n):
        def prog(comm):
            mine = [np.full(n, float(comm.rank)) for _ in range(comm.size)]
            got = comm.alltoall(mine)
            gathered = comm.gather(mine[0], root=comm.size - 1)
            return (got[comm.rank] is mine[comm.rank], [float(a[0]) for a in got],
                    gathered is not None and gathered[-1] is mine[0])

        out = run_spmd(3, prog, backend=backend, op_timeout=30.0)
        assert out == [(True, [0.0, 1.0, 2.0], rank == 2) for rank in range(3)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_what_pickle_refuses_is_refused_at_the_send(backend):
    with pytest.raises(Exception) as refused:
        pickle.dumps({"f": lambda x: x}, protocol=5)

    def prog(comm):
        if comm.rank == 0:
            try:
                comm.send({"f": lambda x: x}, dest=1)
            except Exception as exc:
                raised = type(exc)
            else:
                raised = None
            comm.send("after", dest=1)  # the failed send left nothing behind
            return raised
        return comm.recv(source=0)

    assert run_spmd(2, prog, backend=backend, op_timeout=30.0) == [
        type(refused.value), "after"]


def test_an_object_holding_a_large_array_rides_the_arena(monkeypatch):
    monkeypatch.setenv("REPRO_MPI_ARENA_MB", "8")

    def prog(comm):
        if comm.rank == 0:
            before = comm.network.arena_stats()["sends"]
            comm.send({"a": np.arange(SHM_MIN_BYTES // 8 * 2, dtype=np.float64)}, dest=1)
            comm.send(Holder("h", np.ones((128, 64))), dest=1)
            return comm.network.arena_stats()["sends"] - before
        a = comm.recv(source=0)["a"]
        h = comm.recv(source=0)
        return float(a[-1]), float(h.table.sum())

    assert run_spmd(2, prog, backend="process", op_timeout=30.0) == [
        2, (SHM_MIN_BYTES // 8 * 2 - 1.0, 128 * 64.0)]
