"""Process-transport specifics: shared memory, pickling edges, telemetry.

The generic MPI semantics (matching, collectives, aborts, faults) are
covered by the backend-parametrized suites; this file pins down what is
unique to ranks-as-processes — where a frame's buffers live (inline, arena
slot or shm block), results and exceptions on the exit pipe, per-process trace merging, and the
shared heartbeat/op-count surfaces the supervisor reads.
"""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.mpi import AbortError, MPIError, run_spmd
from repro.mpi.runtime import BACKENDS, SpmdJob, resolve_backend
from repro.mpi.network import Message
from repro.mpi.shm import SHM_MIN_BYTES, pack_frame, sweep_job_blocks, unpack_frame
from repro.mpi.transport import encode
from repro.obs.trace import TraceSession


def _shm_blocks(prefix="reprompi"):
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
    except OSError:  # pragma: no cover - non-Linux shm layout
        return set()


class TestCollectivesSanity:
    def test_mixed_collectives(self):
        def prog(comm):
            total = comm.allreduce(comm.rank)
            ranks = comm.allgather(comm.rank)
            comm.barrier()
            inbox = comm.alltoall([comm.rank * 10 + d for d in range(comm.size)])
            part = comm.scan(comm.rank)
            return total, ranks, inbox, part

        results = run_spmd(4, prog, backend="process", op_timeout=30.0)
        for rank, (total, ranks, inbox, part) in enumerate(results):
            assert total == 6
            assert ranks == [0, 1, 2, 3]
            assert inbox == [s * 10 + rank for s in range(4)]
            assert part == sum(range(rank + 1))

    def test_numpy_allreduce_and_bcast(self):
        def prog(comm):
            acc = np.full(8, float(comm.rank))
            out = np.empty_like(acc)
            comm.Reduce(acc, out, root=0)
            comm.Bcast(out, root=0)
            cb = np.arange(6.0) if comm.rank == 0 else np.zeros(6)
            comm.Bcast(cb, root=0)
            return out.tolist(), cb.tolist()

        results = run_spmd(3, prog, backend="process", op_timeout=30.0)
        for out, cb in results:
            assert out == [3.0] * 8
            assert cb == list(range(6))

    def test_split_contexts_are_isolated(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            total = sub.allreduce(comm.rank)
            return total, sub.size

        results = run_spmd(4, prog, backend="process", op_timeout=30.0)
        assert results == [(2, 2), (4, 2), (2, 2), (4, 2)]

    def test_array_payloads_on_a_sub_communicator_come_from_their_sender(self):
        """Regression: an arena frame named its payload's segment by the
        sender's rank in the communicator, so on a sub-communicator (a
        split, or one shrunk past a dead rank) the receiver read another
        rank's ring: an array Reduce over the survivors of a degraded map
        summed the wrong rows."""

        def prog(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            mine = np.full(1000, float(comm.rank))
            out = np.empty_like(mine)
            sub.Reduce(mine, out, root=0)
            sub.Bcast(out, root=0)
            page = sub.allgather((np.arange(3) + comm.rank,))
            return out[0], [int(p[0][0]) for p in page]

        results = run_spmd(4, prog, backend="process", op_timeout=30.0)
        assert results == [(2.0, [0, 2]), (4.0, [1, 3]), (2.0, [0, 2]), (4.0, [1, 3])]


class TestSharedMemoryPath:
    def test_large_array_round_trips_through_shm(self):
        n = SHM_MIN_BYTES  # float64 -> 8x the threshold, firmly on the shm path
        before = _shm_blocks()

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(n, dtype=np.float64), dest=1)
                return None
            got = comm.recv(source=0)
            return float(got.sum()), got.dtype.str, not got.flags.writeable

        results = run_spmd(2, prog, backend="process", op_timeout=30.0)
        assert results[1] == (float(n * (n - 1) / 2), "<f8", True)
        # Neither per-message blocks nor arena rings may outlive the job.
        assert _shm_blocks() == before

    def test_tuple_of_arrays_round_trips(self):
        before = _shm_blocks()

        def prog(comm):
            if comm.rank == 0:
                page = (np.arange(10_000, dtype=np.int64),
                        np.linspace(0.0, 1.0, 10_000))
                comm.send(page, dest=1)
                return None
            keys, vals = comm.recv(source=0)
            return int(keys[-1]), float(vals[-1])

        results = run_spmd(2, prog, backend="process", op_timeout=30.0)
        assert results[1] == (9999, 1.0)
        assert _shm_blocks() == before

    def test_small_and_object_payloads_take_the_pipe(self):
        """Under ``SHM_MIN_BYTES`` of buffers a payload rides the pipe; an
        object holding a large array takes an arena slot like a bare one."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4), dest=1)          # tiny: inline
                comm.send({"k": [1, 2, 3]}, dest=1)      # no buffers: inline
                small = comm.network.arena_stats()["sends"]
                comm.send({"big": np.arange(SHM_MIN_BYTES // 8.0)}, dest=1)
                return small, comm.network.arena_stats()["sends"] - small
            a = comm.recv(source=0)
            d = comm.recv(source=0)
            big = comm.recv(source=0)["big"]
            return a.tolist(), d, float(big[-1]), big.flags.writeable

        results = run_spmd(2, prog, backend="process", op_timeout=30.0)
        assert results[0] == (0, 1)
        assert results[1] == ([0, 1, 2, 3], {"k": [1, 2, 3]},
                              SHM_MIN_BYTES // 8 - 1.0, False)

    def test_no_blocks_leak_after_a_run(self):
        before = _shm_blocks()

        def prog(comm):
            big = np.full(SHM_MIN_BYTES, comm.rank, dtype=np.float64)
            gathered = comm.gather(big, root=0)
            if comm.rank == 0:
                return float(gathered[comm.size - 1][0])
            return None

        results = run_spmd(3, prog, backend="process", op_timeout=30.0)
        assert results[0] == 2.0
        assert _shm_blocks() == before

    def test_codec_round_trip_in_process(self):
        """One frame codec for messages and exit envelopes: without an
        arena, ``SHM_MIN_BYTES`` or more of buffers leave the frame for
        one named block, which ``unpack_frame`` unlinks."""
        name = "reprompi_codectest_0"

        def blocks():
            return _shm_blocks("reprompi_codectest_")

        def frame_of(payload):
            msg = Message(src=0, dst=1, tag=0, context=0, payload=payload)
            return pack_frame(msg, 0, encode(payload), None, name)

        small = {"result": np.arange(SHM_MIN_BYTES // 8 - 4, dtype=np.float64), "n": 3}
        big = [np.arange(SHM_MIN_BYTES // 8, dtype=np.float64), small["result"],
               np.ones((300, 300), order="F")]
        try:
            frame = frame_of(small)
            assert len(frame) > SHM_MIN_BYTES - 64  # the buffer rode inline
            assert blocks() == set()
            back = unpack_frame(frame, owned=True).payload
            np.testing.assert_array_equal(back["result"], small["result"])
            assert back["n"] == 3 and back["result"].flags.writeable

            frame = frame_of(big)
            assert len(frame) < 1024  # every buffer left the frame
            assert blocks() == {name}
            back = unpack_frame(frame, owned=True).payload
            assert blocks() == set()
        finally:
            sweep_job_blocks("reprompi_codectest_")
        for got, want in zip(back, big):
            np.testing.assert_array_equal(got, want)
        assert back[2].flags.f_contiguous and back[0].flags.writeable


class TestErrorPropagation:
    def test_unpicklable_exception_is_sanitized(self):
        class Local(RuntimeError):
            """Defined in a function scope: unpicklable by construction."""

        def prog(comm):
            if comm.rank == 1:
                raise Local("cannot cross the pipe as-is")
            return comm.allreduce(comm.rank)

        job = SpmdJob(2, prog, op_timeout=30.0, backend="process")
        with pytest.raises(MPIError, match="Local: cannot cross the pipe"):
            job.run(join_timeout=15.0)
        assert isinstance(job.errors[0], (AbortError, type(None)))

    def test_results_must_be_picklable(self):
        def prog(comm):
            return lambda: comm.rank  # closures cannot cross the pipe

        with pytest.raises(MPIError):
            run_spmd(2, prog, backend="process", op_timeout=30.0)


@dataclass
class _BulkResult:
    """A rank result shaped like ``MrSomResult``: scalars around one big array."""

    rank: int
    table: np.ndarray
    note: str


def _bulk_prog(comm):
    table = np.full((2500, 256), float(comm.rank))  # 5 MB, the SOM codebook's size
    table[comm.rank, 3] = 0.5
    frozen = np.arange(SHM_MIN_BYTES, dtype=np.float64)
    frozen.setflags(write=False)
    return _BulkResult(comm.rank, table, "r%d" % comm.rank), frozen


class TestExitEnvelope:
    """A rank's result crosses to the parent as a protocol-5 pickle whose
    bulk buffers ride one shm block under the job's prefix."""

    def test_bulk_results_arrive_equal_and_leave_nothing(self, capfd):
        before = _shm_blocks()
        for _job in range(30):
            results = run_spmd(3, _bulk_prog, backend="process", op_timeout=30.0)
            assert _shm_blocks() == before
        for rank, (bulk, frozen) in enumerate(results):
            want = np.full((2500, 256), float(rank))
            want[rank, 3] = 0.5
            assert (bulk.rank, bulk.note) == (rank, "r%d" % rank)
            np.testing.assert_array_equal(bulk.table, want)
            np.testing.assert_array_equal(frozen, np.arange(SHM_MIN_BYTES))
            # private memory, and writable or not as the rank left them
            assert bulk.table.flags.writeable and not frozen.flags.writeable
            bulk.table[0, 0] = -1.0
        # no resource_tracker chatter (KeyError tracebacks, leak warnings)
        assert capfd.readouterr().err == ""

    def test_unpicklable_result_is_a_typed_error_and_leaves_nothing(self):
        before = _shm_blocks()

        def prog(comm):
            # the big array is collected before the closure fails the pickle
            return np.zeros(SHM_MIN_BYTES), (lambda: comm.rank)

        with pytest.raises(MPIError, match="is not picklable"):
            run_spmd(2, prog, backend="process", op_timeout=30.0)
        assert _shm_blocks() == before

    def test_rank_killed_after_writing_its_block_leaves_nothing(self, monkeypatch):
        """The block exists, the envelope naming it was never sent: the
        job-prefix sweep in ``wait()`` is what reclaims it."""
        import repro.mpi.process as process

        before = _shm_blocks()
        seen_at_sweep = []

        def pack_then_die(msg, owner, wire, arena, block_name):
            out = pack_frame(msg, owner, wire, arena, block_name)
            if block_name.endswith("r1_exit"):
                os._exit(3)
            return out

        def sweep(prefix):
            seen_at_sweep.extend(_shm_blocks(prefix))
            return sweep_job_blocks(prefix)

        monkeypatch.setattr(process, "pack_frame", pack_then_die)
        monkeypatch.setattr(process, "sweep_job_blocks", sweep)
        job = SpmdJob(3, _bulk_prog, op_timeout=30.0, backend="process")
        with pytest.raises(MPIError, match="rank 1 process died without reporting"):
            job.run(join_timeout=15.0)
        assert [n for n in seen_at_sweep if n.endswith("r1_exit")]
        assert _shm_blocks() == before


class TestTelemetry:
    def test_per_rank_traces_merge_into_session(self):
        trace = TraceSession(3)

        def prog(comm):
            comm.allreduce(comm.rank)
            comm.barrier()
            return comm.rank

        run_spmd(3, prog, backend="process", op_timeout=30.0, trace=trace)
        for rank in range(3):
            events = trace.tracers[rank].events
            assert events, f"rank {rank} shipped no events"
            names = [e[3] for e in events]
            assert "rank" in names  # lifecycle span
            begins = sum(1 for e in events if e[0] == "B")
            ends = sum(1 for e in events if e[0] == "E")
            assert begins == ends, f"rank {rank} trace unbalanced"

    def test_op_counts_visible_to_parent(self):
        job = SpmdJob(2, lambda comm: comm.allreduce(1), op_timeout=30.0,
                      backend="process")
        job.run(join_timeout=15.0)
        assert all(job.network.op_count(r) > 0 for r in range(2))


class TestBackendSelection:
    def test_resolve_backend_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_MPI_BACKEND", raising=False)
        assert resolve_backend(None) == "thread"
        monkeypatch.setenv("REPRO_MPI_BACKEND", "process")
        assert resolve_backend(None) == "process"
        assert resolve_backend("thread") == "thread"  # explicit wins

    def test_resolve_backend_rejects_unknown(self):
        with pytest.raises(MPIError):
            resolve_backend("smoke-signals")

    def test_backends_constant(self):
        assert BACKENDS == ("thread", "process")
