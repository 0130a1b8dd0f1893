"""Process-transport specifics: shared memory, pickling edges, telemetry.

The generic MPI semantics (matching, collectives, aborts, faults) are
covered by the backend-parametrized suites; this file pins down what is
unique to ranks-as-processes — where a frame's buffers live (inline or
in a shm block) and when that memory goes, results and exceptions on the
exit pipe, per-process trace merging, and the shared heartbeat/op-count
surfaces the supervisor reads.
"""

import gc
import os
import subprocess
import sys
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

import repro
import repro.mpi.process as process
from repro.mpi import AbortError, CrashRank, FaultPlan, MPIError, run_spmd
from repro.mpi.runtime import BACKENDS, SpmdJob, resolve_backend
from repro.mpi.network import Message
from repro.mpi.shm import SHM_MIN_BYTES, pack_frame, sweep_job_blocks, unpack_frame
from repro.mpi.transport import encode
from repro.obs.trace import TraceSession


def _job_prefix(pid=None):
    """The shm name prefix of every job process ``pid`` (default: this one)
    starts, so a run elsewhere on the host cannot fail a leak check here."""
    return f"reprompi{os.getpid() if pid is None else pid}j"


def _shm_blocks(prefix=None):
    prefix = _job_prefix() if prefix is None else prefix
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
    except OSError:  # pragma: no cover - non-Linux shm layout
        return set()


def _mapped(name):
    """True while this process maps the shm block ``name``."""
    with open("/proc/self/maps") as maps:
        return any(f"/dev/shm/{name}" in line for line in maps)


def _placements(monkeypatch):
    """Each frame a rank sends, in order, as ``"inline"`` or ``"block"``.

    The list is filled in each forked rank's own copy; a rank returns it.
    A block exists once the framer returns, and only its receiver unlinks
    it.
    """
    log = []

    def framing(msg, wire, block_name):
        frame = pack_frame(msg, wire, block_name)
        placed = os.path.exists(os.path.join("/dev/shm", block_name))
        log.append("block" if placed else "inline")
        return frame

    monkeypatch.setattr(process, "pack_frame", framing)
    return log


class TestCollectivesSanity:
    def test_mixed_collectives(self):
        def prog(comm):
            total = comm.allreduce(comm.rank)
            ranks = comm.allgather(comm.rank)
            comm.barrier()
            inbox = comm.alltoall([comm.rank * 10 + d for d in range(comm.size)])
            return total, ranks, inbox

        results = run_spmd(4, prog, backend="process", op_timeout=30.0)
        for rank, (total, ranks, inbox) in enumerate(results):
            assert total == 6
            assert ranks == [0, 1, 2, 3]
            assert inbox == [s * 10 + rank for s in range(4)]

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

    def test_array_payloads_on_a_sub_communicator_come_from_their_sender(self):
        """On a sub-communicator (one shrunk past a dead rank) every rank's
        number moves, but an array Reduce over the survivors of a degraded
        map still sums each survivor's own rows."""

        def prog(comm):
            if comm.rank == 0:
                return None
            sub = comm.shrink([0])  # every survivor's rank moves down one
            mine = np.full(SHM_MIN_BYTES, float(comm.rank))  # in a block
            out = np.empty_like(mine)
            sub.Reduce(mine, out, root=0)
            sub.Bcast(out, root=0)
            page = sub.allgather((np.full(SHM_MIN_BYTES, comm.rank),))
            return out[0], [int(p[0][0]) for p in page]

        results = run_spmd(4, prog, backend="process", op_timeout=30.0)
        assert results == [None] + [(6.0, [1, 2, 3])] * 3


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
        # No per-message block may outlive the job.
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

    def test_small_and_object_payloads_take_the_pipe(self, monkeypatch):
        """Under ``SHM_MIN_BYTES`` of buffers a payload rides the pipe; an
        object holding a large array takes a block like a bare one."""
        sent = _placements(monkeypatch)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4), dest=1)          # tiny: inline
                comm.send({"k": [1, 2, 3]}, dest=1)      # no buffers: inline
                comm.send({"big": np.arange(SHM_MIN_BYTES // 8.0)}, dest=1)
                return list(sent)
            a = comm.recv(source=0)
            d = comm.recv(source=0)
            big = comm.recv(source=0)["big"]
            return a.tolist(), d, float(big[-1]), big.flags.writeable

        results = run_spmd(2, prog, backend="process", op_timeout=30.0)
        assert results[0] == ["inline", "inline", "block"]
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
        """One frame codec for messages and exit envelopes:
        ``SHM_MIN_BYTES`` or more of buffers leave the frame for one named
        block, which ``unpack_frame`` unlinks."""
        name = "reprompi_codectest_0"

        def blocks():
            return _shm_blocks("reprompi_codectest_")

        def frame_of(payload):
            msg = Message(src=0, dst=1, tag=0, context=0, payload=payload)
            return pack_frame(msg, encode(payload), name)

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


#: Every in-process block test frames its blocks under this prefix.
_TEST_PREFIX = f"reprompi_blocktest{os.getpid()}_"


def _frame(payload, name=f"{_TEST_PREFIX}0"):
    """A frame of ``payload`` with at least ``SHM_MIN_BYTES`` of buffers,
    so they take the block ``name``."""
    payload = (payload, np.zeros(SHM_MIN_BYTES, dtype=np.uint8))
    msg = Message(src=0, dst=1, tag=0, context=0, payload=payload)
    return pack_frame(msg, encode(payload), name)


@pytest.fixture
def swept():
    """Sweep whatever block a test left under :data:`_TEST_PREFIX`."""
    try:
        yield
    finally:
        sweep_job_blocks(_TEST_PREFIX)
    assert _shm_blocks(_TEST_PREFIX) == set()


class TestBlockLifetime:
    """A block lives from its send until its receiver's last array over it
    dies, and no process or ``resource_tracker`` holds on to it after."""

    def test_sender_and_receiver_tell_the_resource_tracker_nothing(
            self, monkeypatch, swept):
        """The job owns block names (receivers and the sweep unlink them):
        creating and mapping one registers nothing with the tracker."""
        from multiprocessing import resource_tracker

        calls = []
        monkeypatch.setattr(resource_tracker, "register", lambda *a: calls.append(a))
        monkeypatch.setattr(resource_tracker, "unregister", lambda *a: calls.append(a))
        got = unpack_frame(_frame(np.full(64, 0x11, dtype=np.uint8))).payload[0]
        assert bytes(got) == b"\x11" * 64
        del got
        assert calls == []

    def test_received_arrays_are_read_only(self):
        def prog(comm):
            inbox = comm.alltoall([np.arange(5000.0)] * comm.size)
            other = inbox[(comm.rank + 1) % comm.size]
            try:
                other[0] = -1.0
            except ValueError:
                return True
            return False

        assert run_spmd(2, prog, backend="process", op_timeout=30.0) == [True, True]

    def test_release_is_refcount_driven_not_gc_driven(self, swept):
        # Regression: a self-recursive closure in the payload rebuilder
        # once made every decoded payload part of a reference cycle, so
        # received memory went back only when the *cyclic* GC happened to
        # run.  With gc disabled, a plain del must unmap the block.
        gc.disable()
        try:
            gc.collect()
            for i, payload in enumerate((
                np.arange(4096, dtype=np.float64),
                [None, np.arange(10), (np.ones((3, 4)), np.zeros(0))],
                {"a": np.arange(10), "b": [np.ones(3)]},
            )):
                name = f"{_TEST_PREFIX}{i}"
                got = unpack_frame(_frame(payload, name)).payload
                assert _mapped(name)
                del got
                assert not _mapped(name), (
                    "block still mapped after its arrays died — a reference "
                    "cycle is keeping receiver views alive")
        finally:
            gc.enable()

    def test_send_does_not_keep_the_payload_alive(self, swept):
        # Regression, sender's side of the same bug: the flattener was a
        # self-recursive closure whose cell held the list of arrays, so a
        # packed payload (the shuffle's 48 MB wire slice) outlived its send
        # until the cyclic GC ran, and a rank's peak RSS took one of three
        # values from run to run.
        gc.disable()
        try:
            gc.collect()
            for i, make in enumerate((
                lambda a: a,
                lambda a: (a, np.zeros(3)),
                lambda a: [None, (a, np.ones(2))],
                lambda a: {"pickled": a},
            )):
                arr = np.arange(4096, dtype=np.float64)
                alive = weakref.ref(arr)
                _frame(make(arr), f"{_TEST_PREFIX}{i}")
                del arr
                assert alive() is None, (
                    "a packed payload is kept alive by a reference cycle")
        finally:
            gc.enable()

    def test_aggregate_keeps_no_received_block_mapped(self, monkeypatch):
        """The shuffle's receive side copies what it keeps: once every rank
        is out of ``aggregate`` no rank maps a block of the job and every
        stored array owns its bytes (the collector is off, so releases are
        by reference count alone)."""
        from repro.mrmpi import MapReduce, MapStyle, RecordSchema

        sent = _placements(monkeypatch)
        prefix = f"/dev/shm/{_job_prefix()}"  # the parent's pid names the jobs

        def prog(comm):
            gc.disable()
            schema = RecordSchema("S8", np.dtype([("src", "<i8"), ("seq", "<i8")]))
            mr = MapReduce(comm, mapstyle=MapStyle.CHUNK, schema=schema)

            def mapper(itask, kv):
                rows = np.zeros(20_000, dtype=schema.value_dtype)
                rows["src"], rows["seq"] = comm.rank, np.arange(len(rows))
                keys = np.random.default_rng(itask).integers(500, size=len(rows))
                kv.add_batch(np.char.mod("k%05d", keys).astype("S8"), rows)

            mr.map_items(range(2 * comm.size), lambda i, _, kv: mapper(i, kv))
            mr.aggregate(exchange_bytes=128 << 10)  # eight rounds
            comm.barrier()  # every peer has stored, and let go of, its last round
            with open("/proc/self/maps") as maps:
                mapped = sum(prefix in line for line in maps)
            pieces = [arr for bucket in mr.kv._buckets for karr, rows in bucket
                      for arr in (karr, rows)]

            def root(arr):  # numpy collapses base chains to the owner
                return arr.base if isinstance(arr.base, np.ndarray) else arr

            owned = all(root(arr).base is None and root(arr).nbytes == arr.nbytes
                        and arr.flags.writeable for arr in pieces)
            mr.close()
            return sent.count("block"), mapped, len(pieces), owned

        for blocks, mapped, npieces, owned in run_spmd(
                3, prog, backend="process", op_timeout=30.0):
            # Each of the seven full rounds' runs (~43 KB a peer) took a
            # block; the last, half-full round's runs rode the pipe.
            assert blocks >= 14 and npieces >= 16
            assert mapped == 0
            assert owned

    def test_crash_mid_exchange_leaves_no_segments(self):
        before = _shm_blocks()

        def prog(comm):
            for _ in range(6):
                comm.alltoall([np.arange(20_000.0)] * comm.size)
            return comm.rank

        with pytest.raises(MPIError):
            run_spmd(2, prog, backend="process", op_timeout=10.0,
                     fault_plan=FaultPlan([CrashRank(1, at_op=3)]))
        assert _shm_blocks() == before

    def test_thirty_jobs_leave_stderr_empty(self):
        """Three ranks sharing one inherited resource tracker, each mapping
        its peers' blocks, thirty jobs in a row: not a line on stderr (the
        tracker prints a KeyError when two ranks' REGISTER / UNREGISTER
        pairs for one name interleave) and nothing left behind."""
        script = (
            "import numpy as np\n"
            "from repro.mpi import run_spmd\n"
            "def prog(comm):\n"
            "    inbox = comm.alltoall([np.arange(20_000.0)] * comm.size)\n"
            "    return float(sum(a.sum() for a in inbox))\n"
            "for _ in range(30):\n"
            "    out = run_spmd(3, prog, backend='process', op_timeout=30.0)\n"
            "    assert len(set(out)) == 1\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        with subprocess.Popen([sys.executable, "-c", script], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": src}) as proc:
            _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert err == ""
        assert _shm_blocks(_job_prefix(proc.pid)) == set()


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
        before = _shm_blocks()
        seen_at_sweep = []

        def pack_then_die(msg, wire, block_name):
            out = pack_frame(msg, wire, block_name)
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
