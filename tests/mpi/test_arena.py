"""Shared-arena fabric: slot lifecycle, packed codec, parity, leak hygiene.

Three layers of coverage:

- :class:`~repro.mpi.arena.Arena` primitives in-process (alloc / view /
  GC-release / wraparound reuse / overflow), with two endpoints attached
  to the same segments the way two ranks would be;
- the packed arena codec (:func:`~repro.mpi.shm.pack_arena_message` /
  ``unpack_arena_message``) over the full payload grammar;
- end-to-end process-backend runs: arena-on/off parity, forced overflow
  fallback, stats surfaces, and no leaked ``/dev/shm`` segments even when
  a rank crashes mid-exchange.
"""

import gc
import os

import numpy as np
import pytest

from repro.mpi import CrashRank, FaultPlan, MPIError, run_spmd
from repro.mpi.arena import (
    MAX_SLOTS,
    Arena,
    _release_slot,
    create_arena_segments,
    resolve_arena_bytes,
    segment_name,
)
from repro.mpi.network import Message
from repro.mpi.runtime import SpmdJob
from repro.mpi.shm import (
    FRAME_ARENA,
    pack_arena_message,
    sweep_job_blocks,
    unpack_arena_message,
)

RING = 1 << 20  # 1 MiB data region per endpoint


def _shm_blocks(prefix="reprompi"):
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
    except OSError:  # pragma: no cover - non-Linux shm layout
        return set()


@pytest.fixture
def arena_pair():
    """Two endpoints of a 2-rank arena, torn down (and swept) afterwards."""
    prefix = f"reprompi_arena_t{os.getpid()}_"
    create_arena_segments(prefix, 2, RING)
    a0 = Arena(prefix, 0, 2, RING)
    a1 = Arena(prefix, 1, 2, RING)
    try:
        yield a0, a1
    finally:
        gc.collect()  # drop any straggler views before unmapping
        a0.close()
        a1.close()
        sweep_job_blocks(prefix)
        assert _shm_blocks(prefix) == set()


class TestSlotLifecycle:
    def test_view_is_zero_copy_and_read_only(self, arena_pair):
        a0, a1 = arena_pair
        slot, epoch, off = a0.alloc(64)
        a0.own_slice(off, 64)[:] = b"\x2a" * 64
        view = a1.view(0, slot, epoch, off, 64)
        assert bytes(view) == b"\x2a" * 64
        assert not view.flags.writeable
        typed = view.view(np.uint32)
        assert np.shares_memory(view, typed)
        with pytest.raises(ValueError):
            typed[0] = 1
        # Same physical page through both mappings: a sender-side write
        # after view creation is visible to the receiver (no copy hid it).
        a0.own_slice(off, 64)[:1] = b"\x07"
        assert view[0] == 0x07

    def test_release_on_gc_returns_extent(self, arena_pair):
        a0, a1 = arena_pair
        slot, epoch, off = a0.alloc(RING - 64)  # nearly the whole ring
        assert a0.alloc(RING // 2) is None  # ring full -> overflow
        view = a1.view(0, slot, epoch, off, RING - 64)
        del view
        gc.collect()
        assert a0.alloc(RING // 2) is not None  # extent reclaimed

    def test_slot_reuse_under_wraparound(self, arena_pair):
        a0, a1 = arena_pair
        rounds = MAX_SLOTS * 2 + 50  # every slot reused at least twice
        for i in range(rounds):
            got = a0.alloc(4096)
            assert got is not None, f"round {i}: spurious overflow"
            slot, epoch, off = got
            pattern = bytes([i % 251]) * 4096
            a0.own_slice(off, 4096)[:] = pattern
            view = a1.view(0, slot, epoch, off, 4096)
            assert bytes(view[:16]) == pattern[:16]
            del view  # refcount release -> finalizer -> slot freed
        assert a0.stats.sends == rounds
        assert a0.stats.overflows == 0
        a0._reclaim()
        assert a0.stats.resident_bytes == 0

    def test_stale_epoch_release_is_ignored(self, arena_pair):
        a0, a1 = arena_pair
        slot, epoch, off = a0.alloc(128)
        view = a1.view(0, slot, epoch, off, 128)
        del view
        gc.collect()
        slot2, epoch2, _ = a0.alloc(128)  # LIFO free-list: same slot, new epoch
        assert slot2 == slot and epoch2 == epoch + 1
        _release_slot(a0._hdr, slot, epoch)  # stale receiver wakes up late
        a0._reclaim()
        assert slot in a0._outstanding  # new tenant untouched

    def test_attaching_registers_nothing_with_the_resource_tracker(self, monkeypatch):
        """Only the parent's create / sweep own a ring's lifetime: a rank
        that maps its own ring and a peer's tells the tracker nothing."""
        from multiprocessing import resource_tracker

        prefix = f"reprompi_arena_reg{os.getpid()}_"
        create_arena_segments(prefix, 2, RING)
        calls = []
        monkeypatch.setattr(resource_tracker, "register", lambda *a: calls.append(a))
        monkeypatch.setattr(resource_tracker, "unregister", lambda *a: calls.append(a))
        a0 = Arena(prefix, 0, 2, RING)
        a1 = Arena(prefix, 1, 2, RING)
        try:
            slot, epoch, off = a0.alloc(64)
            a0.own_slice(off, 64)[:] = b"\x11" * 64
            view = a1.view(0, slot, epoch, off, 64)  # maps the peer's ring
            assert bytes(view) == b"\x11" * 64
            del view
            assert calls == []
        finally:
            gc.collect()
            a0.close()
            a1.close()
            sweep_job_blocks(prefix)
        assert _shm_blocks(prefix) == set()

    def test_oversized_alloc_overflows(self, arena_pair):
        a0, _ = arena_pair
        assert a0.alloc(RING * 2) is None
        assert a0.stats.overflows == 1
        assert a0.stats.overflow_bytes == RING * 2

    def test_resolve_arena_bytes_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_MPI_ARENA_MB", raising=False)
        assert resolve_arena_bytes(False, 128) == 0
        assert resolve_arena_bytes(None, 8) == 8 << 20
        assert resolve_arena_bytes(None, None) == 64 << 20
        monkeypatch.setenv("REPRO_MPI_ARENA_MB", "16")
        assert resolve_arena_bytes(None, None) == 16 << 20
        assert resolve_arena_bytes(None, 8) == 8 << 20  # explicit beats env
        monkeypatch.setenv("REPRO_MPI_ARENA_MB", "0")
        assert resolve_arena_bytes(None, None) == 0
        assert resolve_arena_bytes(True, None) == 64 << 20  # arena=True stays on
        monkeypatch.setenv("REPRO_MPI_ARENA_MB", "elephants")
        with pytest.raises(ValueError):
            resolve_arena_bytes(None, None)

    def test_segment_names_share_job_prefix(self):
        assert segment_name("reprompi12_", 3) == "reprompi12_arena3"


class TestArenaCodec:
    def _round_trip(self, arena_pair, payload):
        a0, a1 = arena_pair
        msg = Message(src=0, dst=1, tag=7, context=3, payload=payload,
                      not_before=1.25)
        frame = pack_arena_message(msg, a0)
        assert frame is not None and frame[0] == FRAME_ARENA
        out = unpack_arena_message(frame, a1)
        assert (out.src, out.dst, out.tag, out.context, out.not_before) == \
            (0, 1, 7, 3, 1.25)
        return out.payload

    def test_bare_array(self, arena_pair):
        arr = np.linspace(0.0, 1.0, 1000)
        got = self._round_trip(arena_pair, arr)
        np.testing.assert_array_equal(got, arr)
        assert got.dtype == arr.dtype
        assert not got.flags.writeable

    def test_nested_containers_with_nones(self, arena_pair):
        payload = [
            None,
            np.arange(10, dtype=np.int32),
            (np.ones((3, 4)), np.zeros(0, dtype=np.uint8)),
        ]
        got = self._round_trip(arena_pair, payload)
        assert isinstance(got, list) and len(got) == 3
        assert got[0] is None
        np.testing.assert_array_equal(got[1], np.arange(10, dtype=np.int32))
        assert isinstance(got[2], tuple)
        np.testing.assert_array_equal(got[2][0], np.ones((3, 4)))
        assert got[2][1].size == 0 and got[2][1].dtype == np.uint8

    def test_structured_and_unicode_dtypes(self, arena_pair):
        rec = np.array([(1, 2.5), (3, 4.5)],
                       dtype=[("k", "<i8"), ("v", "<f8")])
        sids = np.array(["subject_a", "s2", "a-much-longer-subject-id"])
        got_rec, got_sids = self._round_trip(arena_pair, (rec, sids))
        np.testing.assert_array_equal(got_rec, rec)
        assert got_rec.dtype == rec.dtype
        assert got_sids.tolist() == sids.tolist()
        assert got_sids.dtype == sids.dtype

    def test_non_contiguous_sender_arrays(self, arena_pair):
        base = np.arange(64, dtype=np.int64)
        got = self._round_trip(arena_pair, (base[::2], base.reshape(8, 8).T))
        np.testing.assert_array_equal(got[0], base[::2])
        np.testing.assert_array_equal(got[1], base.reshape(8, 8).T)

    def test_ineligible_payloads_decline(self, arena_pair):
        a0, _ = arena_pair
        for payload in (None, {"a": 1}, [1, 2, 3],
                        np.array([object()], dtype=object), "text"):
            msg = Message(src=0, dst=1, tag=0, context=0, payload=payload)
            assert pack_arena_message(msg, a0) is None

    def test_views_release_slots_when_dropped(self, arena_pair):
        a0, a1 = arena_pair
        msg = Message(src=0, dst=1, tag=0, context=0,
                      payload=np.arange(50_000, dtype=np.float64))
        got = unpack_arena_message(pack_arena_message(msg, a0), a1)
        assert a0.stats.resident_bytes > 0
        del got
        gc.collect()
        a0._reclaim()
        assert a0.stats.resident_bytes == 0

    def test_release_is_refcount_driven_not_gc_driven(self, arena_pair):
        # Regression: a self-recursive closure in the payload rebuilder
        # once made every decoded payload part of a reference cycle, so
        # slots freed only when the *cyclic* GC happened to run and the
        # sender's ring crawled into cold pages.  With gc disabled, a
        # plain del must reclaim the slot immediately.
        a0, a1 = arena_pair
        gc.disable()
        try:
            gc.collect()
            for payload in (
                np.arange(4096, dtype=np.float64),
                [None, np.arange(10), (np.ones((3, 4)), np.zeros(0))],
            ):
                msg = Message(src=0, dst=1, tag=0, context=0, payload=payload)
                got = unpack_arena_message(pack_arena_message(msg, a0), a1)
                del got, msg
                a0._reclaim()
                assert a0.stats.resident_bytes == 0, (
                    "slot not reclaimed by refcounting alone — a reference "
                    "cycle is keeping receiver views alive")
        finally:
            gc.enable()

    def test_send_does_not_keep_the_payload_alive(self, arena_pair):
        # Regression, sender's side of the same bug: the flattener was a
        # self-recursive closure whose cell held the list of arrays, so a
        # packed payload (the shuffle's 48 MB wire slice) outlived its send
        # until the cyclic GC ran, and a rank's peak RSS took one of three
        # values from run to run.
        import weakref

        a0, _ = arena_pair
        gc.disable()
        try:
            gc.collect()
            for make in (
                lambda a: a,
                lambda a: (a, np.zeros(3)),
                lambda a: [None, (a, np.ones(2))],
                lambda a: {"pickled": a},  # declined: still must not be retained
            ):
                arr = np.arange(4096, dtype=np.float64)
                alive = weakref.ref(arr)
                msg = Message(src=0, dst=1, tag=0, context=0, payload=make(arr))
                pack_arena_message(msg, a0)
                del arr, msg
                assert alive() is None, (
                    "a packed payload is kept alive by a reference cycle")
        finally:
            gc.enable()


def _exchange_prog(comm):
    """Mixed alltoall + allgather returning plain data for comparison."""
    cols = (
        np.arange(1000, dtype=np.int64) + comm.rank,
        np.full(1000, float(comm.rank)),
        np.array([f"rank{comm.rank}-{d}" for d in range(4)]),
    )
    inbox = comm.alltoall([cols] * comm.size)
    gathered = comm.allgather(np.full(256, comm.rank, dtype=np.int32))
    return (
        [(a.tolist(), b.tolist(), c.tolist()) for a, b, c in inbox],
        [g.tolist() for g in gathered],
    )


class TestProcessBackendEndToEnd:
    def test_arena_on_off_parity(self):
        on = run_spmd(3, _exchange_prog, backend="process",
                      op_timeout=30.0, arena=True)
        off = run_spmd(3, _exchange_prog, backend="process",
                       op_timeout=30.0, arena=False)
        assert on == off

    def test_overflow_falls_back_and_stays_correct(self):
        def prog(comm):
            big = np.full((comm.rank + 1) * 300_000, comm.rank, np.float64)
            inbox = comm.alltoall([big] * comm.size)
            return [float(a.sum()) for a in inbox]

        # 1 MiB ring vs multi-MiB payloads: every send overflows to the
        # per-message path; results must match the arena-off oracle.
        job = SpmdJob(2, prog, op_timeout=30.0, backend="process",
                      arena=True, arena_mb=1)
        with_arena = job.run(join_timeout=60.0)
        stats = job.network.arena_stats()
        assert stats["overflows"] > 0
        without = run_spmd(2, prog, backend="process", op_timeout=30.0,
                           arena=False)
        assert with_arena == without

    def test_arena_stats_surface(self):
        before = _shm_blocks()
        job = SpmdJob(2, _exchange_prog, op_timeout=30.0, backend="process",
                      arena=True, arena_mb=8)
        job.run(join_timeout=60.0)
        stats = job.network.arena_stats()
        assert stats["sends"] > 0
        assert stats["recv_views"] > 0
        assert stats["send_bytes"] > 0
        assert stats["peak_resident_bytes"] > 0
        assert _shm_blocks() == before

    def test_received_arrays_are_read_only(self):
        def prog(comm):
            inbox = comm.alltoall([np.arange(5000.0)] * comm.size)
            other = inbox[(comm.rank + 1) % comm.size]
            try:
                other[0] = -1.0
            except ValueError:
                return True
            return False

        assert run_spmd(2, prog, backend="process", op_timeout=30.0,
                        arena=True) == [True, True]

    def test_aggregate_returns_every_slot_and_keeps_no_peer_views(self):
        """The shuffle's receive side copies what it keeps: once every rank
        is out of ``aggregate`` no slot of any ring is BUSY and no stored
        array is a window on a peer's segment (the collector is off, so
        releases are by reference count alone)."""
        from repro.mrmpi import MapReduce, MapStyle, RecordSchema

        def prog(comm):
            gc.disable()
            schema = RecordSchema("S8", np.dtype([("src", "<i8"), ("seq", "<i8")]))
            mr = MapReduce(comm, mapstyle=MapStyle.CHUNK, schema=schema)

            def mapper(itask, kv):
                rows = np.zeros(20_000, dtype=schema.value_dtype)
                rows["src"], rows["seq"] = comm.rank, np.arange(len(rows))
                keys = np.random.default_rng(itask).integers(500, size=len(rows))
                kv.add_batch(np.char.mod("k%05d", keys).astype("S8"), rows)

            mr.map(2 * comm.size, mapper)
            mr.aggregate(exchange_bytes=128 << 10)  # eight rounds
            comm.barrier()  # every peer has stored, and let go of, its last round
            arena = comm.network._arena
            arena._reclaim()
            busy = sum(arena._hdr[slot * 2] for slot in range(MAX_SLOTS))
            pieces = [arr for bucket in mr.kv._buckets for karr, rows in bucket
                      for arr in (karr, rows)]

            def root(arr):  # numpy collapses base chains to the owner
                return arr.base if isinstance(arr.base, np.ndarray) else arr

            owned = all(root(arr).base is None and root(arr).nbytes == arr.nbytes
                        and arr.flags.writeable for arr in pieces)
            out = (busy, arena.stats.resident_bytes, arena.stats.sends, len(pieces), owned)
            mr.close()
            return out

        for busy, resident, sends, npieces, owned in run_spmd(
                3, prog, backend="process", op_timeout=30.0, arena=True):
            assert sends >= 16 and npieces >= 16  # rounds went through the ring
            assert busy == 0 and resident == 0
            assert owned

    def test_crash_mid_exchange_leaves_no_segments(self):
        before = _shm_blocks()

        def prog(comm):
            for _ in range(6):
                comm.alltoall([np.arange(20_000.0)] * comm.size)
            return comm.rank

        with pytest.raises(MPIError):
            run_spmd(2, prog, backend="process", op_timeout=10.0,
                     arena=True, fault_plan=FaultPlan([CrashRank(1, at_op=3)]))
        assert _shm_blocks() == before

    def test_thirty_jobs_leave_stderr_empty(self):
        """Three ranks sharing one inherited resource tracker, each mapping
        its peers' rings, thirty jobs in a row: not a line on stderr (the
        tracker used to print a KeyError when two ranks' REGISTER /
        UNREGISTER pairs for one ring interleaved) and nothing left behind."""
        import subprocess
        import sys

        script = (
            "import numpy as np\n"
            "from repro.mpi import run_spmd\n"
            "def prog(comm):\n"
            "    inbox = comm.alltoall([np.arange(20_000.0)] * comm.size)\n"
            "    return float(sum(a.sum() for a in inbox))\n"
            "for _ in range(30):\n"
            "    out = run_spmd(3, prog, backend='process', op_timeout=30.0, arena=True)\n"
            "    assert len(set(out)) == 1\n"
        )
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        before = _shm_blocks()
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert _shm_blocks() == before

    def test_thread_backend_ignores_arena_knobs(self):
        job = SpmdJob(2, _exchange_prog, op_timeout=30.0, backend="thread",
                      arena=True, arena_mb=8)
        results = job.run(join_timeout=60.0)
        assert results[0] == results[1]
        assert job.network.arena_stats() == {}
