"""Per-job persistent shared-memory arena for the process transport.

PR 6 shipped every bulk payload through a *fresh* ``shared_memory`` block:
allocate → copy in → name-over-pipe → attach → copy out → unlink, i.e. two
shm syscalls, two mmaps and a full extra copy per message.  The fitted
Sanders machine model priced that protocol at α≈313 µs / β≈1.2 GiB/s.

This module replaces the per-message churn with one **persistent ring per
rank**, created by the parent before fork and mapped once by every child:

- the *sender* owns its segment's allocator: a first-fit, coalescing
  free-extent list over the data region plus a bounded table of
  **epoch-tagged slot headers** (``state``, ``epoch``) at the front of the
  segment;
- a send allocates a slot, copies the payload's buffers in **once**, and
  ships only the frame's header and pickle over the pipe
  (:func:`repro.mpi.shm.pack_frame`);
- the *receiver* maps the peer segment lazily (once per peer, cached) and
  decodes the payload over a **read-only window** straight on the
  sender's bytes — no copy at all;
- when the receiver's arrays are garbage-collected, a ``weakref.finalize``
  hook writes ``FREE`` into the slot's shared header; the sender reclaims
  the extent on a later allocation by sweeping its outstanding headers —
  slots are reused without any unlink/reattach churn.

Allocation failure (ring full, slot table exhausted, payload larger than
the ring) is never an error: the caller puts the buffers in a per-message
shm block instead, so correctness does not depend on arena hits.  Segments share the
job's shm name prefix, so the parent's abnormal-teardown sweep
(:func:`repro.mpi.shm.sweep_job_blocks`) reclaims them even when a child
crashed mid-exchange with slots outstanding.

Single-writer discipline keeps the headers coherent without locks: the
sender is the only writer of a slot's ``epoch`` and the only one to set
``state=BUSY``; the receiver is the only one to set ``state=FREE``, and
only while the slot is outstanding.  Both fields are aligned 8-byte
stores, atomic on every platform Python runs on.
"""

from __future__ import annotations

import bisect
import ctypes
import mmap
import os
import weakref

import numpy as np

__all__ = [
    "ARENA_DEFAULT_MB",
    "ARENA_ENV_VAR",
    "Arena",
    "ArenaStats",
    "MappedSegment",
    "create_arena_segments",
    "resolve_arena_bytes",
    "segment_name",
]

#: Per-rank ring size when ``$REPRO_MPI_ARENA_MB`` is unset.  64 MiB holds
#: several columnar pages per peer at the default pagesize with room for
#: pairwise-round double buffering.
ARENA_DEFAULT_MB = 64

#: Ring MiB per rank; ``0`` disables the arena.
ARENA_ENV_VAR = "REPRO_MPI_ARENA_MB"

#: Slot-header table entries per segment.  Each outstanding message holds
#: one slot, and receiver-side residency is bounded by the columnar
#: pagesize spill, so slot exhaustion (-> overflow fallback) is rare.
MAX_SLOTS = 1024

_STATE_FREE = 0
_STATE_BUSY = 1

#: Header table: MAX_SLOTS x (state u64, epoch u64), then the data region
#: starts on a page boundary.
_HDR_BYTES = -(-MAX_SLOTS * 16 // 4096) * 4096

#: Payload alignment inside the data region (matches numpy's own default
#: allocation alignment; keeps SIMD-friendly views).
_ALIGN = 64


def segment_name(prefix: str, rank: int) -> str:
    """Arena segment name for ``rank`` under a job's shm ``prefix``."""
    return f"{prefix}arena{rank}"


def resolve_arena_bytes() -> int:
    """The per-rank ring size in bytes (0 = arena disabled).

    ``$REPRO_MPI_ARENA_MB`` is the one switch: unset or empty means the
    default :data:`ARENA_DEFAULT_MB` MiB, ``0`` pins the per-message path,
    and anything other than a non-negative integer raises ``ValueError``.
    """
    raw = os.environ.get(ARENA_ENV_VAR, "").strip()
    if not raw:
        return ARENA_DEFAULT_MB << 20
    if not raw.isdecimal():
        raise ValueError(
            f"${ARENA_ENV_VAR} must be a non-negative integer (MiB), got {raw!r}")
    return int(raw) << 20


class MappedSegment:
    """A named segment mapped read-write, unknown to ``resource_tracker``.

    ``SharedMemory(name=...)`` REGISTERs every attach (before 3.13 it cannot
    be told not to) with the one tracker all forked ranks inherit, whose
    cache is a *set* of names: two ranks attaching and unregistering the
    same ring end in a ``KeyError`` traceback on the job's stderr.  The job
    owns the names (receivers and ``sweep_job_blocks`` unlink them); a
    process only maps one, with the calls ``SharedMemory`` itself makes.
    ``create`` > 0 makes a new zero-filled segment of that many bytes.
    """

    def __init__(self, name: str, create: int = 0) -> None:
        import _posixshmem  # POSIX only, like the fork the ranks come from

        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, create)
            self._mmap = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


def create_arena_segments(prefix: str, nprocs: int, data_bytes: int) -> None:
    """Parent-side, pre-fork: create one zero-initialised ring per rank."""
    for rank in range(nprocs):
        MappedSegment(segment_name(prefix, rank), create=_HDR_BYTES + data_bytes).close()


class ArenaStats:
    """Always-on plain-int counters (no tracer dependency, ~free to bump).

    Sender-side fields are only touched by the main thread, receiver-side
    fields only by the receiver thread, so no locking is needed.
    """

    __slots__ = (
        "sends", "send_bytes", "overflows", "overflow_bytes",
        "resident_bytes", "peak_resident_bytes", "recv_views", "recv_bytes",
    )

    def __init__(self) -> None:
        self.sends = 0              # messages packed into a slot
        self.send_bytes = 0
        self.overflows = 0          # eligible payloads the ring couldn't hold
        self.overflow_bytes = 0
        self.resident_bytes = 0     # bytes in outstanding (unreleased) slots
        self.peak_resident_bytes = 0
        self.recv_views = 0         # zero-copy views handed to this rank
        self.recv_bytes = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Arena:
    """One rank's endpoint of the job arena: own ring + cached peer maps."""

    def __init__(self, prefix: str, rank: int, nprocs: int, data_bytes: int):
        self.rank = rank
        self.nprocs = nprocs
        self.data_bytes = int(data_bytes)
        self._prefix = prefix
        self._own = MappedSegment(segment_name(prefix, rank))
        # Header words as a flat u64 memoryview — index ``slot*2`` is the
        # state, ``slot*2 + 1`` the epoch.  Plain-int memoryview indexing
        # is several times cheaper than numpy scalar indexing on the
        # per-message path.
        self._hdr = self._own.buf.cast("Q")
        self._own_buf = self._own.buf
        # Free space as a sorted, coalescing extent list + a slot free-list.
        self._extents: list[list[int]] = [[0, self.data_bytes]]
        self._free_slots = list(range(MAX_SLOTS - 1, -1, -1))
        self._outstanding: dict[int, tuple[int, int]] = {}
        # rank -> (segment, header ndarray, whole-data-region u8 ndarray)
        self._peers: dict[int, tuple] = {}
        self.stats = ArenaStats()

    # ------------------------------------------------------------- sender side

    def alloc(self, nbytes: int) -> tuple[int, int, int] | None:
        """Reserve a slot for ``nbytes``; ``(slot, epoch, offset)`` or None.

        None means overflow: the ring (or slot table) can't hold the
        payload right now — the caller must take the per-message fallback.
        """
        need = max(int(nbytes), 1)
        need = -(-need // _ALIGN) * _ALIGN
        self._reclaim()
        stats = self.stats
        if self._free_slots:
            for ext in self._extents:
                if ext[1] >= need:
                    offset = ext[0]
                    ext[0] += need
                    ext[1] -= need
                    if ext[1] == 0:
                        self._extents.remove(ext)
                    slot = self._free_slots.pop()
                    hdr = self._hdr
                    epoch = hdr[slot * 2 + 1] + 1
                    hdr[slot * 2 + 1] = epoch
                    hdr[slot * 2] = _STATE_BUSY
                    self._outstanding[slot] = (offset, need)
                    stats.sends += 1
                    stats.send_bytes += int(nbytes)
                    stats.resident_bytes += need
                    if stats.resident_bytes > stats.peak_resident_bytes:
                        stats.peak_resident_bytes = stats.resident_bytes
                    return slot, epoch, offset
        stats.overflows += 1
        stats.overflow_bytes += int(nbytes)
        return None

    def _reclaim(self) -> None:
        """Return receiver-freed slots to the extent list (sender side)."""
        if not self._outstanding:
            return
        hdr = self._hdr
        freed = [slot for slot in self._outstanding
                 if hdr[slot * 2] == _STATE_FREE]
        for slot in freed:
            offset, size = self._outstanding.pop(slot)
            self._free_slots.append(slot)
            self.stats.resident_bytes -= size
            self._insert_extent(offset, size)

    def _insert_extent(self, offset: int, size: int) -> None:
        exts = self._extents
        i = bisect.bisect_left(exts, [offset, 0])
        # Merge with the predecessor and/or successor extent.
        if i > 0 and exts[i - 1][0] + exts[i - 1][1] == offset:
            exts[i - 1][1] += size
            if i < len(exts) and exts[i - 1][0] + exts[i - 1][1] == exts[i][0]:
                exts[i - 1][1] += exts[i][1]
                del exts[i]
            return
        if i < len(exts) and offset + size == exts[i][0]:
            exts[i][0] = offset
            exts[i][1] += size
            return
        exts.insert(i, [offset, size])

    def own_slice(self, offset: int, nbytes: int) -> memoryview:
        """Writable view of ``nbytes`` of this rank's data region."""
        start = _HDR_BYTES + offset
        return self._own_buf[start:start + nbytes]

    # ----------------------------------------------------------- receiver side

    def _peer(self, rank: int) -> tuple:
        cached = self._peers.get(rank)
        if cached is None:
            seg = MappedSegment(segment_name(self._prefix, rank))
            cached = (seg, seg.buf.cast("Q"))
            self._peers[rank] = cached
        return cached

    def view(self, owner: int, slot: int, epoch: int,
             offset: int, nbytes: int) -> np.ndarray:
        """Zero-copy u8 window over a slot of global rank ``owner``'s
        segment, released on GC.

        The wrapper is built over a per-slot ctypes *anchor* rather than a
        plain slice: numpy collapses view base chains down to the first
        non-ndarray buffer owner, so every typed view carved out of the
        wrapper transitively keeps the anchor — and only the anchor —
        alive.  When the last view is collected, the anchor's finalizer
        stamps ``FREE`` into the sender's slot header so the sender can
        reuse the extent.  The wrapper is read-only and so is everything
        derived from it.
        """
        seg, hdr = self._peer(owner)
        anchor = (ctypes.c_char * max(nbytes, 1)).from_buffer(
            seg.buf, _HDR_BYTES + offset)
        wrapper = np.frombuffer(anchor, dtype=np.uint8, count=nbytes)
        wrapper.flags.writeable = False
        weakref.finalize(anchor, _release_slot, hdr, slot, epoch)
        self.stats.recv_views += 1
        self.stats.recv_bytes += nbytes
        return wrapper

    # ---------------------------------------------------------------- teardown

    def close(self) -> None:  # pragma: no cover - exercised at process exit
        """Unmap everything (no unlink — the parent sweep owns the names).

        Only safe once no views are live; rank processes simply exit and
        let the OS unmap, so this exists for tests.
        """
        self._peers, peers = {}, self._peers
        self._own_buf = None
        for seg, hdr in peers.values():
            try:
                hdr.release()
                seg.close()
            except Exception:
                pass
        try:
            self._hdr.release()
            self._own.close()
        except Exception:
            pass


def _release_slot(hdr, slot: int, epoch: int) -> None:
    """Receiver-side finalizer: hand the slot back to its sender."""
    try:
        if hdr[slot * 2 + 1] == epoch:
            hdr[slot * 2] = _STATE_FREE
    except Exception:  # pragma: no cover - segment already unmapped at exit
        pass
