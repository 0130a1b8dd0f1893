"""Frames of the process transport: one header, three buffer placements.

Every message between rank processes, and every rank's exit envelope on
its way to the parent, is one frame: a fixed-width header, the sizes of
the payload's out-of-band buffers, a block name if there is one, then the
payload's protocol-5 pickle (:func:`repro.mpi.transport.encode`).  The
header carries the envelope and the sender's *global* rank, whose arena
segment holds the buffers: ``src`` is the sender's rank in the
communicator the message travels on, and the two differ on a
sub-communicator (e.g. one shrunk past a dead rank).

Where the buffers live is the frame's *placement*:

- **inline** — under :data:`SHM_MIN_BYTES` in total they follow the pickle
  in the frame, each 16-byte aligned: two shm syscalls and a mmap cost
  more than a small pipe write;
- **arena** — otherwise in a slot of the sender's ring of the per-job
  shared arena (:mod:`repro.mpi.arena`), handed back when the receiver's
  arrays die;
- **block** — in one per-message shm block when the ring or its slot table
  cannot hold them right now (counted in the arena's ``overflows``), when
  ``$REPRO_MPI_ARENA_MB=0``, and for exit envelopes.

Either way the sender copies each buffer once.  A message's receiver
decodes over read-only views of wherever the buffers live, with no copy;
the parent copies an exit envelope's buffers out (``owned=True``), so a
rank's result arrays are private, and writable if the rank left them so.

Block lifetime: the *sender* creates the block and never unlinks it; the
*receiver* maps it and unlinks the name at once (the mapping lives as
long as the arrays over it).  Arena segments and blocks share the job's
name prefix, so the parent sweeps both kinds of straggler from
``/dev/shm`` after an abnormal teardown (:func:`sweep_job_blocks`).
Nothing goes through ``shared_memory``, whose ``resource_tracker`` would
double-unlink names that cross a fork boundary.
"""

from __future__ import annotations

import os
import struct

from repro.mpi.arena import Arena, MappedSegment
from repro.mpi.transport import Message, decode

__all__ = ["SHM_MIN_BYTES", "pack_frame", "sweep_job_blocks", "unpack_frame"]

#: Below this many buffer bytes, the pipe is cheaper than two shm syscalls
#: plus a mmap.  32 KiB is far above any control message and far below a
#: columnar page.
SHM_MIN_BYTES = 32 * 1024

_SHM_DIR = "/dev/shm"

_INLINE, _ARENA, _BLOCK = 0, 1, 2

#: Buffer start alignment within its region (keeps typed views aligned for
#: any dtype numpy ships).
_ALIGN = 16

# src, owner, dst, tag, context, not_before, placement, block-name length,
# buffer count, pickle bytes, then the slot, epoch and ring offset of an
# arena placement.
_HEADER = struct.Struct("<iiiqqdBxHIQQQQ")


def _align(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _layout(sizes) -> tuple[list[int], int]:
    """Each buffer's offset within its region, and the region's size."""
    offsets, total = [], 0
    for n in sizes:
        offsets.append(_align(total))
        total = offsets[-1] + n
    return offsets, total


def pack_frame(msg: Message, owner: int, wire, arena: Arena | None,
               block_name: str) -> bytes:
    """Frame ``msg``, its payload encoded as ``wire``, from global rank
    ``owner``; ``block_name`` names the block if the buffers take one."""
    data, raws = wire
    offsets, total = _layout(raw.nbytes for raw in raws)
    placement, where, name = _INLINE, (0, 0, 0), b""
    if total >= SHM_MIN_BYTES:
        where = arena.alloc(total) if arena is not None else None
        if where is not None:
            placement, block = _ARENA, None
            region = arena.own_slice(where[2], total)
        else:
            placement, where, name = _BLOCK, (0, 0, 0), block_name.encode()
            block = MappedSegment(block_name, create=total)
            region = block.buf
        for raw, off in zip(raws, offsets):
            region[off:off + raw.nbytes] = raw
        if block is not None:
            block.close()
    parts = [
        _HEADER.pack(msg.src, owner, msg.dst, msg.tag, msg.context, msg.not_before,
                     placement, len(name), len(raws), len(data), *where),
        struct.pack(f"<{len(raws)}Q", *(raw.nbytes for raw in raws)),
        name,
        data,
    ]
    if placement == _INLINE:
        end = sum(map(len, parts))
        parts.append(bytes(_align(end) - end))
        cursor = 0
        for raw, off in zip(raws, offsets):
            parts += (bytes(off - cursor), raw)
            cursor = off + raw.nbytes
    return b"".join(parts)


def unpack_frame(frame, arena: Arena | None = None, owned: bool = False) -> Message:
    """Inverse of :func:`pack_frame`.

    Arrays are read-only views over the frame, the slot or the block,
    unless ``owned``: then the buffers are copied out into private memory
    first.  A block is unlinked either way.
    """
    mv = memoryview(frame)
    (src, owner, dst, tag, context, not_before, placement, namelen, nbufs,
     nbytes, slot, epoch, base) = _HEADER.unpack_from(mv)
    pos = _HEADER.size
    sizes = struct.unpack_from(f"<{nbufs}Q", mv, pos)
    pos += 8 * nbufs
    name = bytes(mv[pos:pos + namelen]).decode()
    pos += namelen
    data = mv[pos:pos + nbytes]
    offsets, total = _layout(sizes)
    block = None
    if placement == _INLINE:
        start = _align(pos + nbytes)
        region = mv[start:start + total]
    elif placement == _ARENA:
        region = arena.view(owner, slot, epoch, base, total)
    else:
        block = MappedSegment(name)
        os.unlink(os.path.join(_SHM_DIR, name))
        region = block.buf.toreadonly()
    if owned:
        buffers = [bytearray(region[off:off + n]) for off, n in zip(offsets, sizes)]
        del region  # a live view of the mapping would keep it from closing
        if block is not None:
            block.close()
    else:
        buffers = [region[off:off + n] for off, n in zip(offsets, sizes)]
    return Message(src=src, dst=dst, tag=tag, context=context,
                   payload=decode(data, buffers), not_before=not_before)


def sweep_job_blocks(name_prefix: str) -> int:
    """Unlink any leftover blocks for a job (abnormal-teardown cleanup)."""
    swept = 0
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux shm layout
        return 0
    for name in names:
        if name.startswith(name_prefix):
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
                swept += 1
            except OSError:  # pragma: no cover - concurrent unlink
                pass
    return swept
