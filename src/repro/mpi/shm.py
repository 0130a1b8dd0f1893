"""Frames of the process transport: one header, two buffer placements.

Every message between rank processes, and every rank's exit envelope on
its way to the parent, is one frame: a fixed-width header, the sizes of
the payload's out-of-band buffers, a block name if there is one, then the
payload's protocol-5 pickle (:func:`repro.mpi.transport.encode`).

Where the buffers live is the frame's *placement*:

- **inline** — under :data:`SHM_MIN_BYTES` in total they follow the pickle
  in the frame, each 16-byte aligned: two shm syscalls and a mmap cost
  more than a small pipe write;
- **block** — otherwise in one per-message shm block, which the frame
  names.

Either way the sender copies each buffer once.  A message's receiver
decodes over read-only views of wherever the buffers live, with no copy;
the parent copies an exit envelope's buffers out (``owned=True``), so a
rank's result arrays are private, and writable if the rank left them so.

Block lifetime: the *sender* creates the block, writes the buffers into
it with ``pwrite`` (no mapping, so no page faults on its side) and never
unlinks it; the *receiver* maps it read-only and unlinks the name at once
(the mapping lives as long as the arrays over it).  Blocks share the
job's name prefix, so the parent sweeps stragglers from ``/dev/shm``
after an abnormal teardown (:func:`sweep_job_blocks`).  Nothing goes
through ``shared_memory``: ``SharedMemory(name=...)`` registers every
attach (before 3.13 it cannot be told not to) with the one
``resource_tracker`` all forked ranks inherit, and two ranks attaching
and unregistering the same name end in a ``KeyError`` traceback on the
job's stderr.  The job owns the names; receivers and the sweep unlink
them.
"""

from __future__ import annotations

import mmap
import os
import struct

from repro.mpi.transport import Message, decode

__all__ = ["SHM_MIN_BYTES", "pack_frame", "sweep_job_blocks", "unpack_frame"]

#: Below this many buffer bytes, the pipe is cheaper than two shm syscalls
#: plus a mmap.  32 KiB is far above any control message and far below a
#: columnar page.
SHM_MIN_BYTES = 32 * 1024

_SHM_DIR = "/dev/shm"

#: Buffer start alignment within its region (keeps typed views aligned for
#: any dtype numpy ships).
_ALIGN = 16

# src, dst, tag, context, not_before, block-name length (0: inline),
# buffer count, pickle bytes.
_HEADER = struct.Struct("<iiqqdHIQ")


def _align(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _layout(sizes) -> tuple[list[int], int]:
    """Each buffer's offset within its region, and the region's size."""
    offsets, total = [], 0
    for n in sizes:
        offsets.append(_align(total))
        total = offsets[-1] + n
    return offsets, total


def pack_frame(msg: Message, wire, block_name: str) -> bytes:
    """Frame ``msg``, its payload encoded as ``wire``; ``block_name`` names
    the block if the buffers take one."""
    data, raws = wire
    offsets, total = _layout(raw.nbytes for raw in raws)
    name = b""
    if total >= SHM_MIN_BYTES:
        name = block_name.encode()
        fd = os.open(os.path.join(_SHM_DIR, block_name),
                     os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            os.ftruncate(fd, total)
            for raw, off in zip(raws, offsets):
                while raw:  # one write moves at most about 2 GiB
                    done = os.pwrite(fd, raw, off)
                    raw, off = raw[done:], off + done
        finally:
            os.close(fd)
    parts = [
        _HEADER.pack(msg.src, msg.dst, msg.tag, msg.context, msg.not_before,
                     len(name), len(raws), len(data)),
        struct.pack(f"<{len(raws)}Q", *(raw.nbytes for raw in raws)),
        name,
        data,
    ]
    if not name:
        end = sum(map(len, parts))
        parts.append(bytes(_align(end) - end))
        cursor = 0
        for raw, off in zip(raws, offsets):
            parts += (bytes(off - cursor), raw)
            cursor = off + raw.nbytes
    return b"".join(parts)


def unpack_frame(frame, owned: bool = False) -> Message:
    """Inverse of :func:`pack_frame`.

    Arrays are read-only views over the frame or the block, unless
    ``owned``: then the buffers are copied out into private memory first.
    A block is unlinked either way.
    """
    mv = memoryview(frame)
    src, dst, tag, context, not_before, namelen, nbufs, nbytes = _HEADER.unpack_from(mv)
    pos = _HEADER.size
    sizes = struct.unpack_from(f"<{nbufs}Q", mv, pos)
    pos += 8 * nbufs
    name = bytes(mv[pos:pos + namelen]).decode()
    pos += namelen
    data = mv[pos:pos + nbytes]
    offsets, total = _layout(sizes)
    block = None
    if not name:
        start = _align(pos + nbytes)
        region = mv[start:start + total]
    else:
        path = os.path.join(_SHM_DIR, name)
        fd = os.open(path, os.O_RDONLY)
        try:
            block = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        os.unlink(path)
        region = memoryview(block)
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
