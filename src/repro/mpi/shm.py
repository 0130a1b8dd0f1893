"""Payload codec for the process transport: arena frames + shm blocks.

Two wire formats coexist on the data pipes, distinguished by the first
byte of every frame:

**Arena frames** (:data:`FRAME_ARENA`) are the bulk fast path.  Any
payload that is a tree (two container levels deep) of numpy arrays /
``None`` is written once into the sender's ring of the per-job shared
arena (:mod:`repro.mpi.arena`) and described by one fixed-width packed
struct — envelope fields, slot coordinates, a structure grammar and a
per-array dtype/shape/offset table.  No pickle on either side; the
receiver surfaces the bytes as read-only zero-copy views.

**Pickle frames** (:data:`FRAME_PICKLE`) carry everything else — the
lowercase object path — as a pickled :class:`~repro.mpi.transport.Message`,
at protocol 5 with every buffer of :data:`SHM_MIN_BYTES` or more kept out
of the pickle and copied once into one *per-message* shm block
(:func:`dump_out_of_band` / :func:`load_out_of_band`): array payloads that
missed the arena (arena disabled, ring overflow, slot table exhausted) and
objects that hold large arrays stay out of the pipe buffer, and so does a
rank's *exit envelope*, its result on the way to the parent.  Smaller
buffers pickle in band — two shm syscalls cost more than a small pickle.

Block lifetime: the *sender* creates the block and never unlinks it; the
*receiver* maps it, copies the buffers out and unlinks it.  Arena segments
and blocks share the job's name prefix, so the parent sweeps both kinds of
straggler from ``/dev/shm`` after an abnormal teardown
(:func:`sweep_job_blocks`).  Nothing goes through ``shared_memory``, whose
``resource_tracker`` would double-unlink names that cross a fork boundary.
"""

from __future__ import annotations

import ast
import itertools
import os
import pickle
import struct

import numpy as np

from repro.mpi.arena import Arena, MappedSegment
from repro.mpi.transport import Message

__all__ = [
    "FRAME_ARENA",
    "FRAME_PICKLE",
    "SHM_MIN_BYTES",
    "pack_arena_message",
    "unpack_arena_message",
    "dump_out_of_band",
    "load_out_of_band",
    "sweep_job_blocks",
]

#: Below this many payload bytes, pickling through the pipe is cheaper than
#: two shm syscalls plus a mmap.  32 KiB is far above any control message
#: and far below a columnar page.
SHM_MIN_BYTES = 32 * 1024

_SHM_DIR = "/dev/shm"


# --------------------------------------------------------------- arena frames

#: First byte of every data-pipe frame.
FRAME_PICKLE = 0x00
FRAME_ARENA = 0x01

#: Per-array start alignment inside a slot (keeps typed views aligned for
#: any dtype numpy ships).
_ARR_ALIGN = 16

# Fixed-width envelope: frame byte, pad, src, owner, dst, tag, context,
# not_before, slot, epoch, slot offset, payload bytes, n_arrays,
# structure-grammar length.  ``src`` is the sender's rank in the
# communicator the message travels on; ``owner`` is its global rank, whose
# arena segment holds the payload (the two differ on a sub-communicator,
# e.g. one shrunk past a dead rank).
_FIXED = struct.Struct("<B3xiiiqqdIQQQHH")
# Per-array entry: offset within the slot, ndim, dtype-string length
# (dtype bytes and ndim x i64 shape follow).
_META = struct.Struct("<QBH")

# Structure grammar opcodes (a pre-order walk of the payload tree):
# A = next array, N = None, T/L <u16 count> = tuple/list of count children.
_OP_ARRAY, _OP_NONE, _OP_TUPLE, _OP_LIST = 0x41, 0x4E, 0x54, 0x4C


class _Ineligible(Exception):
    """Internal: payload must take the pickle path."""


def _walk_tree(o, depth: int, arrays: list, out: bytearray) -> None:
    # Module-level on purpose (see _rebuild): as a closure calling itself it sat
    # in a cycle with ``arrays``, and a sent payload lived until the cyclic GC ran.
    if isinstance(o, np.ndarray):
        if o.dtype.hasobject or o.ndim > 255:
            raise _Ineligible
        arrays.append(o)
        out.append(_OP_ARRAY)
    elif o is None:
        out.append(_OP_NONE)
    elif isinstance(o, (tuple, list)):
        if depth >= 2 or len(o) > 0xFFFF:
            raise _Ineligible
        out.append(_OP_TUPLE if isinstance(o, tuple) else _OP_LIST)
        out.extend(len(o).to_bytes(2, "little"))
        for child in o:
            _walk_tree(child, depth + 1, arrays, out)
    else:
        raise _Ineligible


def _arena_flatten(obj) -> tuple[list, bytes] | None:
    """Flatten an array tree into (arrays, structure grammar), or None.

    Eligible payloads are numpy arrays (no object dtypes), ``None``, and
    up to two nested levels of tuple/list of those — exactly the shapes
    the columnar shuffle, the capitalized buffer path and the collectives'
    gathered-list broadcasts produce.  Anything else pickles.
    """
    if obj is None:
        return None  # a bare None pickles in a handful of bytes
    arrays: list = []
    out = bytearray()
    try:
        _walk_tree(obj, 0, arrays, out)
    except _Ineligible:
        return None
    return (arrays, bytes(out)) if 0 < len(arrays) <= 0xFFFF else None


_DTYPE_DECODE_CACHE: dict[bytes, np.dtype] = {}
_DTYPE_ENCODE_CACHE: dict = {}

_SHAPE_STRUCTS: dict[int, struct.Struct] = {}


def _shape_struct(ndim: int) -> struct.Struct:
    s = _SHAPE_STRUCTS.get(ndim)
    if s is None:
        s = _SHAPE_STRUCTS[ndim] = struct.Struct(f"<{ndim}q")
    return s


def _dtype_to_bytes(dt: np.dtype) -> bytes:
    enc = _DTYPE_ENCODE_CACHE.get(dt)
    if enc is None:
        if dt.names is not None:
            # Structured dtypes (the mrblast VALUE_DTYPE records): ``descr``
            # round-trips through literal_eval; plain ``str`` does not.
            enc = b"D" + repr(dt.descr).encode("utf-8")
        else:
            enc = b"P" + dt.str.encode("ascii")
        if len(enc) > 0xFFFF:
            raise _Ineligible
        _DTYPE_ENCODE_CACHE[dt] = enc
    return enc


def _dtype_from_bytes(raw: bytes) -> np.dtype:
    dt = _DTYPE_DECODE_CACHE.get(raw)
    if dt is None:
        if raw[:1] == b"D":
            dt = np.dtype(ast.literal_eval(raw[1:].decode("utf-8")))
        else:
            dt = np.dtype(raw[1:].decode("ascii"))
        _DTYPE_DECODE_CACHE[raw] = dt
    return dt


def pack_arena_message(msg, arena: Arena) -> bytes | None:
    """Pack ``msg`` into an arena frame, or None for the pickle fallback.

    None either means the payload shape is not an array tree (object
    path), or the ring could not hold it right now (overflow — already
    counted in ``arena.stats``).  The caller owns the fallback; a packed
    frame owns its slot, released when the receiver's views die.
    """
    flat = _arena_flatten(msg.payload)
    if flat is None:
        return None
    arrays, structure = flat
    try:
        metas = []
        total = 0
        for a in arrays:
            total = -(-total // _ARR_ALIGN) * _ARR_ALIGN
            metas.append((total, a.ndim, _dtype_to_bytes(a.dtype), a.shape))
            total += a.nbytes
    except _Ineligible:  # pragma: no cover - >64KiB dtype string
        return None
    res = arena.alloc(total)
    if res is None:
        return None
    slot, epoch, base = res
    buf = arena.own_slice(base, total)
    for a, (off, _nd, _db, _shape) in zip(arrays, metas):
        if a.nbytes:
            if a.flags.c_contiguous:
                # Straight memcpy; the ndarray-wrapper assignment below
                # costs a few µs of construction per array.
                buf[off:off + a.nbytes] = a.data.cast("B")
            else:
                np.ndarray(a.shape, dtype=a.dtype,
                           buffer=buf, offset=off)[...] = a
    frame = bytearray(_FIXED.pack(
        FRAME_ARENA, msg.src, arena.rank, msg.dst, msg.tag, msg.context, msg.not_before,
        slot, epoch, base, total, len(arrays), len(structure)))
    frame += structure
    for off, ndim, dbytes, shape in metas:
        frame += _META.pack(off, ndim, len(dbytes))
        frame += dbytes
        frame += _shape_struct(ndim).pack(*shape)
    return bytes(frame)


def unpack_arena_message(frame, arena: Arena):
    """Rebuild a :class:`~repro.mpi.transport.Message` from an arena frame.

    The payload arrays are read-only zero-copy views over the sender's
    slot; the slot is handed back to the sender when the last view is
    garbage-collected (see :meth:`repro.mpi.arena.Arena.view`).
    """
    mv = memoryview(frame)
    (_frame, src, owner, dst, tag, context, not_before,
     slot, epoch, base, total, narr, slen) = _FIXED.unpack_from(mv, 0)
    pos = _FIXED.size
    structure = bytes(mv[pos:pos + slen])
    pos += slen
    wrapper = arena.view(owner, slot, epoch, base, total)
    arrays = []
    for _ in range(narr):
        off, ndim, dlen = _META.unpack_from(mv, pos)
        pos += _META.size
        dt = _dtype_from_bytes(bytes(mv[pos:pos + dlen]))
        pos += dlen
        shape = _shape_struct(ndim).unpack_from(mv, pos)
        pos += 8 * ndim
        nbytes = dt.itemsize
        for dim in shape:
            nbytes *= dim
        arrays.append(wrapper[off:off + nbytes].view(dt).reshape(shape))
    payload = _rebuild(structure, arrays)
    return Message(src=src, dst=dst, tag=tag, context=context,
                   payload=payload, not_before=not_before)


def _rebuild(structure: bytes, arrays: list):
    """Inverse of the :func:`_arena_flatten` pre-order walk.

    Deliberately NOT written as a self-recursive inner closure: a closure
    that names itself closes over its own cell, which is a reference
    cycle, and that cycle's `arrays` cell would keep every zero-copy view
    alive until the *cyclic* GC runs — the sender's slot would look
    resident long after the receiver dropped the payload.  A module-level
    helper with explicit state keeps release purely refcount-driven.
    """
    value, _, _ = _rebuild_node(structure, 0, arrays, 0)
    return value


def _rebuild_node(structure: bytes, pos: int, arrays: list, ai: int):
    op = structure[pos]
    pos += 1
    if op == _OP_ARRAY:
        return arrays[ai], pos, ai + 1
    if op == _OP_NONE:
        return None, pos, ai
    count = int.from_bytes(structure[pos:pos + 2], "little")
    pos += 2
    children = []
    for _ in range(count):
        child, pos, ai = _rebuild_node(structure, pos, arrays, ai)
        children.append(child)
    return (tuple(children) if op == _OP_TUPLE else children), pos, ai


# -------------------------------------------------------------- shm blocks


def dump_out_of_band(obj, block_name: str) -> bytes:
    """Pickle *obj* with its bulk buffers in the shm block ``block_name``
    (none, no block).  The frame is all :func:`load_out_of_band` needs;
    raises what ``pickle.dumps`` raises, before any block exists."""
    held: list[memoryview] = []

    def keep_in_band(buf: pickle.PickleBuffer) -> bool:
        raw = buf.raw()
        if raw.nbytes < SHM_MIN_BYTES:
            return True
        held.append(raw)
        return False

    data = pickle.dumps(obj, protocol=5, buffer_callback=keep_in_band)
    sizes = [raw.nbytes for raw in held]
    if held:
        block = MappedSegment(block_name, create=sum(sizes))
        for raw, end in zip(held, itertools.accumulate(sizes)):
            block.buf[end - raw.nbytes : end] = raw
        block.close()
    return pickle.dumps((data, block_name, sizes))


def load_out_of_band(frame):
    """Inverse of :func:`dump_out_of_band`: copy the buffers out of the
    block (the arrays rebuilt on them own their memory), unlink it."""
    data, block_name, sizes = pickle.loads(frame)
    if not sizes:
        return pickle.loads(data)
    block = MappedSegment(block_name)
    try:
        buffers = [bytearray(block.buf[end - size : end])
                   for size, end in zip(sizes, itertools.accumulate(sizes))]
    finally:
        block.close()
        os.unlink(os.path.join(_SHM_DIR, block_name))
    return pickle.loads(data, buffers=buffers)


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
