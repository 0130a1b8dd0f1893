"""Deterministic key hashing for aggregate()/collate().

MapReduce-MPI assigns each unique key to a processor with a hash of the key
modulo nprocs.  Python's builtin ``hash`` is salted per interpreter, so we
use a stable FNV-1a over a canonical byte encoding: results are identical
across runs, platforms and rank counts, which the tests rely on.

The canonical encoding is also how untyped keys are stored
(:func:`canonical_key`): one 'S' column entry per key, decoded back to the
original object by :func:`key_from_bytes`.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

__all__ = ["key_bytes", "canonical_key", "key_from_bytes", "hash_key_column"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Ends every stored canonical key: numpy strips trailing NULs from 'S'
#: items, and an encoding may end in one (``b"a\x00"``, ``0.0``).
KEY_END = b"\x01"


def key_bytes(key: Any) -> bytes:
    """Canonical byte encoding of a key.

    Supported key types mirror what the applications emit: bytes, str, int,
    float, and (nested) tuples of those.  Anything else is rejected loudly —
    silent fallback to ``repr`` would make hashing fragile.
    """
    if isinstance(key, bytes):
        return b"b" + key
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, bool):  # before int: bool is an int subclass
        return b"?" + (b"1" if key else b"0")
    if isinstance(key, int):
        return b"i" + str(key).encode("ascii")
    if isinstance(key, float):
        return b"f" + struct.pack("<d", key)
    if isinstance(key, tuple):
        parts = [b"t", str(len(key)).encode("ascii")]
        for item in key:
            enc = key_bytes(item)
            parts.append(str(len(enc)).encode("ascii"))
            parts.append(b":")
            parts.append(enc)
        return b"".join(parts)
    raise TypeError(
        f"unsupported key type {type(key).__name__!r}; use bytes/str/int/float/tuple"
    )


def canonical_key(key: Any) -> bytes:
    """An untyped key as stored: :func:`key_bytes` plus :data:`KEY_END`."""
    if type(key) is str:  # the common key, without key_bytes' type ladder
        return b"s" + key.encode("utf-8") + KEY_END
    return key_bytes(key) + KEY_END


def key_from_bytes(enc: bytes) -> Any:
    """The key whose :func:`key_bytes` encoding is ``enc``."""
    tag, body = enc[:1], enc[1:]
    if tag == b"s":
        return body.decode("utf-8")
    if tag == b"b":
        return body
    if tag == b"i":
        return int(body)
    if tag == b"f":
        return struct.unpack("<d", body)[0]
    if tag == b"?":
        return body == b"1"
    if tag == b"t":
        if body == b"0":
            return ()
        # The item count runs into the first item's length ("t" "2" "13:"):
        # take the first split whose parse encodes back to ``enc``.
        for cut in range(1, body.index(b":")):
            try:
                key = tuple(_tuple_items(body, cut, int(body[:cut])))
            except (ValueError, IndexError, struct.error, UnicodeDecodeError):
                continue
            if key_bytes(key) == enc:
                return key
    raise ValueError(f"not a canonical key encoding: {enc!r}")


def _tuple_items(body: bytes, pos: int, count: int):
    """``count`` length-prefixed items of a tuple encoding, from ``pos``."""
    for _ in range(count):
        colon = body.index(b":", pos)
        end = colon + 1 + int(body[pos:colon])
        if end > len(body):
            raise ValueError("item runs past the tuple")
        yield key_from_bytes(body[colon + 1 : end])
        pos = end
    if pos != len(body):
        raise ValueError("bytes left after the last item")


def _fnv1a_matrix(mat: np.ndarray, lengths: np.ndarray, prefix: bytes) -> np.ndarray:
    """FNV-1a over each row of a (n, width) uint8 matrix, rows of varying
    ``lengths``, every hash seeded with the scalar ``prefix`` bytes.

    Column ``j`` only updates rows with ``lengths > j``, so the result equals
    hashing ``prefix + row[:length]`` per row — for a key, the 64-bit
    FNV-1a of the byte stream :func:`key_bytes` makes of it — at one
    vectorised sweep per byte *position* instead of one Python loop
    iteration per byte.  Positions
    every row reaches (all, when every key fills its column) need no mask.
    """
    prime = np.uint64(_FNV_PRIME)
    h = np.full(mat.shape[0], _FNV_OFFSET, dtype=np.uint64)
    shortest = int(lengths.min()) if len(lengths) else 0
    longest = int(lengths.max()) if len(lengths) else 0
    with np.errstate(over="ignore"):
        for byte in prefix:
            h = (h ^ np.uint64(byte)) * prime
        for j in range(shortest):
            h ^= mat[:, j]
            h *= prime
        for j in range(shortest, longest):
            h = np.where(lengths > j, (h ^ mat[:, j]) * prime, h)
    return h


def _byte_matrix(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, width) uint8 view of an ``S``-dtype column plus per-row lengths
    (trailing NULs are padding, exactly what numpy strips on conversion),
    found from the right: position ``j`` shortens only rows all NUL from ``j``
    on, and the walk stops where there is none (at once, for full-width keys).
    """
    width = column.dtype.itemsize
    mat = column.view(np.uint8).reshape(len(column), width)
    lengths = np.full(len(column), width, dtype=np.intp)
    tail = np.ones(len(column), dtype=bool)
    for j in range(width - 1, -1, -1):
        tail &= mat[:, j] == 0
        if not tail.any():
            break
        lengths[tail] = j
    return mat, lengths


def hash_key_column(column: np.ndarray, kind: str) -> np.ndarray:
    """64-bit FNV-1a of each key's :func:`key_bytes`, over a whole key column.

    ``kind`` is the *logical* key type of the schema ('bytes', 'str', 'int',
    'float', or 'canonical' for a column of :func:`canonical_key` entries);
    the result is element-wise the hash of the decoded key's encoding, so a
    key lands on the same rank whichever schema carries it.
    """
    column = np.ascontiguousarray(column)
    if kind == "canonical":
        # The stored entry is the encoding itself, then the terminator.
        mat, lengths = _byte_matrix(column)
        return _fnv1a_matrix(mat, lengths - 1, b"")
    if kind in ("bytes", "str"):
        mat, lengths = _byte_matrix(column)
        return _fnv1a_matrix(mat, lengths, b"b" if kind == "bytes" else b"s")
    if kind == "int":
        # key_bytes uses the decimal ASCII form; astype('S') produces it.
        as_text = column.astype("S21")
        mat, lengths = _byte_matrix(as_text)
        return _fnv1a_matrix(mat, lengths, b"i")
    if kind == "float":
        # key_bytes packs the raw little-endian IEEE-754 doubles.
        mat = column.astype("<f8").view(np.uint8).reshape(len(column), 8)
        lengths = np.full(len(column), 8)
        return _fnv1a_matrix(mat, lengths, b"f")
    raise ValueError(f"unsupported key kind {kind!r}")
