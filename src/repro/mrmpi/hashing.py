"""Deterministic key hashing for aggregate()/collate().

MapReduce-MPI assigns each unique key to a processor with a hash of the key
modulo nprocs.  Python's builtin ``hash`` is salted per interpreter, so we
use a stable FNV-1a over a canonical byte encoding: results are identical
across runs, platforms and rank counts, which the tests rely on.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

__all__ = ["stable_hash", "key_bytes", "hash_key_column"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


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


def stable_hash(key: Any) -> int:
    """64-bit FNV-1a of the canonical key encoding (always non-negative)."""
    h = _FNV_OFFSET
    for byte in key_bytes(key):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def _fnv1a_matrix(mat: np.ndarray, lengths: np.ndarray, prefix: bytes) -> np.ndarray:
    """FNV-1a over each row of a (n, width) uint8 matrix, rows of varying
    ``lengths``, every hash seeded with the scalar ``prefix`` bytes.

    Column ``j`` only updates rows with ``lengths > j``, so the result equals
    hashing ``prefix + row[:length]`` per row — the exact byte stream
    :func:`key_bytes` feeds :func:`stable_hash` — at one vectorised sweep per
    byte *position* instead of one Python loop iteration per byte.  Positions
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
    """Vectorised :func:`stable_hash` over a whole key column.

    ``kind`` is the *logical* key type of the schema ('bytes', 'str', 'int'
    or 'float'); the result is element-wise identical to
    ``stable_hash(decoded_key)``, which is what keeps columnar and object
    aggregates placing every key on the same rank.
    """
    column = np.ascontiguousarray(column)
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
