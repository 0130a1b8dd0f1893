"""Deterministic key hashing for aggregate()/collate().

MapReduce-MPI assigns each unique key to a processor with a hash of the key
modulo nprocs.  Python's builtin ``hash`` is salted per interpreter, so we
use a stable FNV-1a: results are identical across runs, platforms and rank
counts, which the tests rely on.  A str key hashes as ``b"s"`` followed by
its UTF-8 bytes, the stream earlier releases hashed for str keys, so every
key keeps its rank.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hash_key_column"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: the byte every key's hashed stream starts with
_KEY_TAG = b"s"


def _fnv1a_matrix(mat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """FNV-1a over each row of a (n, width) uint8 matrix, rows of varying
    ``lengths``, every hash seeded with :data:`_KEY_TAG`.

    Column ``j`` only updates rows with ``lengths > j``, so the result equals
    hashing ``_KEY_TAG + row[:length]`` per row, at one vectorised sweep per
    byte *position* instead of one Python loop iteration per byte.  Positions
    every row reaches (all, when every key fills its column) need no mask.
    """
    prime = np.uint64(_FNV_PRIME)
    h = np.full(mat.shape[0], _FNV_OFFSET, dtype=np.uint64)
    shortest = int(lengths.min()) if len(lengths) else 0
    longest = int(lengths.max()) if len(lengths) else 0
    with np.errstate(over="ignore"):
        for byte in _KEY_TAG:
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


def hash_key_column(column: np.ndarray) -> np.ndarray:
    """64-bit FNV-1a of each key of an 'S' key column (its UTF-8 bytes after
    :data:`_KEY_TAG`), whatever the column's width."""
    return _fnv1a_matrix(*_byte_matrix(np.ascontiguousarray(column)))
