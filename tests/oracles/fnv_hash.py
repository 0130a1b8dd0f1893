"""Scalar FNV-1a of one key: the reference for the vectorised key hash.

:func:`repro.mrmpi.hashing.hash_key_column` hashes a whole key column at
once; element ``i`` must equal :func:`stable_hash` of the decoded key, so a
key lands on the same rank whichever schema carries it.
"""

from __future__ import annotations

__all__ = ["stable_hash"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash(key: str) -> int:
    """64-bit FNV-1a of ``b"s"`` and the key's UTF-8 bytes (non-negative)."""
    h = _FNV_OFFSET
    for byte in b"s" + key.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h
