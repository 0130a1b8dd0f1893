"""Record schemas: how a KV dataset is laid out as numpy columns.

A :class:`RecordSchema` fixes, per dataset, how keys and values are laid
out as numpy columns:

- **keys** are one 'S' (bytes/str), int64 or float64 column.  The *logical*
  kind ('bytes'/'str'/'int'/'float'/'canonical') is tracked separately from
  the storage dtype so :func:`~repro.mrmpi.hashing.hash_key_column` hashes
  the decoded key's canonical encoding: every schema places a key on the
  same rank.
- **values** are either one structured (fixed-width) column — mrblast's HSP
  rows, mrsom's accumulator rows — or a ragged bytes column (one uint8
  buffer plus int64 offsets) when payloads have no fixed width.

Optional ``encode_values``/``decode_value`` hooks translate between
application objects and rows at the dataset edge; everything between emit
and reduce then moves as contiguous buffers.

:data:`UNTYPED` is the schema of a dataset nobody described: any key
:func:`~repro.mrmpi.hashing.key_bytes` can encode, stored as that encoding
(kind 'canonical', width set per batch), and any picklable value, stored
pickled in a ragged column.  It is what ``MapReduce(schema=None)`` means.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mrmpi.hashing import canonical_key, key_from_bytes

__all__ = ["RecordSchema", "RAGGED_BYTES", "UNTYPED", "ragged_column"]

#: Sentinel value dtype: variable-length bytes values (buffer + offsets).
RAGGED_BYTES = "ragged_bytes"

_KEY_KINDS = ("bytes", "str", "int", "float", "canonical")


def _pickle_values(values: Sequence[Any]) -> list[bytes]:
    """The untyped layout's value encoding, one pickle per value."""
    return [pickle.dumps(v, pickle.HIGHEST_PROTOCOL) for v in values]


def ragged_column(values: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """A ragged bytes column: the values end to end, plus row offsets."""
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, values), dtype=np.int64, count=len(values)),
              out=offsets[1:])
    return np.frombuffer(b"".join(values), dtype=np.uint8), offsets


def _infer_kind(dtype: np.dtype) -> str:
    if dtype.kind == "S":
        return "bytes"
    if dtype.kind in "iu":
        return "int"
    if dtype.kind == "f":
        return "float"
    raise ValueError(f"cannot infer key kind from dtype {dtype}")


@dataclass(frozen=True)
class RecordSchema:
    """Column layout of one KV dataset (identical on every rank).

    Parameters
    ----------
    key_dtype:
        Fixed-width numpy dtype of the key column ('S<w>', int64, float64);
        a 'canonical' column is plain 'S', its width set by each batch.
    value_dtype:
        Structured/plain numpy dtype of the value column, or
        :data:`RAGGED_BYTES` for variable-length bytes values.
    key_kind:
        Logical key type ('bytes', 'str', 'int', 'float'); inferred from
        ``key_dtype`` when omitted ('S' storage defaults to 'bytes' — pass
        'str' explicitly for text keys such as mrblast's query ids).
        'canonical' keys are any :func:`~repro.mrmpi.hashing.key_bytes`
        key, stored as :func:`~repro.mrmpi.hashing.canonical_key`: the
        untyped layout, whose ragged values are always pickled.
    encode_values / decode_value:
        Optional object↔row translators used at the dataset edge (scalar
        ``add``, iteration, reducers).  ``encode_values(values)`` returns a
        ``value_dtype`` array (a list of ``bytes`` for ragged values);
        ``decode_value(row)`` returns the application object for one row.
    """

    key_dtype: Any
    value_dtype: Any
    key_kind: Optional[str] = None
    encode_values: Optional[Callable[[Sequence[Any]], np.ndarray]] = None
    decode_value: Optional[Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        kd = np.dtype(self.key_dtype)
        object.__setattr__(self, "key_dtype", kd)
        kind = self.key_kind
        if kd.kind not in "Siuf" or (kd.itemsize == 0 and kind != "canonical"):
            raise ValueError(f"key_dtype must be fixed-width S/int/float, got {kd}")
        kind = kind or _infer_kind(kd)
        if kind not in _KEY_KINDS:
            raise ValueError(f"key_kind must be one of {_KEY_KINDS}, got {kind!r}")
        if kind in ("str", "canonical") and kd.kind != "S":
            raise ValueError(f"key_kind {kind!r} requires an 'S' key_dtype")
        if kind == "canonical":
            if not self.ragged_values or self.encode_values or self.decode_value:
                raise ValueError("key_kind 'canonical' is the untyped layout: "
                                 "RAGGED_BYTES values and no value hooks")
            object.__setattr__(self, "encode_values", _pickle_values)
            object.__setattr__(self, "decode_value", pickle.loads)
        object.__setattr__(self, "key_kind", kind)
        if not self.ragged_values:
            object.__setattr__(self, "value_dtype", np.dtype(self.value_dtype))

    # ----------------------------------------------------------------- keys

    @property
    def ragged_values(self) -> bool:
        return isinstance(self.value_dtype, str) and self.value_dtype == RAGGED_BYTES

    def encode_keys(self, keys: Sequence[Any] | np.ndarray) -> np.ndarray:
        """Build the key column; rejects keys wider than the schema."""
        if self.key_kind == "canonical":
            if isinstance(keys, np.ndarray):
                keys = keys.tolist()
            return np.array([canonical_key(k) for k in keys], dtype="S")
        if isinstance(keys, np.ndarray) and keys.dtype == self.key_dtype:
            return keys
        if self.key_kind == "str":
            encoded = [k.encode("utf-8") for k in keys]
        elif self.key_kind == "bytes":
            encoded = list(keys)
        else:
            arr = np.asarray(keys).astype(self.key_dtype)
            return arr
        width = self.key_dtype.itemsize
        for k in encoded:
            if len(k) > width:
                raise ValueError(
                    f"key {k!r} is {len(k)} bytes, wider than the schema's "
                    f"{self.key_dtype} key column"
                )
            if k.endswith(b"\x00"):
                raise ValueError(
                    f"key {k!r} has trailing NUL bytes, which fixed-width 'S' "
                    f"columns cannot represent; use the untyped schema"
                )
        return np.array(encoded, dtype=self.key_dtype)

    def decode_keys(self, column: np.ndarray) -> list:
        """A stored key column back to logical Python values, in one pass."""
        raw = column.tolist()
        if self.key_kind == "str":
            return [k.decode("utf-8") for k in raw]
        if self.key_kind == "canonical":
            return [key_from_bytes(k[:-1]) for k in raw]
        return raw

    # ---------------------------------------------------------------- values

    def build_values(self, values: Sequence[Any] | np.ndarray):
        """Build a value column (array, or (buffer, offsets) when ragged)."""
        if self.ragged_values:
            if isinstance(values, tuple) and len(values) == 2 and all(
                    isinstance(a, np.ndarray) for a in values):
                return values  # already (buffer, offsets)
            if self.encode_values is not None:
                values = self.encode_values(values)
            return ragged_column(values)
        if isinstance(values, np.ndarray) and values.dtype == self.value_dtype:
            return values
        if self.encode_values is not None:
            arr = self.encode_values(values)
            if arr.dtype != self.value_dtype:
                raise ValueError(
                    f"encode_values returned dtype {arr.dtype}, schema says "
                    f"{self.value_dtype}"
                )
            return arr
        return np.asarray(values, dtype=self.value_dtype)


#: Any canonical key, any picklable value: ``MapReduce(schema=None)``.
UNTYPED = RecordSchema("S", RAGGED_BYTES, key_kind="canonical")
