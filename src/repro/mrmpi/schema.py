"""Typed record schemas for the columnar KV data plane.

A :class:`RecordSchema` fixes, per dataset, how keys and values are laid
out as numpy columns:

- **keys** are one fixed-width column ('S<w>' bytes/str, int64 or float64).
  The *logical* kind ('bytes'/'str'/'int'/'float') is tracked separately
  from the storage dtype so hashing and decoding reproduce exactly what the
  object path's :func:`~repro.mrmpi.hashing.key_bytes` canonicalisation
  does — columnar and object aggregates place every key on the same rank.
- **values** are either one structured (fixed-width) column — mrblast's HSP
  rows, mrsom's accumulator rows — or a ragged bytes column (one uint8
  buffer plus int64 offsets) when payloads have no fixed width.

Optional ``encode_values``/``decode_value`` hooks translate between
application objects and rows at the dataset edge; everything between emit
and reduce then moves as contiguous buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

__all__ = ["RecordSchema", "RAGGED_BYTES"]

#: Sentinel value dtype: variable-length bytes values (buffer + offsets).
RAGGED_BYTES = "ragged_bytes"

_KEY_KINDS = ("bytes", "str", "int", "float")


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
        Fixed-width numpy dtype of the key column ('S<w>', int64, float64).
    value_dtype:
        Structured/plain numpy dtype of the value column, or
        :data:`RAGGED_BYTES` for variable-length bytes values.
    key_kind:
        Logical key type ('bytes', 'str', 'int', 'float'); inferred from
        ``key_dtype`` when omitted ('S' storage defaults to 'bytes' — pass
        'str' explicitly for text keys such as mrblast's query ids).
    encode_values / decode_value:
        Optional object↔row translators used at the dataset edge (scalar
        ``add``, iteration, reducers).  ``encode_values(values)`` returns a
        ``value_dtype`` array; ``decode_value(row)`` returns the
        application object for one row.
    """

    key_dtype: Any
    value_dtype: Any
    key_kind: Optional[str] = None
    encode_values: Optional[Callable[[Sequence[Any]], np.ndarray]] = None
    decode_value: Optional[Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        kd = np.dtype(self.key_dtype)
        object.__setattr__(self, "key_dtype", kd)
        if kd.kind not in "Siuf" or kd.itemsize == 0:
            raise ValueError(f"key_dtype must be fixed-width S/int/float, got {kd}")
        kind = self.key_kind or _infer_kind(kd)
        if kind not in _KEY_KINDS:
            raise ValueError(f"key_kind must be one of {_KEY_KINDS}, got {kind!r}")
        if kind == "str" and kd.kind != "S":
            raise ValueError("key_kind 'str' requires an 'S<w>' key_dtype")
        object.__setattr__(self, "key_kind", kind)
        if not self.ragged_values:
            object.__setattr__(self, "value_dtype", np.dtype(self.value_dtype))

    # ----------------------------------------------------------------- keys

    @property
    def ragged_values(self) -> bool:
        return isinstance(self.value_dtype, str) and self.value_dtype == RAGGED_BYTES

    def encode_keys(self, keys: Sequence[Any] | np.ndarray) -> np.ndarray:
        """Build the key column; rejects keys wider than the schema."""
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
                    f"columns cannot represent; use the object path"
                )
        return np.array(encoded, dtype=self.key_dtype)

    def decode_keys(self, column: np.ndarray) -> list:
        """A stored key column back to logical Python values, in one pass."""
        raw = column.tolist()
        if self.key_kind == "str":
            return [k.decode("utf-8") for k in raw]
        return raw

    def decode_key(self, raw: Any) -> Any:
        """One stored key back to its logical Python value."""
        return self.decode_keys(np.asarray(raw).reshape(1))[0]

    # ---------------------------------------------------------------- values

    def build_values(self, values: Sequence[Any] | np.ndarray):
        """Build a value column (array, or (buffer, offsets) when ragged)."""
        if self.ragged_values:
            if isinstance(values, tuple) and len(values) == 2:
                return values  # already (buffer, offsets)
            chunks = [np.frombuffer(v, dtype=np.uint8) for v in values]
            offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
            np.cumsum([len(c) for c in chunks], out=offsets[1:])
            buf = (
                np.concatenate(chunks)
                if chunks
                else np.empty(0, dtype=np.uint8)
            )
            return buf, offsets
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
