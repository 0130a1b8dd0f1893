"""Record schemas: how a KV dataset is laid out as numpy columns.

A :class:`RecordSchema` fixes, per dataset, how keys and values are laid
out as numpy columns:

- **keys** are str, stored as one 'S' column of their UTF-8 bytes (fixed
  width, or set per batch when the schema's width is 0);
  :func:`~repro.mrmpi.hashing.hash_key_column` places them.
- **values** are either one structured (fixed-width) column — mrblast's HSP
  rows, mrsom's accumulator rows — or a ragged bytes column (one uint8
  buffer plus int64 offsets) when payloads have no fixed width.

Optional ``encode_values``/``decode_value`` hooks translate between
application objects and rows at the dataset edge; everything between emit
and reduce then moves as contiguous buffers.

:data:`UNTYPED` is the schema of a dataset nobody described: str keys in a
column as wide as each batch needs, and any picklable value, pickled into
a ragged column by its value hooks.  It is what ``MapReduce(schema=None)``
means.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

__all__ = ["RecordSchema", "RAGGED_BYTES", "UNTYPED", "check_key", "ragged_column"]

#: Sentinel value dtype: variable-length bytes values (buffer + offsets).
RAGGED_BYTES = "ragged_bytes"


def _pickle_values(values: Sequence[Any]) -> list[bytes]:
    """The untyped layout's value encoding, one pickle per value."""
    return [pickle.dumps(v, pickle.HIGHEST_PROTOCOL) for v in values]


def ragged_column(values: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """A ragged bytes column: the values end to end, plus row offsets."""
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, values), dtype=np.int64, count=len(values)),
              out=offsets[1:])
    return np.frombuffer(b"".join(values), dtype=np.uint8), offsets


def check_key(key: Any) -> None:
    """Raise unless ``key`` can be stored: ``TypeError`` for a key that is
    not a str, ``ValueError`` for one ending in NUL, which an 'S' column
    strips."""
    if not isinstance(key, str):
        raise TypeError(f"unsupported key type {type(key).__name__!r}; keys are str")
    if key.endswith("\x00"):
        raise ValueError(
            f"key {key!r} has trailing NUL characters, which 'S' key columns "
            f"cannot represent"
        )


@dataclass(frozen=True)
class RecordSchema:
    """Column layout of one KV dataset (identical on every rank).

    Parameters
    ----------
    key_dtype:
        'S<w>': the key column, each str key's UTF-8 bytes in ``w`` bytes;
        plain 'S' sizes the column per batch.
    value_dtype:
        Structured/plain numpy dtype of the value column, or
        :data:`RAGGED_BYTES` for variable-length bytes values.
    key_kind:
        Accepts only ``"str"``, the one key kind, and is kept so that
        callers written when there were several still construct; it goes
        when the benchmark suite, which passes it, next changes.
    encode_values / decode_value:
        Optional object↔row translators used at the dataset edge (scalar
        ``add``, iteration, reducers).  ``encode_values(values)`` returns a
        ``value_dtype`` array (a list of ``bytes`` for ragged values);
        ``decode_value(row)`` returns the application object for one row.
    """

    key_dtype: Any
    value_dtype: Any
    key_kind: str = "str"
    encode_values: Optional[Callable[[Sequence[Any]], np.ndarray]] = None
    decode_value: Optional[Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        kd = np.dtype(self.key_dtype)
        if kd.kind != "S":
            raise ValueError(f"key_dtype must be an 'S' column of str keys, got {kd}")
        if self.key_kind != "str":
            raise ValueError(f"key_kind must be 'str', got {self.key_kind!r}")
        object.__setattr__(self, "key_dtype", kd)
        if not self.ragged_values:
            object.__setattr__(self, "value_dtype", np.dtype(self.value_dtype))

    # ----------------------------------------------------------------- keys

    @property
    def ragged_values(self) -> bool:
        return isinstance(self.value_dtype, str) and self.value_dtype == RAGGED_BYTES

    def encode_keys(self, keys: Sequence[str] | np.ndarray) -> np.ndarray:
        """Build the key column from str keys, or from an 'S' column of
        their UTF-8 bytes; rejects keys wider than the schema."""
        width = self.key_dtype.itemsize
        if isinstance(keys, np.ndarray) and keys.dtype.kind == "S":
            if width == 0:
                return keys
            if keys.dtype.itemsize <= width:
                return keys.astype(self.key_dtype, copy=False)
            encoded = keys.tolist()  # wider: the width check below decides
        else:
            keys = keys.tolist() if isinstance(keys, np.ndarray) else keys
            try:
                screened = "\x00" not in "".join(keys)  # no NUL anywhere
            except TypeError:  # a key that is not a str
                screened = False
            if not screened:
                for k in keys:
                    check_key(k)
            encoded = [k.encode("utf-8") for k in keys]
        if width and max(map(len, encoded), default=0) > width:
            k = next(k for k in encoded if len(k) > width)
            raise ValueError(
                f"key {k!r} is {len(k)} bytes, wider than the schema's "
                f"{self.key_dtype} key column"
            )
        return np.array(encoded, dtype=self.key_dtype)

    def decode_keys(self, column: np.ndarray) -> list[str]:
        """A stored key column back to str keys, in one pass."""
        return [k.decode("utf-8") for k in column.tolist()]

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


#: Any str key, any picklable value: ``MapReduce(schema=None)``.
UNTYPED = RecordSchema("S", RAGGED_BYTES, encode_values=_pickle_values,
                       decode_value=pickle.loads)
