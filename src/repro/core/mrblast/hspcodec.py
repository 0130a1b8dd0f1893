"""HSP ⇄ structured-array codec: mrblast's record schema for the columnar
KV plane.

An :class:`~repro.blast.hsp.HSP` is twelve numbers and two ids — a natural
structured-array row.  Keyed by query id, a whole work unit's hits become
one ``(key column, HSP row array)`` batch, so the shuffle moves contiguous
buffers instead of pickled dataclasses.

Round-trip exactness is what the parity tests pin: ints and IEEE-754
doubles are stored verbatim (``<i8``/``<f8``), ids as fixed-width UTF-8
bytes.  Ids wider than the configured column (or ending in NUL, which
fixed-width 'S' fields cannot represent) are rejected at encode time with a
clear error rather than silently truncated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.blast.hsp import HSP
from repro.mrmpi.schema import RecordSchema

__all__ = ["DEFAULT_ID_WIDTH", "hsp_dtype", "hsp_schema", "encode_hsps", "decode_hsp"]

#: Default byte width of the query/subject id columns.
DEFAULT_ID_WIDTH = 64

_INT_FIELDS = (
    "score",
    "q_start",
    "q_end",
    "s_start",
    "s_end",
    "identities",
    "align_len",
    "gaps",
    "strand",
    "frame",
)
_FLOAT_FIELDS = ("bit_score", "evalue")


def hsp_dtype(id_width: int = DEFAULT_ID_WIDTH) -> np.dtype:
    """Structured dtype of one HSP row."""
    if id_width < 1:
        raise ValueError(f"id_width must be >= 1, got {id_width}")
    return np.dtype(
        [("query_id", f"S{id_width}"), ("subject_id", f"S{id_width}")]
        + [(name, "<i8") for name in _INT_FIELDS]
        + [(name, "<f8") for name in _FLOAT_FIELDS]
    )


def _encode_id(text: str, width: int) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > width:
        raise ValueError(
            f"sequence id {text!r} is {len(raw)} bytes, wider than the id "
            f"column (id_width={width}); raise id_width"
        )
    if raw.endswith(b"\x00"):
        raise ValueError(
            f"sequence id {text!r} ends with a NUL byte, which fixed-width 'S' "
            f"columns cannot represent; the id cannot be stored"
        )
    return raw


def encode_hsps(hsps: Sequence[HSP], id_width: int = DEFAULT_ID_WIDTH) -> np.ndarray:
    """Encode HSPs into one structured row array."""
    arr = np.empty(len(hsps), dtype=hsp_dtype(id_width))
    arr["query_id"] = [_encode_id(h.query_id, id_width) for h in hsps]
    arr["subject_id"] = [_encode_id(h.subject_id, id_width) for h in hsps]
    for name in _INT_FIELDS:
        arr[name] = [getattr(h, name) for h in hsps]
    for name in _FLOAT_FIELDS:
        arr[name] = [getattr(h, name) for h in hsps]
    return arr


def decode_hsp(row: np.void) -> HSP:
    """One stored row back to an :class:`HSP` (exact round-trip)."""
    return HSP(
        query_id=bytes(row["query_id"]).decode("utf-8"),
        subject_id=bytes(row["subject_id"]).decode("utf-8"),
        score=int(row["score"]),
        bit_score=float(row["bit_score"]),
        evalue=float(row["evalue"]),
        q_start=int(row["q_start"]),
        q_end=int(row["q_end"]),
        s_start=int(row["s_start"]),
        s_end=int(row["s_end"]),
        identities=int(row["identities"]),
        align_len=int(row["align_len"]),
        gaps=int(row["gaps"]),
        strand=int(row["strand"]),
        frame=int(row["frame"]),
    )


def hsp_schema(id_width: int = DEFAULT_ID_WIDTH) -> RecordSchema:
    """The (query id → HSP) record schema used by the mrblast driver."""
    return RecordSchema(
        key_dtype=f"S{id_width}",
        value_dtype=hsp_dtype(id_width),
        encode_values=lambda hsps: encode_hsps(hsps, id_width),
        decode_value=decode_hsp,
    )
