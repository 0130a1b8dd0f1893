"""Python port of Sandia's MapReduce-MPI library.

MapReduce-MPI (Plimpton & Devine) implements the MapReduce pattern as a
regular MPI program: no daemons, no distributed file system — key-value pairs
live in the collective memory of the MPI ranks and are exchanged with MPI
calls, spilling to page files when a per-processor memory budget is exceeded
("out-of-core processing").

This port keeps the original object model and call sequence:

- :class:`~repro.mrmpi.mapreduce.MapReduce` — the per-rank MapReduce object;
  collective methods: ``map_items`` (mapstyles: chunk,
  master/worker, whose map can end with every row on rank 0),
  ``aggregate``, ``convert``, ``collate``, ``reduce``, ``sort_kmv_keys``.
- :class:`~repro.mrmpi.columnar.ColumnarKeyValue` — a pageable store of
  (key, value) pairs; mappers and reducers emit into it with ``add`` or
  ``add_batch``.
- :class:`~repro.mrmpi.columnar.ColumnarKeyMultiValue` — (key, values)
  groups produced by ``convert``/``collate``.
- :class:`~repro.mrmpi.schema.RecordSchema` — the column layout of a
  dataset; keys are str, and :data:`~repro.mrmpi.schema.UNTYPED`
  (``schema=None``) takes any str key and any picklable value.

The paper's two applications use exactly this surface: BLAST uses
``map_items`` (master/worker) → ``collate`` → ``reduce``; the SOM uses
``map_items`` plus direct MPI calls (``Bcast``/``Reduce``) and no reduce
stage.
"""

from repro.mrmpi.columnar import (
    ColumnarKeyMultiValue,
    ColumnarKeyValue,
    convert_columnar,
    sort_kmv_columnar,
)
from repro.mrmpi.mapreduce import KEEP_SCHEMA, MapReduce, MapStyle
from repro.mrmpi.hashing import hash_key_column
from repro.mrmpi.schema import RAGGED_BYTES, UNTYPED, RecordSchema

__all__ = [
    "MapReduce",
    "MapStyle",
    "ColumnarKeyValue",
    "ColumnarKeyMultiValue",
    "RecordSchema",
    "RAGGED_BYTES",
    "UNTYPED",
    "KEEP_SCHEMA",
    "convert_columnar",
    "sort_kmv_columnar",
    "hash_key_column",
]
