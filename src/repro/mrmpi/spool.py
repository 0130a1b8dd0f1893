"""Page spill files for out-of-core key-value processing.

MapReduce-MPI transparently pages its KV/KMV stores to per-processor files
when the working set exceeds the configured memory budget.  The paper leans
on this ("out-of-core processing") and explains that mrblast loops over query
subsets precisely to keep the working set in memory because Ranger has no
node-local scratch.  This module provides the paging primitive: an
append-only sequence of pages on disk with streaming read-back *and* random
page access (the external merge sort reads runs by page index).

Two page formats share one spool file, distinguished by a tag byte:

- **object pages** (tag ``0``): pickled lists of records — the legacy path
  for arbitrary Python keys/values;
- **array pages** (tag ``1``): a tuple of raw numpy buffers in ``np.save``
  frames (``.npy`` header, then the rows) — the columnar path.  No pickle
  touches these pages, each buffer crosses the file boundary once in
  either direction, and :meth:`PageSpool.write_arrays` returns the
  *exact* number of bytes written, which is what the columnar stores use
  for byte accounting instead of :func:`approx_size` estimates.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
from typing import Any, Iterable, Iterator

import numpy as np

from repro.obs.trace import current_tracer

__all__ = ["PageSpool", "approx_size"]

_TAG_OBJECT = 0
_TAG_ARRAYS = 1


#: what :func:`approx_size`'s ladder ends in for the scalars reducers emit
#: by the thousand (``getsizeof`` is 24-32 bytes for them, under the floor)
_SCALAR_SIZE = {int: 48, float: 48, bool: 48, type(None): 48}


def approx_size(obj: Any) -> int:
    """Cheap size estimate (bytes) used for the paging threshold.

    Exact accounting is not required on the object path — the real library
    also tracks page occupancy approximately — but the estimate must grow
    with payload size so big values trigger spills.  Columnar pages do not
    use this at all: their occupancy is the exact sum of array ``nbytes``.
    """
    size = _SCALAR_SIZE.get(type(obj))
    if size is not None:
        return size
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 33
    if isinstance(obj, str):
        return len(obj) + 49
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96
    if isinstance(obj, (tuple, list)):
        return 56 + sum(approx_size(x) for x in obj)
    if isinstance(obj, dict):
        return 64 + sum(approx_size(k) + approx_size(v) for k, v in obj.items())
    if hasattr(obj, "__dataclass_fields__"):
        # getsizeof ignores attribute payloads; records like HSPs are the
        # dominant KV values, so count their fields.
        return 64 + sum(
            approx_size(getattr(obj, name)) for name in obj.__dataclass_fields__
        )
    return max(sys.getsizeof(obj), 48)


class PageSpool:
    """Append-only spill storage: write pages of records, read them back.

    One spool owns one file.  Every page is framed as ``tag byte + u64
    payload length + payload``; page start offsets are kept in memory so
    :meth:`read_page` can fetch any page directly — sequential iteration
    (:meth:`iter_pages`) and the merge sort's random run access share the
    same frames.
    """

    def __init__(self, dir: str | None = None, prefix: str = "mrmpi") -> None:
        fd, self._path = tempfile.mkstemp(prefix=f"{prefix}.", suffix=".page", dir=dir)
        self._file = os.fdopen(fd, "w+b")
        self._offsets: list[int] = []
        #: array pages: page -> (file offset of the rows, dtype, shape) per array
        self._layout: dict[int, list[tuple[int, np.dtype, tuple]]] = {}
        self._end = 0
        self._nrecords = 0
        self._closed = False

    @property
    def path(self) -> str:
        return self._path

    @property
    def npages(self) -> int:
        return len(self._offsets)

    @property
    def nrecords(self) -> int:
        return self._nrecords

    @property
    def nbytes(self) -> int:
        """Exact bytes written to the spool file so far (frames included)."""
        return self._end

    def _begin_page(self, tag: int) -> None:
        if self._closed:
            raise ValueError("spool is closed")
        self._offsets.append(self._end)
        self._file.seek(self._end)
        self._file.write(bytes([tag]))

    def _finish_page(self, nrecords: int) -> int:
        start = self._offsets[-1]
        self._end = self._file.tell()
        self._nrecords += nrecords
        return self._end - start

    def write_page(self, records: Iterable[Any]) -> int:
        """Append one object (pickled) page; returns the record count."""
        records = list(records)
        blob = pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)
        self._begin_page(_TAG_OBJECT)
        self._file.write(len(blob).to_bytes(8, "little"))
        self._file.write(blob)
        nbytes = self._finish_page(len(records))
        trc = current_tracer()
        if trc.enabled:
            trc.instant("spool.write", cat="spool", page=len(self._offsets) - 1,
                        records=len(records), bytes=nbytes)
            trc.metrics.counter("spool.pages_written").inc()
            trc.metrics.counter("spool.bytes_written").add(nbytes)
        return len(records)

    def write_arrays(self, arrays: tuple[np.ndarray, ...], nrecords: int) -> int:
        """Append one binary array page; returns the *exact* bytes written.

        The payload is the concatenation of ``np.save`` frames — raw buffers
        plus numpy's tiny self-describing header, no pickle — so dtype and
        shape round-trip exactly, including structured dtypes with subarray
        fields.  The header is written by :mod:`numpy.lib.format` and the
        buffer handed to the file as it stands (``np.save`` on a buffered
        file goes through ``tobytes()``, a second copy of every page).
        """
        self._begin_page(_TAG_ARRAYS)
        self._file.write(len(arrays).to_bytes(8, "little"))
        layout = self._layout[len(self._offsets) - 1] = []
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            np.lib.format.write_array_header_1_0(
                self._file, np.lib.format.header_data_from_array_1_0(arr))
            layout.append((self._file.tell(), arr.dtype, arr.shape))
            self._file.write(arr.reshape(-1).view(np.uint8))
        nbytes = self._finish_page(nrecords)
        trc = current_tracer()
        if trc.enabled:
            trc.instant("spool.write", cat="spool", page=len(self._offsets) - 1,
                        records=nrecords, bytes=nbytes)
            trc.metrics.counter("spool.pages_written").inc()
            trc.metrics.counter("spool.bytes_written").add(nbytes)
        return nbytes

    def read_page(self, index: int) -> Any:
        """Read page ``index``: a list (object page) or tuple of arrays."""
        if self._closed:
            raise ValueError("spool is closed")
        if not (0 <= index < len(self._offsets)):
            raise IndexError(f"page {index} out of range [0, {len(self._offsets)})")
        trc = current_tracer()
        if trc.enabled:
            trc.instant("spool.read", cat="spool", page=index)
            trc.metrics.counter("spool.pages_read").inc()
        layout = self._layout.get(index)
        if layout is not None:  # an array page: every buffer read in place
            return tuple(self.read_rows(index, i, 0, shape[0])
                         for i, (_start, _dtype, shape) in enumerate(layout))
        self._file.flush()
        self._file.seek(self._offsets[index] + 1)
        count = int.from_bytes(self._file.read(8), "little")
        return pickle.loads(self._file.read(count))

    def page_rows(self, index: int) -> int:
        """Row count of array page ``index`` (the length of its first array)."""
        return self._layout[index][0][2][0]

    def read_rows(self, index: int, array: int, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` of one array of an array page, read in place: what
        lets a sorted page serve as a merge run, whose chunks are row ranges."""
        if self._closed:
            raise ValueError("spool is closed")
        start, dtype, shape = self._layout[index][array]
        out = np.empty((hi - lo,) + shape[1:], dtype=dtype)
        if out.nbytes:
            self._file.flush()
            self._file.seek(start + lo * (out.nbytes // (hi - lo)))
            self._file.readinto(out.reshape(-1).view(np.uint8))
        return out

    def iter_pages(self) -> Iterator[Any]:
        """Stream pages back in write order."""
        for index in range(len(self._offsets)):
            yield self.read_page(index)

    def iter_records(self) -> Iterator[Any]:
        for page in self.iter_pages():
            yield from page

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._file.close()
            finally:
                try:
                    os.unlink(self._path)
                except OSError:
                    pass

    def __enter__(self) -> "PageSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
