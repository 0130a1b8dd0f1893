"""Page spill files for out-of-core key-value processing.

MapReduce-MPI transparently pages its KV/KMV stores to per-processor files
when the working set exceeds the configured memory budget.  The paper leans
on this ("out-of-core processing") and explains that mrblast loops over query
subsets precisely to keep the working set in memory because Ranger has no
node-local scratch.  This module provides the paging primitive: an
append-only sequence of pages on disk with streaming read-back *and* random
page access (the external merge sort reads runs by page index).

A page is a tuple of raw numpy buffers in ``np.save`` frames (``.npy``
header, then the rows).  No pickle touches a page, each buffer crosses the
file boundary once in either direction, and
:meth:`PageSpool.write_arrays` returns the *exact* number of bytes written,
which is what the stores' byte accounting uses.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterator

import numpy as np

from repro.obs.trace import current_tracer

__all__ = ["PageSpool"]


class PageSpool:
    """Append-only spill storage: write pages of arrays, read them back.

    One spool owns one file.  Every page is framed as ``u64 array count +
    np.save frames``; where each buffer starts is kept in memory, so
    :meth:`read_page` and :meth:`read_rows` fetch any page or row range
    directly — sequential iteration (:meth:`iter_pages`) and the merge
    sort's random run access share the same frames.
    """

    def __init__(self, dir: str | None = None, prefix: str = "mrmpi") -> None:
        fd, self._path = tempfile.mkstemp(prefix=f"{prefix}.", suffix=".page", dir=dir)
        self._file = os.fdopen(fd, "w+b")
        #: page -> (file offset of the rows, dtype, shape) per array
        self._layout: list[list[tuple[int, np.dtype, tuple]]] = []
        self._end = 0
        self._closed = False

    @property
    def path(self) -> str:
        return self._path

    @property
    def npages(self) -> int:
        return len(self._layout)

    @property
    def nbytes(self) -> int:
        """Exact bytes written to the spool file so far (frames included)."""
        return self._end

    def write_arrays(self, arrays: tuple[np.ndarray, ...], nrecords: int) -> int:
        """Append one array page; returns the *exact* bytes written.

        The payload is the concatenation of ``np.save`` frames — raw buffers
        plus numpy's tiny self-describing header, no pickle — so dtype and
        shape round-trip exactly, including structured dtypes with subarray
        fields.  The header is written by :mod:`numpy.lib.format` and the
        buffer handed to the file as it stands (``np.save`` on a buffered
        file goes through ``tobytes()``, a second copy of every page).
        """
        if self._closed:
            raise ValueError("spool is closed")
        start = self._end
        self._file.seek(start)
        self._file.write(len(arrays).to_bytes(8, "little"))
        layout = []
        self._layout.append(layout)
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            np.lib.format.write_array_header_1_0(
                self._file, np.lib.format.header_data_from_array_1_0(arr))
            layout.append((self._file.tell(), arr.dtype, arr.shape))
            self._file.write(arr.reshape(-1).view(np.uint8))
        self._end = self._file.tell()
        nbytes = self._end - start
        trc = current_tracer()
        if trc.enabled:
            trc.instant("spool.write", cat="spool", page=len(self._layout) - 1,
                        records=nrecords, bytes=nbytes)
        return nbytes

    def read_page(self, index: int) -> tuple[np.ndarray, ...]:
        """Read page ``index``: its tuple of arrays, every buffer read in place."""
        if self._closed:
            raise ValueError("spool is closed")
        if not (0 <= index < len(self._layout)):
            raise IndexError(f"page {index} out of range [0, {len(self._layout)})")
        trc = current_tracer()
        if trc.enabled:
            trc.instant("spool.read", cat="spool", page=index)
        return tuple(self.read_rows(index, i, 0, shape[0])
                     for i, (_start, _dtype, shape) in enumerate(self._layout[index]))

    def page_rows(self, index: int) -> int:
        """Row count of page ``index`` (the length of its first array)."""
        return self._layout[index][0][2][0]

    def read_rows(self, index: int, array: int, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` of one array of a page, read in place: what
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

    def iter_pages(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Stream pages back in write order."""
        for index in range(len(self._layout)):
            yield self.read_page(index)

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
