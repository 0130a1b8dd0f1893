"""Readers for partitioned database volumes.

``DbPartition`` memory-maps one volume's packed sequence file (the paper:
"the database access is implemented by caching memory-mapped regions of the
DB") and decodes individual subjects on demand.  ``DatabaseAlias`` exposes
the global statistics every partition search needs for full-DB E-values.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.blast.formatdb import unpack_2bit

__all__ = ["DatabaseAlias", "DbPartition"]

#: ``np.load`` parses a ``.npy`` header with ``ast.literal_eval``, which is
#: not thread-safe on CPython 3.11 (gh-106905: a parse interleaved with
#: another thread's raises ``SystemError: AST constructor recursion depth
#: mismatch``), so thread-backend ranks open volumes one at a time.
_LOAD_LOCK = threading.Lock()


@dataclass(frozen=True)
class DatabaseAlias:
    """Parsed alias file: the volume list plus whole-database statistics."""

    name: str
    kind: str
    directory: str
    volumes: tuple[str, ...]
    total_length: int
    num_seqs: int

    @staticmethod
    def load(alias_path: str | os.PathLike) -> "DatabaseAlias":
        alias_path = os.fspath(alias_path)
        with open(alias_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return DatabaseAlias(
            name=data["name"],
            kind=data["kind"],
            directory=os.path.dirname(os.path.abspath(alias_path)),
            volumes=tuple(data["volumes"]),
            total_length=int(data["total_length"]),
            num_seqs=int(data["num_seqs"]),
        )

    @property
    def num_partitions(self) -> int:
        return len(self.volumes)

    def partition_path(self, index: int) -> str:
        if not (0 <= index < len(self.volumes)):
            raise IndexError(f"partition {index} outside [0, {len(self.volumes)})")
        return os.path.join(self.directory, self.volumes[index])

    def open_partition(self, index: int) -> "DbPartition":
        return DbPartition(self.partition_path(index))


class DbPartition:
    """One packed volume: lazily mapped, decoded per subject on access."""

    def __init__(self, base_path: str | os.PathLike) -> None:
        self.base_path = os.fspath(base_path)
        with open(self.base_path + ".idx.json", "r", encoding="utf-8") as fh:
            header = json.load(fh)
        self.kind: str = header["kind"]
        self.ids: list[str] = header["ids"]
        self.lengths: list[int] = [int(x) for x in header["lengths"]]
        self.offsets: list[int] = [int(x) for x in header["offsets"]]
        self.total_length: int = int(header["total_length"])
        self._data: np.ndarray | None = None

    @property
    def num_seqs(self) -> int:
        return len(self.ids)

    def _ensure_loaded(self) -> np.ndarray:
        if self._data is None:
            with _LOAD_LOCK:
                self._data = np.load(self.base_path + ".seq.npy", mmap_mode="r")
        return self._data

    def codes(self, i: int) -> np.ndarray:
        """Decoded uint8 codes of subject ``i``."""
        if not (0 <= i < self.num_seqs):
            raise IndexError(f"subject {i} outside [0, {self.num_seqs})")
        data = self._ensure_loaded()
        off, length = self.offsets[i], self.lengths[i]
        if self.kind == "dna":
            byte_start = off // 4
            # Sequences are concatenated before packing, so a subject may
            # start mid-byte; decode the covering byte range then trim.
            byte_end = (off + length + 3) // 4
            decoded = unpack_2bit(np.asarray(data[byte_start:byte_end]), (byte_end - byte_start) * 4)
            head = off - byte_start * 4
            return decoded[head : head + length]
        return np.asarray(data[off : off + length])

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        """Stream ``(subject_id, codes)`` pairs — the scan loop's input."""
        for i in range(self.num_seqs):
            yield self.ids[i], self.codes(i)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DbPartition({self.base_path}, seqs={self.num_seqs}, residues={self.total_length})"
