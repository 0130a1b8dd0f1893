"""FASTA reading, writing and offset indexing.

``FastaIndex`` implements the paper's announced *future work*: "an index of
sequence offsets in the input FASTA file ... allow[s] selecting the size of
the query blocks dynamically after the start of the program" — the dynamic
chunking ablation uses it.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.bio.seq import SeqRecord

__all__ = ["read_fasta", "write_fasta", "FastaIndex"]


def _open_text(path, mode: str):
    """Open a FASTA path, transparently gzipped when it ends in ``.gz``."""
    if os.fspath(path).endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def read_fasta(source: str | os.PathLike | io.TextIOBase) -> Iterator[SeqRecord]:
    """Stream records from a FASTA file path (``.gz`` supported) or handle."""
    own = isinstance(source, (str, os.PathLike))
    handle = _open_text(source, "r") if own else source
    try:
        header: str | None = None
        chunks: list[str] = []
        for line in handle:
            line = line.rstrip("\n\r")
            if not line:
                continue
            if line.startswith(">"):
                if header is not None:
                    yield _make_record(header, chunks)
                header = line[1:]
                chunks = []
            else:
                if header is None:
                    raise ValueError("FASTA parse error: sequence data before first '>'")
                chunks.append(line.strip())
        if header is not None:
            yield _make_record(header, chunks)
    finally:
        if own:
            handle.close()


def _make_record(header: str, chunks: list[str]) -> SeqRecord:
    parts = header.split(None, 1)
    rec_id = parts[0] if parts else ""
    desc = parts[1] if len(parts) > 1 else ""
    return SeqRecord(rec_id, "".join(chunks), desc)


def write_fasta(
    records: Iterable[SeqRecord],
    dest: str | os.PathLike | io.TextIOBase,
    width: int = 70,
) -> int:
    """Write records; returns the number written."""
    if width < 1:
        raise ValueError(f"line width must be >= 1, got {width}")
    own = isinstance(dest, (str, os.PathLike))
    handle = _open_text(dest, "w") if own else dest
    n = 0
    try:
        for rec in records:
            handle.write(f">{rec.header}\n")
            for i in range(0, len(rec.seq), width):
                handle.write(rec.seq[i : i + width])
                handle.write("\n")
            n += 1
    finally:
        if own:
            handle.close()
    return n


@dataclass
class _IndexEntry:
    id: str
    offset: int  # byte offset of the '>' line
    length: int  # sequence length in bases


class FastaIndex:
    """Byte-offset index over a FASTA file for random access by entry number.

    Built in one sequential pass; afterwards any contiguous range of entries
    can be materialised without re-reading the whole file, which is what
    dynamic query chunking needs.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._entries: list[_IndexEntry] = []
        self._build()

    def _build(self) -> None:
        with open(self.path, "rb") as fh:
            offset = 0
            current: _IndexEntry | None = None
            for line in fh:
                if line.startswith(b">"):
                    if current is not None:
                        self._entries.append(current)
                    rec_id = line[1:].split(None, 1)[0].decode("ascii") if len(line) > 1 else ""
                    current = _IndexEntry(rec_id, offset, 0)
                elif current is not None:
                    current.length += len(line.strip())
                offset += len(line)
            if current is not None:
                self._entries.append(current)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def ids(self) -> list[str]:
        return [e.id for e in self._entries]

    def load_range(self, start: int, stop: int) -> list[SeqRecord]:
        """Materialise records ``start <= i < stop`` via one seek + read."""
        if not (0 <= start <= stop <= len(self._entries)):
            raise IndexError(f"range [{start}, {stop}) outside index of {len(self._entries)}")
        if start == stop:
            return []
        begin = self._entries[start].offset
        end = (
            self._entries[stop].offset
            if stop < len(self._entries)
            else os.path.getsize(self.path)
        )
        with open(self.path, "r", encoding="ascii") as fh:
            fh.seek(begin)
            blob = fh.read(end - begin)
        return list(read_fasta(io.StringIO(blob)))
