"""Work-unit construction: the (query block, DB partition) matrix.

"In our implementation of BLAST, we define a work item as a tuple that
combines several query sequences ('query blocks') with one database
partition" (paper §III.A).  Query blocks are pre-split FASTA files (the
paper's setup) or index ranges over one big FASTA (the paper's announced
dynamic-chunking improvement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bio.fasta import FastaIndex, read_fasta
from repro.bio.seq import SeqRecord

__all__ = [
    "WorkItem",
    "build_work_items",
    "load_query_blocks",
    "IndexedQueryBlocks",
    "block_query_ids",
]


@dataclass(frozen=True)
class WorkItem:
    """One sequential unit of work: search one query block in one partition."""

    block_index: int
    partition_index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<block {self.block_index}, partition {self.partition_index}>"


def build_work_items(
    n_blocks: int,
    n_partitions: int,
    order: str = "partition_major",
    block_range: Sequence[int] | None = None,
) -> list[WorkItem]:
    """The n_blocks × n_partitions work matrix (or a slice of its blocks).

    ``partition_major`` lists all blocks of partition 0 first, so
    consecutive units share a partition and the per-rank DB-object cache hits
    often; ``query_major`` is the transpose.  The scaling figures use
    partition-major (the favourable order for DB reload cost, matching the
    caching discussion in §IV.A).

    ``block_range`` restricts generation to those block indices (the
    driver's outer iteration window), producing exactly the items — in the
    same order — that filtering the full matrix would, without ever
    materialising it.
    """
    if n_blocks < 1 or n_partitions < 1:
        raise ValueError(
            f"need at least one block and one partition, got {n_blocks}x{n_partitions}"
        )
    if block_range is None:
        blocks: Sequence[int] = range(n_blocks)
    else:
        blocks = block_range
        if any(b < 0 or b >= n_blocks for b in blocks):
            raise ValueError(f"block_range entries must lie in [0, {n_blocks})")
    if order == "partition_major":
        return [WorkItem(b, p) for p in range(n_partitions) for b in blocks]
    if order == "query_major":
        return [WorkItem(b, p) for b in blocks for p in range(n_partitions)]
    raise ValueError(f"unknown order {order!r}")


def load_query_blocks(block_paths: Sequence[str]) -> list[list[SeqRecord]]:
    """Materialise pre-split query block FASTA files (the paper's layout)."""
    if not block_paths:
        raise ValueError("no query block files given")
    return [list(read_fasta(p)) for p in block_paths]


class IndexedQueryBlocks(Sequence):
    """Query blocks as entry ranges over one indexed FASTA, loaded on demand.

    What :class:`~repro.core.mrblast.driver.MrBlastConfig` takes as
    ``query_blocks`` when nothing was pre-split: indexing block ``i`` reads
    its records with one seek (the last block read stays cached, since a
    rank holding its partition meets the same block again only in
    query-major order), while lengths and ids come from the index.
    """

    def __init__(self, index: FastaIndex, ranges: Sequence[tuple[int, int]]) -> None:
        self.index = index
        self.ranges = list(ranges)
        self._cached: tuple[int, list[SeqRecord]] | None = None

    def __len__(self) -> int:
        return len(self.ranges)

    def __getitem__(self, i: int) -> list[SeqRecord]:
        # Ranks of a thread-backend job share this object: read and replace
        # the cache through one local so a racing rank cannot swap the
        # block out between the check and the return.
        cached = self._cached
        if cached is None or cached[0] != i:
            cached = self._cached = (i, self.index.load_range(*self.ranges[i]))
        return cached[1]

    def ids(self) -> list[list[str]]:
        """Per block, its query ids in input order (no block is loaded)."""
        ids = self.index.ids
        return [ids[start:stop] for start, stop in self.ranges]


def block_query_ids(query_blocks: Sequence[Sequence[SeqRecord]]) -> list[list[str]]:
    """Per block, the ids of its queries in input order.

    The driver's input-order map and the config's emptiness check both go
    through here, so an :class:`IndexedQueryBlocks` plan answers them from
    its index instead of materialising every block on every rank.
    """
    if isinstance(query_blocks, IndexedQueryBlocks):
        return query_blocks.ids()
    return [[rec.id for rec in block] for block in query_blocks]
