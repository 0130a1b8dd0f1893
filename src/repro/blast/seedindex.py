"""Prototype of the paper's §V "ground-breaking" idea: a distributed DB seed index.

"The really ground breaking parallel implementation of BLAST would be based
on a global distributed index of the DB seeds, thus improving upon the
linear complexity of the current implementations relative to the DB size."

This module is that prototype, at nucleotide word granularity:

- **Build** (collective): every rank scans its share of the DB partitions
  and emits ``(word, posting)`` pairs through a MapReduce collate, so each
  word's postings land on the rank that owns it (``stable_hash(word) %
  nprocs``) — a global index partitioned by seed, not by DB sequence.
- **Query** (collective): ranks compute the words of their share of the
  queries, route word lookups to the owners with one ``alltoall``, receive
  postings back with a second, and count (subject, diagonal) agreement.
  Subjects reaching ``min_word_hits`` on some diagonal band are candidate
  matches.

Unlike the scan-based engine, query cost scales with the number of *query*
words and matching postings, independent of total DB length — exactly the
complexity improvement the paper sketches.  The prototype stops at
candidate generation (the expensive part the index removes); extensions
would proceed with the existing stage-2/3 machinery.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bio.seq import SeqRecord
from repro.blast.dbreader import DatabaseAlias
from repro.blast.lookup import QueryBlock, _pack_words, nucleotide_postings
from repro.mpi.comm import Comm
from repro.mrmpi.hashing import stable_hash

__all__ = ["DistributedSeedIndex", "Candidate"]


@dataclass(frozen=True)
class Candidate:
    """A candidate match: query/subject pair with seed support."""

    query_id: str
    subject_id: str
    strand: int
    word_hits: int
    best_diagonal: int

    def sort_key(self):
        return (-self.word_hits, self.subject_id, self.strand, self.best_diagonal)


class DistributedSeedIndex:
    """Seed-partitioned global index of a formatted database."""

    def __init__(self, comm: Comm, alias: DatabaseAlias, word_size: int = 11) -> None:
        if alias.kind != "dna":
            raise ValueError("the seed-index prototype supports nucleotide DBs")
        if not (4 <= word_size <= 15):
            raise ValueError(f"word_size must be in [4, 15], got {word_size}")
        self.comm = comm
        self.alias = alias
        self.word_size = word_size
        #: word -> list of (subject_id, position) postings owned by this rank
        self._postings: dict[int, list[tuple[str, int]]] = {}
        self.total_postings = 0
        self._build()

    # ------------------------------------------------------------------ build

    def _owners(self, words: np.ndarray) -> np.ndarray:
        """Owner rank of each word; hashes each distinct word only once."""
        uniq, inv = np.unique(words, return_inverse=True)
        cache = self._owner_cache
        size = self.comm.size
        owners_u = np.empty(uniq.size, dtype=np.int64)
        for i, w in enumerate(uniq.tolist()):
            owner = cache.get(w)
            if owner is None:
                owner = stable_hash(w) % size
                cache[w] = owner
            owners_u[i] = owner
        return owners_u[inv]

    def _build(self) -> None:
        comm = self.comm
        # Each rank scans a strided share of the partitions and buckets the
        # (word, posting) pairs by owner rank; word ownership is computed
        # per distinct word over the whole subject, not per position.
        self._owner_cache: dict[int, int] = {}
        # Per-destination column batches — (words, subject ids, positions)
        # as parallel arrays rather than tuples, so the exchange is three
        # contiguous buffers per peer (zero-copy on an arena transport)
        # instead of a pickled list of per-posting tuples.
        out_words: list[list[np.ndarray]] = [[] for _ in range(comm.size)]
        out_sids: list[list[np.ndarray]] = [[] for _ in range(comm.size)]
        out_pos: list[list[np.ndarray]] = [[] for _ in range(comm.size)]
        for p in range(comm.rank, self.alias.num_partitions, comm.size):
            partition = self.alias.open_partition(p)
            for sid, codes in partition:
                words = _pack_words(codes, self.word_size, 4)
                if words.size == 0:
                    continue
                owners = self._owners(words)
                for r in np.unique(owners).tolist():
                    sel = np.flatnonzero(owners == r)
                    out_words[r].append(words[sel])
                    out_sids[r].append(np.full(sel.size, sid))
                    out_pos[r].append(sel.astype(np.int64, copy=False))
        outgoing = [
            None if not out_words[r] else (
                np.concatenate(out_words[r]),
                np.concatenate(out_sids[r]),
                np.concatenate(out_pos[r]),
            )
            for r in range(comm.size)
        ]
        incoming = comm.alltoall(outgoing)
        for batch in incoming:
            if batch is None:
                continue
            w_col, sid_col, pos_col = batch
            for w, sid, pos in zip(
                w_col.tolist(), sid_col.tolist(), pos_col.tolist()
            ):
                self._postings.setdefault(w, []).append((sid, pos))
                self.total_postings += 1

    @property
    def local_words(self) -> int:
        return len(self._postings)

    def global_stats(self) -> tuple[int, int]:
        """Collective: (total distinct-word entries across ranks, postings)."""
        from repro.mpi.ops import SUM

        return (
            int(self.comm.allreduce(self.local_words, op=SUM)),
            int(self.comm.allreduce(self.total_postings, op=SUM)),
        )

    # ------------------------------------------------------------------ query

    def candidates(
        self,
        queries: Sequence[SeqRecord],
        min_word_hits: int = 2,
        diagonal_band: int = 16,
    ) -> dict[str, list[Candidate]]:
        """Collective candidate lookup for a shared query list.

        Every rank passes the same ``queries``; rank r processes queries
        ``r::size`` and the final dictionary (query id -> candidates sorted
        by support) is allgathered so all ranks return the same result.

        Two word hits within ``diagonal_band`` of each other count toward
        the same alignment (the index-level analogue of the two-hit rule).
        """
        if min_word_hits < 1:
            raise ValueError(f"min_word_hits must be >= 1, got {min_word_hits}")
        comm = self.comm
        my_queries = list(queries)[comm.rank :: comm.size]

        # Phase 1: route (request_id, word, q_pos) lookups to word owners,
        # shipped as three parallel int64 columns per destination so the
        # exchange stays on the transport's buffer fast path.
        requests: list[tuple | None] = [None] * comm.size
        contexts: list[tuple[str, int]] = []  # request id -> (query id, strand)
        if my_queries:
            block = QueryBlock(my_queries, "blastn", use_mask=True)
            contexts = [(block.records[c.query_index].id, c.strand) for c in block.contexts]
            words, positions = nucleotide_postings(block, self.word_size)
            rids, q_local = block.localize(positions)
            owners = self._owners(words)
            for r in np.unique(owners).tolist():
                sel = np.flatnonzero(owners == r)
                requests[r] = (rids[sel], words[sel], q_local[sel])

        incoming = comm.alltoall(requests)

        # Phase 2: owners answer with postings per request — columns again:
        # (request id, q_pos, subject id, s_pos).
        rep_rid: list[list[int]] = [[] for _ in range(comm.size)]
        rep_qpos: list[list[int]] = [[] for _ in range(comm.size)]
        rep_sid: list[list[str]] = [[] for _ in range(comm.size)]
        rep_spos: list[list[int]] = [[] for _ in range(comm.size)]
        for src, batch in enumerate(incoming):
            if batch is None:
                continue
            rid_col, w_col, q_col = batch
            for rid, w, q_pos in zip(
                rid_col.tolist(), w_col.tolist(), q_col.tolist()
            ):
                for sid, s_pos in self._postings.get(w, ()):
                    rep_rid[src].append(rid)
                    rep_qpos[src].append(q_pos)
                    rep_sid[src].append(sid)
                    rep_spos[src].append(s_pos)
        replies = [
            None if not rep_rid[src] else (
                np.asarray(rep_rid[src], dtype=np.int64),
                np.asarray(rep_qpos[src], dtype=np.int64),
                np.asarray(rep_sid[src]),
                np.asarray(rep_spos[src], dtype=np.int64),
            )
            for src in range(comm.size)
        ]
        answers = comm.alltoall(replies)

        # Phase 3: per (query, subject, strand), count diagonal-banded hits.
        support: dict[tuple[int, str], dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for batch in answers:
            if batch is None:
                continue
            rid_col, qp_col, sid_col, sp_col = batch
            for rid, q_pos, sid, s_pos in zip(
                rid_col.tolist(), qp_col.tolist(),
                sid_col.tolist(), sp_col.tolist(),
            ):
                band = (s_pos - q_pos) // max(diagonal_band, 1)
                support[(rid, sid)][band] += 1

        local: dict[str, list[Candidate]] = defaultdict(list)
        for (rid, sid), bands in support.items():
            best_band, hits = max(bands.items(), key=lambda kv: (kv[1], -kv[0]))
            if hits < min_word_hits:
                continue
            query_id, strand = contexts[rid]
            local[query_id].append(
                Candidate(
                    query_id=query_id,
                    subject_id=sid,
                    strand=strand,
                    word_hits=hits,
                    best_diagonal=best_band * diagonal_band,
                )
            )
        for cands in local.values():
            cands.sort(key=Candidate.sort_key)

        merged: dict[str, list[Candidate]] = {}
        for part in self.comm.allgather(dict(local)):
            merged.update(part)
        return merged
