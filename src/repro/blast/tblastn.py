"""tblastn: protein query against a translated nucleotide database.

The complement of :mod:`repro.blast.blastx` — the database side is
translated in all six frames.  Used when characterised proteins must be
located in uncharacterised nucleotide data (e.g. finding genes in
metagenomic contigs), the other direction of the paper's annotation story.

Each DNA subject expands into up to six translated virtual subjects
(``id|frame±k``); the inner blastp engine searches them — each translated
frame runs through the same batched ungapped kernel and band-compressed
gapped DP as a native protein subject, with its codes hoisted to index
dtype once per virtual subject; hits map back to *nucleotide* subject
coordinates (frame ±k at nt length L):

- frame +k:  nt = (k-1) + 3*aa
- frame -k:  nt = L - (k-1) - 3*aa   (minus strand)

E-values use the whole database's *amino-acid* search space (total
nucleotide length / 3), the standard tblastn convention.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Sequence

import numpy as np

from repro.bio.alphabet import DNA, PROTEIN
from repro.bio.seq import SeqRecord
from repro.blast.blastx import _FRAME_SEP, frame_to_nt, translated_frames
from repro.blast.dbreader import DbPartition
from repro.blast.engine import BlastpEngine
from repro.blast.hsp import HSP, top_hits
from repro.blast.options import BlastOptions

__all__ = ["TblastnEngine", "TranslatedPartition"]


class TranslatedPartition:
    """Adapter presenting a DNA partition as six-frame protein subjects.

    Satisfies the iteration/stats surface the blastp engine's scan loop
    uses; translation happens lazily per subject and is not cached (each
    subject is visited once per search, like the packed volumes).
    """

    def __init__(self, partition: DbPartition, min_aa: int = 10) -> None:
        if partition.kind != "dna":
            raise ValueError("TranslatedPartition wraps nucleotide partitions")
        self._partition = partition
        self.min_aa = min_aa
        #: nt lengths by original subject id (for coordinate mapping)
        self.nt_lengths = dict(zip(partition.ids, partition.lengths))

    @property
    def num_seqs(self) -> int:
        return self._partition.num_seqs  # original subject count (stats)

    @property
    def total_length(self) -> int:
        return max(self._partition.total_length // 3, 1)  # aa search space

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        for sid, codes in self._partition:
            for _signed, frec in translated_frames(SeqRecord(sid, DNA.decode(codes)),
                                                   self.min_aa):
                yield frec.id, PROTEIN.encode(frec.seq)


class TblastnEngine:
    """Translated-database search built on the blastp engine."""

    program = "tblastn"

    def __init__(self, options: BlastOptions, min_frame_aa: int = 10) -> None:
        if options.program not in ("blastp", "blastx"):
            raise ValueError(
                "TblastnEngine takes blastp-style options (protein scoring); "
                f"got program {options.program!r}"
            )
        self.options = options
        self.min_frame_aa = min_frame_aa
        inner = replace(options, program="blastp")
        if inner.db_length_override is not None:
            # DB-split overrides arrive in nucleotides; the translated
            # search space is measured in amino acids.
            inner = replace(
                inner, db_length_override=max(inner.db_length_override // 3, 1)
            )
        self._inner = BlastpEngine(inner)

    @property
    def last_stats(self):
        return self._inner.last_stats

    def search_block(
        self, queries: Sequence[SeqRecord], partition: DbPartition
    ) -> list[HSP]:
        """Search protein queries against one nucleotide partition."""
        translated = TranslatedPartition(partition, min_aa=self.min_frame_aa)
        aa_hits = self._inner.search_block(queries, translated)

        by_query: dict[str, list[HSP]] = {}
        for h in aa_hits:
            sid, frame_txt = h.subject_id.rsplit(_FRAME_SEP, 1)
            signed = int(frame_txt)
            s_start, s_end, strand = frame_to_nt(
                signed, h.s_start, h.s_end, translated.nt_lengths[sid])
            by_query.setdefault(h.query_id, []).append(replace(
                h, subject_id=sid, s_start=s_start, s_end=s_end, strand=strand,
                frame=signed))

        out: list[HSP] = []
        for rec in queries:
            hits = by_query.get(rec.id)
            if hits:
                out.extend(top_hits(hits, self.options.max_hits, self.options.evalue))
        return out
