"""blastx: translated nucleotide query against a protein database.

The paper's introduction motivates exactly this workload: "the searches are
done for the protein sequences, which ... [are] predicted on such reads
protein fragments".  blastx searches all six reading frames of each DNA
query with the blastp machinery and reports hits in *nucleotide* query
coordinates.

Implementation: each query is expanded into up to six frame records
(frames +1/+2/+3 on the forward strand, -1/-2/-3 on the reverse
complement); the inner :class:`~repro.blast.engine.BlastpEngine` searches
them as a block — the compiled stage 1-3 kernels, per-stage timings and
the ``band_width`` option all flow through unchanged; coordinates map back
as

- frame +k:  nt = (k-1) + 3*aa
- frame -k:  nt = L - (k-1) - 3*aa   (alignment reported on the minus strand)

Per-query top-K selection happens after merging all frames, as NCBI does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.bio.seq import SeqRecord, reverse_complement, translate
from repro.blast.dbreader import DbPartition
from repro.blast.engine import BlastpEngine
from repro.blast.hsp import HSP, top_hits
from repro.blast.options import BlastOptions

__all__ = ["BlastxEngine", "frame_to_nt", "translated_frames"]

_FRAME_SEP = "|frame"


def translated_frames(record: SeqRecord, min_aa: int = 10) -> list[tuple[int, SeqRecord]]:
    """All six translated frames of a DNA record.

    Stop codons translate to ``*`` rather than truncating; frames shorter
    than ``min_aa`` residues are dropped.
    """
    out: list[tuple[int, SeqRecord]] = []
    rc = reverse_complement(record.seq)
    for frame in (1, 2, 3):
        for strand_seq, signed in ((record.seq, frame), (rc, -frame)):
            # Translate through stop codons: a stop becomes "*" (BLOSUM62
            # score -4), as real translated searches do — truncating at the
            # first stop would hide genes behind untranslated flanks.
            protein = translate(strand_seq, frame=frame - 1, stop=False)
            if len(protein) >= min_aa:
                out.append(
                    (signed, SeqRecord(f"{record.id}{_FRAME_SEP}{signed:+d}", protein))
                )
    return out


def frame_to_nt(signed: int, start: int, end: int, nt_len: int) -> tuple[int, int, int]:
    """Amino-acid range ``[start, end)`` of frame ``signed`` of a DNA
    sequence of ``nt_len`` bases as ``(nt_start, nt_end, strand)``."""
    shift = abs(signed) - 1
    if signed > 0:
        return shift + 3 * start, shift + 3 * end, 1
    return nt_len - shift - 3 * end, nt_len - shift - 3 * start, -1


class BlastxEngine:
    """Translated search built on the blastp engine."""

    program = "blastx"

    def __init__(self, options: BlastOptions, min_frame_aa: int = 10) -> None:
        if options.program not in ("blastp", "blastx"):
            raise ValueError(
                "BlastxEngine takes blastp-style options (protein scoring); "
                f"got program {options.program!r}"
            )
        self.options = options
        self.min_frame_aa = min_frame_aa
        self._inner = BlastpEngine(replace(options, program="blastp"))

    @property
    def last_stats(self):
        return self._inner.last_stats

    @property
    def lookup_cache(self):
        return self._inner.lookup_cache

    def set_lookup_cache(self, cache) -> None:
        """Forward the cross-partition lookup cache to the inner engine.

        Frame records are re-derived per call, but the cache key is content
        based (id, length, string hash), so identical queries hit across
        partitions regardless.
        """
        self._inner.set_lookup_cache(cache)

    def search_block(
        self, queries: Sequence[SeqRecord], partition: DbPartition
    ) -> list[HSP]:
        """Search DNA queries against a protein partition."""
        frame_records: list[SeqRecord] = []
        frame_of: dict[str, tuple[str, int, int]] = {}
        for rec in queries:
            for signed, frec in translated_frames(rec, self.min_frame_aa):
                frame_records.append(frec)
                frame_of[frec.id] = (rec.id, signed, len(rec.seq))
        if not frame_records:
            return []
        aa_hits = self._inner.search_block(frame_records, partition)

        by_query: dict[str, list[HSP]] = {}
        for h in aa_hits:
            query_id, signed, nt_len = frame_of[h.query_id]
            q_start, q_end, strand = frame_to_nt(signed, h.q_start, h.q_end, nt_len)
            mapped = replace(h, query_id=query_id, q_start=q_start, q_end=q_end,
                             strand=strand, frame=signed)
            by_query.setdefault(query_id, []).append(mapped)

        out: list[HSP] = []
        for rec in queries:
            hits = by_query.get(rec.id)
            if hits:
                out.extend(top_hits(hits, self.options.max_hits, self.options.evalue))
        return out
