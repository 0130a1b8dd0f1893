"""High-Scoring Pairs: the unit of BLAST output.

An HSP records one local alignment between a query and a database sequence.
mrblast emits HSPs as MapReduce values keyed by query id (Fig. 1), so HSPs
must be cheap to pickle and carry everything the reduce step and the tabular
formatter need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["HSP", "cull_overlapping", "top_hits"]


@dataclass(frozen=True, order=False)
class HSP:
    """One local alignment.

    Coordinates are 0-based half-open on the *plus* strand of each sequence;
    ``strand`` is +1 or -1 for the subject orientation relative to the query
    (nucleotide searches scan both strands).
    """

    query_id: str
    subject_id: str
    score: int
    bit_score: float
    evalue: float
    q_start: int
    q_end: int
    s_start: int
    s_end: int
    identities: int
    align_len: int
    gaps: int = 0
    strand: int = 1
    #: 0 for untranslated searches; ±1..±3 when one side was translated
    #: (blastx translates the query, tblastn the subject): that side's
    #: coordinates are then nucleotide positions while alignment statistics
    #: count amino-acid columns.
    frame: int = 0

    def __post_init__(self) -> None:
        if self.q_end <= self.q_start:
            raise ValueError(f"empty query range [{self.q_start}, {self.q_end})")
        if self.s_end <= self.s_start:
            raise ValueError(f"empty subject range [{self.s_start}, {self.s_end})")
        if self.strand not in (1, -1):
            raise ValueError(f"strand must be +1 or -1, got {self.strand}")
        if self.frame not in (0, 1, 2, 3, -1, -2, -3):
            raise ValueError(f"frame must be 0 or ±1..±3, got {self.frame}")
        q_span = self.q_end - self.q_start
        s_span = self.s_end - self.s_start
        if self.frame == 0:
            needed = max(q_span, s_span)
        else:
            # One side (unknown to the record itself) is nucleotide-scaled:
            # accept whichever interpretation is consistent.
            as_blastx = max((q_span + 2) // 3, s_span)
            as_tblastn = max(q_span, (s_span + 2) // 3)
            needed = min(as_blastx, as_tblastn)
        if self.align_len < needed:
            raise ValueError("align_len cannot be shorter than either aligned span")
        if not (0 <= self.identities <= self.align_len):
            raise ValueError("identities must be within [0, align_len]")

    @property
    def pident(self) -> float:
        """Percent identity over the alignment length."""
        return 100.0 * self.identities / self.align_len

    @property
    def mismatches(self) -> int:
        return self.align_len - self.identities - self.gaps

    @property
    def q_span(self) -> int:
        return self.q_end - self.q_start

    def sort_key(self) -> tuple:
        """Canonical result order: best E-value first, then highest score.

        Remaining fields break ties deterministically so that serial runs and
        any parallel decomposition produce identical output files.
        """
        return (self.evalue, -self.score, self.subject_id, self.q_start, self.s_start,
                self.strand)


def cull_overlapping(hsps: Sequence[HSP], max_overlap: float = 0.5) -> list[HSP]:
    """Drop HSPs mostly contained (on the query) in a better HSP.

    Mirrors BLAST's HSP culling between the same query/subject pair: after
    gapped extension, seeds from within one alignment re-extend to near
    copies; only the best exemplar survives.  ``max_overlap`` is the query-
    range overlap fraction (of the smaller span) above which the worse HSP
    is culled — only applied within the same (subject, strand).

    Culling ranks by :meth:`HSP.sort_key` rather than engine admission
    order, so the result is independent of the order in which the
    extension stage emitted the HSPs — the batched stage-2 kernel is free
    to precompute extents out of scan order as long as the admitted set is
    unchanged.
    """
    if not (0.0 <= max_overlap <= 1.0):
        raise ValueError(f"max_overlap must be in [0, 1], got {max_overlap}")
    ranked = sorted(hsps, key=HSP.sort_key)
    kept: list[HSP] = []
    for cand in ranked:
        redundant = False
        for winner in kept:
            if (
                winner.query_id != cand.query_id
                or winner.subject_id != cand.subject_id
                or winner.strand != cand.strand
            ):
                continue
            lo = max(winner.q_start, cand.q_start)
            hi = min(winner.q_end, cand.q_end)
            overlap = max(0, hi - lo)
            smaller = min(winner.q_span, cand.q_span)
            s_lo = max(winner.s_start, cand.s_start)
            s_hi = min(winner.s_end, cand.s_end)
            s_overlap = max(0, s_hi - s_lo)
            if overlap > max_overlap * smaller and s_overlap > 0:
                redundant = True
                break
        if not redundant:
            kept.append(cand)
    return kept


def top_hits(hsps: Iterable[HSP], max_hits: int, evalue_cutoff: float) -> list[HSP]:
    """The reduce-step selection: E-value filter, canonical sort, top-K.

    This is exactly what mrblast's reduce() does with the collated per-query
    multivalue (paper §III.A): "sorts each query hits by the E-value,
    selects the requested number of top hits".
    """
    if max_hits < 1:
        raise ValueError(f"max_hits must be >= 1, got {max_hits}")
    passing = [h for h in hsps if h.evalue <= evalue_cutoff]
    passing.sort(key=HSP.sort_key)
    return passing[:max_hits]
