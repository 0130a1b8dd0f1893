"""The serial BLAST engine: scan → ungapped extend → gapped extend → stats.

This is the "unmodified serial algorithm" layer of the paper's architecture:
mrblast calls :meth:`BlastEngine.search_block` once per work unit (one query
block against one DB partition) exactly as the paper's map() calls the NCBI
C++ toolkit search, passing the whole-database statistics so E-values match
an unsplit search.

Stages 1 and 2 run compiled, beside stage 3's DP, in the engine's one C
library (``_engine.c``, built and loaded at import by
:mod:`repro.blast._native`): the subject scan
(:meth:`~repro.blast.lookup.NucleotideLookup.scan`), the grouping of a
subject's word hits into per-(context, diagonal) runs with each run walked
to its first trigger (``group_runs``), the walk of every run past a
consumed trigger to its next one (``next_triggers``: the first hit at or
past its coverage under blastn's one-hit rule, NCBI's two-hit rule for
blastp) and the ungapped X-drop (:func:`~repro.blast.extend.extend_ungapped`).
Python sees only the segments the gap trigger admits.  An optional
:class:`~repro.blast.lookup.LookupCache` lets the same query block reuse its
built lookup table across DB partitions.

One scheduler runs on that machinery (a second, per-subject one lives in
``tests/oracles/staged_scheduler.py`` as a function over an engine, with its
own run grouping and walk in Python; the property suite pins this one to
it).  The whole work unit is one round-based pass.  Subjects are streamed
from the partition into a pool of *open* subjects bounded by
``options.fused_slab_rows`` word-hit rows; each round extends the pending
trigger of every live (context, diagonal) run of every open subject, feeds
the seeds admitted in that round straight into stage 3 (with the raw score
each seed needs to be reportable, so the kernel traces back only alignments
that can pass the E-value gate), and moves every run on.  No stage ever
materialises a whole-partition intermediate: word hits, runs and
extensions live only as bounded per-subject and per-round slabs
(``SearchStats.peak_slab_bytes`` reports the high-water mark), and a
subject's HSPs are finalised the moment its last run exhausts.

Stage 3 admits and then contains:

- **Admission** is NCBI's gap trigger
  (:meth:`_EngineBase.admission_scores`): a bare word hit does not reach
  stage 3, an ungapped extension worth ``ungapped_cutoff_bits`` (or
  reportable on its own) does.
- **Containment** is what NCBI's ``BLAST_GetGappedScore`` does with
  ``BlastIntervalTreeContainsHSP``: initial HSPs are taken best score first
  and one lying inside a gapped alignment the subject already has is not
  extended again.  Every open subject keeps, per query context, the *box* of
  each gapped alignment it has produced (its four coordinates, its seed
  diagonal and its score); an admitted segment inside a box, within
  ``band_width`` of the box's seed diagonal (the banded DP cannot leave that
  strip) and scoring no more than the box, only advances its run's coverage
  to the box's subject end (:meth:`_EngineBase._containing_box`,
  ``SearchStats.n_contained``).  An alignment with *k* indels touches *k*+1
  diagonals whose runs all trigger in the same round, so a round's seeds run
  as at most two passes of
  :func:`~repro.blast.gapped.extend_gapped_batch`: the best-scoring segment
  of every cluster of diagonals that chain within ``band_width`` (per
  subject and context; ties go to the earlier emission rank), then whatever
  no box of the first pass contains.  Grouping never looks past one
  (subject, context) pair and a run's *k*-th trigger falls in its subject's
  *k*-th round whatever else is open, so results do not depend on block
  composition, DB split or pool order.

Stage timing covers disjoint code regions, so per-stage seconds never
double-count: ``seed`` is the lookup build/fetch, the subject stream, the
scan, the run grouping and every trigger walk (stage 1's admission);
``ungapped`` the X-drop calls and the admission loop over their results;
``gapped`` the gapped passes with their containment checks, boxes and HSPs.
What is left of ``busy_seconds`` is per-unit set-up, per-round bookkeeping,
per-subject culling and the per-query E-value filter.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.bio.seq import SeqRecord
from repro.blast.dbreader import DbPartition
from repro.blast import _native
from repro.blast.extend import extend_ungapped
from repro.blast.gapped import extend_gapped_batch
from repro.blast.hsp import HSP, cull_overlapping, top_hits
from repro.blast.karlin import gapped_params, karlin_params
from repro.blast.lookup import (
    LookupCache,
    NucleotideLookup,
    ProteinLookup,
    QueryBlock,
    block_fingerprint,
)
from repro.blast.matrices import BLOSUM62, nucleotide_matrix
from repro.blast.options import BlastOptions
from repro.blast.statistics import SearchSpace, bit_score
from repro.obs.trace import current_tracer

__all__ = ["BlastnEngine", "BlastpEngine", "make_engine", "SearchStats"]


@dataclass
class SearchStats:
    """Instrumentation for one search_block call.

    A per-call record: the mrblast mapper adds each unit's into its rank's
    metrics registry (``blast.*``).  ``busy_seconds`` is the in-search wall time — the quantity the paper's
    Fig. 5 divides by elapsed time to chart "useful CPU utilisation".  The
    per-stage breakdown (``seed`` = lookup build/fetch, subject scanning and
    the trigger walks, then the two extension stages; see the module
    docstring) makes stage-1 cost observable rather than inferred;
    ``lookup_cache_hits`` counts block lookups served from a
    :class:`~repro.blast.lookup.LookupCache` instead of rebuilt.

    ``n_gapped`` counts seeds the gapped kernel extended and ``n_contained``
    admitted seeds it was spared because a gapped alignment of the same
    subject and context already contains them; every admitted seed is one
    or the other.  ``fused_rounds`` counts scheduler rounds and
    ``peak_slab_bytes`` their intermediate high-water mark: the largest
    per-round footprint of the open subjects' run and state arrays, the
    round's extensions and the gapped kernel's buffers.
    """

    n_subjects: int = 0
    n_word_hits: int = 0
    n_ungapped: int = 0
    n_gapped: int = 0
    n_contained: int = 0
    n_reported: int = 0
    busy_seconds: float = 0.0
    seed_seconds: float = 0.0
    ungapped_seconds: float = 0.0
    gapped_seconds: float = 0.0
    lookup_cache_hits: int = 0
    fused_rounds: int = 0
    peak_slab_bytes: int = 0


class _Box(NamedTuple):
    """Extent, seed diagonal and score of a gapped alignment; an admitted
    ungapped segment (its own diagonal, its own score) is laid out the same."""

    q_start: int  # context-local
    q_end: int
    s_start: int
    s_end: int
    diag: int  # subject minus query position
    score: int


class _GappedJob(NamedTuple):
    """An admitted ungapped segment on its way to the gapped kernel."""

    subj: "_OpenSubject"
    k: int  # the run's slot in the subject's live-run state
    rank: tuple  # emission order: (block query position, subject position) of the trigger
    ctx_index: int
    seed: tuple  # (q_seed, s_seed, report floor)
    segment: _Box


@dataclass
class _OpenSubject:
    """A subject streamed into the fused scheduler's open pool.

    ``runs`` holds its word hits in run order, one column a hit: context
    index, block query position, subject position (one ``group_runs`` sort
    by context, diagonal and subject position).  ``state`` holds the
    admission state of its live runs in its first ``live`` columns:
    pending trigger row, one past the run's last row, coverage (the subject
    end of the last extension on the diagonal) and two-hit anchor.
    """

    ordinal: int  # position in partition order (result slot)
    subject_id: str
    codes: np.ndarray  # uint8 subject codes
    runs: np.ndarray  # (3, n) int64
    state: np.ndarray  # (4, n) int64
    live: int
    found: list = field(default_factory=list)  # (rank, HSP) accumulator
    #: context index -> :class:`_Box` of each gapped alignment produced so far
    boxes: dict = field(default_factory=dict)


class _EngineBase:
    """Shared search pipeline; subclasses provide alphabet specifics."""

    program: str

    def __init__(self, options: BlastOptions) -> None:
        if options.program != self.program:
            raise ValueError(f"options are for {options.program!r}, engine is {self.program!r}")
        self.options = options
        self.matrix = self._make_matrix()
        self.ungapped_params = karlin_params(
            program=self.program, reward=options.reward, penalty=options.penalty
        )
        self.gapped_stats_params = gapped_params(
            program=self.program,
            reward=options.reward,
            penalty=options.penalty,
            gap_open=options.gap_open,
            gap_extend=options.gap_extend,
        )
        # One statistics context for the engine's lifetime: λ/K/H fixed at
        # construction, length adjustments cached per search-space triple.
        self.search_space = SearchSpace(self.gapped_stats_params)
        # Smallest raw ungapped score worth ``ungapped_cutoff_bits``: from
        # just under the closed form, stepped up against :func:`bit_score`
        # itself, so float rounding at an integer boundary cannot matter.
        ungapped, bits = self.ungapped_params, options.ungapped_cutoff_bits
        raw = math.floor((bits * math.log(2.0) + ungapped.log_k) / ungapped.lam) - 1
        while bit_score(raw, ungapped) < bits:
            raw += 1
        self._gap_trigger = raw
        self._two_hit = self.program == "blastp" and options.two_hit_window > 0
        # The trigger walk's rule: the two-hit window, or -1 for one-hit.
        self._window = options.two_hit_window if self._two_hit else -1
        self.last_stats = SearchStats()
        self.lookup_cache: LookupCache | None = None

    # ---- subclass hooks ----------------------------------------------------

    def _make_matrix(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _make_lookup(self, block: QueryBlock):  # pragma: no cover - abstract
        raise NotImplementedError

    def _lookup_params(self) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    # ---- public API ----------------------------------------------------------

    def set_lookup_cache(self, cache: LookupCache | None) -> None:
        """Attach (or detach) a cross-partition lookup cache."""
        self.lookup_cache = cache

    def _lookup_key(self, queries: Sequence[SeqRecord]) -> tuple:
        return (
            self.program,
            self._masking_enabled(),
            self._lookup_params(),
            block_fingerprint(queries),
        )

    def _block_and_lookup(self, queries: Sequence[SeqRecord], stats: SearchStats):
        cache = self.lookup_cache
        if cache is None:
            block = QueryBlock(queries, self.program, use_mask=self._masking_enabled())
            return block, self._make_lookup(block)
        key = self._lookup_key(queries)
        entry = cache.get(key)
        if entry is not None:
            stats.lookup_cache_hits += 1
            return entry
        block = QueryBlock(queries, self.program, use_mask=self._masking_enabled())
        lookup = self._make_lookup(block)
        cache.put(key, block, lookup)
        return block, lookup

    def search_block(
        self,
        queries: Sequence[SeqRecord],
        partition: DbPartition,
    ) -> list[HSP]:
        """Search a query block against one DB partition.

        Returns per-query top-K HSPs (the per-partition cutoff the paper's
        complexity analysis discusses: K hits per partition survive to the
        collate stage).  E-values use the DB-size overrides when set.
        """
        t0 = time.perf_counter()
        stats = SearchStats()
        opts = self.options
        block, lookup = self._block_and_lookup(queries, stats)
        stats.seed_seconds += time.perf_counter() - t0
        db_len = opts.db_length_override or partition.total_length
        db_seqs = opts.db_num_seqs_override or partition.num_seqs
        # Admission scores per query (``ctx.query_index``), worked out once
        # per distinct query length of the unit.
        lengths = [len(rec.seq) for rec in block.records]
        by_len = {n: self.admission_scores(n, db_len, db_seqs) for n in set(lengths)}
        cutoffs = [by_len[n] for n in lengths]

        all_hits = self._search_fused(
            block, lookup, partition, db_len, db_seqs, cutoffs, stats
        )

        # Per-query E-value filter + top-K (the per-partition hit list).
        by_query: dict[str, list[HSP]] = {}
        for h in all_hits:
            by_query.setdefault(h.query_id, []).append(h)
        out: list[HSP] = []
        for rec in block.records:  # preserve query input order
            hits = by_query.get(rec.id)
            if hits:
                out.extend(top_hits(hits, opts.max_hits, opts.evalue))
        stats.n_reported = len(out)
        stats.busy_seconds = time.perf_counter() - t0
        self.last_stats = stats
        return out

    # ---- shared admission machinery ------------------------------------------

    def _masking_enabled(self) -> bool:
        return self.program == "blastn" and self.options.dust

    def _open_subject(
        self, ordinal: int, subject_id: str, codes: np.ndarray,
        q_pos: np.ndarray, s_pos: np.ndarray, spans: np.ndarray,
    ) -> _OpenSubject | None:
        """One subject's word hits grouped into runs, each at its first
        trigger (``group_runs`` of the engine's C library); ``None`` if no
        run triggers."""
        n = q_pos.size
        held = np.empty(7 * n, dtype=np.int64)
        live = _native.call(
            "group_runs", n, q_pos, s_pos, spans, spans.shape[1], codes.size,
            self.options.word_size, self._window, np.empty(4 * n, dtype=np.int64),
            held[: 3 * n], held[3 * n :],
        )
        if live < 0:
            raise ValueError("a word hit lies outside the query block or the subject")
        if live == 0:
            return None
        runs, state = held[: 3 * n].reshape(3, n), held[3 * n :].reshape(4, n)
        return _OpenSubject(ordinal, subject_id, codes, runs, state, live)

    def _next_triggers(self, subj: _OpenSubject) -> None:
        """Move every live run of ``subj`` past its consumed trigger to its
        next one (``next_triggers`` of the engine's C library)."""
        subj.live = _native.call(
            "next_triggers", subj.live, subj.runs[2], subj.state, subj.runs.shape[1], 1,
            self.options.word_size, self._window,
        )

    def _emit_hsp(self, block: QueryBlock, ctx, subject_id: str, g, db_len: int, db_seqs: int):
        """HSP for a gapped alignment, or None below the E-value cutoff."""
        rec = block.records[ctx.query_index]
        e = self.search_space.evalue(g.score, len(rec.seq), db_len, db_seqs)
        if e > self.options.evalue:
            return None
        if ctx.strand == 1:
            q_start, q_end = g.q_start, g.q_end
        else:
            q_start, q_end = ctx.length - g.q_end, ctx.length - g.q_start
        return HSP(
            query_id=rec.id,
            subject_id=subject_id,
            score=g.score,
            bit_score=self.search_space.bit_score(g.score),
            evalue=e,
            q_start=q_start,
            q_end=q_end,
            s_start=g.s_start,
            s_end=g.s_end,
            identities=g.identities,
            align_len=g.align_len,
            gaps=g.gaps,
            strand=ctx.strand,
        )

    def admission_scores(self, query_len: int, db_len: int, db_seqs: int) -> tuple[int, int]:
        """``(gap trigger, report floor)`` raw scores for one query length.

        The one admission rule of stage 3, NCBI's
        ``BlastInitialWordParametersUpdate``: an ungapped extension is
        gapped-extended when its raw score reaches ``min(raw score of
        ungapped_cutoff_bits, E-value cutoff score)``, where the cutoff
        score is the smallest a *reportable* alignment of this query can
        have in the given search space.  Callers pass the whole-database
        space (the ``-dbsize`` overrides), never a partition's own, so
        which seeds are admitted does not depend on how the DB is split.

        The floor is the raw score below which :meth:`_emit_hsp` is certain
        to refuse a gapped alignment (one under the cutoff score, so float
        rounding in either direction cannot matter); the gapped kernel
        skips the traceback of such alignments.
        """
        cutoff = self.search_space.evalue_to_score(
            self.options.evalue, query_len, db_len, db_seqs
        )
        return min(self._gap_trigger, cutoff), cutoff - 1

    def _containing_box(self, boxes: list, segment: _Box) -> _Box | None:
        """The first of ``boxes`` that contains ``segment``, else None.

        A box describes a gapped alignment and the diagonal of its seed, a
        segment an admitted ungapped extension.  Contained means inside the
        box on both sequences, within ``band_width`` of the seed diagonal
        (the strip the banded DP that produced the box was confined to) and
        scoring no more than the box: NCBI's ``BlastIntervalTreeContainsHSP``
        with the band in the place of ``min_diag_separation``.
        """
        q_start, q_end, s_start, s_end, diag, score = segment
        band = self.options.band_width
        for box in boxes:
            if (
                box.q_start <= q_start and q_end <= box.q_end
                and box.s_start <= s_start and s_end <= box.s_end
                and abs(diag - box.diag) <= band and score <= box.score
            ):
                return box
        return None

    def _extend_gapped(self, jobs: list, kernel_stats: dict | None = None) -> list:
        """One gapped batch over ``jobs`` = ``(ctx, s_codes, q_seed, s_seed, floor)``.

        A seed scoring under its report floor comes back extents-only,
        which is all the diagonal-coverage update reads.
        """
        opts = self.options
        return extend_gapped_batch(
            [(ctx.codes, s_codes, q_seed, s_seed)
             for ctx, s_codes, q_seed, s_seed, _ in jobs],
            self.matrix,
            opts.gap_open,
            opts.gap_extend,
            opts.xdrop_gapped,
            opts.band_width,
            stats=kernel_stats,
            min_scores=[floor for _, _, _, _, floor in jobs],
        )

    # ---- fused scheduler -----------------------------------------------------

    def _search_fused(
        self,
        block: QueryBlock,
        lookup,
        partition,
        db_len: int,
        db_seqs: int,
        cutoffs: list,
        stats: SearchStats,
    ) -> list[HSP]:
        """One streaming seed→ungapped→gapped pass over the whole work unit.

        Subjects stream into a pool of open subjects bounded by
        ``fused_slab_rows`` word-hit rows; every round extends the pending
        triggers of *all* open runs, gapped-extends the admitted seeds no
        earlier alignment contains in at most two gapped passes, advances
        the runs, and finalises any subject whose runs all exhausted (see
        module docstring).
        """
        opts = self.options
        band = opts.band_width
        spans = np.stack((block._starts, np.append(block._starts[1:], block.total_length)))
        ctx_lo = block._starts.tolist()
        # Admission scores per context, for the round's one compare.
        trigger_c = np.array([cutoffs[c.query_index][0] for c in block.contexts], dtype=np.int64)
        floor_c = [cutoffs[c.query_index][1] for c in block.contexts]

        results: list[list[HSP] | None] = []
        pool: list[_OpenSubject] = []
        pool_rows = 0
        kernel_peaks: dict = {}
        subject_iter = iter(partition)
        exhausted = False
        trc = current_tracer()

        def cover(job: _GappedJob, s_end: int) -> None:
            covered = job.subj.state[2]
            covered[job.k] = max(covered[job.k], s_end)

        def contained(job: _GappedJob) -> bool:
            """True if a box of the job's subject and context contains it:
            nothing is extended, the run is covered to the box's end."""
            boxes = job.subj.boxes.get(job.ctx_index)
            box = self._containing_box(boxes, job.segment) if boxes else None
            if box is None:
                return False
            cover(job, box.s_end)
            stats.n_contained += 1
            return True

        def extend(jobs: list[_GappedJob]) -> None:
            """One gapped pass: coverage, the new boxes, reportable HSPs."""
            aligns = self._extend_gapped(
                [(block.contexts[job.ctx_index], job.subj.codes, *job.seed) for job in jobs],
                kernel_peaks,
            )
            stats.n_gapped += len(jobs)
            for job, g in zip(jobs, aligns):
                if g is None:
                    continue
                cover(job, g.s_end)
                subj, c = job.subj, job.ctx_index
                subj.boxes.setdefault(c, []).append(
                    _Box(g.q_start, g.q_end, g.s_start, g.s_end, job.segment.diag, g.score)
                )
                hsp = self._emit_hsp(
                    block, block.contexts[c], subj.subject_id, g, db_len, db_seqs
                )
                if hsp is not None:
                    subj.found.append((job.rank, hsp))

        while True:
            # Refill: stream subjects in until the slab bound (always at
            # least one so an oversized subject still makes progress).
            t0 = time.perf_counter()
            while not exhausted and (not pool or pool_rows < opts.fused_slab_rows):
                try:
                    subject_id, s_codes = next(subject_iter)
                except StopIteration:
                    exhausted = True
                    break
                stats.n_subjects += 1
                s_codes = np.ascontiguousarray(s_codes, dtype=np.uint8)
                q_pos, s_pos = lookup.scan(s_codes)
                stats.n_word_hits += q_pos.size
                subj = self._open_subject(len(results), subject_id, s_codes, q_pos, s_pos, spans)
                results.append(None if subj else [])
                if subj:
                    pool.append(subj)
                    pool_rows += subj.runs.shape[1]
            stats.seed_seconds += time.perf_counter() - t0
            if not pool:
                break

            # Stage 2: each open subject's pending triggers in one X-drop
            # call, every run covered to the end of its extension.  The
            # admission rule is one compare; Python sees only the admitted
            # segments, in trigger order.  That order walks each subject's
            # runs by (context, diagonal), so the segments no box contains
            # fall into clusters of diagonals chaining within the band as
            # they come; ``first`` holds each cluster's best segment (ties
            # to the earlier emission rank), ``rest`` the others.
            t0 = time.perf_counter()
            g0, c0 = stats.n_gapped, stats.n_contained
            first: list[_GappedJob] = []
            rest: list[_GappedJob] = []
            last = None  # the job queued before this one
            m = 0
            for subj in pool:
                row = subj.state[0, : subj.live]
                ext = extend_ungapped(
                    block.codes, subj.codes, spans, subj.runs, opts.word_size,
                    self.matrix, opts.xdrop_ungapped, rows=row,
                )
                m += subj.live
                subj.state[2, : subj.live] = ext.s_end
                ctx_t = subj.runs[0, row]
                adm = np.flatnonzero(ext.score >= trigger_c[ctx_t])
                trig = row[adm]
                for k, c, q_pos, s_pos, u_score, u_q_start, u_q_end, u_s_start, u_s_end in zip(
                    adm.tolist(), ctx_t[adm].tolist(),
                    subj.runs[1, trig].tolist(), subj.runs[2, trig].tolist(),
                    *(col[adm].tolist() for col in ext),
                ):
                    # Context-local extents; the mid-point of the ungapped
                    # segment is the gapped anchor.
                    u_q_start -= ctx_lo[c]
                    u_q_end -= ctx_lo[c]
                    mid = (u_q_end - u_q_start) // 2
                    diag = u_s_start - u_q_start
                    job = _GappedJob(
                        subj, k, (q_pos, s_pos), c,
                        (u_q_start + mid, u_s_start + mid, floor_c[c]),
                        _Box(u_q_start, u_q_end, u_s_start, u_s_end, diag, u_score),
                    )
                    if contained(job):
                        continue
                    chained = (
                        last is not None and last.subj is subj and last.ctx_index == c
                        and diag - last.segment.diag <= band
                    )
                    last = job
                    if chained:
                        lead = first[-1]
                        if u_score > lead.segment.score or (
                            u_score == lead.segment.score and job.rank < lead.rank
                        ):
                            first[-1], job = job, lead
                        rest.append(job)
                    else:
                        first.append(job)
            stats.n_ungapped += m
            stats.ungapped_seconds += time.perf_counter() - t0

            # Stage 3 in at most two gapped passes: the leaders, then
            # whatever no box (the leaders' included) contains.
            t0 = time.perf_counter()
            if first:
                extend(first)
                rest = [job for job in rest if not contained(job)]
                if rest:
                    extend(rest)
            stats.gapped_seconds += time.perf_counter() - t0

            # Per-round slab high-water mark: open subjects' run and state
            # arrays + this round's extensions + the gapped kernel's peak.
            slab_bytes = (
                sum(s.runs.nbytes + s.state.nbytes for s in pool) + 5 * 8 * m
                + kernel_peaks.get("peak_grid_bytes", 0)
            )
            stats.peak_slab_bytes = max(stats.peak_slab_bytes, slab_bytes)
            if trc.enabled:
                trc.instant(
                    "blast.fused_round", cat="blast",
                    round=stats.fused_rounds, rows=m, gapped=stats.n_gapped - g0,
                    contained=stats.n_contained - c0,
                    open_subjects=len(pool), slab_bytes=slab_bytes,
                )
            stats.fused_rounds += 1

            # Advance every run past its consumed trigger (stage 1's
            # admission, timed as seeding); subjects whose runs all
            # exhausted are finalised so their slab rows free up.
            t0 = time.perf_counter()
            for subj in pool:
                self._next_triggers(subj)
            stats.seed_seconds += time.perf_counter() - t0
            for subj in pool:
                if not subj.live:
                    subj.found.sort(key=lambda rh: rh[0])
                    results[subj.ordinal] = cull_overlapping([h for _, h in subj.found])
                    pool_rows -= subj.runs.shape[1]
            pool = [s for s in pool if s.live]

        all_hits: list[HSP] = []
        for hits in results:
            all_hits.extend(hits or [])
        return all_hits


class BlastnEngine(_EngineBase):
    """Nucleotide search: exact-word seeding, one-hit trigger, both strands."""

    program = "blastn"

    def _make_matrix(self) -> np.ndarray:
        return nucleotide_matrix(self.options.reward, self.options.penalty)

    def _make_lookup(self, block: QueryBlock) -> NucleotideLookup:
        return NucleotideLookup(block, word_size=self.options.word_size)

    def _lookup_params(self) -> tuple:
        return (self.options.word_size,)


class BlastpEngine(_EngineBase):
    """Protein search: neighbourhood-word seeding, two-hit trigger, BLOSUM62."""

    program = "blastp"

    def _make_matrix(self) -> np.ndarray:
        return BLOSUM62

    def _make_lookup(self, block: QueryBlock) -> ProteinLookup:
        return ProteinLookup(
            block, word_size=self.options.word_size, threshold=self.options.neighbor_threshold
        )

    def _lookup_params(self) -> tuple:
        return (self.options.word_size, self.options.neighbor_threshold)


def make_engine(options: BlastOptions):
    """Engine factory keyed on ``options.program``."""
    if options.program == "blastn":
        return BlastnEngine(options)
    if options.program == "blastp":
        return BlastpEngine(options)
    if options.program == "blastx":
        from repro.blast.blastx import BlastxEngine

        return BlastxEngine(options)
    raise ValueError(f"unknown program {options.program!r}")
