"""The serial BLAST engine: scan → ungapped extend → gapped extend → stats.

This is the "unmodified serial algorithm" layer of the paper's architecture:
mrblast calls :meth:`BlastEngine.search_block` once per work unit (one query
block against one DB partition) exactly as the paper's map() calls the NCBI
C++ toolkit search, passing the whole-database statistics so E-values match
an unsplit search.

Stage-1 admission is array-driven: word hits are grouped into per-diagonal
runs with one ``lexsort``, and the admission state of a subject's live runs
is four parallel arrays (pending trigger row, run end, coverage, two-hit
anchor).  Under blastn's one-hit rule a run's next trigger is its first hit
at or past its coverage, so runs are opened, gathered into a round and moved
on with fancy-index gathers, and Python visits only the segments the gap
trigger admits and the few runs whose coverage swallowed their next hit but
not their last.  blastp's two-hit rule walks each run with ``searchsorted``
jumps over covered/overlapping stretches: one Python step per trigger or
anchor, never per raw word hit.  An optional
:class:`~repro.blast.lookup.LookupCache` lets the same query block reuse its
built lookup table across DB partitions.

One scheduler runs on that admission machinery (a second, per-subject one
lives in ``tests/oracles/staged_scheduler.py`` as a function over an engine;
the property suite pins this one to it).  The whole work unit is one
round-based pass.  Subjects are streamed from the partition into a pool of
*open* subjects bounded by ``options.fused_slab_rows`` word-hit rows; each
round advances every live (context, diagonal) run of every open subject to
its pending trigger, extends all of them with **one**
:func:`~repro.blast.extend.batch_ungapped_extend_spans` call over the
concatenated query block and a concatenated subject arena, and feeds the
seeds admitted in that round straight into stage 3 (with the raw score each
seed needs to be reportable, so the kernel traces back only alignments that
can pass the E-value gate).  No stage ever materialises a whole-partition
intermediate: scan hits, triggers and admitted seeds live only as bounded
per-round slabs (``SearchStats.peak_slab_bytes`` reports the high-water
mark), and a subject's HSPs are finalised the moment its last run exhausts.

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
  as at most two lockstep passes of
  :func:`~repro.blast.gapped.extend_gapped_batch`: the best-scoring segment
  of every cluster of diagonals that chain within ``band_width`` (per
  subject and context; ties go to the earlier emission rank), then whatever
  no box of the first pass contains.  Grouping never looks past one
  (subject, context) pair and a run's *k*-th trigger falls in its subject's
  *k*-th round whatever else is open, so results do not depend on block
  composition, DB split or pool order.

Stage timing is accumulated per kernel call, never per word hit: lookup
build/fetch and subject scanning count as ``seed``, the span kernel and any
scalar fallback as ``ungapped``, and the gapped passes as ``gapped``; the
three timers cover disjoint code regions, so per-stage seconds never
double-count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.bio.seq import SeqRecord
from repro.blast.dbreader import DbPartition
from repro.blast.extend import batch_ungapped_extend_spans, ungapped_extend
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

    ``busy_seconds`` is the in-search wall time — the quantity the paper's
    Fig. 5 divides by elapsed time to chart "useful CPU utilisation".  The
    per-stage breakdown (``seed`` = lookup build/fetch + subject scanning,
    then the two extension stages) makes stage-1 cost observable rather
    than inferred; ``lookup_cache_hits`` counts block lookups served from a
    :class:`~repro.blast.lookup.LookupCache` instead of rebuilt.

    ``n_gapped`` counts seeds the gapped kernel extended and ``n_contained``
    admitted seeds it was spared because a gapped alignment of the same
    subject and context already contains them; every admitted seed is one
    or the other.  ``fused_rounds`` counts scheduler rounds and
    ``peak_slab_bytes`` their intermediate high-water mark: the largest
    per-round footprint of the subject arena, open subjects' run arrays,
    the round's trigger rows and both extension kernels' scratch slabs.
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

    def merge(self, other: "SearchStats") -> None:
        self.n_subjects += other.n_subjects
        self.n_word_hits += other.n_word_hits
        self.n_ungapped += other.n_ungapped
        self.n_gapped += other.n_gapped
        self.n_contained += other.n_contained
        self.n_reported += other.n_reported
        self.busy_seconds += other.busy_seconds
        self.seed_seconds += other.seed_seconds
        self.ungapped_seconds += other.ungapped_seconds
        self.gapped_seconds += other.gapped_seconds
        self.lookup_cache_hits += other.lookup_cache_hits
        self.fused_rounds += other.fused_rounds
        self.peak_slab_bytes = max(self.peak_slab_bytes, other.peak_slab_bytes)


@dataclass
class _SubjectRuns:
    """One subject's word hits grouped into per-(context, diagonal) runs.

    Arrays are in run order (one ``lexsort`` by context, diagonal, subject
    position); ``rank_r`` maps each row back to the (context, query pos,
    subject pos) admission order of the original per-hit loop so downstream
    culling sees an identical HSP sequence under any scheduler.
    """

    n: int
    ctx_r: np.ndarray  # context index per row
    qg_r: np.ndarray  # block-concatenated query word start
    s_r: np.ndarray  # subject word start
    rank_r: np.ndarray  # emission rank (admission order)
    run_starts: np.ndarray
    run_ends: np.ndarray


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
    k: int  # the run's slot in the subject's live-run arrays
    row: int  # the trigger's row in the subject's run arrays
    ctx_index: int
    seed: tuple  # (q_seed, s_seed, report floor)
    segment: _Box


@dataclass
class _OpenSubject:
    """A subject streamed into the fused scheduler's open pool."""

    ordinal: int  # position in partition order (result slot)
    subject_id: str
    s_index: np.ndarray  # subject codes as intp (gapped jobs + fallback)
    runs: _SubjectRuns
    # Admission state of the live runs, one slot a run:
    row: np.ndarray  # pending trigger (a row of ``runs``)
    end: np.ndarray  # one past the run's last row
    covered: np.ndarray  # subject end of the last extension on the diagonal
    anchor: np.ndarray  # two-hit: end of the last admitted word hit, -1 for none
    found: list = field(default_factory=list)  # (rank, HSP) accumulator
    #: context index -> :class:`_Box` of each gapped alignment produced so far
    boxes: dict = field(default_factory=dict)
    arena_lo: int = 0  # subject's offset inside the pool arena


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
        return self.options.dust if self.program == "blastn" else self.options.seg

    def _prepare_runs(
        self, block: QueryBlock, qpos_concat: np.ndarray, spos_arr: np.ndarray
    ) -> _SubjectRuns:
        """Group one subject's word hits into per-(context, diagonal) runs.

        Admission works on runs left to right along the subject; emitted
        HSPs are re-ordered afterwards via ``rank_r`` to the (context,
        query pos, subject pos) admission order of the original per-hit
        loop, so downstream culling sees an identical sequence — the
        per-diagonal state machines are independent, which makes every
        traversal order produce the same extensions.
        """
        opts = self.options
        ctx_indices, q_local = block.localize(qpos_concat)
        diags = spos_arr - q_local
        n = qpos_concat.size

        run_order = np.lexsort((spos_arr, diags, ctx_indices))
        emit_rank = np.empty(n, dtype=np.int64)
        emit_rank[np.lexsort((spos_arr, qpos_concat, ctx_indices))] = np.arange(n)

        ctx_r = ctx_indices[run_order]
        qg_r = qpos_concat[run_order]
        s_r = spos_arr[run_order]
        diag_r = diags[run_order]
        rank_r = emit_rank[run_order]

        breaks = 1 + np.flatnonzero((ctx_r[1:] != ctx_r[:-1]) | (diag_r[1:] != diag_r[:-1]))
        run_starts = np.concatenate(([0], breaks))
        run_ends = np.concatenate((breaks, [n]))

        if self._two_hit:
            # A run can trigger an extension only if some adjacent pair sits
            # within window + word of each other on the subject: a trigger's
            # anchor ends at s_k + word, every hit between anchor and trigger
            # overlaps the anchor, so the trigger's immediate predecessor is
            # at most window + word behind it.  Runs without such a pair are
            # pure no-ops (coverage only changes after an extension), so the
            # admission loops visit extension-capable runs only.
            word = opts.word_size
            window = opts.two_hit_window
            pair_ok = np.zeros(max(n - 1, 0), dtype=bool)
            if n > 1:
                same_run = (ctx_r[1:] == ctx_r[:-1]) & (diag_r[1:] == diag_r[:-1])
                pair_ok = same_run & (s_r[1:] - s_r[:-1] <= window + word)
            csum = np.concatenate(([0], np.cumsum(pair_ok.astype(np.int64))))
            live = csum[run_ends - 1] - csum[run_starts] > 0
            run_starts = run_starts[live]
            run_ends = run_ends[live]

        return _SubjectRuns(n, ctx_r, qg_r, s_r, rank_r, run_starts, run_ends)

    def _walk_two_hit(
        self, s_r: np.ndarray, i: int, b: int, covered: int, last_end: int
    ) -> tuple[int, int]:
        """Walk one run from row ``i`` to its next two-hit trigger.

        Returns ``(row, anchor)``; the row is ``b`` when the run is
        exhausted.  NCBI's two-hit rule: remember the *end* of the last
        word hit on this diagonal; hits overlapping it are ignored outright
        (the anchor survives), a non-overlapping hit within the window
        triggers extension, and a hit beyond the window becomes the new
        anchor.
        """
        word = self.options.word_size
        window = self.options.two_hit_window
        while i < b:
            s_pos = int(s_r[i])
            if s_pos < covered or (0 <= last_end and s_pos < last_end):
                # Jump over every hit inside the already-extended region,
                # or the whole stretch overlapping the anchor, at once.
                i += int(np.searchsorted(s_r[i:b], max(covered, last_end), side="left"))
            elif last_end < 0 or s_pos - last_end > window:
                last_end = s_pos + word
                i += 1
            else:
                return i, s_pos + word
        return b, last_end

    def _next_triggers(
        self, s_r: np.ndarray, row: np.ndarray, end: np.ndarray,
        covered: np.ndarray, anchor: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Move every run from ``row`` on to its next extension trigger.

        Takes and returns the live-run arrays of an :class:`_OpenSubject`,
        exhausted runs dropped.  One-hit: the next trigger is the first hit
        at or past the coverage, so one gather settles the runs that are
        exhausted (last hit covered) or already there (every run of a fresh
        subject) and Python visits only the rest.  Two-hit walks run by run.
        """
        if self._two_hit:
            walked = [
                self._walk_two_hit(s_r, *st)
                for st in zip(row.tolist(), end.tolist(), covered.tolist(), anchor.tolist())
            ]
            row = np.array([i for i, _ in walked], dtype=np.int64)
            anchor = np.array([last for _, last in walked], dtype=np.int64)
            keep = np.flatnonzero(row < end)
            return row[keep], end[keep], covered[keep], anchor[keep]
        keep = np.flatnonzero(row < end)
        keep = keep[s_r[end[keep] - 1] >= covered[keep]]
        row, end, covered = row[keep], end[keep], covered[keep]
        for k in np.flatnonzero(s_r[row] < covered).tolist():
            row[k] += np.searchsorted(s_r[row[k] : end[k]], covered[k], side="left")
        return row, end, covered, anchor[keep]

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
        """One gapped batch over ``jobs`` = ``(ctx, s_index, q_seed, s_seed, floor)``.

        A seed scoring under its report floor comes back extents-only,
        which is all the diagonal-coverage update reads.
        """
        opts = self.options
        return extend_gapped_batch(
            [(ctx.codes_index, s_index, q_seed, s_seed)
             for ctx, s_index, q_seed, s_seed, _ in jobs],
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
        triggers of *all* open runs with one span-batched kernel call over
        (query block concat × subject arena), gapped-extends the admitted
        seeds no earlier alignment contains in at most two lockstep passes,
        advances the state machines, and finalises any subject whose runs
        all exhausted (see module docstring).
        """
        opts = self.options
        word = opts.word_size
        band = opts.band_width
        q_arena = block.concat_index
        ctx_starts = block._starts
        ctx_ends = np.append(ctx_starts[1:], block.total_length)
        # Admission scores per context, for the round's one compare.
        trigger_c = np.array([cutoffs[c.query_index][0] for c in block.contexts], dtype=np.int64)
        floor_c = [cutoffs[c.query_index][1] for c in block.contexts]

        results: list[list[HSP] | None] = []
        pool: list[_OpenSubject] = []
        arena = np.empty(0, dtype=np.intp)
        pool_rows = 0
        kernel_peaks: dict = {}
        subject_iter = iter(partition)
        exhausted = False
        trc = current_tracer()

        def finalize(subj: _OpenSubject) -> None:
            subj.found.sort(key=lambda rh: rh[0])
            results[subj.ordinal] = cull_overlapping([h for _, h in subj.found])

        def cover(job: _GappedJob, s_end: int) -> None:
            covered = job.subj.covered
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
            """One lockstep pass: coverage, the new boxes, reportable HSPs."""
            t_g = time.perf_counter()
            aligns = self._extend_gapped(
                [(block.contexts[job.ctx_index], job.subj.s_index, *job.seed) for job in jobs],
                kernel_peaks,
            )
            stats.n_gapped += len(jobs)
            stats.gapped_seconds += time.perf_counter() - t_g
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
                    subj.found.append((int(subj.runs.rank_r[job.row]), hsp))

        while True:
            # Refill: stream subjects in until the slab bound (always at
            # least one so an oversized subject still makes progress).
            added = False
            while not exhausted and (not pool or pool_rows < opts.fused_slab_rows):
                try:
                    subject_id, s_codes = next(subject_iter)
                except StopIteration:
                    exhausted = True
                    break
                stats.n_subjects += 1
                t_seed = time.perf_counter()
                qpos_concat, spos_arr = lookup.scan(s_codes)
                stats.seed_seconds += time.perf_counter() - t_seed
                stats.n_word_hits += int(qpos_concat.size)
                if qpos_concat.size == 0:
                    results.append([])
                    continue
                runs = self._prepare_runs(block, qpos_concat, spos_arr)
                n_runs = runs.run_starts.size
                live = self._next_triggers(
                    runs.s_r, runs.run_starts, runs.run_ends,
                    np.zeros(n_runs, dtype=np.int64), np.full(n_runs, -1, dtype=np.int64),
                )
                if live[0].size == 0:
                    results.append([])
                    continue
                s_index = s_codes if s_codes.dtype == np.intp else s_codes.astype(np.intp)
                pool.append(_OpenSubject(len(results), subject_id, s_index, runs, *live))
                results.append(None)
                pool_rows += runs.n
                added = True
            if added:
                # Rebuild the subject arena (compacting finished subjects
                # out): one copy per subject per refill it survives.
                arena = np.concatenate([s.s_index for s in pool])
                lo = 0
                for s in pool:
                    s.arena_lo = lo
                    lo += s.s_index.size
            if not pool:
                break

            # Gather this round's pending triggers across the whole pool:
            # trigger j belongs to pool[p] for bounds[p] <= j < bounds[p + 1].
            counts = [s.row.size for s in pool]
            bounds = np.concatenate(([0], np.cumsum(counts)))
            m = int(bounds[-1])
            row = np.concatenate([s.row for s in pool])
            ctx_t = np.concatenate([s.runs.ctx_r[s.row] for s in pool])
            qg = np.concatenate([s.runs.qg_r[s.row] for s in pool])
            s_lo = np.repeat([s.arena_lo for s in pool], counts)
            s_hi = s_lo + np.repeat([s.s_index.size for s in pool], counts)
            sg = np.concatenate([s.runs.s_r[s.row] for s in pool]) + s_lo
            q_lo = ctx_starts[ctx_t]
            q_hi = ctx_ends[ctx_t]

            t_ext = time.perf_counter()
            ext = batch_ungapped_extend_spans(
                q_arena, arena, qg, sg, q_lo, q_hi, s_lo, s_hi,
                word, self.matrix, opts.xdrop_ungapped,
                window=opts.extension_window, stats=kernel_peaks,
            )
            # Rows whose kernel escalation was capped: exact scalar path.
            for j in np.flatnonzero(~ext.complete).tolist():
                subj = pool[int(np.searchsorted(bounds, j, side="right")) - 1]
                u = ungapped_extend(
                    block.contexts[ctx_t[j]].codes_index, subj.s_index,
                    int(qg[j] - q_lo[j]), int(sg[j] - s_lo[j]),
                    word, self.matrix, opts.xdrop_ungapped,
                )
                ext.score[j] = u.score
                ext.q_start[j], ext.q_end[j] = u.q_start + q_lo[j], u.q_end + q_lo[j]
                ext.s_start[j], ext.s_end[j] = u.s_start + s_lo[j], u.s_end + s_lo[j]
            stats.ungapped_seconds += time.perf_counter() - t_ext
            stats.n_ungapped += m

            # Every run is covered to the end of its extension.
            u_s_end = ext.s_end - s_lo
            for subj, lo, hi in zip(pool, bounds[:-1].tolist(), bounds[1:].tolist()):
                subj.covered = u_s_end[lo:hi]

            # The admission rule is one compare; Python sees only the
            # admitted segments, in trigger order.  That order walks each
            # subject's runs by (context, diagonal), so the segments no box
            # contains fall into clusters of diagonals chaining within the
            # band as they come; ``first`` holds each cluster's best segment
            # (ties to the earlier emission rank), ``rest`` the others.
            g0, c0 = stats.n_gapped, stats.n_contained
            first: list[_GappedJob] = []
            rest: list[_GappedJob] = []
            last = None  # the job queued before this one
            adm = np.flatnonzero(ext.score >= trigger_c[ctx_t])
            for j, p, i, c, u_score, u_q_start, u_q_end, u_s_start, u_s_end in zip(
                adm.tolist(),
                (np.searchsorted(bounds, adm, side="right") - 1).tolist(),
                row[adm].tolist(),
                ctx_t[adm].tolist(),
                ext.score[adm].tolist(),
                (ext.q_start[adm] - q_lo[adm]).tolist(),
                (ext.q_end[adm] - q_lo[adm]).tolist(),
                (ext.s_start[adm] - s_lo[adm]).tolist(),
                u_s_end[adm].tolist(),
            ):
                subj = pool[p]
                # Mid-point of the ungapped segment — the gapped anchor
                # (same arithmetic as UngappedHSP.seed_point).
                mid = (u_q_end - u_q_start) // 2
                diag = u_s_start - u_q_start
                job = _GappedJob(
                    subj, j - int(bounds[p]), i, c,
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
                    rank_r = subj.runs.rank_r
                    if u_score > lead.segment.score or (
                        u_score == lead.segment.score and rank_r[i] < rank_r[lead.row]
                    ):
                        first[-1], job = job, lead
                    rest.append(job)
                else:
                    first.append(job)

            # Stage 3 in at most two lockstep passes: the leaders, then
            # whatever no box (the leaders' included) contains.
            if first:
                extend(first)
                rest = [job for job in rest if not contained(job)]
                if rest:
                    extend(rest)

            # Per-round slab high-water mark: subject arena + open subjects'
            # run arrays + this round's trigger rows + kernel scratch peaks.
            run_bytes = sum(
                s.runs.ctx_r.nbytes + s.runs.qg_r.nbytes + s.runs.s_r.nbytes
                + s.runs.rank_r.nbytes
                for s in pool
            )
            slab_bytes = (
                arena.nbytes + run_bytes + 6 * 8 * m
                + kernel_peaks.get("peak_window_bytes", 0)
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

            # Advance every run past its consumed trigger; finalise subjects
            # whose runs all exhausted so their slab rows free up.
            for subj in pool:
                subj.row, subj.end, subj.covered, subj.anchor = self._next_triggers(
                    subj.runs.s_r, subj.row + 1, subj.end, subj.covered, subj.anchor
                )
                if subj.row.size == 0:
                    finalize(subj)
                    pool_rows -= subj.runs.n
            pool = [s for s in pool if s.row.size]

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
