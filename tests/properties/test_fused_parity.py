"""Property suite pinning the engine's scheduler to the staged oracle.

With its containment check answering "no", the fused streaming pass must
produce HSP output bit-identical to the per-subject staged scheduler of
``tests/oracles/staged_scheduler.py`` — same scores, coordinates, E-values,
identities/gap accounting (the traceback-derived fields) and same output
order — for every program that runs through the engine, at any
``fused_slab_rows`` bound (including 1, which forces maximal subject
streaming, and a bound larger than any workload, which opens every subject
at once).  What the containment rule itself may change is pinned in
``test_containment.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import DNA, PROTEIN
from repro.bio.seq import SeqRecord
from repro.bio.simulate import mutate_dna, random_genome
from repro.blast.engine import make_engine
from repro.blast.options import BlastOptions
from repro.blast.tblastn import TblastnEngine

from oracles.staged_scheduler import no_containment, staged_scheduler

DNA_ALPHABET = "ACGT"
AA_ALPHABET = "ACDEFGHIKLMNPQRSTVWY"

SLAB_ROWS = st.sampled_from([1, 13, 65536])


class _ArrayPartition:
    """Minimal in-memory stand-in for DbPartition (iteration + stats)."""

    def __init__(self, records, kind):
        enc = DNA if kind == "dna" else PROTEIN
        self.kind = kind
        self.name = "mem"
        self.ids = [r.id for r in records]
        self.lengths = [len(r.seq) for r in records]
        self._codes = [(r.id, enc.encode(r.seq)) for r in records]
        self.total_length = sum(self.lengths)
        self.num_seqs = len(records)

    def __iter__(self):
        return iter(self._codes)


@st.composite
def _family(draw, alphabet, min_len=70, max_len=140, n_subjects=4, n_queries=2):
    """Homologous query/subject sets: mutated copies of one ancestor.

    Point mutations and query slicing keep real word hits (and therefore
    real extensions, admissions and culling decisions) flowing through
    both schedulers on nearly every example.
    """
    anc = draw(st.text(alphabet=alphabet, min_size=min_len, max_size=max_len))

    def mutate(seed_tag):
        muts = draw(
            st.lists(
                st.tuples(st.integers(0, len(anc) - 1), st.sampled_from(alphabet)),
                max_size=6,
            )
        )
        s = list(anc)
        for pos, ch in muts:
            s[pos] = ch
        return "".join(s)

    subjects = [SeqRecord(f"s{i}", mutate(i)) for i in range(n_subjects)]
    queries = []
    for i in range(n_queries):
        start = draw(st.integers(0, max(len(anc) - 40, 0)))
        length = draw(st.integers(30, len(anc)))
        queries.append(SeqRecord(f"q{i}", mutate(100 + i)[start : start + length]))
    return queries, subjects


def _parity(engine, queries, partition):
    with no_containment():
        h_fused = engine.search_block(queries, partition)
    fused = engine.last_stats
    with staged_scheduler():
        h_staged = engine.search_block(queries, partition)
    staged = engine.last_stats
    assert h_fused == h_staged
    # The same triggers, not only the same survivors: an extension repeated
    # inside its run's coverage would be culled out of the HSP lists.
    assert (fused.n_word_hits, fused.n_ungapped, fused.n_gapped) == (
        staged.n_word_hits, staged.n_ungapped, staged.n_gapped)


@given(_family(DNA_ALPHABET), SLAB_ROWS)
@settings(max_examples=25, deadline=None)
def test_blastn_fused_matches_staged(family, slab_rows):
    queries, subjects = family
    engine = make_engine(BlastOptions.blastn(fused_slab_rows=slab_rows))
    _parity(engine, queries, _ArrayPartition(subjects, "dna"))


@st.composite
def _repeat_family(draw, n_subjects=5):
    """Repeat-bearing subjects and queries cut across their tandem arrays.

    ``random_genome(repeat_fraction > 0)`` writes a tandem array of one
    unit into each subject, so a query that overlaps the array meets it on
    a ladder of diagonals one unit apart, each a run of many word hits.
    *Scars* (stretches overwritten in place, so diagonals are kept) stop an
    ungapped extension in the middle of a run: the hits behind the scar are
    past the run's coverage and trigger again in a later round, which is
    the one-hit path that leaves the array gathers for a ``searchsorted``.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    unit = draw(st.sampled_from([12, 24, 31]))
    queries, subjects = [], []
    for i in range(n_subjects):
        genome = random_genome(
            draw(st.integers(500, 800)), seed_or_rng=rng,
            repeat_fraction=draw(st.sampled_from([0.15, 0.3])), repeat_unit=unit,
        )
        if i < 2:
            start = draw(st.integers(0, len(genome) - 300))
            queries.append(SeqRecord(f"q{i}", genome[start : start + draw(st.integers(150, 300))]))
        chars = list(mutate_dna(genome, rate=draw(st.sampled_from([0.0, 0.03])), seed_or_rng=rng))
        for _ in range(draw(st.integers(0, 4))):
            at = draw(st.integers(0, len(chars) - 40))
            chars[at : at + 30] = rng.choice(list(DNA_ALPHABET), size=30)
        subjects.append(SeqRecord(f"s{i}", "".join(chars)))
    return queries, subjects


@given(_repeat_family(), st.sampled_from([1, 700, 65536]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_blastn_repeat_runs_match_staged(family, slab_rows, dust):
    """Several word hits a run, coverage jumps, and a slab bound that makes
    the pool refill while earlier subjects still have runs to go."""
    queries, subjects = family
    engine = make_engine(BlastOptions.blastn(fused_slab_rows=slab_rows, dust=dust, evalue=1e-3))
    _parity(engine, queries, _ArrayPartition(subjects, "dna"))


def _scarred_repeat_case():
    rng = np.random.default_rng(5)
    genome = random_genome(900, seed_or_rng=rng, repeat_fraction=0.3, repeat_unit=24)
    queries = [SeqRecord("q0", genome)]
    subjects = []
    for i in range(6):
        chars = list(genome)
        for at in (150 + 40 * i, 420, 700 - 30 * i):
            chars[at : at + 30] = rng.choice(list(DNA_ALPHABET), size=30)
        subjects.append(SeqRecord(f"s{i}", "".join(chars)))
    return queries, _ArrayPartition(subjects, "dna")


def test_blastn_runs_trigger_again_past_their_coverage():
    """The case the strategy above is built to reach, once, checked for
    having reached it: runs with hits left past a scar trigger in later
    rounds, and a tight slab bound refills the pool mid-partition."""
    queries, partition = _scarred_repeat_case()
    wide = make_engine(BlastOptions.blastn(dust=False))
    _parity(wide, queries, partition)
    hits = wide.search_block(queries, partition)
    stats = wide.last_stats
    # Subjects are open together, so the rounds are the deepest run's
    # triggers: at least the three stretches the two scars of the main
    # diagonal leave.
    assert stats.fused_rounds >= 3
    assert stats.n_ungapped > stats.n_subjects

    tight = make_engine(BlastOptions.blastn(dust=False, fused_slab_rows=1))
    _parity(tight, queries, partition)
    assert tight.search_block(queries, partition) == hits
    # One subject at a time: every subject pays its own rounds.
    assert tight.last_stats.fused_rounds > stats.fused_rounds
    assert tight.last_stats.n_ungapped == stats.n_ungapped
    assert tight.last_stats.peak_slab_bytes < stats.peak_slab_bytes


@given(_family(AA_ALPHABET), SLAB_ROWS)
@settings(max_examples=25, deadline=None)
def test_blastp_fused_matches_staged(family, slab_rows):
    queries, subjects = family
    engine = make_engine(BlastOptions.blastp(fused_slab_rows=slab_rows))
    _parity(engine, queries, _ArrayPartition(subjects, "protein"))


@given(_family(DNA_ALPHABET, min_len=90, max_len=150), SLAB_ROWS)
@settings(max_examples=15, deadline=None)
def test_blastx_fused_matches_staged(family, slab_rows):
    # DNA queries against the protein translations of the subjects: six
    # query frames per record flow through the inner blastp engine.
    from repro.bio.seq import translate

    queries, subjects = family
    db = [
        SeqRecord(f"p{i}", translate(rec.seq, stop=False))
        for i, rec in enumerate(subjects)
    ]
    db = [r for r in db if len(r.seq) >= 10]
    if not db:
        return
    engine = make_engine(BlastOptions.blastx(fused_slab_rows=slab_rows))
    _parity(engine, queries, _ArrayPartition(db, "protein"))


@given(_family(DNA_ALPHABET, min_len=90, max_len=150), SLAB_ROWS)
@settings(max_examples=15, deadline=None)
def test_tblastn_fused_matches_staged(family, slab_rows):
    # Protein queries against six-frame translated DNA subjects.
    from repro.bio.seq import translate

    nt_queries, subjects = family
    queries = [
        SeqRecord(f"pq{i}", translate(rec.seq, stop=False))
        for i, rec in enumerate(nt_queries)
    ]
    queries = [r for r in queries if len(r.seq) >= 10]
    if not queries:
        return
    engine = TblastnEngine(BlastOptions.blastp(fused_slab_rows=slab_rows))
    _parity(engine, queries, _ArrayPartition(subjects, "dna"))


@given(_family(AA_ALPHABET, n_subjects=6), st.sampled_from([1, 5, 64]))
@settings(max_examples=10, deadline=None)
def test_fused_slab_bound_independence(family, slab_rows):
    """The slab bound is a memory knob, never a result knob: any bound
    produces the same HSPs as the open-everything schedule."""
    queries, subjects = family
    partition = _ArrayPartition(subjects, "protein")
    wide = make_engine(BlastOptions.blastp(fused_slab_rows=1 << 30))
    tight = make_engine(BlastOptions.blastp(fused_slab_rows=slab_rows))
    assert wide.search_block(queries, partition) == tight.search_block(
        queries, partition
    )
    # The tight bound may only lower (never raise) the per-round slab peak.
    assert tight.last_stats.peak_slab_bytes <= max(
        wide.last_stats.peak_slab_bytes, tight.last_stats.peak_slab_bytes
    )


def test_fused_stats_accounting():
    """Fused stage seconds cover disjoint regions (no double counting) and
    the round/slab counters behave: rounds > 0 with hits, the staged oracle
    reports zero rounds, the counters that do not depend on the scheduler
    agree exactly, and every seed the oracle extends is either extended or
    contained here."""
    rng = np.random.default_rng(11)
    anc = "".join(rng.choice(list(AA_ALPHABET), size=200))
    queries = [SeqRecord("q0", anc[10:190])]
    subjects = [SeqRecord(f"s{i}", anc) for i in range(5)]
    partition = _ArrayPartition(subjects, "protein")

    engine = make_engine(BlastOptions.blastp())
    h_fused = engine.search_block(queries, partition)
    fs = engine.last_stats
    with staged_scheduler():
        assert engine.search_block(queries, partition) == h_fused
    ss = engine.last_stats

    assert fs.fused_rounds > 0 and fs.peak_slab_bytes > 0
    assert ss.fused_rounds == 0 and ss.peak_slab_bytes == 0
    assert (fs.n_subjects, fs.n_word_hits, fs.n_ungapped, fs.n_reported) \
        == (ss.n_subjects, ss.n_word_hits, ss.n_ungapped, ss.n_reported)
    assert fs.n_contained > 0 and ss.n_contained == 0
    assert fs.n_gapped + fs.n_contained == ss.n_gapped
    # Stage timers cover disjoint code regions inside the busy interval.
    for s in (fs, ss):
        assert 0.0 < s.seed_seconds + s.ungapped_seconds + s.gapped_seconds <= s.busy_seconds
