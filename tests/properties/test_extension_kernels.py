"""Parity properties: batched/banded extension kernels vs their oracles.

The contract is bit-identity, not approximation: every complete row of
:func:`batch_ungapped_extend` must equal :func:`ungapped_extend` field for
field, and the lockstep gapped kernel (:func:`extend_gapped_batch`, band-
compressed int32, live-set compaction, full-band rows for four or fewer
live halves, the live-column window from five up) must reproduce
``oracles.dense_gapped.reference_extend_gapped`` (dense float32, one half
at a time) including coordinates and operation strings.  Random sequences
here are deliberately homolog-biased so the gapped band actually fills,
plus directed cases aimed at the block boundaries, the band edges and the
extents-only path.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio import mutate_dna, random_genome, random_protein
from repro.bio.alphabet import DNA, PROTEIN
from repro.blast.extend import batch_ungapped_extend, ungapped_extend
import repro.blast.gapped as gapped_mod
from repro.blast.gapped import extend_gapped, extend_gapped_batch
from repro.blast.matrices import BLOSUM62, nucleotide_matrix

from repro.blast.reference import smith_waterman

from oracles.dense_gapped import reference_extend_gapped

NT = nucleotide_matrix(1, -2)

dna_seq = st.text(alphabet="ACGT", min_size=30, max_size=150)


def _scalar_tuple(q, s, qp, sp, word, matrix, xdrop):
    u = ungapped_extend(q, s, qp, sp, word, matrix, xdrop)
    return (u.score, u.q_start, u.q_end, u.s_start, u.s_end)


def _batch_row(ext, r):
    return (
        int(ext.score[r]),
        int(ext.q_start[r]),
        int(ext.q_end[r]),
        int(ext.s_start[r]),
        int(ext.s_end[r]),
    )


class TestBatchedUngappedParity:
    @given(
        dna_seq,
        st.integers(0, 2**31 - 1),
        st.sampled_from([2, 4, 8, 16, 64]),
        st.floats(1.0, 25.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_complete_rows_match_scalar(self, base, seed, window, xdrop):
        """Every complete row is bit-identical; incomplete rows lower-bound."""
        word = 8
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.10, seed_or_rng=seed))
        rng = np.random.default_rng(seed)
        n_hits = 25
        qp = rng.integers(0, q.size - word + 1, size=n_hits)
        sp = rng.integers(0, s.size - word + 1, size=n_hits)
        # Capped at the initial window: rows that outrun it must say so.
        capped = batch_ungapped_extend(
            q, s, qp, sp, word, NT, xdrop, window=window, max_window=window
        )
        # Default escalation: every row terminates in-batch.
        ext = batch_ungapped_extend(q, s, qp, sp, word, NT, xdrop, window=window)
        assert ext.complete.all()
        for r in range(n_hits):
            scalar = _scalar_tuple(q, s, int(qp[r]), int(sp[r]), word, NT, xdrop)
            assert _batch_row(ext, r) == scalar
            if capped.complete[r]:
                assert _batch_row(capped, r) == scalar
            else:
                # Window truncation can only lose score, never invent it.
                assert int(capped.score[r]) <= scalar[0]

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 3, 7]))
    @settings(max_examples=40, deadline=None)
    def test_protein_rows_match_scalar(self, seed, window):
        rng = np.random.default_rng(seed)
        base = random_protein(120, seed_or_rng=seed)
        q = PROTEIN.encode(base)
        chars = list(base)
        aa = "ARNDCQEGHILKMFPSTWYV"
        for i in range(len(chars)):
            if rng.random() < 0.2:
                chars[i] = aa[rng.integers(0, 20)]
        s = PROTEIN.encode("".join(chars))
        word = 3
        qp = rng.integers(0, q.size - word + 1, size=15)
        sp = rng.integers(0, s.size - word + 1, size=15)
        ext = batch_ungapped_extend(q, s, qp, sp, word, BLOSUM62, 16.0, window=window)
        assert ext.complete.all()
        for r in range(15):
            assert _batch_row(ext, r) == _scalar_tuple(
                q, s, int(qp[r]), int(sp[r]), word, BLOSUM62, 16.0
            )

    def test_all_negative_scores_terminate_immediately(self):
        """No-similarity pairs: the X-drop fires inside any window."""
        q = DNA.encode("A" * 80)
        s = DNA.encode("C" * 80)
        qp = np.array([10, 30, 50])
        sp = np.array([12, 28, 55])
        # With -2 per step and xdrop=5 the drop proves itself at step 3,
        # so any window of at least 3 terminates every row in-batch.
        for window in (3, 64):
            ext = batch_ungapped_extend(q, s, qp, sp, 8, NT, xdrop=5.0, window=window)
            assert ext.complete.all()
            for r in range(3):
                assert _batch_row(ext, r) == _scalar_tuple(
                    q, s, int(qp[r]), int(sp[r]), 8, NT, 5.0
                )
                # Pure mismatch: no gain on either side, seed word only.
                assert int(ext.q_end[r]) - int(ext.q_start[r]) == 8

    def test_boundary_hits_are_complete(self):
        """Hits whose reach ends exactly at a sequence boundary complete
        in-window: the pad forces the drop at the edge, not past it."""
        seq = DNA.encode(random_genome(100, seed_or_rng=7))
        word = 11
        # Seed at the very start and very end: one side has avail == 0.
        qp = np.array([0, 100 - word])
        sp = np.array([0, 100 - word])
        ext = batch_ungapped_extend(seq, seq, qp, sp, word, NT, 20.0, window=128)
        assert ext.complete.all()
        for r in range(2):
            assert _batch_row(ext, r) == _scalar_tuple(
                seq, seq, int(qp[r]), int(sp[r]), word, NT, 20.0
            )
            assert (int(ext.q_start[r]), int(ext.q_end[r])) == (0, 100)


def _assert_gapped_parity(q, s, q_seed, s_seed, matrix, go, ge, xdrop, band):
    got = extend_gapped(q, s, q_seed, s_seed, matrix, go, ge, xdrop, band)
    want = reference_extend_gapped(q, s, q_seed, s_seed, matrix, go, ge, xdrop, band)
    # Frozen dataclass equality covers score, all four coordinates,
    # identities, align_len, gaps, and the ops string.
    assert got == want


class TestBandedGappedParity:
    @given(
        dna_seq,
        st.integers(0, 2**31 - 1),
        st.integers(1, 48),
        st.floats(5.0, 60.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dna_homologs(self, base, seed, band, xdrop):
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.08, seed_or_rng=seed))
        rng = np.random.default_rng(seed)
        q_seed = int(rng.integers(0, q.size + 1))
        s_seed = int(rng.integers(0, s.size + 1))
        _assert_gapped_parity(q, s, q_seed, s_seed, NT, 5, 2, xdrop, band)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 32))
    @settings(max_examples=30, deadline=None)
    def test_protein_homologs(self, seed, band):
        rng = np.random.default_rng(seed)
        base = random_protein(130, seed_or_rng=seed)
        chars = list(base)
        aa = "ARNDCQEGHILKMFPSTWYV"
        for i in range(len(chars)):
            if rng.random() < 0.15:
                chars[i] = aa[rng.integers(0, 20)]
        q = PROTEIN.encode(base)
        s = PROTEIN.encode("".join(chars))
        mid = q.size // 2
        _assert_gapped_parity(q, s, mid, mid, BLOSUM62, 11, 1, 38.0, band)

    @given(dna_seq, st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unrelated_sequences(self, base, seed):
        """Unrelated pairs: both kernels must agree even when the answer is
        None or a tiny chance alignment."""
        q = DNA.encode(base)
        s = DNA.encode(random_genome(len(base), seed_or_rng=seed))
        _assert_gapped_parity(q, s, q.size // 2, s.size // 2, NT, 5, 2, 20.0, 16)

    def test_all_negative_is_none_in_both(self):
        q = DNA.encode("A" * 40)
        s = DNA.encode("C" * 40)
        for band in (1, 8, 48):
            got = extend_gapped(q, s, 20, 20, NT, 5, 2, 10.0, band)
            want = reference_extend_gapped(q, s, 20, 20, NT, 5, 2, 10.0, band)
            assert got is None and want is None

    def test_band_edge_insertion(self):
        """An insertion of exactly ``band`` needs the outermost diagonal;
        one of ``band + 1`` does not fit.  Parity must hold right at the
        edge in both regimes."""
        left = random_genome(60, seed_or_rng=30)
        right = random_genome(60, seed_or_rng=31)
        for gap_len, band in [(8, 8), (9, 8), (1, 1), (2, 1)]:
            insert = random_genome(gap_len, seed_or_rng=32 + gap_len)
            q = DNA.encode(left + right)
            s = DNA.encode(left + insert + right)
            _assert_gapped_parity(q, s, 5, 5, NT, 5, 2, 200.0, band)

    def test_query_longer_than_subject(self):
        """Rows past the subject end exercise the tail masking and the
        extended s_pad sizing."""
        base = random_genome(120, seed_or_rng=40)
        q = DNA.encode(base)
        s = DNA.encode(base[:35])
        _assert_gapped_parity(q, s, 0, 0, NT, 5, 2, 80.0, 12)
        _assert_gapped_parity(q, s, 10, 10, NT, 5, 2, 80.0, 4)

    def test_seed_at_sequence_ends(self):
        """Degenerate halves: one side of the seed is empty."""
        base = random_genome(50, seed_or_rng=41)
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.05, seed_or_rng=42))
        for q_seed, s_seed in [(0, 0), (q.size, s.size), (0, s.size)]:
            _assert_gapped_parity(q, s, q_seed, s_seed, NT, 5, 2, 30.0, 16)


def _random_seed_batch(rng, n_seeds):
    """Mixed-depth seed batch: homologous pairs, unrelated pairs, and
    edge seeds, with wildly different half depths so the lockstep chunks
    mix long and short halves."""
    seeds = []
    for t in range(n_seeds):
        length = int(rng.integers(20, 220))
        base = random_genome(length, seed_or_rng=int(rng.integers(2**31)))
        q = DNA.encode(base)
        if rng.random() < 0.25:
            s = DNA.encode(random_genome(length, seed_or_rng=int(rng.integers(2**31))))
        else:
            s = DNA.encode(
                mutate_dna(base, float(rng.uniform(0.02, 0.15)),
                           seed_or_rng=int(rng.integers(2**31)))
            )
        if t % 7 == 0:  # edge seeds: one half empty
            q_seed, s_seed = (0, 0) if t % 14 else (int(q.size), int(s.size))
        else:
            q_seed = int(rng.integers(0, q.size + 1))
            s_seed = int(rng.integers(0, s.size + 1))
        seeds.append((q, s, q_seed, s_seed))
    return seeds


class TestBatchedGappedParity:
    """``extend_gapped_batch`` vs the per-seed kernels, seed for seed."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_per_seed_reference(self, seed):
        rng = np.random.default_rng(seed)
        seeds = _random_seed_batch(rng, 25)
        got = extend_gapped_batch(seeds, NT, 5, 2, 25.0, 24)
        want = [
            reference_extend_gapped(q, s, qp, sp, NT, 5, 2, 25.0, 24)
            for q, s, qp, sp in seeds
        ]
        assert got == want

    def test_chunked_batches_match_unchunked(self, monkeypatch):
        """Force many tiny lockstep chunks: results must not depend on how
        the batch is cut or reordered internally."""
        rng = np.random.default_rng(99)
        seeds = _random_seed_batch(rng, 30)
        whole = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 16)
        monkeypatch.setattr(gapped_mod, "_CHUNK_BYTES", 1)  # one seed a chunk
        chunked = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 16)
        assert chunked == whole
        assert whole == [
            reference_extend_gapped(q, s, qp, sp, NT, 5, 2, 30.0, 16)
            for q, s, qp, sp in seeds
        ]

    def test_protein_batch(self):
        rng = np.random.default_rng(5)
        aa = "ARNDCQEGHILKMFPSTWYV"
        seeds = []
        for t in range(12):
            base = random_protein(int(rng.integers(40, 200)),
                                  seed_or_rng=int(rng.integers(2**31)))
            chars = list(base)
            for i in range(len(chars)):
                if rng.random() < 0.15:
                    chars[i] = aa[rng.integers(0, 20)]
            q = PROTEIN.encode(base)
            s = PROTEIN.encode("".join(chars))
            seeds.append((q, s, int(q.size // 2), int(s.size // 2)))
        got = extend_gapped_batch(seeds, BLOSUM62, 11, 1, 38.0, 32)
        want = [
            reference_extend_gapped(q, s, qp, sp, BLOSUM62, 11, 1, 38.0, 32)
            for q, s, qp, sp in seeds
        ]
        assert got == want

    def test_empty_batch(self):
        assert extend_gapped_batch([], NT, 5, 2, 20.0, 8) == []


def _reference_batch(seeds, matrix, go, ge, xdrop, band):
    return [
        reference_extend_gapped(q, s, qp, sp, matrix, go, ge, xdrop, band)
        for q, s, qp, sp in seeds
    ]


def _mixed_batch(rng, n_random, n_long, long_len=260):
    """The engine's real batch shape: a few long true homologs among many
    chance seeds that X-drop kills within a few dozen rows, all cut from a
    handful of shared sequences so depths are ragged."""
    seeds = []
    for _ in range(n_long):
        base = random_genome(long_len, seed_or_rng=int(rng.integers(2**31)))
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.05, seed_or_rng=int(rng.integers(2**31))))
        mid = int(rng.integers(long_len // 3, 2 * long_len // 3))
        seeds.append((q, s, mid, min(mid, int(s.size))))
    queries = [DNA.encode(random_genome(int(rng.integers(40, 180)),
                                        seed_or_rng=int(rng.integers(2**31))))
               for _ in range(6)]
    subjects = [DNA.encode(random_genome(int(rng.integers(300, 900)),
                                         seed_or_rng=int(rng.integers(2**31))))
                for _ in range(4)]
    for _ in range(n_random):
        q = queries[int(rng.integers(len(queries)))]
        s = subjects[int(rng.integers(len(subjects)))]
        seeds.append((q, s, int(rng.integers(0, q.size + 1)), int(rng.integers(0, s.size + 1))))
    order = rng.permutation(len(seeds))
    return [seeds[i] for i in order]


def _extents(g):
    return None if g is None else (g.score, g.q_start, g.q_end, g.s_start, g.s_end)


#: row-block height by live halves: 16 rows from eight halves up
TALL_ROWS = {1: 64, 2: 64, 3: 32, 4: 32, 5: 16, 6: 16, 7: 16}


@contextlib.contextmanager
def _recorded_blocks():
    """Yield a list that collects, per lockstep chunk, its row blocks as
    ``(first DP row, rows, live halves)``."""
    chunks = []
    real = gapped_mod._lockstep_dp

    def spy(*args):
        out = real(*args)
        blocks, owners, bases = out[3:]
        chunks.append([(base, blk.shape[0], own.size)
                       for blk, own, base in zip(blocks, owners, bases)])
        return out

    with mock.patch.object(gapped_mod, "_lockstep_dp", spy):
        yield chunks


def _assert_height_rule(chunk):
    """Blocks tile the rows, are never taller than their live set allows,
    and all but the last end on a 16-row boundary."""
    for n, (base, rows, live) in enumerate(chunk):
        assert 0 < rows <= TALL_ROWS.get(live, 16)
        if n + 1 < len(chunk):
            assert rows % 16 == 0 and chunk[n + 1][0] == base + rows
        if n:
            assert live <= chunk[n - 1][2]  # the live set only shrinks


def _homolog_seed(rng, length=300, q_seed=None):
    base = random_genome(length, seed_or_rng=int(rng.integers(2**31)))
    q = DNA.encode(base)
    s = DNA.encode(mutate_dna(base, 0.04, seed_or_rng=int(rng.integers(2**31))))
    mid = int(rng.integers(length // 3, 2 * length // 3)) if q_seed is None else q_seed
    return q, s, mid, min(mid, int(s.size))


class TestRowBlockHeights:
    """The row block's height follows the live set: 64 rows for one or two
    live halves, 32 for three or four (rows over the full band), 16 from
    five up (rows on the live-column window); each height is checked
    against the dense oracle element for element."""

    @pytest.mark.parametrize("halves", [1, 2, 3, 4, 5, 6, 8, 64])
    def test_each_height_matches_the_dense_oracle(self, halves):
        rng = np.random.default_rng(90 + halves)
        # A seed at the query start has no left half: it brings one.
        seeds = [_homolog_seed(rng) for _ in range(halves // 2)]
        if halves % 2:
            seeds.append(_homolog_seed(rng, q_seed=0))
        with _recorded_blocks() as chunks:
            got = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 24)
        assert got == _reference_batch(seeds, NT, 5, 2, 30.0, 24)
        assert all(g is not None and g.align_len > 90 for g in got)
        (chunk,) = chunks
        _assert_height_rule(chunk)
        assert chunk[0][1:] == (TALL_ROWS.get(halves, 16), halves)

    def test_a_traceback_stitches_blocks_of_two_heights(self):
        """Chance seeds die a few dozen rows in; the homolog's two halves
        then run on alone in 64-row blocks, and its traceback walks back
        through both: windowed rows of eight halves, then full-band rows."""
        rng = np.random.default_rng(95)
        q, s, mid, s_mid = _homolog_seed(rng, length=400, q_seed=200)
        junk = [(DNA.encode(random_genome(200, seed_or_rng=int(rng.integers(2**31)))),
                 DNA.encode(random_genome(200, seed_or_rng=int(rng.integers(2**31)))),
                 100, 100) for _ in range(3)]
        seeds = [(q, s, mid, s_mid)] + junk
        stitched = []
        real_stitch = gapped_mod._stitch

        def stitch(h, last_row, blocks, owners, bases):
            grid = real_stitch(h, last_row, blocks, owners, bases)
            stitched.append({blk.shape[0] for blk, base in zip(blocks, bases)
                             if base <= last_row})
            return grid

        with _recorded_blocks() as chunks, \
                mock.patch.object(gapped_mod, "_stitch", stitch):
            got = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 24)
        assert got == _reference_batch(seeds, NT, 5, 2, 30.0, 24)
        assert got[0].align_len > 390
        (chunk,) = chunks
        _assert_height_rule(chunk)
        assert chunk[0][1:] == (16, 8) and chunk[-1][2] <= 2
        assert {16, 64} <= stitched[0]


def _lone_seed_parity(seeds, matrix, go, ge, xdrop, band):
    """Four or fewer halves: every row runs over the full band, so each row
    counts the whole band of every live half."""
    stats = {}
    got = extend_gapped_batch(seeds, matrix, go, ge, xdrop, band, stats=stats)
    assert got == _reference_batch(seeds, matrix, go, ge, xdrop, band)
    assert stats["dp_cells"] % (2 * band + 1) == 0
    return got


class TestFullBandRows:
    """The regime for four or fewer live halves, at the edges the window
    never reaches: the first ``band`` rows compute cells left of the
    subject's first residue, which must never come alive; the subject's end
    inside the band; the narrowest bands; BLOSUM62's widest gap runs."""

    @pytest.mark.parametrize("q_seed, s_seed", [(0, 0), (2, 5), (6, 1), (3, 3)])
    def test_seeds_near_the_start_of_both_sequences(self, q_seed, s_seed):
        base = random_genome(150, seed_or_rng=83)
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.04, seed_or_rng=84))
        _lone_seed_parity([(q, s, q_seed, s_seed)], NT, 5, 2, 30.0, 24)
        _lone_seed_parity([(q, s, q_seed, s_seed), (s, q, s_seed, q_seed)], NT, 5, 2, 30.0, 24)

    @pytest.mark.parametrize("s_len", [10, 30, 45])
    def test_subject_ending_inside_the_band(self, s_len):
        base = random_genome(120, seed_or_rng=85)
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.03, seed_or_rng=86)[:s_len])
        got = _lone_seed_parity([(q, s, 0, 0), (q, s, 5, 5)], NT, 5, 2, 80.0, 24)
        assert got[0].s_end <= s_len

    @pytest.mark.parametrize("band", [1, 2])
    def test_narrow_bands(self, band):
        left = random_genome(70, seed_or_rng=87)
        right = random_genome(70, seed_or_rng=88)
        q = DNA.encode(left + right)
        s = DNA.encode(left + "A" * band + right)  # an insertion the band just holds
        _lone_seed_parity([(q, s, 35, 35)], NT, 5, 2, 60.0, band)
        _lone_seed_parity([(q, s, 35, 35), (s, q, 35, 35)], NT, 5, 2, 60.0, band)

    def test_blosum62_with_unit_gap_extension(self):
        head = random_protein(40, seed_or_rng=89) + "AW"
        tail = "WWW" + random_protein(60, seed_or_rng=90)
        q = PROTEIN.encode(head + tail)
        s = PROTEIN.encode(head + random_protein(20, seed_or_rng=91) + tail)
        got = _lone_seed_parity([(q, s, 20, 20)], BLOSUM62, 11, 1, 38.0, 32)
        assert got[0].gaps == 20


class TestLiveSetKernel:
    """The mechanisms of the one-pass kernel: compaction at block
    boundaries, the live-column window, extents-only results."""

    @given(st.integers(0, 2**31 - 1), st.integers(50, 300), st.integers(1, 2))
    @settings(max_examples=8, deadline=None)
    def test_mixed_batches_match_reference(self, seed, n_random, n_long):
        rng = np.random.default_rng(seed)
        seeds = _mixed_batch(rng, n_random, n_long)
        stats = {}
        with _recorded_blocks() as chunks:
            got = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 48, stats=stats)
        assert got == _reference_batch(seeds, NT, 5, 2, 30.0, 48)
        # The long halves outlive the chance seeds by several row blocks,
        # so the batch was compacted on the way, the survivors running in
        # the taller blocks a small live set takes, and most of the band
        # was never computed (a lone homolog's live window is about a third
        # of the band; chance seeds cost far less).
        for chunk in chunks:
            _assert_height_rule(chunk)
        chunk = max(chunks, key=len)
        assert chunk[0][2] > 8 >= chunk[-1][2]
        full = sum(q.size for q, _, _, _ in seeds) * 97
        assert stats["dp_cells"] < full // 2

    def test_half_dying_mid_block_keeps_its_neighbours_right(self):
        """A chance half is X-dropped a few rows into a block and rides to
        the boundary as sentinels next to a live homolog."""
        base = random_genome(200, seed_or_rng=70)
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.04, seed_or_rng=71))
        junk_q = DNA.encode("ACGT" * 3 + "A" * 60)
        junk_s = DNA.encode("ACGT" * 3 + "C" * 60)
        seeds = [(q, s, 0, 0), (junk_q, junk_s, 0, 0), (q, s, 100, 100)]
        assert extend_gapped_batch(seeds, NT, 5, 2, 20.0, 16) == _reference_batch(
            seeds, NT, 5, 2, 20.0, 16
        )

    @pytest.mark.parametrize("depth", [5, 15, 16, 17, 20, 31, 32, 33, 48, 49])
    def test_query_ending_mid_block_is_not_scored_past_its_end(self, depth):
        """Regression: a half whose query is exhausted inside a block keeps
        producing real-valued rows (from whatever follows it in memory)
        until the boundary; they must not move its best cell.  The subject
        goes on matching past the query's end, so a kernel that counted
        those rows would report a longer, better alignment."""
        base = random_genome(300, seed_or_rng=72)
        s = DNA.encode(base)
        short_q = DNA.encode(base[:depth])
        long_q = DNA.encode(mutate_dna(base, 0.03, seed_or_rng=73))
        seeds = [(short_q, s, 0, 0), (long_q, s, 0, 0)]
        got = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 24)
        assert got == _reference_batch(seeds, NT, 5, 2, 30.0, 24)
        assert (got[0].q_end, got[0].score) == (depth, depth)

    def test_loop_runs_until_no_live_half_has_a_row_left(self):
        """Regression: the lockstep loop ends when no live half has a row
        left, which is neither "all queries exhausted once" nor "nothing
        alive": here every half is alive at every boundary and they run
        out of query at different blocks, the last one alone."""
        base = random_genome(120, seed_or_rng=74)
        s = DNA.encode(base)
        seeds = [(DNA.encode(base[:n]), s, 0, 0) for n in (16, 32, 33, 64, 100)]
        got = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 16)
        assert got == _reference_batch(seeds, NT, 5, 2, 30.0, 16)
        assert [g.q_end for g in got] == [16, 32, 33, 64, 100]

    @pytest.mark.parametrize("band", [1, 2, 16])
    def test_sequence_ends_short_subjects_and_narrow_bands(self, band):
        base = random_genome(150, seed_or_rng=75)
        q = DNA.encode(base)
        s_full = DNA.encode(mutate_dna(base, 0.05, seed_or_rng=76))
        s_short = DNA.encode(base[:40])
        seeds = [
            (q, s_full, 0, 0),
            (q, s_full, int(q.size), int(s_full.size)),
            (q, s_full, 0, int(s_full.size)),  # both halves empty on one side
            (q, s_short, 0, 0),  # subject shorter than query
            (q, s_short, 20, 20),
            (q, s_short, int(q.size), int(s_short.size)),
            (s_short, q, 40, 40),
        ]
        assert extend_gapped_batch(seeds, NT, 5, 2, 40.0, band) == _reference_batch(
            seeds, NT, 5, 2, 40.0, band
        )

    def test_protein_batch_with_unit_gap_extension(self):
        """BLOSUM62 with ``gap_extend=1`` gives the widest window pad: an
        Iy run opened in a row stays above threshold longest."""
        rng = np.random.default_rng(77)
        aa = "ARNDCQEGHILKMFPSTWYV"
        seeds = []
        for t in range(40):
            base = random_protein(int(rng.integers(30, 220)),
                                  seed_or_rng=int(rng.integers(2**31)))
            chars = list(base)
            if t % 4:  # three in four are unrelated: they die early
                chars = list(random_protein(len(base), seed_or_rng=int(rng.integers(2**31))))
            else:
                for i in range(len(chars)):
                    if rng.random() < 0.2:
                        chars[i] = aa[rng.integers(0, 20)]
                del chars[len(chars) // 2 : len(chars) // 2 + 3]  # a 3-residue gap
            q = PROTEIN.encode(base)
            s = PROTEIN.encode("".join(chars))
            seeds.append((q, s, int(q.size // 3), int(min(q.size // 3, s.size))))
        assert extend_gapped_batch(seeds, BLOSUM62, 11, 1, 38.0, 32) == _reference_batch(
            seeds, BLOSUM62, 11, 1, 38.0, 32
        )

    @pytest.mark.parametrize("gap_len", [31, 33, 38, 39])
    def test_window_pad_covers_runs_outliving_the_previous_rows_tail(self, gap_len):
        """Why the window needs its right pad.  A tryptophan pair (+11)
        straight after an alanine pair (+4) lets an Iy run opened in that
        row live 7 columns further right than any cell of the row before:
        runs of 32 to 38 residues reach columns a window without pad never
        computes.  Three more tryptophans behind the gap make that run the
        optimal path.  With ``xdrop=38`` and gap costs 11/1, 38 is also the
        longest run that survives at all (the pad's own bound)."""
        head = random_protein(30, seed_or_rng=1) + "AW"
        tail = "WWW" + random_protein(60, seed_or_rng=2)
        insert = random_protein(gap_len, seed_or_rng=3)
        q = PROTEIN.encode(head + tail)
        s = PROTEIN.encode(head + insert + tail)
        other = PROTEIN.encode(random_protein(80, seed_or_rng=4))
        seeds = [(other, s, 10, 40), (q, s, 0, 0), (q, other, 5, 5)]
        got = extend_gapped_batch(seeds, BLOSUM62, 11, 1, 38.0, 48)
        assert got == _reference_batch(seeds, BLOSUM62, 11, 1, 38.0, 48)
        assert got[1].gaps == (gap_len if gap_len <= 38 else 0)

    def test_generous_band_and_xdrop_recover_smith_waterman(self):
        """Ground truth, not parity: seeded on the optimal path with room
        to spare, every extension in a mixed batch scores what exhaustive
        Smith-Waterman scores."""
        rng = np.random.default_rng(78)
        seeds, want = [], []
        for _ in range(6):
            base = random_genome(int(rng.integers(120, 240)),
                                 seed_or_rng=int(rng.integers(2**31)))
            mutated = mutate_dna(base, 0.06, seed_or_rng=int(rng.integers(2**31)))
            q, s = DNA.encode(base), DNA.encode(mutated)
            sw_score, (qs, qe, _, _) = smith_waterman(q, s, NT, 5, 2)
            anchor = next(
                (i, mutated.find(base[i : i + 12]))
                for i in range(qs, qe - 12)
                if mutated.find(base[i : i + 12]) >= 0
            )
            seeds.append((q, s, *anchor))
            want.append(sw_score)
        seeds += _mixed_batch(rng, 40, 0)
        got = extend_gapped_batch(seeds, NT, 5, 2, 50.0, 64)
        assert [g.score for g in got[: len(want)]] == want

    def test_min_scores_skip_only_the_traceback(self):
        rng = np.random.default_rng(79)
        seeds = _mixed_batch(rng, 60, 2)
        traced = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 48)
        stats_traced, stats_bare = {}, {}
        extend_gapped_batch(seeds, NT, 5, 2, 30.0, 48, stats=stats_traced)
        bare = extend_gapped_batch(
            seeds, NT, 5, 2, 30.0, 48, stats=stats_bare, min_scores=[10**9] * len(seeds)
        )
        assert [_extents(g) for g in bare] == [_extents(g) for g in traced]
        assert all(
            (g.identities, g.align_len, g.gaps, g.ops) == (0, 0, 0, "")
            for g in bare if g is not None
        )
        assert stats_bare == stats_traced  # same DP, rows and cells
        assert extend_gapped_batch(
            seeds, NT, 5, 2, 30.0, 48, min_scores=[0] * len(seeds)
        ) == traced
        # A floor is per seed and inclusive: exactly the score is traced.
        floors = [g.score + (t % 2) if g is not None else 0 for t, g in enumerate(traced)]
        mixed = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 48, min_scores=floors)
        for t, (m, g) in enumerate(zip(mixed, traced)):
            if g is not None:
                assert _extents(m) == _extents(g)
                assert (m == g) == (t % 2 == 0)
        with pytest.raises(ValueError):
            extend_gapped_batch(seeds, NT, 5, 2, 30.0, 48, min_scores=[0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_any_order_and_any_split_give_the_same_results(self, seed):
        rng = np.random.default_rng(seed)
        seeds = _mixed_batch(rng, 50, 1)
        whole = extend_gapped_batch(seeds, NT, 5, 2, 30.0, 24)
        order = rng.permutation(len(seeds))
        shuffled = extend_gapped_batch([seeds[i] for i in order], NT, 5, 2, 30.0, 24)
        assert [shuffled[int(np.flatnonzero(order == i)[0])] for i in range(len(seeds))] == whole
        cuts = sorted(int(c) for c in rng.integers(0, len(seeds) + 1, size=3))
        pieces = []
        for lo, hi in zip([0] + cuts, cuts + [len(seeds)]):
            pieces += extend_gapped_batch(seeds[lo:hi], NT, 5, 2, 30.0, 24)
        assert pieces == whole

    def test_large_batch_stays_inside_the_chunk_budget(self):
        """2000 seeds, a few of them deep: what a chunk retains is bounded
        by ``_CHUNK_BYTES`` and the whole call by twice that."""
        rng = np.random.default_rng(80)
        seeds = _mixed_batch(rng, 1990, 10, long_len=400)
        stats = {}
        tracemalloc.start()
        try:
            got = extend_gapped_batch(
                seeds, NT, 5, 2, 30.0, 48, stats=stats, min_scores=[22] * len(seeds)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 2000
        assert 0 < stats["peak_grid_bytes"] <= gapped_mod._CHUNK_BYTES
        assert peak < 2 * gapped_mod._CHUNK_BYTES

    @pytest.mark.parametrize("n_long", [1, 32])
    def test_peak_grid_bytes_covers_what_the_dp_allocates(self, n_long):
        """The reported peak bounds what the row loop really allocates: the
        traceback bytes, the four-plane block buffer with its halo rows, the
        gather's intp array and the traceback-byte temporaries.  Only
        numpy's fixed-size ufunc buffers (two of 8192 intp) are not in it."""
        seeds = _mixed_batch(np.random.default_rng(82), 0, n_long, long_len=400)
        real, held = gapped_mod._lockstep_dp, []

        def measured(*args):
            tracemalloc.start()
            try:
                out = real(*args)
                held.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        stats = {}
        with mock.patch.object(gapped_mod, "_lockstep_dp", measured):
            extend_gapped_batch(seeds, NT, 5, 2, 30.0, 48, stats=stats)
        (traced,) = held
        assert traced <= stats["peak_grid_bytes"] + (2 * 8192 * 8 + (16 << 10))
        assert stats["peak_grid_bytes"] < 1.25 * traced

    def test_full_depth_homolog_batch_stays_inside_the_chunk_budget(self):
        """What a unit's gapped batch is since the gap trigger: every seed a
        homolog that lives to full depth and is traced back.  32 of them
        retain one byte a band cell, 3.2 MB with the working block; three
        int32 scores a cell were 15 MB."""
        rng = np.random.default_rng(81)
        seeds = _mixed_batch(rng, 0, 32, long_len=400)
        stats = {}
        tracemalloc.start()
        try:
            got = extend_gapped_batch(
                seeds, NT, 5, 2, 30.0, 48, stats=stats, min_scores=[22] * len(seeds)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(g is not None and g.align_len >= 390 for g in got)
        assert stats["dp_rows"] <= 400  # one chunk
        assert 0 < stats["peak_grid_bytes"] < 4 << 20 < gapped_mod._CHUNK_BYTES
        assert peak < gapped_mod._CHUNK_BYTES

