"""Word lookup tables and low-complexity masking."""

import numpy as np
import pytest

from repro.bio import SeqRecord, random_genome, random_protein
from repro.bio.alphabet import DNA, PROTEIN
from repro.bio.seq import reverse_complement
from repro.blast.dust import dust_intervals, dust_mask, dust_score
from repro.blast.lookup import NucleotideLookup, ProteinLookup, QueryBlock
from repro.blast.matrices import BLOSUM62
from repro.blast.seg import seg_mask, window_entropy


class TestQueryBlock:
    def test_blastn_block_has_two_contexts_per_query(self):
        recs = [SeqRecord("a", random_genome(50, seed_or_rng=1)),
                SeqRecord("b", random_genome(60, seed_or_rng=2))]
        block = QueryBlock(recs, "blastn", use_mask=False)
        assert len(block.contexts) == 4
        assert [c.strand for c in block.contexts] == [1, -1, 1, -1]
        assert block.total_length == 2 * (50 + 60)
        # Minus context holds the reverse complement.
        assert DNA.decode(block.contexts[1].codes) == reverse_complement(recs[0].seq)

    def test_blastp_block_single_context(self):
        recs = [SeqRecord("p", random_protein(40, seed_or_rng=1))]
        block = QueryBlock(recs, "blastp", use_mask=False)
        assert len(block.contexts) == 1

    def test_context_of_maps_positions(self):
        recs = [SeqRecord("a", random_genome(30, seed_or_rng=3)),
                SeqRecord("b", random_genome(40, seed_or_rng=4))]
        block = QueryBlock(recs, "blastn", use_mask=False)
        assert block.context_of(0) == 0
        assert block.context_of(29) == 0
        assert block.context_of(30) == 1
        assert block.context_of(60) == 2
        np.testing.assert_array_equal(block.context_of(np.array([0, 59, 60])), [0, 1, 2])

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            QueryBlock([], "blastn", use_mask=False)


class TestNucleotideLookup:
    def test_finds_all_exact_word_matches(self):
        seq = random_genome(200, seed_or_rng=5)
        block = QueryBlock([SeqRecord("q", seq)], "blastn", use_mask=False)
        lut = NucleotideLookup(block, word_size=11)
        subject = DNA.encode(seq)
        qpos, spos = lut.scan(subject)
        # Self-scan must produce the main diagonal of the plus context.
        plus = [(int(qp), int(sp)) for qp, sp in zip(qpos, spos)
                if block.context_of(int(qp)) == 0]
        diag = [(p, p) for p in range(200 - 11 + 1)]
        assert set(diag) <= set(plus)

    def test_no_hits_for_unrelated_sequence(self):
        block = QueryBlock([SeqRecord("q", random_genome(100, seed_or_rng=6))],
                           "blastn", use_mask=False)
        lut = NucleotideLookup(block, word_size=11)
        qpos, spos = lut.scan(DNA.encode(random_genome(100, seed_or_rng=999)))
        assert qpos.size == spos.size
        assert qpos.size < 5  # chance 11-mer collisions are very rare

    def test_masked_positions_produce_no_seeds(self):
        low = "A" * 80  # poly-A: DUST masks it
        block = QueryBlock([SeqRecord("q", low)], "blastn", use_mask=True)
        lut = NucleotideLookup(block, word_size=11)
        qpos, _ = lut.scan(DNA.encode(low))
        assert qpos.size == 0

    def test_word_size_validation(self):
        block = QueryBlock([SeqRecord("q", "ACGTACGT")], "blastn", use_mask=False)
        with pytest.raises(ValueError):
            NucleotideLookup(block, word_size=2)

    def test_short_query_yields_empty_table(self):
        block = QueryBlock([SeqRecord("q", "ACGT")], "blastn", use_mask=False)
        lut = NucleotideLookup(block, word_size=11)
        assert lut.n_words == 0
        qpos, spos = lut.scan(DNA.encode(random_genome(50, seed_or_rng=1)))
        assert qpos.size == 0


class TestProteinLookup:
    def test_self_words_present(self):
        seq = random_protein(60, seed_or_rng=7)
        block = QueryBlock([SeqRecord("p", seq)], "blastp", use_mask=False)
        lut = ProteinLookup(block, threshold=11)
        qpos, spos = lut.scan(PROTEIN.encode(seq))
        hits = set(zip(qpos.tolist(), spos.tolist()))
        codes = PROTEIN.encode(seq)
        for i in range(len(seq) - 2):
            self_score = int(BLOSUM62[codes[i], codes[i]] + BLOSUM62[codes[i+1], codes[i+1]]
                             + BLOSUM62[codes[i+2], codes[i+2]])
            if self_score >= 11:
                assert (i, i) in hits

    def test_neighborhood_words_respect_threshold(self):
        # Single word 'WWW' has big self score; neighbours must score >= T.
        block = QueryBlock([SeqRecord("p", "WWW")], "blastp", use_mask=False)
        lut = ProteinLookup(block, threshold=11)
        W = PROTEIN.letters.index("W")
        for word in lut._words.tolist():
            a, b, c = word // 400, (word // 20) % 20, word % 20
            score = int(BLOSUM62[W, a] + BLOSUM62[W, b] + BLOSUM62[W, c])
            assert score >= 11

    def test_higher_threshold_smaller_table(self):
        seq = random_protein(50, seed_or_rng=8)
        block = QueryBlock([SeqRecord("p", seq)], "blastp", use_mask=False)
        loose = ProteinLookup(block, threshold=10)
        strict = ProteinLookup(block, threshold=13)
        assert strict.n_words < loose.n_words

    def test_ambiguity_codes_in_subject_skipped(self):
        seq = random_protein(30, seed_or_rng=9)
        block = QueryBlock([SeqRecord("p", seq)], "blastp", use_mask=False)
        lut = ProteinLookup(block)
        subject = PROTEIN.encode("XXX" + seq + "XXX")
        qpos, spos = lut.scan(subject)
        assert qpos.size > 0  # the embedded copy is still found
        assert (spos >= 1).all()  # no window starting in the X run matches

    def test_word_size_must_be_three(self):
        block = QueryBlock([SeqRecord("p", "ARND")], "blastp", use_mask=False)
        with pytest.raises(ValueError):
            ProteinLookup(block, word_size=4)


class TestDust:
    def test_polya_is_masked(self):
        mask = dust_mask("A" * 100)
        assert mask.all()

    def test_random_sequence_unmasked(self):
        mask = dust_mask(random_genome(500, seed_or_rng=10))
        assert mask.sum() < 25  # < 5% false masking

    def test_tandem_repeat_region_masked(self):
        clean = random_genome(150, seed_or_rng=11)
        repeat = "ACG" * 40
        mask = dust_mask(clean + repeat + clean)
        region = mask[150 : 150 + 120]
        assert region.mean() > 0.8
        assert mask[:120].sum() < 30

    def test_dust_score_extremes(self):
        assert dust_score(DNA.encode("A" * 64)) > 100
        assert dust_score(DNA.encode(random_genome(64, seed_or_rng=12))) < 10

    def test_intervals_cover_mask(self):
        seq = random_genome(100, seed_or_rng=13) + "T" * 80 + random_genome(100, seed_or_rng=14)
        intervals = dust_intervals(seq)
        assert intervals, "poly-T run must be reported"
        covered = set()
        for a, b in intervals:
            assert a < b
            covered.update(range(a, b))
        assert set(range(110, 270)) & covered

    def test_short_sequence_no_crash(self):
        assert not dust_mask("AC").any()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dust_mask("ACGT", window=4)
        with pytest.raises(ValueError):
            dust_mask("ACGT", step=0)


class TestSeg:
    def test_homopolymer_masked(self):
        mask = seg_mask("Q" * 50)
        assert mask.all()

    def test_random_protein_mostly_unmasked(self):
        mask = seg_mask(random_protein(300, seed_or_rng=15))
        assert mask.mean() < 0.1

    def test_low_complexity_region_masked(self):
        seq = random_protein(60, seed_or_rng=16) + "PSPSPSPSPSPSPSPS" + random_protein(60, seed_or_rng=17)
        mask = seg_mask(seq)
        assert mask[60:76].mean() > 0.9

    def test_window_entropy_bounds(self):
        assert window_entropy(PROTEIN.encode("AAAA")) == 0.0
        e = window_entropy(PROTEIN.encode("ARNDCQEGHILK"))
        assert e == pytest.approx(np.log2(12))

    def test_validation(self):
        with pytest.raises(ValueError):
            seg_mask("ARND", window=2)
        with pytest.raises(ValueError):
            seg_mask("ARND", threshold=0)
