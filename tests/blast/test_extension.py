"""Ungapped and gapped extension vs the brute-force Smith-Waterman oracle."""

import numpy as np
import pytest

from repro.bio.alphabet import DNA, PROTEIN
from repro.bio import random_genome, mutate_dna, random_protein
from repro.blast.extend import UngappedHSP, extension_scores, ungapped_extend
from repro.blast.gapped import extend_gapped
from repro.blast.matrices import BLOSUM62, nucleotide_matrix
from repro.blast.reference import smith_waterman, smith_waterman_score

NT = nucleotide_matrix(1, -2)


class TestUngapped:
    def test_perfect_match_extends_fully(self):
        seq = DNA.encode(random_genome(100, seed_or_rng=1))
        u = ungapped_extend(seq, seq, 40, 40, 11, NT, xdrop=20)
        assert (u.q_start, u.q_end) == (0, 100)
        assert (u.s_start, u.s_end) == (0, 100)
        assert u.score == 100

    def test_extension_stops_at_mismatch_wall(self):
        core = random_genome(60, seed_or_rng=2)
        q = DNA.encode("T" * 50 + core + "T" * 50)
        s = DNA.encode("G" * 50 + core + "G" * 50)
        u = ungapped_extend(q, s, 60, 60, 11, NT, xdrop=10)
        assert u.q_start >= 45 and u.q_end <= 115
        assert u.score <= 60

    def test_seed_word_always_included(self):
        q = DNA.encode("ACGTACGTACGTA")
        s = q.copy()
        u = ungapped_extend(q, s, 1, 1, 11, NT, xdrop=5)
        assert u.q_start <= 1 and u.q_end >= 12

    def test_xdrop_tolerates_isolated_mismatch(self):
        base = random_genome(80, seed_or_rng=3)
        mutated = base[:40] + ("A" if base[40] != "A" else "C") + base[41:]
        q, s = DNA.encode(base), DNA.encode(mutated)
        u = ungapped_extend(q, s, 0, 0, 11, NT, xdrop=20)
        # One mismatch costs 3 (lose +1, gain -2); xdrop=20 sails through.
        assert u.q_end == 80
        assert u.score == 79 - 2 - 1 + 1  # 79 matches*1 + 1 mismatch*-2

    def test_out_of_range_seed_rejected(self):
        q = DNA.encode("ACGTACGTACGTACGT")
        with pytest.raises(ValueError):
            ungapped_extend(q, q, 14, 0, 11, NT, xdrop=10)

    def test_extension_scores_validates_lengths(self):
        with pytest.raises(ValueError):
            extension_scores(np.zeros(3, np.uint8), np.zeros(4, np.uint8), NT)

    def test_seed_point_is_inside_segment(self):
        u = UngappedHSP(score=50, q_start=10, q_end=60, s_start=110, s_end=160)
        qm, sm = u.seed_point()
        assert 10 <= qm < 60 and 110 <= sm < 160
        assert qm - 10 == sm - 110  # same offset on the diagonal


class TestGappedVsOracle:
    """The banded X-drop extension must recover the optimal local score
    whenever the optimum passes through the seed and fits in the band."""

    @pytest.mark.parametrize("seed", range(6))
    def test_dna_homologs_match_smith_waterman(self, seed):
        base = random_genome(220, seed_or_rng=seed)
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.08, seed_or_rng=seed + 100))
        sw_score, (qs, qe, ss, se) = smith_waterman(q, s, NT, 5, 2)
        # Seed inside the optimal alignment, on its path: pick matching
        # anchor by scanning for a shared 12-mer.
        anchor = None
        for i in range(qs, qe - 12):
            window = base[i : i + 12]
            j = DNA.decode(s).find(window)
            if j >= 0:
                anchor = (i, j)
                break
        assert anchor is not None, "no exact 12-mer anchor found"
        g = extend_gapped(q, s, anchor[0], anchor[1], NT, 5, 2, xdrop=50, band=64)
        assert g is not None
        assert g.score == sw_score

    @pytest.mark.parametrize("seed", range(4))
    def test_protein_homologs_match_smith_waterman(self, seed):
        base = random_protein(150, seed_or_rng=seed)
        codes_q = PROTEIN.encode(base)
        rng = np.random.default_rng(seed + 7)
        chars = list(base)
        aa = "ARNDCQEGHILKMFPSTWYV"
        for i in range(len(chars)):
            if rng.random() < 0.15:
                chars[i] = aa[rng.integers(0, 20)]
        codes_s = PROTEIN.encode("".join(chars))
        sw_score, _ = smith_waterman(codes_q, codes_s, BLOSUM62, 11, 1)
        # Anchor at an identity triple inside the sequences.
        anchor = next(
            i for i in range(20, 120) if (codes_q[i : i + 3] == codes_s[i : i + 3]).all()
        )
        g = extend_gapped(codes_q, codes_s, anchor, anchor, BLOSUM62, 11, 1, xdrop=60, band=48)
        assert g is not None
        assert g.score == sw_score

    def test_alignment_with_indel_is_recovered(self):
        left = random_genome(80, seed_or_rng=10)
        right = random_genome(80, seed_or_rng=11)
        q = DNA.encode(left + right)
        s = DNA.encode(left + "ACGTA" + right)  # 5-base insertion in subject
        g = extend_gapped(q, s, 10, 10, NT, 5, 2, xdrop=40, band=32)
        assert g is not None
        assert g.gaps == 5
        expected = 160 - (5 + 5 * 2)  # matches minus gap cost open5 + 5*ext2
        assert g.score == expected
        assert g.q_end - g.q_start == 160
        assert g.s_end - g.s_start == 165

    def test_identity_counts_exact_on_perfect_match(self):
        seq = DNA.encode(random_genome(90, seed_or_rng=12))
        g = extend_gapped(seq, seq, 45, 45, NT, 5, 2, xdrop=30, band=16)
        assert g.identities == 90
        assert g.align_len == 90
        assert g.gaps == 0

    def test_no_alignment_returns_none(self):
        q = DNA.encode("A" * 30)
        s = DNA.encode("C" * 30)
        assert extend_gapped(q, s, 15, 15, NT, 5, 2, xdrop=10, band=8) is None

    def test_seed_out_of_range(self):
        q = DNA.encode("ACGT")
        with pytest.raises(ValueError):
            extend_gapped(q, q, 9, 0, NT, 5, 2, xdrop=10, band=8)

    def test_half_extension_empty_inputs(self):
        """A seed at a sequence end leaves one half empty: it aligns
        nothing and the other half carries the whole alignment."""
        q = DNA.encode("ACGTACGTTGCA")
        for q_seed, s_seed in [(0, 0), (q.size, q.size)]:
            g = extend_gapped(q, q, q_seed, s_seed, NT, 5, 2, xdrop=10, band=8)
            assert (g.q_start, g.q_end, g.s_start, g.s_end) == (0, q.size, 0, q.size)
            assert g.score == q.size and g.ops == "M" * q.size
        # Both halves empty on one side: nothing to align at all.
        assert extend_gapped(q, q, 0, q.size, NT, 5, 2, xdrop=10, band=8) is None

    def test_band_limits_gap_drift(self):
        # A 12-base insertion is profitable to bridge (120 matches - 29 gap
        # cost) but needs a diagonal drift of 12, beyond a band of 8.
        left = random_genome(60, seed_or_rng=13)
        right = random_genome(60, seed_or_rng=14)
        insert = random_genome(12, seed_or_rng=15)
        q = DNA.encode(left + right)
        s = DNA.encode(left + insert + right)
        narrow = extend_gapped(q, s, 5, 5, NT, 5, 2, xdrop=200, band=8)
        wide = extend_gapped(q, s, 5, 5, NT, 5, 2, xdrop=200, band=48)
        assert wide.score > narrow.score
        assert wide.gaps == 12
        assert wide.score == 120 - (5 + 12 * 2)


class TestOracleItself:
    def test_score_and_full_variant_agree(self):
        q = DNA.encode(random_genome(70, seed_or_rng=20))
        s = DNA.encode(mutate_dna(DNA.decode(q), 0.1, seed_or_rng=21))
        score_only = smith_waterman_score(q, s, NT, 5, 2)
        score_full, (qs, qe, ss, se) = smith_waterman(q, s, NT, 5, 2)
        assert score_only == score_full
        assert qs < qe and ss < se

    def test_known_tiny_alignment(self):
        q = DNA.encode("ACGT")
        s = DNA.encode("TACGTA")
        score, (qs, qe, ss, se) = smith_waterman(q, s, NT, 5, 2)
        assert score == 4
        assert (qs, qe, ss, se) == (0, 4, 1, 5)

    def test_no_similarity_scores_zero(self):
        assert smith_waterman_score(DNA.encode("AAAA"), DNA.encode("CCCC"), NT, 5, 2) == 0
