"""Karlin-Altschul parameters and E-value machinery vs NCBI's published values."""

import math

import numpy as np
import pytest

from repro.blast.karlin import (
    KarlinParams,
    gapped_params,
    karlin_params,
    score_distribution,
)
from repro.blast.matrices import BLOSUM62, background_frequencies, nucleotide_matrix
from repro.blast.statistics import SearchSpace, bit_score, effective_lengths


class TestLambdaKH:
    """Computed (λ, K, H) must match NCBI's published constants."""

    def test_blosum62_ungapped(self):
        p = karlin_params(program="blastp")
        assert p.lam == pytest.approx(0.3176, abs=0.001)
        assert p.K == pytest.approx(0.134, abs=0.002)
        assert p.H == pytest.approx(0.4012, abs=0.002)

    def test_blastn_1_minus2(self):
        p = karlin_params(program="blastn", reward=1, penalty=-2)
        assert p.lam == pytest.approx(1.33, abs=0.005)
        assert p.K == pytest.approx(0.621, abs=0.005)
        assert p.H == pytest.approx(1.12, abs=0.01)

    def test_blastn_1_minus3(self):
        p = karlin_params(program="blastn", reward=1, penalty=-3)
        assert p.lam == pytest.approx(1.374, abs=0.005)
        assert p.K == pytest.approx(0.711, abs=0.005)

    def test_blastn_1_minus1_exact(self):
        # For ±1 with P(+1)=1/4: lambda = ln 3 and K = 1/3 exactly.
        p = karlin_params(program="blastn", reward=1, penalty=-1)
        assert p.lam == pytest.approx(math.log(3.0), rel=1e-6)
        assert p.K == pytest.approx(1.0 / 3.0, rel=1e-4)

    def test_lambda_defining_equation_holds(self):
        p = karlin_params(program="blastn", reward=2, penalty=-3)
        low, probs = score_distribution(nucleotide_matrix(2, -3), background_frequencies("dna"))
        scores = np.arange(low, low + probs.size)
        assert (probs * np.exp(p.lam * scores)).sum() == pytest.approx(1.0, abs=1e-9)

    def test_positive_expected_score_rejected(self):
        # reward so high that expected score is positive -> no valid lambda
        with pytest.raises(ValueError, match="negative"):
            karlin_params(program="blastn", reward=7, penalty=-1)

    def test_unknown_program(self):
        with pytest.raises(ValueError):
            karlin_params(program="tblastx")


class TestGappedParams:
    def test_blosum62_11_1_table(self):
        p = gapped_params(program="blastp", gap_open=11, gap_extend=1)
        assert p.gapped
        assert p.lam == pytest.approx(0.267, abs=1e-3)
        assert p.K == pytest.approx(0.041, abs=1e-3)

    def test_blastn_falls_back_to_ungapped_values(self):
        g = gapped_params(program="blastn", reward=1, penalty=-2, gap_open=5, gap_extend=2)
        u = karlin_params(program="blastn", reward=1, penalty=-2)
        assert g.gapped and not u.gapped
        assert g.lam == u.lam and g.K == u.K

    def test_unusual_protein_costs_fall_back(self):
        g = gapped_params(program="blastp", gap_open=32, gap_extend=2)
        u = karlin_params(program="blastp")
        assert g.lam == u.lam


class TestScoreDistribution:
    def test_probabilities_sum_to_one(self):
        low, probs = score_distribution(BLOSUM62, background_frequencies("protein"))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert low == int(BLOSUM62[:20, :20].min())

    def test_dna_distribution(self):
        low, probs = score_distribution(nucleotide_matrix(1, -2), background_frequencies("dna"))
        assert low == -2
        assert probs[0] == pytest.approx(0.75)  # mismatch
        assert probs[-1] == pytest.approx(0.25)  # match


class TestEvalues:
    PARAMS = KarlinParams(lam=0.267, K=0.041, H=0.14, gapped=True)

    def test_bit_score_formula(self):
        bits = bit_score(100, self.PARAMS)
        assert bits == pytest.approx((0.267 * 100 - math.log(0.041)) / math.log(2))

    def test_evalue_decreases_exponentially_with_score(self):
        e1 = SearchSpace(self.PARAMS).evalue(50, 300, 10**7, 1000)
        e2 = SearchSpace(self.PARAMS).evalue(60, 300, 10**7, 1000)
        assert e2 < e1
        assert e1 / e2 == pytest.approx(math.exp(0.267 * 10), rel=1e-6)

    def test_evalue_scales_linearly_with_db_length(self):
        e_small = SearchSpace(self.PARAMS).evalue(80, 300, 10**6, 1000)
        e_big = SearchSpace(self.PARAMS).evalue(80, 300, 10**8, 1000)
        ratio = e_big / e_small
        # Not exactly 100x because the length adjustment differs, but close.
        assert 50 < ratio < 200

    def test_effective_lengths_positive_and_reduced(self):
        m_eff, n_eff = effective_lengths(self.PARAMS, 300, 10**7, 1000)
        assert 0 < m_eff < 300
        assert 0 < n_eff < 10**7

    def test_evalue_to_score_is_inverse(self):
        target = 1e-4
        s = SearchSpace(self.PARAMS).evalue_to_score(target, 300, 10**7, 1000)
        assert SearchSpace(self.PARAMS).evalue(s, 300, 10**7, 1000) <= target
        assert SearchSpace(self.PARAMS).evalue(s - 1, 300, 10**7, 1000) > target

    def test_huge_score_underflows_to_zero_not_error(self):
        assert SearchSpace(self.PARAMS).evalue(10**6, 300, 10**7, 1000) == 0.0

    def test_tiny_score_gives_huge_evalue(self):
        assert SearchSpace(self.PARAMS).evalue(1, 300, 10**9, 10**6) > 1e3

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            SearchSpace(self.PARAMS).evalue(10, 0, 100, 10)
        with pytest.raises(ValueError):
            SearchSpace(self.PARAMS).evalue_to_score(0.0, 300, 100, 10)


class TestMatrices:
    def test_blosum62_known_entries(self):
        from repro.bio.alphabet import PROTEIN

        def s(a, b):
            return BLOSUM62[PROTEIN.letters.index(a), PROTEIN.letters.index(b)]

        assert s("W", "W") == 11
        assert s("A", "A") == 4
        assert s("E", "E") == 5
        assert s("W", "C") == -2
        assert s("I", "L") == 2
        assert s("R", "K") == 2

    def test_nucleotide_matrix_structure(self):
        m = nucleotide_matrix(2, -3)
        assert (np.diag(m) == 2).all()
        off = m[~np.eye(4, dtype=bool)]
        assert (off == -3).all()

    def test_nucleotide_matrix_validation(self):
        with pytest.raises(ValueError):
            nucleotide_matrix(0, -2)
        with pytest.raises(ValueError):
            nucleotide_matrix(1, 2)

    def test_background_frequencies(self):
        assert background_frequencies("dna").sum() == pytest.approx(1.0)
        prot = background_frequencies("protein")
        assert prot.sum() == pytest.approx(1.0)
        assert prot[20:].sum() == 0.0  # ambiguity codes carry no weight
        with pytest.raises(ValueError):
            background_frequencies("rna")
