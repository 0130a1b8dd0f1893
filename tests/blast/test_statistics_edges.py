"""Deeper statistics/karlin coverage: length adjustment, distributions,
cutoff behaviour inside the engine."""

import math

import numpy as np
import pytest

from repro.bio import DNA, PROTEIN, SeqRecord, random_genome
from repro.blast import BlastOptions, DatabaseAlias, format_database, make_engine
from repro.blast.karlin import KarlinParams, score_distribution
from repro.blast.matrices import BLOSUM62, background_frequencies
from repro.blast.statistics import SearchSpace, effective_lengths, length_adjustment

B62_UNGAPPED = KarlinParams(lam=0.3176, K=0.134, H=0.4012)


class TestLengthAdjustment:
    def test_fixed_point_property(self):
        """At the solution, ℓ == ln(K·m_eff·n_eff)/H (the defining equation)."""
        ell = length_adjustment(B62_UNGAPPED, 300, 10**7, 10**4)
        m_eff = 300 - ell
        n_eff = 10**7 - 10**4 * ell
        rhs = math.log(B62_UNGAPPED.K * m_eff * n_eff) / B62_UNGAPPED.H
        assert ell == pytest.approx(rhs, abs=0.05)

    def test_monotone_in_db_size(self):
        ells = [
            length_adjustment(B62_UNGAPPED, 300, n, 1000)
            for n in (10**5, 10**6, 10**7, 10**8)
        ]
        assert ells == sorted(ells)
        assert ells[0] < ells[-1]

    def test_clamped_at_half_query(self):
        ell = length_adjustment(B62_UNGAPPED, 40, 10**9, 10)
        assert ell <= 20.0

    def test_zero_when_search_space_tiny(self):
        # K·m·n < 1 -> g(0) <= 0 -> no adjustment.
        params = KarlinParams(lam=1.0, K=1e-6, H=1.0)
        assert length_adjustment(params, 100, 1000, 10) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            length_adjustment(B62_UNGAPPED, 0, 100, 1)

    def test_effective_lengths_floats_consistent(self):
        m_eff, n_eff = effective_lengths(B62_UNGAPPED, 300, 10**7, 10**4)
        ell = length_adjustment(B62_UNGAPPED, 300, 10**7, 10**4)
        assert m_eff == pytest.approx(300 - ell)
        assert n_eff == pytest.approx(10**7 - 10**4 * ell)


class TestScoreDistributionEdges:
    def test_asymmetric_frequencies(self):
        """Query background != subject background (composition adjustment)."""
        prot = background_frequencies("protein")
        skewed = prot.copy()
        skewed[:5] *= 3.0
        skewed /= skewed.sum()
        low, probs = score_distribution(BLOSUM62, prot, skewed)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        low_sym, probs_sym = score_distribution(BLOSUM62, prot)
        assert low == low_sym
        assert not np.allclose(probs, probs_sym)

    def test_distribution_support_matches_matrix(self):
        low, probs = score_distribution(BLOSUM62, background_frequencies("protein"))
        scores = np.arange(low, low + probs.size)
        # W:W = 11 is attainable and must carry probability mass.
        assert probs[np.where(scores == 11)[0][0]] > 0


class TestEngineCutoffs:
    @pytest.fixture()
    def db(self, tmp_path):
        genome = random_genome(3000, seed_or_rng=70)
        alias = format_database([SeqRecord("ref", genome)], tmp_path, "cut", kind="dna")
        return DatabaseAlias.load(alias), genome

    def test_high_ungapped_cutoff_suppresses_gapped_stage(self, db):
        """One base missing from the query: two ungapped segments of 30 and
        31 that only a gapped extension joins (score 54).  At E <= 1e-18 the
        cutoff score is ~40, so a 500-bit trigger admits nothing, and no
        gapped stage means no hit; 12 bits admits both segments."""
        alias, genome = db
        query = [SeqRecord("q", genome[500:530] + genome[531:562])]
        permissive = make_engine(BlastOptions.blastn(evalue=1e-18,
                                                     ungapped_cutoff_bits=12.0))
        strict = make_engine(BlastOptions.blastn(evalue=1e-18,
                                                 ungapped_cutoff_bits=500.0))
        hits_perm = permissive.search_block(query, alias.open_partition(0))
        hits_strict = strict.search_block(query, alias.open_partition(0))
        assert [h.score for h in hits_perm] == [54]
        assert hits_strict == []
        assert strict.last_stats.n_gapped == 0
        assert permissive.last_stats.n_gapped > 0

    def test_trigger_is_capped_by_the_evalue_cutoff_score(self, db):
        """NCBI's min(): whatever could be reported on its own is admitted,
        however high the bit trigger."""
        alias, genome = db
        query = [SeqRecord("q", genome[500:560])]
        strict = make_engine(BlastOptions.blastn(evalue=10.0,
                                                 ungapped_cutoff_bits=500.0))
        part = alias.open_partition(0)
        assert [h.score for h in strict.search_block(query, part)] == [60]
        trigger, floor = strict.admission_scores(60, part.total_length, part.num_seqs)
        assert trigger == floor + 1 < 14

    def test_evalue_identity_between_split_and_override(self, db):
        """E = K·m'·n'·e^{-λS} with the same (m', n') gives the same E —
        the arithmetic core of the DB-split invariance."""
        alias, _ = db
        part = alias.open_partition(0)
        params = KarlinParams(lam=0.625, K=0.41, H=0.78, gapped=True)
        e_direct = SearchSpace(params).evalue(150, 400, part.total_length, part.num_seqs)
        e_again = SearchSpace(params).evalue(150, 400, part.total_length, part.num_seqs)
        assert e_direct == e_again


class TestDbReaderEdges:
    def test_sequence_text_roundtrip_both_kinds(self, tmp_path):
        from repro.bio import random_protein

        g = random_genome(123, seed_or_rng=80)
        p = random_protein(77, seed_or_rng=81)
        alias_n = DatabaseAlias.load(
            format_database([SeqRecord("n", g)], tmp_path / "n", "n", kind="dna")
        )
        alias_p = DatabaseAlias.load(
            format_database([SeqRecord("p", p)], tmp_path / "p", "p", kind="protein")
        )
        assert DNA.decode(alias_n.open_partition(0).codes(0)) == g
        assert PROTEIN.decode(alias_p.open_partition(0).codes(0)) == p

    def test_subject_index_bounds(self, tmp_path):
        alias = DatabaseAlias.load(format_database(
            [SeqRecord("x", random_genome(50, seed_or_rng=82))], tmp_path, "x", kind="dna"
        ))
        part = alias.open_partition(0)
        with pytest.raises(IndexError):
            part.codes(1)

    def test_bad_kind_rejected_by_writer(self, tmp_path):
        from repro.blast.formatdb import DatabaseWriter

        with pytest.raises(ValueError):
            DatabaseWriter(tmp_path, "bad", kind="rna")
        with pytest.raises(ValueError):
            DatabaseWriter(tmp_path, "bad", kind="dna", max_volume_bytes=10)
