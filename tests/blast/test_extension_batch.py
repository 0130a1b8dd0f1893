"""Directed tests for the batched stage-2 kernel and its engine wiring.

Complements the hypothesis parity suite in
``tests/properties/test_extension_kernels.py`` with deterministic edge cases
(chunking, empty batches, window escalation) and an engine-level check that
shrinking ``extension_window`` — which makes most hits escalate to wider
windows — changes nothing about the emitted HSPs.
"""

import numpy as np
import pytest

from repro.bio import (
    SeqRecord,
    mutate_dna,
    random_genome,
    shred_records,
    synthetic_community,
    synthetic_nt_database,
    synthetic_protein_database,
)
from repro.bio.alphabet import DNA
from repro.blast import BlastOptions, DatabaseAlias, format_database, make_engine
from repro.blast.matrices import nucleotide_matrix

from oracles.staged_scheduler import extend_pair
from oracles.ungapped import ungapped_extend

NT = nucleotide_matrix(1, -2)


class TestBatchKernel:
    def test_empty_batch(self):
        seq = DNA.encode(random_genome(50, seed_or_rng=0))
        empty = np.empty(0, dtype=np.int64)
        ext = extend_pair(seq, seq, empty, empty, 11, NT, 20.0)
        assert ext.score.size == 0

    def test_chunking_is_invisible(self):
        """Results must not depend on the chunk size the rows stream in."""
        base = random_genome(300, seed_or_rng=1)
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.06, seed_or_rng=2))
        rng = np.random.default_rng(3)
        qp = rng.integers(0, q.size - 11 + 1, size=40)
        sp = rng.integers(0, s.size - 11 + 1, size=40)
        whole = extend_pair(q, s, qp, sp, 11, NT, 20.0, window=32)
        chunked = extend_pair(q, s, qp, sp, 11, NT, 20.0, window=32, chunk=7)
        for field in ("score", "q_start", "q_end", "s_start", "s_end"):
            np.testing.assert_array_equal(
                getattr(whole, field), getattr(chunked, field)
            )

    def test_long_extension_escalates_to_completion(self):
        """A perfect self-match outruns the initial window; escalation keeps
        widening until it terminates, so the result still matches scalar."""
        seq = DNA.encode(random_genome(200, seed_or_rng=4))
        u = ungapped_extend(seq, seq, 90, 90, 11, NT, 20.0)
        assert (u.q_start, u.q_end) == (0, 200)
        ext = extend_pair(
            seq, seq, np.array([90]), np.array([90]), 11, NT, 20.0, window=8
        )
        assert int(ext.score[0]) == u.score
        assert (int(ext.q_start[0]), int(ext.q_end[0])) == (0, 200)

    def test_window_exactly_covering_reach_is_complete(self):
        """avail == window: the window covers everything reachable, so the
        row is exact even though no X-drop fired inside it."""
        seq = DNA.encode(random_genome(60, seed_or_rng=5))
        word = 11
        qp = np.array([20])
        # Right reach = 60 - (20 + 11) = 29; left reach = 20.
        ext = extend_pair(seq, seq, qp, qp, word, NT, 50.0, window=29)
        u = ungapped_extend(seq, seq, 20, 20, word, NT, 50.0)
        assert int(ext.score[0]) == u.score
        assert int(ext.q_start[0]) == u.q_start and int(ext.q_end[0]) == u.q_end


def _nt_workload(tmp_path):
    com = synthetic_community(n_genomes=3, genome_length=2500, seed=11)
    db = synthetic_nt_database(
        com, n_decoys=2, decoy_length=1500, homolog_rate=0.05, seed=12
    )
    alias_path = format_database(db, tmp_path, "nt", kind="dna",
                                 max_volume_bytes=1 << 20)
    reads = list(shred_records(com.genomes[:2]))[:8]
    return reads, DatabaseAlias.load(alias_path)


class TestEngineWindowInvariance:
    """The batch window is a performance knob, never a results knob."""

    @pytest.mark.parametrize("window", [1, 4, 256])
    def test_blastn_hsps_window_invariant(self, tmp_path, window):
        reads, alias = _nt_workload(tmp_path)
        part = alias.open_partition(0)
        baseline_eng = make_engine(BlastOptions.blastn(evalue=1.0))
        baseline = baseline_eng.search_block(reads, part)
        eng = make_engine(BlastOptions.blastn(evalue=1.0, extension_window=window))
        hits = eng.search_block(reads, part)
        assert hits == baseline
        # Same admissions either way: escalated rows feed the same
        # trigger bookkeeping as rows that end inside the first window.
        assert eng.last_stats.n_ungapped == baseline_eng.last_stats.n_ungapped
        assert eng.last_stats.n_gapped == baseline_eng.last_stats.n_gapped

    def test_blastp_hsps_window_invariant(self, tmp_path):
        _, db = synthetic_protein_database(
            n_families=2, members_per_family=3, length=180, seed=13
        )
        alias = DatabaseAlias.load(
            format_database(db, tmp_path, "prot", kind="protein")
        )
        part = alias.open_partition(0)
        queries = [SeqRecord(f"q{i}", db[i].seq[10:150]) for i in range(2)]
        baseline = make_engine(BlastOptions.blastp(evalue=1e-3)).search_block(
            queries, part
        )
        assert baseline, "workload must actually produce hits"
        narrow = make_engine(
            BlastOptions.blastp(evalue=1e-3, extension_window=1)
        ).search_block(queries, part)
        assert narrow == baseline
