"""formatdb volumes, DB readers, the search engine, and DB-split invariance."""

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
from repro.blast import (
    BlastOptions,
    BlastnEngine,
    DatabaseAlias,
    format_database,
    make_engine,
)
from repro.blast.formatdb import DatabaseWriter, pack_2bit, unpack_2bit
from repro.blast.hsp import HSP


class TestPacking:
    def test_roundtrip_all_lengths(self):
        rng = np.random.default_rng(0)
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 100, 1001]:
            codes = rng.integers(0, 4, size=n).astype(np.uint8)
            packed = pack_2bit(codes)
            assert packed.size == (n + 3) // 4
            np.testing.assert_array_equal(unpack_2bit(packed, n), codes)

    def test_pack_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            pack_2bit(np.array([4], dtype=np.uint8))

    def test_unpack_length_check(self):
        with pytest.raises(ValueError):
            unpack_2bit(np.zeros(1, dtype=np.uint8), 5)


class TestFormatAndRead:
    def _db(self, tmp_path, n=10, length=2000, vol_bytes=2048):
        recs = [SeqRecord(f"s{i}", random_genome(length, seed_or_rng=i)) for i in range(n)]
        alias_path = format_database(recs, tmp_path, "db", kind="dna",
                                     max_volume_bytes=vol_bytes)
        return recs, DatabaseAlias.load(alias_path)

    def test_partitioning_by_volume_size(self, tmp_path):
        recs, alias = self._db(tmp_path)
        assert alias.num_partitions > 1
        assert alias.num_seqs == 10
        assert alias.total_length == sum(len(r) for r in recs)

    def test_sequences_roundtrip_across_partitions(self, tmp_path):
        recs, alias = self._db(tmp_path)
        seen = {}
        for p in range(alias.num_partitions):
            part = alias.open_partition(p)
            for i in range(part.num_seqs):
                seen[part.ids[i]] = part.sequence(i)
        assert seen == {r.id: r.seq for r in recs}

    def test_protein_volume_roundtrip(self, tmp_path):
        _, db = synthetic_protein_database(n_families=2, members_per_family=2, length=80)
        alias = DatabaseAlias.load(format_database(db, tmp_path, "p", kind="protein"))
        part = alias.open_partition(0)
        assert part.sequence(0) == db[0].seq

    def test_mid_byte_sequence_boundaries(self, tmp_path):
        # Lengths not divisible by 4 force subjects to start mid-byte.
        recs = [SeqRecord(f"odd{i}", random_genome(17 + i, seed_or_rng=i)) for i in range(6)]
        alias = DatabaseAlias.load(format_database(recs, tmp_path, "odd", kind="dna"))
        part = alias.open_partition(0)
        for i, rec in enumerate(recs):
            assert part.sequence(i) == rec.seq

    def test_load_count_tracks_reopens(self, tmp_path):
        _, alias = self._db(tmp_path, n=3, vol_bytes=1 << 20)
        part = alias.open_partition(0)
        assert part.load_count == 0
        part.codes(0)
        part.codes(1)
        assert part.load_count == 1
        part.release()
        part.codes(2)
        assert part.load_count == 2

    def test_empty_db_rejected(self, tmp_path):
        writer = DatabaseWriter(tmp_path, "empty", kind="dna")
        with pytest.raises(ValueError, match="no sequences"):
            writer.finish()

    def test_empty_sequence_rejected(self, tmp_path):
        writer = DatabaseWriter(tmp_path, "x", kind="dna")
        with pytest.raises(ValueError, match="empty sequence"):
            writer.add(SeqRecord("e", ""))

    def test_partition_index_bounds(self, tmp_path):
        _, alias = self._db(tmp_path, n=2, vol_bytes=1 << 20)
        with pytest.raises(IndexError):
            alias.partition_path(5)

    def test_cli_main(self, tmp_path):
        from repro.bio.fasta import write_fasta
        from repro.blast.formatdb import main

        fasta = tmp_path / "in.fasta"
        write_fasta([SeqRecord("a", random_genome(100, seed_or_rng=1))], fasta)
        rc = main(["-i", str(fasta), "-o", str(tmp_path / "out"), "-n", "clidb"])
        assert rc == 0
        alias = DatabaseAlias.load(tmp_path / "out" / "clidb.pal.json")
        assert alias.num_seqs == 1


def _nt_workload(tmp_path, vol_bytes=4096, n_genomes=4, genome_length=3000, n_reads=6):
    """Community genomes shredded into reads + homolog DB in partitions."""
    com = synthetic_community(n_genomes=n_genomes, genome_length=genome_length, seed=3)
    db = synthetic_nt_database(com, n_decoys=3, decoy_length=2000, homolog_rate=0.04, seed=4)
    alias_path = format_database(db, tmp_path, "nt", kind="dna", max_volume_bytes=vol_bytes)
    reads = list(shred_records(com.genomes[:2]))[:n_reads]
    return reads, DatabaseAlias.load(alias_path)


class TestEngine:
    def test_finds_homolog_not_decoys(self, tmp_path):
        reads, alias = _nt_workload(tmp_path, vol_bytes=1 << 20)
        part = alias.open_partition(0)
        eng = make_engine(BlastOptions.blastn(evalue=1e-6))
        hits = eng.search_block(reads, part)
        assert hits, "homologous reads must produce hits"
        assert all(h.subject_id.startswith("db_genome") for h in hits)
        assert all(h.evalue <= 1e-6 for h in hits)

    def test_hit_coordinates_locate_source_region(self, tmp_path):
        genome = random_genome(4000, seed_or_rng=30)
        db = [SeqRecord("ref", genome)]
        alias = DatabaseAlias.load(format_database(db, tmp_path, "exact", kind="dna"))
        query = SeqRecord("frag", genome[1000:1400])
        eng = make_engine(BlastOptions.blastn(evalue=1e-10))
        hits = eng.search_block([query], alias.open_partition(0))
        best = hits[0]
        assert best.s_start == 1000 and best.s_end == 1400
        assert best.identities == 400
        assert best.pident == 100.0

    def test_minus_strand_hit(self, tmp_path):
        from repro.bio.seq import reverse_complement

        genome = random_genome(2000, seed_or_rng=31)
        alias = DatabaseAlias.load(
            format_database([SeqRecord("fwd", genome)], tmp_path, "rc", kind="dna")
        )
        query = SeqRecord("rcq", reverse_complement(genome[600:950]))
        eng = make_engine(BlastOptions.blastn(evalue=1e-10))
        hits = eng.search_block([query], alias.open_partition(0))
        assert hits[0].strand == -1
        assert hits[0].s_start == 600 and hits[0].s_end == 950

    def test_evalue_cutoff_filters(self, tmp_path):
        reads, alias = _nt_workload(tmp_path, vol_bytes=1 << 20)
        part = alias.open_partition(0)
        strict = make_engine(BlastOptions.blastn(evalue=1e-50)).search_block(reads, part)
        loose = make_engine(BlastOptions.blastn(evalue=1.0)).search_block(reads, part)
        assert len(strict) <= len(loose)

    def test_max_hits_truncates_per_query(self, tmp_path):
        genome = random_genome(800, seed_or_rng=32)
        # Many similar subjects -> more than max_hits alignments per query.
        db = [SeqRecord(f"copy{i}", mutate_dna(genome, 0.02, seed_or_rng=i)) for i in range(8)]
        alias = DatabaseAlias.load(format_database(db, tmp_path, "many", kind="dna"))
        query = SeqRecord("q", genome[100:500])
        opts = BlastOptions.blastn(evalue=10.0, max_hits=3)
        hits = make_engine(opts).search_block([query], alias.open_partition(0))
        assert len(hits) == 3
        evals = [h.evalue for h in hits]
        assert evals == sorted(evals)

    def test_blastp_family_recovery(self, tmp_path):
        queries, db = synthetic_protein_database(
            n_families=3, members_per_family=3, length=150, mutation_rate=0.3, seed=6
        )
        alias = DatabaseAlias.load(format_database(db, tmp_path, "fam", kind="protein"))
        eng = make_engine(BlastOptions.blastp(evalue=1e-4))
        hits = eng.search_block(queries, alias.open_partition(0))
        # Every hit must stay within its query's family.
        for h in hits:
            fam = h.query_id[-2:]
            assert h.subject_id.startswith(f"fam{fam}")
        # Each family must be fully recovered.
        found = {(h.query_id, h.subject_id) for h in hits}
        assert len(found) == 9

    def test_funnel_counts_on_a_chance_hit_dominated_unit(self, tmp_path):
        """8 reads against 400 kb of decoys plus their homologs: nearly
        every word hit is chance.  The gap trigger keeps those out of stage
        3 (at 12 bits every ungapped extension is admitted, and gets a
        gapped one unless an alignment found already contains it) and loses
        no hit."""
        com = synthetic_community(n_genomes=2, genome_length=6000, seed=11)
        db = synthetic_nt_database(com, n_decoys=8, decoy_length=50_000,
                                   homolog_rate=0.05, seed=12)
        alias = DatabaseAlias.load(format_database(db, tmp_path, "funnel", kind="dna"))
        reads = [r for r in shred_records(com.genomes) if len(r.seq) == 400][:8]
        part = alias.open_partition(0)
        assert part.total_length >= 400_000
        default = make_engine(BlastOptions.blastn(evalue=1e-4))
        everything = make_engine(BlastOptions.blastn(evalue=1e-4, ungapped_cutoff_bits=12.0))
        hits = default.search_block(reads, part)
        assert hits == everything.search_block(reads, part)
        st, st12 = default.last_stats, everything.last_stats
        assert st.n_reported == st12.n_reported == len(hits) >= len(reads)
        assert st12.n_gapped + st12.n_contained == st12.n_ungapped > 400
        assert 0 < st12.n_contained < st12.n_gapped
        assert st.n_gapped <= 0.1 * st.n_ungapped
        assert st.n_gapped >= st.n_reported

    def test_an_alignment_is_gapped_extended_once(self, tmp_path, monkeypatch):
        """A read with indels against its homolog triggers on every diagonal
        the alignment touches, all in one round.  The best segment is
        extended, its box contains the others: a one-read unit makes one
        gapped call of one seed, and on a 16-read unit a fifth or more of
        the admitted seeds are contained instead of extended, in never more
        than two gapped calls a round."""
        from repro.blast import engine as engine_mod

        com = synthetic_community(n_genomes=4, genome_length=6000, seed=21)
        db = synthetic_nt_database(com, n_decoys=4, decoy_length=20_000,
                                   homolog_rate=0.05, seed=22)
        part = DatabaseAlias.load(
            format_database(db, tmp_path, "once", kind="dna")).open_partition(0)
        reads = [r for r in shred_records(com.genomes) if len(r.seq) == 400][:16]
        calls = []
        kernel = engine_mod.extend_gapped_batch

        def spy(seeds, *args, **kwargs):
            calls.append(len(seeds))
            return kernel(seeds, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "extend_gapped_batch", spy)
        eng = make_engine(BlastOptions.blastn(evalue=1e-4))

        hits = eng.search_block(reads[:1], part)
        st = eng.last_stats
        assert len(hits) == 1 and hits[0].gaps > 0
        assert calls == [1] and st.n_gapped == 1
        assert st.n_contained >= 1

        del calls[:]
        hits = eng.search_block(reads, part)
        st = eng.last_stats
        assert {h.query_id for h in hits} == {r.id for r in reads}
        assert sum(calls) == st.n_gapped
        assert len(calls) <= 2 * st.fused_rounds
        assert st.n_contained >= 0.2 * (st.n_gapped + st.n_contained)

    def test_program_option_mismatch_rejected(self):
        with pytest.raises(ValueError, match="engine is"):
            BlastnEngine(BlastOptions.blastp())

    def test_stats_populated(self, tmp_path):
        reads, alias = _nt_workload(tmp_path, vol_bytes=1 << 20)
        eng = make_engine(BlastOptions.blastn())
        eng.search_block(reads, alias.open_partition(0))
        st = eng.last_stats
        assert st.n_subjects == alias.open_partition(0).num_seqs
        assert st.n_word_hits > 0
        assert st.busy_seconds > 0


class TestDbSplitInvariance:
    """The paper's central correctness property: searching partitioned
    volumes with the full-DB statistics override must reproduce the unsplit
    search exactly (same hits, same E-values, same order after merge)."""

    @staticmethod
    def _hit_key(h: HSP):
        return (
            h.query_id, h.subject_id, h.score, round(h.bit_score, 6),
            h.q_start, h.q_end, h.s_start, h.s_end, h.strand,
            h.identities, h.align_len, h.gaps, round(np.log10(max(h.evalue, 1e-300)), 8),
        )

    @pytest.mark.parametrize("vol_bytes", [1100, 1600, 3000])
    def test_split_equals_unsplit(self, tmp_path, vol_bytes):
        from repro.blast.hsp import top_hits

        reads, alias_split = _nt_workload(tmp_path / "split", vol_bytes=vol_bytes)
        _, alias_whole = _nt_workload(tmp_path / "whole", vol_bytes=1 << 24)
        assert alias_split.num_partitions > 1
        assert alias_whole.num_partitions == 1
        assert alias_split.total_length == alias_whole.total_length

        opts = BlastOptions.blastn(evalue=1e-3, max_hits=20)
        # Unsplit reference.
        ref = make_engine(opts).search_block(reads, alias_whole.open_partition(0))

        # Split run with full-DB override, then reduce-style merge.
        split_opts = opts.with_db_size(alias_split.total_length, alias_split.num_seqs)
        collected: list[HSP] = []
        for p in range(alias_split.num_partitions):
            eng = make_engine(split_opts)
            collected.extend(eng.search_block(reads, alias_split.open_partition(p)))
        merged: list[HSP] = []
        by_query: dict[str, list[HSP]] = {}
        for h in collected:
            by_query.setdefault(h.query_id, []).append(h)
        for rec in reads:
            if rec.id in by_query:
                merged.extend(top_hits(by_query[rec.id], opts.max_hits, opts.evalue))

        assert sorted(map(self._hit_key, merged)) == sorted(map(self._hit_key, ref))

    def test_split_invariance_where_the_evalue_arm_admits(self, tmp_path):
        """At E = 0.3 on an 18 kb DB the cutoff score is 13, under the gap
        trigger's 14 and over the 11 of a bare word hit, so admission itself
        reads the search space.  It must read the whole-DB override: any
        n x m factorisation then admits the same seeds (``n_gapped`` and
        ``n_contained`` summed over units: grouping for containment never
        looks past one subject and one query context) and reports the
        unsplit search's hits.  (Every partition's own length gives cutoff
        12, and more seeds.)"""
        from repro.blast.hsp import top_hits

        opts = BlastOptions.blastn(evalue=0.3, max_hits=50)
        outcomes = {}
        for label, vol_bytes in (("whole", 1 << 24), ("halves", 2500), ("quarters", 1500)):
            reads, alias = _nt_workload(tmp_path / label, vol_bytes=vol_bytes)
            engine = make_engine(opts.with_db_size(alias.total_length, alias.num_seqs))
            trigger, floor = engine.admission_scores(400, alias.total_length, alias.num_seqs)
            assert trigger == floor + 1 == 13 < engine._gap_trigger == 14
            for block_size in (1, 3, len(reads)):
                by_query: dict[str, list[HSP]] = {}
                gapped = contained = ungapped = 0
                for p in range(alias.num_partitions):
                    for lo in range(0, len(reads), block_size):
                        hits = engine.search_block(reads[lo:lo + block_size],
                                                   alias.open_partition(p))
                        gapped += engine.last_stats.n_gapped
                        contained += engine.last_stats.n_contained
                        ungapped += engine.last_stats.n_ungapped
                        for h in hits:
                            by_query.setdefault(h.query_id, []).append(h)
                merged = [self._hit_key(h) for rec in reads
                          for h in top_hits(by_query.get(rec.id, []), opts.max_hits, opts.evalue)]
                outcomes[label, alias.num_partitions, block_size] = (
                    merged, (gapped, contained, ungapped))
        assert sorted(key[1] for key in outcomes) == [1] * 3 + [2] * 3 + [4] * 3
        # the unsplit search, with no override at all, is the reference
        reads, alias = _nt_workload(tmp_path / "ref", vol_bytes=1 << 24)
        plain = make_engine(opts)
        want = [self._hit_key(h) for h in plain.search_block(reads, alias.open_partition(0))]
        stats = plain.last_stats
        assert stats.n_contained > 0
        for key, (merged, counts) in outcomes.items():
            assert merged == want, key
            assert counts == (stats.n_gapped, stats.n_contained, stats.n_ungapped), key

    def test_a_query_alone_equals_the_query_inside_a_block_of_eight(self, tmp_path):
        """The service shape: the coalescer decides who shares a block, so a
        query's hits, E-values and funnel counts (seeds extended, seeds
        contained) may not depend on it, on any DB split."""
        from repro.blast.hsp import top_hits

        opts = BlastOptions.blastn(evalue=1e-3, max_hits=20)
        reads, alias = _nt_workload(tmp_path, vol_bytes=1500, n_reads=8)
        assert len(reads) == 8 and alias.num_partitions == 4
        engine = make_engine(opts.with_db_size(alias.total_length, alias.num_seqs))

        def search(blocks):
            by_query: dict[str, list[HSP]] = {}
            gapped = contained = 0
            for p in range(alias.num_partitions):
                for block in blocks:
                    for h in engine.search_block(block, alias.open_partition(p)):
                        by_query.setdefault(h.query_id, []).append(h)
                    gapped += engine.last_stats.n_gapped
                    contained += engine.last_stats.n_contained
            merged = {qid: [self._hit_key(h) for h in top_hits(hits, opts.max_hits, opts.evalue)]
                      for qid, hits in by_query.items()}
            return merged, gapped, contained

        alone = [search([[rec]]) for rec in reads]
        together, gapped, contained = search([reads])
        assert set(together) == {rec.id for rec in reads}
        for rec, (merged, _, _) in zip(reads, alone):
            assert merged == {rec.id: together[rec.id]}
        assert gapped == sum(g for _, g, _ in alone)
        assert contained == sum(c for _, _, c in alone) > 0

    def test_without_override_evalues_differ(self, tmp_path):
        reads, alias = _nt_workload(tmp_path, vol_bytes=1500)
        assert alias.num_partitions > 1
        opts = BlastOptions.blastn(evalue=10.0)
        part = alias.open_partition(0)
        plain = make_engine(opts).search_block(reads, part)
        overridden = make_engine(
            opts.with_db_size(alias.total_length, alias.num_seqs)
        ).search_block(reads, part)
        paired = {
            (h.query_id, h.subject_id, h.q_start): h.evalue for h in plain
        }
        compared = 0
        for h in overridden:
            key = (h.query_id, h.subject_id, h.q_start)
            if key in paired and h.evalue > 0:
                assert h.evalue > paired[key]  # bigger DB -> bigger E-value
                compared += 1
        assert compared > 0
