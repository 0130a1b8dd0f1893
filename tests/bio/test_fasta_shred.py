"""FASTA I/O, indexing, shredding, synthetic workloads, k-mers."""

import io
import itertools

import numpy as np
import pytest

from repro.bio import (
    FastaIndex,
    SeqRecord,
    composition_matrix,
    kmer_frequencies,
    mutate_dna,
    random_genome,
    random_protein,
    read_fasta,
    shred_record,
    shred_records,
    synthetic_community,
    synthetic_nt_database,
    write_fasta,
)
from repro.bio.shred import parent_id


def _records(n=5, length=50, seed=0):
    return [
        SeqRecord(f"seq{i}", random_genome(length, seed_or_rng=seed + i), f"desc {i}")
        for i in range(n)
    ]


class TestFastaIO:
    def test_roundtrip_through_file(self, tmp_path):
        recs = _records()
        path = tmp_path / "test.fasta"
        assert write_fasta(recs, path) == len(recs)
        back = list(read_fasta(path))
        assert [(r.id, r.seq, r.description) for r in back] == [
            (r.id, r.seq, r.description) for r in recs
        ]

    def test_multiline_wrapping(self, tmp_path):
        rec = SeqRecord("long", random_genome(250, seed_or_rng=3))
        path = tmp_path / "wrap.fasta"
        write_fasta([rec], path, width=60)
        lines = path.read_text().splitlines()
        assert max(len(line) for line in lines[1:]) == 60
        assert list(read_fasta(path))[0].seq == rec.seq

    def test_parse_stringio_and_blank_lines(self):
        text = ">a first\nACGT\n\nACGT\n>b\nTTTT\n"
        recs = list(read_fasta(io.StringIO(text)))
        assert [(r.id, r.seq) for r in recs] == [("a", "ACGTACGT"), ("b", "TTTT")]
        assert recs[0].description == "first"

    def test_data_before_header_rejected(self):
        with pytest.raises(ValueError, match="before first"):
            list(read_fasta(io.StringIO("ACGT\n>x\nAC\n")))

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            write_fasta([], io.StringIO(), width=0)


class TestFastaIndex:
    def test_index_counts_and_lengths(self, tmp_path):
        recs = _records(n=7, length=83)
        path = tmp_path / "idx.fasta"
        write_fasta(recs, path, width=30)
        idx = FastaIndex(path)
        assert len(idx) == 7
        assert idx.ids == [r.id for r in recs]

    def test_load_range_matches_direct_read(self, tmp_path):
        recs = _records(n=9)
        path = tmp_path / "idx.fasta"
        write_fasta(recs, path)
        idx = FastaIndex(path)
        middle = idx.load_range(3, 6)
        assert [(r.id, r.seq) for r in middle] == [(r.id, r.seq) for r in recs[3:6]]
        assert idx.load_range(0, 0) == []
        tail = idx.load_range(8, 9)
        assert tail[0].id == recs[8].id

    def test_load_range_bounds(self, tmp_path):
        path = tmp_path / "idx.fasta"
        write_fasta(_records(n=2), path)
        idx = FastaIndex(path)
        with pytest.raises(IndexError):
            idx.load_range(0, 5)


class TestShred:
    def test_paper_parameters_400_200(self):
        rec = SeqRecord("g", random_genome(1000, seed_or_rng=5))
        frags = list(shred_record(rec, fragment=400, overlap=200))
        assert [f.id for f in frags] == ["g/0-400", "g/200-600", "g/400-800", "g/600-1000"]
        # Overlap check: consecutive fragments share 200 bases.
        assert frags[0].seq[200:] == frags[1].seq[:200]

    def test_short_sequence_single_fragment(self):
        rec = SeqRecord("s", "ACGTACGT")
        frags = list(shred_record(rec, fragment=400, overlap=200))
        assert len(frags) == 1
        assert frags[0].id == "s/0-8"

    def test_tail_fragment_kept(self):
        rec = SeqRecord("t", random_genome(450, seed_or_rng=1))
        frags = list(shred_record(rec, fragment=400, overlap=200))
        assert frags[-1].id == "t/200-450"
        assert len(frags[-1].seq) == 250

    def test_coverage_reconstructs_sequence(self):
        rec = SeqRecord("c", random_genome(1234, seed_or_rng=2))
        frags = list(shred_record(rec))
        rebuilt = frags[0].seq + "".join(f.seq[200:] for f in frags[1:])
        assert rebuilt == rec.seq

    def test_invalid_parameters(self):
        rec = SeqRecord("x", "ACGT")
        with pytest.raises(ValueError):
            list(shred_record(rec, fragment=0))
        with pytest.raises(ValueError):
            list(shred_record(rec, fragment=100, overlap=100))

    def test_parent_id_roundtrip(self):
        rec = SeqRecord("NC_0001.1", random_genome(900, seed_or_rng=0))
        for frag in shred_records([rec]):
            assert parent_id(frag.id) == "NC_0001.1"


class TestSimulate:
    def test_random_genome_gc_and_determinism(self):
        g1 = random_genome(5000, gc=0.7, seed_or_rng=42)
        g2 = random_genome(5000, gc=0.7, seed_or_rng=42)
        assert g1 == g2
        gc = sum(c in "GC" for c in g1) / len(g1)
        assert abs(gc - 0.7) < 0.03

    def test_random_genome_repeats_create_low_complexity(self):
        g = random_genome(4000, seed_or_rng=7, repeat_fraction=0.5, repeat_unit=8)
        v = kmer_frequencies(g, k=4)
        # Repeat-rich sequence concentrates k-mer mass vs uniform random.
        u = kmer_frequencies(random_genome(4000, seed_or_rng=8), k=4)
        assert v.max() > 2 * u.max()

    def test_mutate_dna_rates(self):
        g = random_genome(10_000, seed_or_rng=3)
        same = mutate_dna(g, rate=0.0, seed_or_rng=1)
        assert same == g
        mut = mutate_dna(g, rate=0.2, seed_or_rng=1, indel_fraction=0.0)
        diffs = sum(a != b for a, b in zip(g, mut))
        assert 0.15 < diffs / len(g) < 0.25

    def test_mutate_validation(self):
        with pytest.raises(ValueError):
            mutate_dna("ACGT", rate=1.5)

    def test_random_protein_alphabet(self):
        p = random_protein(500, seed_or_rng=9)
        assert set(p) <= set("ARNDCQEGHILKMFPSTWYV")

    def test_community_and_database(self):
        com = synthetic_community(n_genomes=4, genome_length=2000, seed=0)
        assert len(com.genomes) == 4
        assert [len(g) for g in com.genomes] == [2000] * 4
        db = synthetic_nt_database(com, n_decoys=3, decoy_length=1000, seed=1)
        assert len(db) == 7
        assert sum(1 for r in db if r.id.startswith("db_genome")) == 4


class TestKmers:
    def test_frequencies_sum_to_one(self):
        v = kmer_frequencies(random_genome(1000, seed_or_rng=0))
        assert v.shape == (256,)
        assert abs(v.sum() - 1.0) < 1e-12

    def test_known_counts_k2(self):
        v = kmer_frequencies("AACC", k=2, normalize=False)
        labels = ["".join(p) for p in itertools.product("ACGT", repeat=2)]
        counts = dict(zip(labels, v))
        assert counts["AA"] == 1 and counts["AC"] == 1 and counts["CC"] == 1
        assert v.sum() == 3

    def test_short_sequence_zero_vector(self):
        v = kmer_frequencies("AC", k=4)
        assert v.sum() == 0

    def test_composition_matrix_shape(self):
        recs = _records(n=3, length=500)
        m = composition_matrix(recs)
        assert m.shape == (3, 256)
        np.testing.assert_allclose(m.sum(axis=1), 1.0)

    def test_composition_separates_gc_extremes(self):
        lo = SeqRecord("lo", random_genome(5000, gc=0.25, seed_or_rng=1))
        hi = SeqRecord("hi", random_genome(5000, gc=0.75, seed_or_rng=2))
        lo2 = SeqRecord("lo2", random_genome(5000, gc=0.25, seed_or_rng=3))
        m = composition_matrix([lo, hi, lo2])
        d_same = np.linalg.norm(m[0] - m[2])
        d_diff = np.linalg.norm(m[0] - m[1])
        assert d_diff > 2 * d_same

class TestGzipFasta:
    def test_gz_roundtrip(self, tmp_path):
        from repro.bio import read_fasta, write_fasta

        recs = _records(n=4, length=70)
        path = tmp_path / "c.fasta.gz"
        write_fasta(recs, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        back = list(read_fasta(path))
        assert [(r.id, r.seq) for r in back] == [(r.id, r.seq) for r in recs]

class TestHomologCopies:
    def test_multiple_homologs_per_genome(self):
        com = synthetic_community(n_genomes=2, genome_length=1000, seed=0)
        db = synthetic_nt_database(com, n_decoys=1, decoy_length=500,
                                   homologs_per_genome=3)
        homolog_ids = [r.id for r in db if r.id.startswith("db_genome")]
        assert len(homolog_ids) == 6
        assert "db_genome000" in homolog_ids and "db_genome000_v2" in homolog_ids

    def test_validation(self):
        com = synthetic_community(n_genomes=1, genome_length=500, seed=0)
        with pytest.raises(ValueError):
            synthetic_nt_database(com, homologs_per_genome=0)
