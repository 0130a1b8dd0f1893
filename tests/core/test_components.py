"""Core components: work items, mmap matrix, merge, CLIs, mapper caching."""

import numpy as np
import pytest

from repro.bio import SeqRecord, random_genome, split_fasta, write_fasta
from repro.bio.fasta import FastaIndex
from repro.core.mrblast.dynamic import plan_block_ranges
from repro.core.mrblast.workitems import (
    IndexedQueryBlocks,
    WorkItem,
    block_query_ids,
    build_work_items,
    load_query_blocks,
)
from repro.core.mrblast.mapper import exclude_self_hits
from repro.core.mrblast.merge import collect_rank_hits, merge_rank_outputs
from repro.core.mrsom.mmap_input import MatrixFile, write_matrix_file
from repro.blast.hsp import HSP
from repro.blast.tabular import write_tabular


class TestWorkItems:
    def test_partition_major_order(self):
        items = build_work_items(3, 2, order="partition_major")
        assert items[:3] == [WorkItem(0, 0), WorkItem(1, 0), WorkItem(2, 0)]
        assert len(items) == 6

    def test_query_major_order(self):
        items = build_work_items(2, 3, order="query_major")
        assert items[:3] == [WorkItem(0, 0), WorkItem(0, 1), WorkItem(0, 2)]

    def test_full_matrix_covered_once(self):
        items = build_work_items(5, 7)
        assert len(set(items)) == 35

    def test_validation(self):
        with pytest.raises(ValueError):
            build_work_items(0, 3)
        with pytest.raises(ValueError):
            build_work_items(2, 2, order="spiral")

    def test_load_query_blocks(self, tmp_path):
        recs = [SeqRecord(f"q{i}", random_genome(60, seed_or_rng=i)) for i in range(7)]
        paths = split_fasta(recs, tmp_path, seqs_per_block=3)
        blocks = load_query_blocks(paths)
        assert [len(b) for b in blocks] == [3, 3, 1]
        assert blocks[2][0].id == "q6"
        with pytest.raises(ValueError):
            load_query_blocks([])

    def test_index_query_blocks_dynamic_chunking(self, tmp_path):
        recs = [SeqRecord(f"q{i}", random_genome(50, seed_or_rng=i)) for i in range(10)]
        path = tmp_path / "all.fasta"
        write_fasta(recs, path)
        ranges = plan_block_ranges(10, 4, taper_fraction=0.0)
        assert ranges == [(0, 4), (4, 8), (8, 10)]
        blocks = IndexedQueryBlocks(FastaIndex(path), ranges)
        assert len(blocks) == 3
        assert [r.id for r in blocks[1]] == ["q4", "q5", "q6", "q7"]
        assert blocks[1] is blocks[1]  # the last block read stays cached
        assert [r.seq for r in blocks[2]] == [r.seq for r in recs[8:]]
        # ids per block are the same question asked of materialised blocks
        assert block_query_ids(blocks) == block_query_ids([recs[a:b] for a, b in ranges])


class TestSelfHitFilter:
    def _hsp(self, qid, sid):
        return HSP(qid, sid, 100, 50.0, 1e-10, 0, 50, 0, 50, 50, 50)

    def test_excludes_parent_and_db_parent(self):
        assert exclude_self_hits("genome1/0-400", self._hsp("genome1/0-400", "genome1"))
        assert exclude_self_hits("genome1/0-400", self._hsp("genome1/0-400", "db_genome1"))

    def test_keeps_other_subjects(self):
        assert not exclude_self_hits("genome1/0-400", self._hsp("genome1/0-400", "genome2"))
        assert not exclude_self_hits("plainquery", self._hsp("plainquery", "db_genome1"))


class TestMatrixFile:
    def test_roundtrip_float64(self, tmp_path):
        data = np.random.default_rng(0).random((37, 5))
        path = write_matrix_file(tmp_path / "m.mat", data)
        m = MatrixFile(path)
        assert (m.n, m.dim) == (37, 5)
        np.testing.assert_allclose(m.rows(0, 37), data)
        np.testing.assert_allclose(m.rows(10, 20), data[10:20])

    def test_float32_dtype_preserved(self, tmp_path):
        data = np.random.default_rng(1).random((8, 3)).astype(np.float32)
        m = MatrixFile(write_matrix_file(tmp_path / "f32.mat", data))
        assert m.dtype == np.float32
        np.testing.assert_allclose(m.rows(0, 8), data.astype(np.float64))

    def test_work_units_cover_all_rows(self, tmp_path):
        data = np.zeros((103, 2))
        m = MatrixFile(write_matrix_file(tmp_path / "w.mat", data))
        units = m.work_units(40)
        assert units == [(0, 40), (40, 80), (80, 103)]
        with pytest.raises(ValueError):
            m.work_units(0)

    def test_bounds_and_bad_files(self, tmp_path):
        m = MatrixFile(write_matrix_file(tmp_path / "b.mat", np.zeros((4, 2))))
        with pytest.raises(IndexError):
            m.rows(0, 5)
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"NOTAMATRIX HEADER...")
        with pytest.raises(ValueError):
            MatrixFile(str(bad))

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix_file(tmp_path / "x.mat", np.zeros(5))


class TestBlockAccumulator:
    """mrsom's map() callable under the scheduler's unit hooks."""

    def test_discarded_speculative_loser_leaves_no_trace(self, tmp_path):
        from repro.core.mrsom.driver import _BlockAccumulator

        rng = np.random.default_rng(8)
        matrix = MatrixFile(write_matrix_file(tmp_path / "v.mat", rng.random((90, 5))))
        codebook = rng.random((12, 5))
        units = matrix.work_units(20)

        plain = _BlockAccumulator(matrix)  # plain dispatch: no hooks, no losers
        plain.start_epoch(codebook)
        for i, unit in enumerate(units):
            plain(i, unit, None)

        sched = _BlockAccumulator(matrix)
        sched.start_epoch(codebook)
        for i, unit in enumerate(units):
            # a chunk: this unit, and a copy of a unit another rank won
            loser = (i + 2) % len(units)
            for itask in (i, loser):
                sched.begin_unit(itask)
                sched(itask, units[itask], None)
            # what a chunk holds while the master decides: each unit's row
            # offsets and BMUs, not its rows or two zeroed (K, dim) buffers
            assert set(sched._staged) == {i, loser}
            start, stop, bmus = sched._staged[i]
            assert (start, stop) == unit and bmus.shape == (stop - start,)
            sched.commit_unit(i)
            sched.discard_unit(loser)
            assert sched._staged == {}

        assert sched.sums.tobytes() == plain.sums.tobytes()
        assert sched.counts.tobytes() == plain.counts.tobytes()
        units_of = lambda acc: acc.metrics.value("mrsom.units")  # noqa: E731
        assert units_of(sched) == units_of(plain) == len(units)
        assert sched.counts.sum() == 90


class TestMerge:
    def _hsp(self, qid, sid="s", e=1e-5):
        return HSP(qid, sid, 100, 50.0, e, 0, 50, 0, 50, 50, 50)

    def test_duplicate_query_across_files_rejected(self, tmp_path):
        f1, f2 = tmp_path / "r0.tsv", tmp_path / "r1.tsv"
        write_tabular([self._hsp("qA")], f1)
        write_tabular([self._hsp("qA")], f2)
        with pytest.raises(ValueError, match="exactly one rank"):
            collect_rank_hits([str(f1), str(f2)])

    def test_missing_files_tolerated(self, tmp_path):
        f1 = tmp_path / "r0.tsv"
        write_tabular([self._hsp("qA")], f1)
        merged = collect_rank_hits([str(f1), str(tmp_path / "nope.tsv")])
        assert set(merged) == {"qA"}

    def test_unknown_query_in_order_rejected(self, tmp_path):
        f1 = tmp_path / "r0.tsv"
        write_tabular([self._hsp("mystery")], f1)
        with pytest.raises(ValueError, match="unknown queries"):
            merge_rank_outputs([str(f1)], str(tmp_path / "out.tsv"), query_order=["qA"])

    def test_empty_inputs_create_empty_output(self, tmp_path):
        out = tmp_path / "merged.tsv"
        n = merge_rank_outputs([], str(out))
        assert n == 0
        assert out.exists() and out.read_text() == ""


class TestClis:
    def test_mrblast_cli_end_to_end(self, tmp_path, capsys):
        from repro.bio import synthetic_community, synthetic_nt_database, shred_records
        from repro.blast import format_database
        from repro.core.mrblast.cli import main

        com = synthetic_community(n_genomes=2, genome_length=1500, seed=5)
        db = synthetic_nt_database(com, n_decoys=1, decoy_length=800, seed=6)
        alias = format_database(db, tmp_path / "db", "clidb", kind="dna")
        reads = list(shred_records(com.genomes))[:4]
        qpaths = split_fasta(reads, tmp_path / "queries", seqs_per_block=2)

        rc = main([
            "--db", str(alias), "--queries", *map(str, qpaths),
            "--np", "2", "--out", str(tmp_path / "out"), "--evalue", "1e-5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert (tmp_path / "out" / "hits.rank0000.tsv").exists()

    def test_mrsom_cli_end_to_end(self, tmp_path, capsys):
        from repro.core.mrsom.cli import main

        data = np.random.default_rng(2).random((80, 4))
        matrix = write_matrix_file(tmp_path / "v.mat", data)
        out = tmp_path / "cb.npy"
        rc = main([
            "--input", str(matrix), "--rows", "4", "--cols", "4",
            "--epochs", "3", "--np", "2", "--block-rows", "16",
            "--out", str(out),
        ])
        assert rc == 0
        codebook = np.load(out)
        assert codebook.shape == (16, 4)
        assert "trained 4x4 SOM" in capsys.readouterr().out


class TestMrSomErrorTracking:
    def test_error_history_recorded_and_decreasing(self, tmp_path):
        from repro.core import MrSomConfig, mrsom_spmd
        from repro.som.codebook import SOMGrid

        data = np.random.default_rng(8).random((300, 6))
        path = write_matrix_file(tmp_path / "t.mat", data)
        config = MrSomConfig(
            matrix_path=str(path), grid=SOMGrid(6, 6), epochs=8,
            block_rows=50, track_error=True,
        )
        results = mrsom_spmd(3, config)
        history = results[0].error_history
        assert history is not None and len(history) == 8
        assert history[-1] < history[0]
        assert all(r.error_history is None for r in results[1:])

    def test_no_tracking_by_default(self, tmp_path):
        from repro.core import MrSomConfig, mrsom_spmd
        from repro.som.codebook import SOMGrid

        data = np.random.default_rng(9).random((100, 4))
        path = write_matrix_file(tmp_path / "n.mat", data)
        config = MrSomConfig(matrix_path=str(path), grid=SOMGrid(4, 4), epochs=2)
        results = mrsom_spmd(2, config)
        assert all(r.error_history is None for r in results)


class TestDynamicCli:
    def test_mrblast_cli_dynamic_mode(self, tmp_path, capsys):
        from repro.bio import synthetic_community, synthetic_nt_database, shred_records
        from repro.bio.fasta import write_fasta as wf
        from repro.blast import format_database
        from repro.core.mrblast.cli import main

        com = synthetic_community(n_genomes=2, genome_length=1500, seed=15)
        db = synthetic_nt_database(com, n_decoys=1, decoy_length=800, seed=16)
        alias = format_database(db, tmp_path / "db", "dyndb", kind="dna")
        reads = list(shred_records(com.genomes))[:4]
        fasta = tmp_path / "q.fasta"
        wf(reads, fasta)

        rc = main([
            "--db", str(alias), "--query-fasta", str(fasta),
            "--np", "2", "--out", str(tmp_path / "out"),
            "--evalue", "1e-5", "--target-unit-seconds", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dynamic chunking chose" in out
        assert (tmp_path / "out" / "hits.rank0000.tsv").exists()

    def test_queries_and_fasta_mutually_exclusive(self, tmp_path):
        from repro.core.mrblast.cli import main

        with pytest.raises(SystemExit):
            main(["--db", "x", "--queries", "a", "--query-fasta", "b"])
