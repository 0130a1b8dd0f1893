"""Parallel == serial parity: the reproduction's central correctness suite.

The paper's whole point is that wrapping the unmodified serial algorithm in
MapReduce-MPI leaves results identical to a serial run.  These tests run the
complete parallel pipelines on the in-process MPI runtime and compare
against the serial baselines, bit-for-bit where the arithmetic allows.
"""

import numpy as np
import pytest

from repro.bio import (
    SeqRecord,
    shred_records,
    synthetic_community,
    synthetic_nt_database,
    synthetic_protein_database,
)
from repro.blast import BlastOptions, format_database
from repro.blast.hsp import HSP
from repro.core import MrBlastConfig, MrSomConfig, mrblast_spmd, mrsom_spmd
from repro.core.baselines import run_serial_batch_som, run_serial_blast
from repro.core.mrblast.mapper import exclude_self_hits
from repro.core.mrblast.merge import collect_rank_hits
from repro.core.mrsom.mmap_input import write_matrix_file
from repro.mrmpi import MapStyle
from repro.som.codebook import SOMGrid

from oracles.htc_blast import run_htc_blast
from oracles.mpiblast_like import mpiblast_like_spmd


# --------------------------------------------------------------------------
# Shared nucleotide workload: community reads vs partitioned homolog DB.
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nt_workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("nt")
    com = synthetic_community(n_genomes=4, genome_length=2500, seed=13)
    db = synthetic_nt_database(com, n_decoys=3, decoy_length=1500, homolog_rate=0.05, seed=14)
    alias_path = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1500)
    reads = list(shred_records(com.genomes))[:12]
    blocks = [reads[i : i + 3] for i in range(0, len(reads), 3)]
    options = BlastOptions.blastn(evalue=1e-4, max_hits=25)
    return str(alias_path), blocks, options, reads


def hit_signature(h: HSP) -> tuple:
    return (
        h.query_id, h.subject_id, h.q_start, h.q_end, h.s_start, h.s_end,
        h.strand, h.align_len, h.identities, h.gaps,
        round(h.bit_score, 1), round(float(np.log10(max(h.evalue, 1e-300))), 4),
    )


def flatten(merged: dict[str, list[HSP]]) -> list[tuple]:
    return sorted(hit_signature(h) for hits in merged.values() for h in hits)


class TestMrBlastParity:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_mrblast_equals_serial(self, nt_workload, tmp_path, nprocs):
        alias_path, blocks, options, _ = nt_workload
        serial = run_serial_blast(alias_path, blocks, options)
        config = MrBlastConfig(
            alias_path=alias_path,
            query_blocks=blocks,
            options=options,
            output_dir=str(tmp_path / f"np{nprocs}"),
        )
        results = mrblast_spmd(nprocs, config)
        parallel = collect_rank_hits([r.output_path for r in results])
        assert set(parallel) == set(serial)
        assert flatten(parallel) == flatten(serial)

    def test_multiple_iterations_equal_single(self, nt_workload, tmp_path):
        """The outer loop over query subsets must not change results."""
        alias_path, blocks, options, _ = nt_workload
        one = mrblast_spmd(3, MrBlastConfig(
            alias_path=alias_path, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "single"), blocks_per_iteration=0,
        ))
        many = mrblast_spmd(3, MrBlastConfig(
            alias_path=alias_path, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "multi"), blocks_per_iteration=1,
        ))
        hits_one = collect_rank_hits([r.output_path for r in one])
        hits_many = collect_rank_hits([r.output_path for r in many])
        assert flatten(hits_one) == flatten(hits_many)

    @pytest.mark.parametrize("style", [MapStyle.CHUNK, MapStyle.MASTER_WORKER])
    def test_mapstyle_does_not_change_results(self, nt_workload, tmp_path, style):
        alias_path, blocks, options, _ = nt_workload
        serial = run_serial_blast(alias_path, blocks, options)
        results = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias_path, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / f"style{int(style)}"), mapstyle=style,
        ))
        parallel = collect_rank_hits([r.output_path for r in results])
        assert flatten(parallel) == flatten(serial)

    def test_each_query_in_exactly_one_rank_file(self, nt_workload, tmp_path):
        alias_path, blocks, options, _ = nt_workload
        results = mrblast_spmd(4, MrBlastConfig(
            alias_path=alias_path, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "placement"),
        ))
        # collect_rank_hits raises if a query spans two files.
        merged = collect_rank_hits([r.output_path for r in results])
        assert merged, "workload must produce hits"

    def test_per_query_hits_sorted_by_evalue(self, nt_workload, tmp_path):
        alias_path, blocks, options, _ = nt_workload
        results = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias_path, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "sorted"),
        ))
        merged = collect_rank_hits([r.output_path for r in results])
        for qid, hits in merged.items():
            evalues = [h.evalue for h in hits]
            assert evalues == sorted(evalues), f"hits of {qid} not E-value sorted"

    def test_self_hit_exclusion(self, nt_workload, tmp_path):
        """The paper excluded RefSeq fragments hitting their own parent."""
        alias_path, blocks, options, _ = nt_workload
        results = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias_path, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "selfhit"), hit_filter=exclude_self_hits,
        ))
        merged = collect_rank_hits([r.output_path for r in results])
        from repro.bio.shred import parent_id
        for qid, hits in merged.items():
            for h in hits:
                assert h.subject_id != f"db_{parent_id(qid)}"

    def test_master_worker_stats(self, nt_workload, tmp_path):
        alias_path, blocks, options, _ = nt_workload
        results = mrblast_spmd(3, MrBlastConfig(
            alias_path=alias_path, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "stats"),
        ))
        assert results[0].units_processed == 0  # master maps nothing
        from repro.blast.dbreader import DatabaseAlias
        n_parts = DatabaseAlias.load(alias_path).num_partitions
        total_units = sum(r.units_processed for r in results)
        assert total_units == len(blocks) * n_parts
        assert all(r.map_seconds > 0 for r in results)

class TestBaselinesParity:
    def test_htc_workflow_equals_serial(self, nt_workload, tmp_path):
        alias_path, blocks, options, _ = nt_workload
        serial = run_serial_blast(alias_path, blocks, options)
        htc = run_htc_blast(alias_path, blocks, options, str(tmp_path / "htc"))
        from repro.blast.dbreader import DatabaseAlias
        n_parts = DatabaseAlias.load(alias_path).num_partitions
        assert htc.n_jobs == len(blocks) * n_parts
        assert set(htc.merged) == set(serial)
        # File round-trip loses raw scores; compare coordinates and counts.
        for qid in serial:
            got = [(h.subject_id, h.q_start, h.q_end, h.s_start, h.s_end, h.strand)
                   for h in htc.merged[qid]]
            want = [(h.subject_id, h.q_start, h.q_end, h.s_start, h.s_end, h.strand)
                    for h in serial[qid]]
            assert got == want
        assert htc.longest_job_seconds > 0
        assert htc.total_cpu_seconds >= htc.longest_job_seconds

    @pytest.mark.parametrize("nprocs", [1, 3])
    def test_mpiblast_like_equals_serial(self, nt_workload, nprocs):
        alias_path, blocks, options, _ = nt_workload
        serial = run_serial_blast(alias_path, blocks, options)
        results = mpiblast_like_spmd(nprocs, alias_path, blocks, options)
        merged = results[0].hits
        assert flatten(merged) == flatten(serial)
        owned = [p for r in results for p in r.partitions_owned]
        from repro.blast.dbreader import DatabaseAlias
        assert sorted(owned) == list(range(DatabaseAlias.load(alias_path).num_partitions))


class TestMrSomParity:
    @pytest.fixture(scope="class")
    def som_workload(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("som")
        rng = np.random.default_rng(21)
        data = rng.random((400, 8))
        path = write_matrix_file(tmp / "vectors.mat", data)
        return str(path), data

    @pytest.mark.parametrize("nprocs", [1, 2, 5])
    def test_parallel_equals_serial(self, som_workload, nprocs):
        path, _ = som_workload
        config = MrSomConfig(matrix_path=path, grid=SOMGrid(6, 6), epochs=5, block_rows=37)
        serial_cb = run_serial_batch_som(config)
        results = mrsom_spmd(nprocs, config)
        for r in results:
            np.testing.assert_allclose(r.codebook, serial_cb, atol=1e-9)

    def test_all_ranks_get_identical_codebook(self, som_workload):
        path, _ = som_workload
        config = MrSomConfig(matrix_path=path, grid=SOMGrid(5, 5), epochs=3, block_rows=50)
        results = mrsom_spmd(4, config)
        for r in results[1:]:
            np.testing.assert_array_equal(r.codebook, results[0].codebook)

    def test_block_size_does_not_change_result(self, som_workload):
        """Fig. 6 note: '80-vector work units produced identical timings' —
        and identical results, since Eq. 5 sums are associative."""
        path, _ = som_workload
        cb40 = mrsom_spmd(2, MrSomConfig(
            matrix_path=path, grid=SOMGrid(6, 6), epochs=4, block_rows=40))[0].codebook
        cb80 = mrsom_spmd(2, MrSomConfig(
            matrix_path=path, grid=SOMGrid(6, 6), epochs=4, block_rows=80))[0].codebook
        np.testing.assert_allclose(cb40, cb80, atol=1e-9)

    def test_training_actually_learns(self, som_workload):
        path, data = som_workload
        from repro.som import quantization_error
        from repro.som.codebook import init_codebook

        grid = SOMGrid(8, 8)
        config = MrSomConfig(matrix_path=path, grid=grid, epochs=10, block_rows=40)
        cb = mrsom_spmd(3, config)[0].codebook
        qe_init = quantization_error(data, init_codebook(grid, data, method="linear"))
        # The final radius of 1.0 keeps the map smooth, so QE saturates well
        # above zero; a solid relative improvement is the right assertion.
        assert quantization_error(data, cb) < 0.85 * qe_init

    def test_work_unit_accounting(self, som_workload):
        path, data = som_workload
        config = MrSomConfig(matrix_path=path, grid=SOMGrid(4, 4), epochs=2, block_rows=40)
        results = mrsom_spmd(3, config)
        total_units = sum(r.units_processed for r in results)
        expected_per_epoch = -(-data.shape[0] // 40)
        assert total_units == expected_per_epoch * config.epochs
        assert results[0].units_processed == 0  # master-worker: rank 0 idle


class TestTracingParity:
    """Tracing must observe, never perturb: identical bytes on and off."""

    def test_mrblast_traced_output_is_byte_identical(self, nt_workload, tmp_path):
        alias_path, blocks, options, _ = nt_workload
        base = dict(alias_path=alias_path, query_blocks=blocks, options=options)
        plain = mrblast_spmd(3, MrBlastConfig(
            **base, output_dir=str(tmp_path / "plain")))
        trace_path = tmp_path / "trace.json"
        traced = mrblast_spmd(3, MrBlastConfig(
            **base, output_dir=str(tmp_path / "traced"),
            trace_path=str(trace_path)))
        for p, t in zip(plain, traced):
            with open(p.output_path, "rb") as fp, open(t.output_path, "rb") as ft:
                assert fp.read() == ft.read()
        assert trace_path.exists()
        import json
        from repro.obs.export import validate_chrome_trace
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []

    def test_mrsom_traced_codebook_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(31)
        path = write_matrix_file(tmp_path / "v.mat", rng.random((200, 6)))
        # CHUNK: static schedule, so two runs add floats in the same order.
        base = dict(matrix_path=str(path), grid=SOMGrid(5, 5), epochs=3,
                    block_rows=40, mapstyle=MapStyle.CHUNK)
        plain = mrsom_spmd(3, MrSomConfig(**base))
        traced = mrsom_spmd(3, MrSomConfig(
            **base, trace_path=str(tmp_path / "trace.json")))
        np.testing.assert_array_equal(traced[0].codebook, plain[0].codebook)
        assert (tmp_path / "trace.json").exists()
