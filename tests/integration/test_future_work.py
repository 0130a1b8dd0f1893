"""The paper's §V future-work features: locality dispatch, dynamic chunking."""

import numpy as np
import pytest

from repro.bio import shred_records, synthetic_community, synthetic_nt_database, write_fasta
from repro.bio.fasta import FastaIndex
from repro.blast import BlastOptions, format_database
from repro.blast.dbreader import DatabaseAlias
from repro.core import MrBlastConfig, mrblast_spmd
from repro.core.baselines import run_serial_blast
from repro.core.mrblast.dynamic import (
    DynamicChunkConfig,
    mrblast_dynamic_spmd,
    plan_block_ranges,
    plan_query_blocks,
)
from repro.core.mrblast.merge import collect_rank_hits
from repro.core.mrblast.workitems import IndexedQueryBlocks
from repro.mpi import run_spmd
from repro.mrmpi import MapReduce


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fw")
    com = synthetic_community(n_genomes=3, genome_length=2400, seed=31)
    db = synthetic_nt_database(com, n_decoys=2, decoy_length=1500, homolog_rate=0.05, seed=32)
    alias = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1400)
    reads = list(shred_records(com.genomes))[:12]
    fasta = tmp / "queries.fasta"
    write_fasta(reads, fasta)
    options = BlastOptions.blastn(evalue=1e-4, max_hits=20)
    return str(alias), reads, str(fasta), options


def _sig(merged):
    return sorted(
        (q, h.subject_id, h.q_start, h.q_end, h.s_start, h.s_end,
         h.strand, round(h.bit_score, 1))
        for q, hits in merged.items()
        for h in hits
    )


class TestLocalityDispatch:
    def test_locality_key_routing_in_mrmpi(self):
        """Workers keep receiving items of the key they just processed."""

        def main(comm):
            items = [(i % 4, i) for i in range(40)]  # 4 keys x 10 items
            runs = []  # (key) sequence processed by this rank

            def mapper(itask, item, kv):
                runs.append(item[0])

            mr = MapReduce(comm)
            mr.map_items(items, mapper, locality_key=lambda it: it[0])
            mr.close()
            switches = sum(1 for a, b in zip(runs, runs[1:]) if a != b)
            return (len(runs), switches)

        results = run_spmd(3, main)
        assert results[0] == (0, 0)  # master maps nothing
        total = sum(n for n, _ in results)
        assert total == 40
        # Two workers, four keys: each worker should switch keys only when a
        # key drains (~1-3 switches), never per item.
        for n, switches in results[1:]:
            if n:
                assert switches <= 3

    def test_locality_results_identical_and_switches_reduced(self, workload, tmp_path):
        alias, reads, _, options = workload
        blocks = [reads[i : i + 3] for i in range(0, len(reads), 3)]
        serial = run_serial_blast(alias, blocks, options)

        # One worker (rank 0 is the master): the order it meets the units in
        # is the queue policy's alone, not the outcome of a race between
        # workers.  The policy under any interleaving of several workers'
        # requests is tests/sched/test_unit_queue.py.
        plain = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "plain"), work_order="query_major",
        ))
        local = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "local"), work_order="query_major",
            locality_aware=True,
        ))
        hits_plain = collect_rank_hits([r.output_path for r in plain])
        hits_local = collect_rank_hits([r.output_path for r in local])
        assert set(hits_local) == set(serial)
        assert {q: len(v) for q, v in hits_local.items()} == {
            q: len(v) for q, v in hits_plain.items()
        }
        # The whole point: query-major order re-opens a partition for every
        # unit, locality dispatch opens each partition once.
        nparts = DatabaseAlias.load(alias).num_partitions
        assert nparts > 1
        assert sum(r.partition_switches for r in plain) == len(blocks) * nparts
        assert sum(r.partition_switches for r in local) == nparts


class TestDynamicChunking:
    def test_plan_block_ranges_covers_everything_with_taper(self):
        ranges = plan_block_ranges(100, block_size=16, taper_fraction=0.25)
        assert ranges[0] == (0, 16)
        # Contiguous full coverage.
        assert ranges[0][0] == 0 and ranges[-1][1] == 100
        for (a, b), (c, _d) in zip(ranges, ranges[1:]):
            assert b == c and a < b
        # Tail blocks shrink geometrically.
        tail_sizes = [b - a for a, b in ranges if a >= 75]
        assert tail_sizes == sorted(tail_sizes, reverse=True)
        assert tail_sizes[-1] < 16

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            plan_block_ranges(0, 4)
        with pytest.raises(ValueError):
            plan_block_ranges(10, 0)

    def test_no_taper_uniform_blocks(self):
        ranges = plan_block_ranges(40, 10, taper_fraction=0.0)
        assert ranges == [(0, 10), (10, 20), (20, 30), (30, 40)]

    def test_dynamic_run_matches_serial(self, workload, tmp_path):
        alias, reads, fasta, options = workload
        config = DynamicChunkConfig(
            alias_path=alias,
            query_fasta=fasta,
            options=options,
            output_dir=str(tmp_path / "dyn"),
            target_unit_seconds=0.05,
            pilot_queries=2,
        )
        results = mrblast_dynamic_spmd(3, config)
        # The run is run_mrblast's: its stage counters come with it.
        assert sum(r.units_processed for r in results) >= 1
        assert sum(r.hits_emitted for r in results) >= sum(r.hits_written for r in results) > 0
        merged = collect_rank_hits([r.output_path for r in results])
        assert _sig(merged) == _sig(run_serial_blast(alias, [reads], options))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_indexed_blocks_spill_stop_and_resume(self, workload, tmp_path, backend):
        """What only the fold makes possible: a ``--query-fasta``-style run
        under spill, in two-block iterations, killed after one and resumed."""
        alias, reads, fasta, options = workload
        index = FastaIndex(fasta)
        blocks = IndexedQueryBlocks(index, plan_block_ranges(len(index), 3, 0.25))
        assert len(blocks) > 2

        def config(**kw):
            return MrBlastConfig(
                alias_path=alias, query_blocks=blocks, options=options,
                output_dir=str(tmp_path / "out"), memsize=4096,
                blocks_per_iteration=2, locality_aware=True, backend=backend, **kw)

        partial = mrblast_spmd(3, config(stop_after_iterations=1))
        assert sum(r.queries_written for r in partial) < len(reads)
        resumed = mrblast_spmd(3, config(resume=True))
        assert all(r.resumed_from_iteration == 1 for r in resumed)
        merged = collect_rank_hits([r.output_path for r in resumed])
        assert _sig(merged) == _sig(run_serial_blast(alias, [reads], options))

    def test_indexed_blocks_answer_ids_without_loading(self, workload, tmp_path, monkeypatch):
        alias, reads, fasta, options = workload
        index = FastaIndex(fasta)
        blocks = IndexedQueryBlocks(index, plan_block_ranges(len(index), 5, 0.0))
        monkeypatch.setattr(index, "load_range", lambda *a: pytest.fail("block loaded"))
        MrBlastConfig(alias_path=alias, query_blocks=blocks, options=options,
                      output_dir=str(tmp_path / "out")).validate()
        assert [q for ids in blocks.ids() for q in ids] == [r.id for r in reads]

    def test_resumed_plan_is_the_recorded_one(self, workload, tmp_path):
        """The pilot is a timing; a relaunch must not re-cut the blocks the
        iteration checkpoints were counted in."""
        alias, _, fasta, options = workload
        first = plan_query_blocks(DynamicChunkConfig(
            alias_path=alias, query_fasta=fasta, options=options,
            output_dir=str(tmp_path / "out"), target_unit_seconds=1e9, max_block=5))
        again = plan_query_blocks(DynamicChunkConfig(
            alias_path=alias, query_fasta=fasta, options=options,
            output_dir=str(tmp_path / "out"), target_unit_seconds=1e9, max_block=2),
            resume=True)
        assert again.ranges == first.ranges
        fresh = plan_query_blocks(DynamicChunkConfig(
            alias_path=alias, query_fasta=fasta, options=options,
            output_dir=str(tmp_path / "out"), target_unit_seconds=1e9, max_block=2))
        assert fresh.ranges != first.ranges

    def test_pilot_respects_bounds(self, workload, tmp_path):
        alias, _, fasta, options = workload
        from repro.core.mrblast.dynamic import pilot_block_size

        config = DynamicChunkConfig(
            alias_path=alias, query_fasta=fasta, options=options,
            target_unit_seconds=1e9, max_block=5,
        )
        size = pilot_block_size(FastaIndex(fasta), DatabaseAlias.load(alias), config)
        assert size == 5  # clamped at max_block

        config2 = DynamicChunkConfig(
            alias_path=alias, query_fasta=fasta, options=options,
            target_unit_seconds=1e-9, min_block=2,
        )
        size2 = pilot_block_size(FastaIndex(fasta), DatabaseAlias.load(alias), config2)
        assert size2 == 2  # clamped at min_block

    def test_config_validation(self, workload):
        alias, _, fasta, options = workload
        with pytest.raises(ValueError):
            DynamicChunkConfig(alias_path=alias, query_fasta=fasta,
                               target_unit_seconds=0)
        with pytest.raises(ValueError):
            DynamicChunkConfig(alias_path=alias, query_fasta=fasta, taper_fraction=1.0)
        with pytest.raises(ValueError):
            DynamicChunkConfig(alias_path=alias, query_fasta=fasta, min_block=9, max_block=2)
