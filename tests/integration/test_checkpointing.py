"""Per-iteration checkpointing and resume (restartable mrblast runs)."""

import json
import os

import pytest

from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.blast import BlastOptions, format_database
from repro.core import MrBlastConfig, mrblast_spmd
from repro.core.mrblast.merge import collect_rank_hits


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    com = synthetic_community(n_genomes=3, genome_length=2000, seed=71)
    db = synthetic_nt_database(com, n_decoys=2, decoy_length=1200, seed=72)
    alias = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1400)
    reads = list(shred_records(com.genomes))[:12]
    blocks = [reads[i : i + 3] for i in range(0, len(reads), 3)]  # 4 blocks
    return str(alias), blocks, BlastOptions.blastn(evalue=1e-4, max_hits=10)


def _signatures(merged):
    return sorted(
        (qid, h.subject_id, h.q_start, h.s_start, round(h.bit_score, 1))
        for qid, hits in merged.items()
        for h in hits
    )


class TestCheckpointResume:
    def test_interrupted_then_resumed_equals_full_run(self, workload, tmp_path):
        alias, blocks, options = workload

        full = mrblast_spmd(3, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "full"), blocks_per_iteration=2,
        ))
        full_hits = collect_rank_hits([r.output_path for r in full])

        # Phase 1: run only the first of two iterations ("crash" after it).
        out = str(tmp_path / "resumable")
        partial = mrblast_spmd(3, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=out, blocks_per_iteration=2, stop_after=1,
        ))
        partial_hits = collect_rank_hits([r.output_path for r in partial])
        assert set(partial_hits) < set(full_hits)  # strictly fewer queries

        # Progress files recorded one completed iteration per rank.
        for rank in range(3):
            with open(os.path.join(out, f"progress.rank{rank:04d}.json")) as fh:
                assert len(json.load(fh)["offsets"]) == 1

        # Phase 2: resume; only the remaining iteration's units are run.
        resumed = mrblast_spmd(3, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=out, blocks_per_iteration=2, resume=True,
        ))
        total_units_resumed = sum(r.units_processed for r in resumed)
        total_units_full = sum(r.units_processed for r in full)
        assert total_units_resumed == total_units_full // 2

        resumed_hits = collect_rank_hits([r.output_path for r in resumed])
        assert _signatures(resumed_hits) == _signatures(full_hits)

    def test_resume_truncates_partial_iteration_output(self, workload, tmp_path):
        """Garbage appended after the last checkpoint must be discarded."""
        alias, blocks, options = workload
        out = str(tmp_path / "trunc")
        mrblast_spmd(2, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=out, blocks_per_iteration=2, stop_after=1,
        ))
        victim = os.path.join(out, "hits.rank0000.tsv")
        with open(victim, "a") as fh:
            fh.write("CORRUPT\tPARTIAL\tLINE\n")  # crash mid-iteration 2

        resumed = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=out, blocks_per_iteration=2, resume=True,
        ))
        merged = collect_rank_hits([r.output_path for r in resumed])  # parses cleanly
        assert merged
        assert "CORRUPT" not in open(victim).read()

    def test_resume_on_fresh_directory_is_a_normal_run(self, workload, tmp_path):
        alias, blocks, options = workload
        results = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "fresh"), resume=True,
        ))
        assert collect_rank_hits([r.output_path for r in results])

    def test_without_resume_everything_reruns(self, workload, tmp_path):
        alias, blocks, options = workload
        out = str(tmp_path / "norerun")
        first = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options, output_dir=out,
        ))
        second = mrblast_spmd(2, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options, output_dir=out,
        ))
        assert sum(r.units_processed for r in second) == sum(
            r.units_processed for r in first
        )
        # Output not duplicated (file was truncated at start).
        assert _signatures(collect_rank_hits([r.output_path for r in second])) == \
            _signatures(collect_rank_hits([r.output_path for r in first]))

    def test_stop_after_validation(self, workload):
        alias, blocks, options = workload
        with pytest.raises(ValueError):
            MrBlastConfig(alias_path=alias, query_blocks=blocks, options=options,
                          stop_after=0)
