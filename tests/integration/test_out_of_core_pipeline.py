"""Full mrblast pipeline under memory pressure: paging everywhere.

The paper's §III.A discusses exactly this regime: the working set can
exceed the per-rank memory budget, at which point MapReduce-MPI pages
key-value stores to files and the outer iteration loop bounds the in-flight
set.  This test forces all of it at once — a tiny ``memsize`` so map
output spills, the aggregate exchange runs multiple rounds, and convert
takes the external-grouping path — and requires bit-identical results.
"""

import pytest

from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.blast import BlastOptions, format_database
from repro.core import MrBlastConfig, mrblast_spmd
from repro.core.baselines import run_serial_blast
from repro.core.mrblast.merge import collect_rank_hits


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ooc")
    com = synthetic_community(n_genomes=4, genome_length=2200, seed=81)
    db = synthetic_nt_database(com, n_decoys=3, decoy_length=1400,
                               homolog_rate=0.05, seed=82,
                               homologs_per_genome=3)
    alias = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1300)
    reads = list(shred_records(com.genomes))[:16]
    blocks = [reads[i : i + 4] for i in range(0, len(reads), 4)]
    options = BlastOptions.blastn(evalue=1e-3, max_hits=30)
    return str(alias), blocks, options


def _sig(merged):
    return sorted(
        (q, h.subject_id, h.q_start, h.q_end, h.s_start, h.s_end,
         h.strand, round(h.bit_score, 1))
        for q, hits in merged.items()
        for h in hits
    )


def test_tiny_memsize_pipeline_matches_serial(workload, tmp_path):
    alias, blocks, options = workload
    serial = run_serial_blast(alias, blocks, options)

    # 4 KB pages: HSP objects are hundreds of bytes, so map output spills
    # after a handful of pairs and the aggregate runs many rounds.
    results = mrblast_spmd(4, MrBlastConfig(
        alias_path=alias, query_blocks=blocks, options=options,
        output_dir=str(tmp_path / "ooc"), memsize=4096,
    ))
    merged = collect_rank_hits([r.output_path for r in results])
    assert _sig(merged) == _sig(serial)


def test_tiny_memsize_with_all_features_on(workload, tmp_path):
    """Paging + multi-iteration + combiner + locality, all at once."""
    alias, blocks, options = workload
    serial = run_serial_blast(alias, blocks, options)
    results = mrblast_spmd(3, MrBlastConfig(
        alias_path=alias, query_blocks=blocks, options=options,
        output_dir=str(tmp_path / "all"), memsize=4096,
        blocks_per_iteration=2, combiner=True, locality_aware=True,
        work_order="query_major",
    ))
    merged = collect_rank_hits([r.output_path for r in results])
    assert _sig(merged) == _sig(serial)


def test_spilling_actually_happened(workload, tmp_path):
    """Guard against the test silently running in-memory."""
    from repro.core.mrblast.pipeline import BlastPipeline
    from repro.core.mrblast.workitems import build_work_items
    from repro.mpi import run_spmd

    alias, blocks, options = workload
    config = MrBlastConfig(
        alias_path=alias, query_blocks=blocks, options=options,
        output_dir=str(tmp_path / "spill"), memsize=4096,
    )

    def main(comm):
        pipeline = BlastPipeline(comm, config, blocks)
        mr = pipeline.mr
        try:
            items = build_work_items(len(blocks), pipeline.alias.num_partitions)
            mr.map_items(items, pipeline.mapper)
            return mr.comm.allreduce(int(mr.kv.out_of_core))
        finally:
            pipeline.close()

    assert run_spmd(3, main)[0] > 0


@pytest.mark.parametrize("memsize", [4096, None], ids=["out-of-core", "in-core"])
def test_per_query_bytes_match_serial(workload, tmp_path, memsize):
    """Byte for byte, not just alignment for alignment: each query's slice
    of the per-rank files is the tabular text of the serial baseline's hits
    for it, in-core and when a tiny memsize forces multi-page spill.  (That
    the structured rows carry what the pickled objects carried is the plane
    parity suite, tests/properties/test_mrmpi_properties.py.)
    """
    from repro.blast import format_tabular

    alias, blocks, options = workload
    overrides = {} if memsize is None else {"memsize": memsize}
    results = mrblast_spmd(3, MrBlastConfig(
        alias_path=alias, query_blocks=blocks, options=options,
        output_dir=str(tmp_path / "out"), **overrides,
    ))
    got: dict[str, bytes] = {}
    for r in results:
        with open(r.output_path, "rb") as fh:
            for line in fh:
                qid = line.split(b"\t", 1)[0].decode()
                got[qid] = got.get(qid, b"") + line
    serial = run_serial_blast(alias, blocks, options)
    assert got == {
        qid: format_tabular(hits).encode("ascii") for qid, hits in serial.items() if hits
    }
