#!/usr/bin/env python3
"""The paper's §V improvements, end to end.

Runs the same search three ways and compares the work distribution:

1. the paper's published pipeline (pre-split blocks, FIFO master/worker);
2. with location-aware dispatch (workers keep their DB partition);
3. fully dynamic: no pre-split files — a FASTA offset index plus a timing
   pilot choose the block size at run time, with tapered tail blocks.  The
   plan is just another ``query_blocks`` for the same driver.

Run:  python examples/dynamic_chunking.py
"""

import tempfile
from pathlib import Path

from repro.bio import shred_records, synthetic_community, synthetic_nt_database, write_fasta
from repro.blast import BlastOptions, format_database
from repro.core import MrBlastConfig, mrblast_spmd
from repro.core.mrblast.dynamic import plan_query_blocks
from repro.core.mrblast.merge import collect_rank_hits


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_dynamic_"))
    community = synthetic_community(n_genomes=4, genome_length=2500, seed=21)
    db = synthetic_nt_database(community, n_decoys=3, decoy_length=1600, seed=22)
    alias = format_database(db, workdir / "db", "nt", kind="dna", max_volume_bytes=1500)
    reads = list(shred_records(community.genomes))[:16]
    query_fasta = workdir / "queries.fasta"
    write_fasta(reads, query_fasta)
    options = BlastOptions.blastn(evalue=1e-5, max_hits=10)
    blocks = [reads[i : i + 4] for i in range(0, len(reads), 4)]

    # 1. The paper's pipeline.
    plain = mrblast_spmd(4, MrBlastConfig(
        alias_path=str(alias), query_blocks=blocks, options=options,
        output_dir=str(workdir / "plain"), work_order="query_major",
    ))
    # 2. Location-aware dispatch.
    local = mrblast_spmd(4, MrBlastConfig(
        alias_path=str(alias), query_blocks=blocks, options=options,
        output_dir=str(workdir / "local"), work_order="query_major",
        locality_aware=True,
    ))
    # 3. Dynamic chunking from the FASTA index.
    plan = plan_query_blocks(str(query_fasta), str(alias), options,
                             str(workdir / "dynamic"), target_unit_seconds=0.05)
    dynamic = mrblast_spmd(4, MrBlastConfig(
        alias_path=str(alias), query_blocks=plan, options=options,
        output_dir=str(workdir / "dynamic"), locality_aware=True,
    ))

    def switches(results):
        return sum(r.partition_switches for r in results)

    print(f"{'pipeline':<28} {'partition switches':>20}")
    print(f"{'paper (FIFO dispatch)':<28} {switches(plain):>20}")
    print(f"{'location-aware (§V)':<28} {switches(local):>20}")
    print(f"{'dynamic chunking (§V)':<28} {switches(dynamic):>20}")
    print(f"\ndynamic run chose blocks of {plan.ranges[0][1] - plan.ranges[0][0]} queries "
          f"({len(plan)} blocks with tapered tail)")

    hits = [collect_rank_hits([r.output_path for r in rs]) for rs in (plain, local, dynamic)]
    assert hits[0].keys() == hits[1].keys() == hits[2].keys()
    counts = [sum(len(v) for v in h.values()) for h in hits]
    assert counts[0] == counts[1] == counts[2]
    print(f"all three pipelines report identical results "
          f"({counts[0]} hits for {len(hits[0])} queries)")


if __name__ == "__main__":
    main()
