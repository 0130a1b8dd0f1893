"""Command-line front end for MR-MPI BLAST.

Runs the full parallel pipeline on the in-process MPI runtime::

    mrblast --db outdir/mydb.pal.json --queries q1.fasta q2.fasta \
            --np 4 --out results/ --evalue 1e-4 --max-hits 50

Each ``--queries`` file is one query block (the paper's pre-split layout);
``--query-fasta`` takes one unsplit FASTA and lets a timing pilot choose the
block size.  Every other flag applies to both.
"""

from __future__ import annotations

import argparse

from repro.blast.options import BlastOptions
from repro.core.cli import add_job_flags, run_job
from repro.core.mrblast.driver import MrBlastConfig, mrblast_spmd, mrblast_supervised
from repro.core.mrblast.dynamic import plan_query_blocks
from repro.core.mrblast.workitems import load_query_blocks

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mrblast", description=__doc__)
    ap.add_argument("--db", required=True, help="database alias file (.pal.json)")
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--queries", nargs="+", help="pre-split query block FASTA files")
    group.add_argument(
        "--query-fasta",
        help="single query FASTA for dynamic chunking (block size chosen by a timing pilot)",
    )
    ap.add_argument("--target-unit-seconds", type=float, default=0.25,
                    help="dynamic mode: desired cost of one work unit")
    ap.add_argument("--out", default="mrblast_out", help="output directory")
    ap.add_argument("--program", choices=["blastn", "blastp", "blastx"], default="blastn")
    ap.add_argument("--evalue", type=float, default=10.0)
    ap.add_argument("--max-hits", type=int, default=500)
    ap.add_argument("--blocks-per-iteration", type=int, default=0,
                    help="query blocks per MapReduce iteration (0 = all at once)")
    ap.add_argument("--locality", action="store_true",
                    help="location-aware dispatch (prefer a worker's current DB partition)")
    ap.add_argument("--resume", action="store_true",
                    help="continue from the per-rank progress manifests in --out")
    add_job_flags(ap)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``mrblast`` console script."""
    ap = build_parser()
    args = ap.parse_args(argv)
    options = getattr(BlastOptions, args.program)(evalue=args.evalue, max_hits=args.max_hits)

    def make_config(**shared) -> MrBlastConfig:
        if args.query_fasta:
            query_blocks = plan_query_blocks(
                args.query_fasta, args.db, options, args.out,
                target_unit_seconds=args.target_unit_seconds, resume=args.resume)
        else:
            query_blocks = load_query_blocks(args.queries)
        return MrBlastConfig(
            alias_path=args.db,
            query_blocks=query_blocks,
            options=options,
            output_dir=args.out,
            blocks_per_iteration=args.blocks_per_iteration,
            resume=args.resume,
            locality_aware=args.locality,
            **shared,
        )

    config, live = run_job(ap, args, make_config, mrblast_spmd, mrblast_supervised)
    total_hits = sum(r.hits_written for r in live)
    total_queries = sum(r.queries_written for r in live)
    quarantined = sum(r.quarantined_units for r in live)
    for r in live:
        print(
            f"rank {r.rank}: units={r.units_processed} switches={r.partition_switches} "
            f"wrote {r.hits_written} hits for {r.queries_written} queries -> {r.output_path}"
        )
    if live[0].resumed_from_iteration:
        print(f"resumed from iteration {live[0].resumed_from_iteration}")
    if quarantined:
        print(f"quarantined work units skipped: {quarantined} (see poison.json)")
    if args.query_fasta:
        start, stop = config.query_blocks.ranges[0]
        print(f"dynamic chunking chose {stop - start}-query blocks "
              f"({len(config.query_blocks)} blocks)")
    print(f"total: {total_hits} hits for {total_queries} queries across {args.np} ranks")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
