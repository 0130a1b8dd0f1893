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
from repro.core.mrblast.driver import MrBlastConfig, mrblast_spmd, mrblast_supervised
from repro.core.mrblast.dynamic import DynamicChunkConfig, plan_query_blocks
from repro.core.mrblast.workitems import load_query_blocks
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import RetryPolicy

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
    ap.add_argument("--np", type=int, default=4, help="number of MPI ranks")
    ap.add_argument("--backend", choices=["thread", "process"], default=None,
                    help="transport backend: 'process' runs each rank as an OS "
                         "process (real multi-core); 'thread' is the in-process "
                         "parity oracle (default: $REPRO_MPI_BACKEND or thread)")
    ap.add_argument("--arena-mb", type=int, default=None,
                    help="process backend: shared-memory arena MiB per rank "
                         "(0 disables the arena; default: $REPRO_MPI_ARENA_MB "
                         "or 64)")
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
    ap.add_argument("--faults", default=None, metavar="SPEC",
                    help="fault-injection plan, e.g. 'crash=1@20' or "
                         "'seed=7,crashes=1,drops=2' (see FaultPlan.parse)")
    ap.add_argument("--retries", type=int, default=0, metavar="N",
                    help="run under the supervisor with up to N relaunches "
                         "(resume from the last committed iteration)")
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="write a Chrome trace_event JSON of the run here "
                         "(open in chrome://tracing or Perfetto)")
    ap.add_argument("--speculate", type=float, default=None, metavar="FACTOR",
                    help="straggler mitigation: re-issue a work unit once its "
                         "elapsed time exceeds FACTOR x the running median "
                         "(must be > 1.0; first copy to finish wins)")
    ap.add_argument("--no-degraded", action="store_true",
                    help="abort the job when a worker rank dies instead of "
                         "reassigning its work to survivors (degraded-mode "
                         "completion is the default)")
    return ap


def _print_sched_summary(live: list) -> None:
    """One line of straggler/degraded accounting when anything happened."""
    if not live:
        return
    head = live[0]
    if head.speculated_units:
        print(
            f"speculation: {head.speculated_units} extra copies launched, "
            f"{head.wasted_units} discarded as losers"
        )
    if head.degraded:
        print(
            f"degraded completion: lost ranks {list(head.lost_ranks)}, "
            f"{head.reassigned_units} work units reassigned to survivors"
        )


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``mrblast`` console script."""
    args = build_parser().parse_args(argv)
    if args.speculate is not None and args.speculate <= 1.0:
        build_parser().error(f"--speculate must be > 1.0, got {args.speculate}")
    factory = {
        "blastn": BlastOptions.blastn,
        "blastp": BlastOptions.blastp,
        "blastx": BlastOptions.blastx,
    }[args.program]
    options = factory(evalue=args.evalue, max_hits=args.max_hits)

    runtime = dict(
        alias_path=args.db,
        options=options,
        locality_aware=args.locality,
        backend=args.backend,
        arena_mb=args.arena_mb,
        speculation_factor=args.speculate,
        degraded=not args.no_degraded,
    )
    if args.query_fasta:
        query_blocks = plan_query_blocks(DynamicChunkConfig(
            query_fasta=args.query_fasta,
            output_dir=args.out,
            target_unit_seconds=args.target_unit_seconds,
            **runtime,
        ), resume=args.resume)
    else:
        query_blocks = load_query_blocks(args.queries)
    config = MrBlastConfig(
        query_blocks=query_blocks,
        output_dir=args.out,
        blocks_per_iteration=args.blocks_per_iteration,
        resume=args.resume,
        trace_path=args.trace,
        **runtime,
    )
    fault_plan = FaultPlan.parse(args.faults, args.np) if args.faults else None
    if args.retries > 0 or fault_plan is not None:
        outcome = mrblast_supervised(
            args.np,
            config,
            fault_plan=fault_plan,
            retry=RetryPolicy(max_attempts=max(1, args.retries + 1)),
        )
        results = outcome.results
        print(
            f"supervisor: {outcome.retries} retries, "
            f"{outcome.faults_injected} faults injected"
        )
    else:
        results = mrblast_spmd(args.np, config)
    live = [r for r in results if r is not None]
    total_hits = sum(r.hits_written for r in live)
    total_queries = sum(r.queries_written for r in live)
    quarantined = sum(r.quarantined_units for r in live)
    for r in live:
        print(
            f"rank {r.rank}: units={r.units_processed} switches={r.partition_switches} "
            f"wrote {r.hits_written} hits for {r.queries_written} queries -> {r.output_path}"
        )
    if live and live[0].resumed_from_iteration:
        print(f"resumed from iteration {live[0].resumed_from_iteration}")
    if quarantined:
        print(f"quarantined work units skipped: {quarantined} (see poison.json)")
    _print_sched_summary(live)
    if args.query_fasta:
        start, stop = query_blocks.ranges[0]
        print(f"dynamic chunking chose {stop - start}-query blocks "
              f"({len(query_blocks)} blocks)")
    print(f"total: {total_hits} hits for {total_queries} queries across {args.np} ranks")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
