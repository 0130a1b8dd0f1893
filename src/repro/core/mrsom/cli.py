"""Command-line front end for MR-MPI batch SOM.

Trains a SOM over a matrix file (see ``repro.core.mrsom.mmap_input``) on the
in-process MPI runtime and writes the trained codebook::

    mrsom --input vectors.mat --rows 50 --cols 50 --epochs 10 --np 4 \
          --out codebook.npy
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.mrsom.driver import MrSomConfig, mrsom_spmd, mrsom_supervised
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import RetryPolicy
from repro.som.codebook import SOMGrid

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mrsom", description=__doc__)
    ap.add_argument("--input", required=True, help="matrix file (write_matrix_file layout)")
    ap.add_argument("--rows", type=int, default=50, help="SOM grid rows")
    ap.add_argument("--cols", type=int, default=50, help="SOM grid cols")
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--block-rows", type=int, default=40,
                    help="input vectors per work unit (paper: 40)")
    ap.add_argument("--np", type=int, default=4, help="number of MPI ranks")
    ap.add_argument("--backend", choices=["thread", "process"], default=None,
                    help="transport backend: 'process' runs each rank as an OS "
                         "process (real multi-core); 'thread' is the in-process "
                         "parity oracle (default: $REPRO_MPI_BACKEND or thread)")
    ap.add_argument("--init", choices=["linear", "random"], default="linear")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="codebook.npy", help="trained codebook output (.npy)")
    ap.add_argument("--checkpoint-dir", default=None,
                    help="commit the codebook here after every epoch")
    ap.add_argument("--resume", action="store_true",
                    help="continue from the last committed epoch in --checkpoint-dir")
    ap.add_argument("--faults", default=None, metavar="SPEC",
                    help="fault-injection plan, e.g. 'crash=1@20' or 'seed=7' "
                         "(see FaultPlan.parse)")
    ap.add_argument("--retries", type=int, default=0, metavar="N",
                    help="run under the supervisor with up to N relaunches "
                         "(resume from the last committed epoch)")
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


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``mrsom`` console script."""
    args = build_parser().parse_args(argv)
    if args.speculate is not None and args.speculate <= 1.0:
        build_parser().error(f"--speculate must be > 1.0, got {args.speculate}")
    config = MrSomConfig(
        matrix_path=args.input,
        grid=SOMGrid(args.rows, args.cols),
        epochs=args.epochs,
        block_rows=args.block_rows,
        init=args.init,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        trace_path=args.trace,
        backend=args.backend,
        speculation_factor=args.speculate,
        degraded=not args.no_degraded,
    )
    fault_plan = FaultPlan.parse(args.faults, args.np) if args.faults else None
    if args.retries > 0 or fault_plan is not None:
        outcome = mrsom_supervised(
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
        results = mrsom_spmd(args.np, config)
    live = [r for r in results if r is not None]
    np.save(args.out, live[0].codebook)
    busy = sum(r.busy_seconds for r in live)
    units = sum(r.units_processed for r in live)
    if live[0].resumed_from_epoch:
        print(f"resumed from epoch {live[0].resumed_from_epoch}")
    if live[0].speculated_units:
        print(
            f"speculation: {live[0].speculated_units} extra copies launched, "
            f"{live[0].wasted_units} discarded as losers"
        )
    if live[0].degraded:
        print(
            f"degraded completion: lost ranks {list(live[0].lost_ranks)}, "
            f"{live[0].reassigned_units} work units reassigned to survivors"
        )
    print(
        f"trained {args.rows}x{args.cols} SOM for {args.epochs} epochs on {args.np} ranks: "
        f"{units} work units, {busy:.2f} core-seconds -> {args.out}"
    )
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
