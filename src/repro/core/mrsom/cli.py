"""Command-line front end for MR-MPI batch SOM.

Trains a SOM over a matrix file (see ``repro.core.mrsom.mmap_input``) on the
in-process MPI runtime and writes the trained codebook::

    mrsom --input vectors.mat --rows 50 --cols 50 --epochs 10 --np 4 \
          --out codebook.npy
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.cli import add_job_flags, run_job
from repro.core.mrsom.driver import MrSomConfig, mrsom_spmd, mrsom_supervised
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
    ap.add_argument("--init", choices=["linear", "random"], default="linear")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="codebook.npy", help="trained codebook output (.npy)")
    ap.add_argument("--checkpoint-dir", default=None,
                    help="commit the codebook here after every epoch")
    ap.add_argument("--resume", action="store_true",
                    help="continue from the last committed epoch in --checkpoint-dir")
    add_job_flags(ap)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``mrsom`` console script."""
    ap = build_parser()
    args = ap.parse_args(argv)
    _, live = run_job(
        ap, args,
        lambda **shared: MrSomConfig(
            matrix_path=args.input,
            grid=SOMGrid(args.rows, args.cols),
            epochs=args.epochs,
            block_rows=args.block_rows,
            init=args.init,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            **shared,
        ),
        mrsom_spmd, mrsom_supervised,
    )
    np.save(args.out, live[0].codebook)
    busy = sum(r.busy_seconds for r in live)
    units = sum(r.units_processed for r in live)
    if live[0].resumed_from_epoch:
        print(f"resumed from epoch {live[0].resumed_from_epoch}")
    print(
        f"trained {args.rows}x{args.cols} SOM for {args.epochs} epochs on {args.np} ranks: "
        f"{units} work units, {busy:.2f} core-seconds -> {args.out}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
