"""Command-line front end for the always-on BLAST query service.

Brings a resident rank session up, streams every query of the given FASTA
files through the service, waits for all of them to resolve and writes the
per-query results — in submission order — to one output file::

    mrblast-serve --db outdir/mydb.pal.json --queries q.fasta \\
        --np 4 --out results.tsv --max-batch 0

``--max-batch 0`` asks the α/β machine model recorded by the shuffle
benchmark (``--machine-model``, default ``BENCH_shuffle.json`` when
present) to advise the batch size; any positive value pins it.  The
output is byte-identical, per query, to what a one-shot ``mrblast`` run
would have produced for the same inputs.
"""

from __future__ import annotations

import argparse
import os
import time

from repro.blast.options import BlastOptions
from repro.bio.fasta import read_fasta
from repro.serve.admission import AdmissionError
from repro.serve.coalescer import advise_batch_size, load_machine_model
from repro.serve.service import DeliveryLedger, QueryService
from repro.serve.session import ServeConfig

__all__ = ["main", "build_parser", "submit_all"]


def submit_all(service: QueryService, records) -> list:
    """Submit every record, pumping the service whenever intake is full.

    A plain ``[service.submit(r) for r in records]`` overruns the admission
    window as soon as ``len(records)`` exceeds ``max_pending`` (nothing
    resolves between submits).  Here a refusal — capacity, tenant quota or
    backpressure — runs scheduling steps until resolved queries free space,
    then retries; only ``"closed"`` (service shut down) is terminal.
    Returns the futures in submission order.
    """
    futures = []
    for rec in records:
        while True:
            try:
                futures.append(service.submit(rec))
                break
            except AdmissionError as exc:
                if exc.reason == "closed":
                    raise
                if service.pump(wait=0.01) == 0:
                    # Nothing resolved: push parked submissions out so the
                    # ranks have work whose completion frees capacity.
                    service.flush()
    return futures


def build_parser() -> argparse.ArgumentParser:
    """The ``mrblast-serve`` argument parser."""
    ap = argparse.ArgumentParser(prog="mrblast-serve", description=__doc__)
    ap.add_argument("--db", required=True, help="database alias file (.pal.json)")
    ap.add_argument("--queries", nargs="+", required=True,
                    help="query FASTA files (records are submitted one by one)")
    ap.add_argument("--out", default="serve_out.tsv",
                    help="file receiving the per-query results in submission order")
    ap.add_argument("--np", type=int, default=4, help="number of resident MPI ranks")
    ap.add_argument("--backend", choices=["thread", "process"], default=None,
                    help="transport backend (default: $REPRO_MPI_BACKEND or thread)")
    ap.add_argument("--program", choices=["blastn", "blastp", "blastx"], default="blastn")
    ap.add_argument("--evalue", type=float, default=10.0)
    ap.add_argument("--max-hits", type=int, default=500)
    ap.add_argument("--max-batch", type=int, default=0,
                    help="queries per dispatched block; 0 = advise from the "
                         "machine model (or 8 when no model file is found)")
    ap.add_argument("--max-delay", type=float, default=0.05,
                    help="longest a submission may wait for a fuller batch while "
                         "the ranks are busy, seconds (idle ranks get it at once)")
    ap.add_argument("--machine-model", default="BENCH_shuffle.json",
                    help="shuffle-bench JSON holding the fitted alpha/beta model")
    ap.add_argument("--per-query-seconds", type=float, default=0.05,
                    help="expected serial cost of one query (feeds batch advice)")
    ap.add_argument("--ledger", default=None, metavar="PATH",
                    help="delivery-ledger JSON enabling exactly-once resume "
                         "(results then also append to --out via the ledger)")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="overall drain timeout, seconds")
    return ap


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``mrblast-serve`` console script."""
    args = build_parser().parse_args(argv)
    factory = {
        "blastn": BlastOptions.blastn,
        "blastp": BlastOptions.blastp,
        "blastx": BlastOptions.blastx,
    }[args.program]
    options = factory(evalue=args.evalue, max_hits=args.max_hits)

    max_batch = args.max_batch
    advised = False
    if max_batch < 1:
        if os.path.isfile(args.machine_model):
            model = load_machine_model(
                args.machine_model,
                backend=args.backend or os.environ.get("REPRO_MPI_BACKEND", "thread"),
            )
            max_batch = advise_batch_size(model, args.np, args.per_query_seconds)
            advised = True
        else:
            max_batch = 8

    cfg = ServeConfig(
        alias_path=args.db,
        nprocs=args.np,
        options=options,
        backend=args.backend,
        max_batch=max_batch,
        max_delay=args.max_delay,
    )
    ledger = None
    if args.ledger:
        ledger = DeliveryLedger(args.ledger, args.out)

    records = [rec for path in args.queries for rec in read_fasta(path)]
    service = QueryService(cfg, ledger=ledger).start()
    t0 = time.perf_counter()
    try:
        futures = submit_all(service, records)
        service.drain(timeout=args.timeout)
        results = [f.result(timeout=0.0) for f in futures]
    finally:
        service.close()
    elapsed = time.perf_counter() - t0

    if ledger is None:
        with open(args.out, "wb") as fh:
            for data in results:
                fh.write(data)

    hit_lines = sum(data.count(b"\n") for data in results)
    with_hits = sum(1 for data in results if data)
    print(
        f"served {len(records)} queries in {elapsed:.2f}s "
        f"({len(records) / elapsed:.1f} qps) across {args.np} resident ranks"
    )
    print(
        f"batching: max_batch={max_batch}"
        + (" (advised by machine model)" if advised else "")
        + f", batches dispatched={service.stats['batches']}"
    )
    print(f"{with_hits} queries with hits, {hit_lines} hit lines -> {args.out}")
    if service.stats["degraded_batches"]:
        print(f"degraded batches: {service.stats['degraded_batches']}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
