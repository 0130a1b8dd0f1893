"""Resident-service throughput: micro-batching vs one-block-per-query.

A fixed stream of queries is pushed
through an always-on :class:`~repro.serve.QueryService` at 1 and 4 resident
ranks in two batching modes:

- ``batch1`` — every query dispatches as its own MapReduce job (the
  behaviour a naive "wrap run_mrblast in a loop" service would have);
- ``micro`` — queries coalesce into blocks of up to ``MICRO_BATCH``, so
  the per-job fixed cost (the job broadcast, the rows riding the last
  completion to rank 0, its reduce and the retiring reply) is amortised
  over the block.

Reported per run: sustained qps over the whole stream and the p50/p99
submit→resolve latency.  The acceptance bar is the reason the service
coalesces at all: micro-batching must beat one-block-per-query on qps at
4 ranks.
"""

import time

import numpy as np

from repro.blast import BlastOptions, format_database
from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.serve import QueryService, ServeConfig

N_QUERIES = 24
MICRO_BATCH = 4
RANK_COUNTS = (1, 4)


def _workload(tmp):
    com = synthetic_community(n_genomes=4, genome_length=2400, seed=47)
    db = synthetic_nt_database(
        com, n_decoys=2, decoy_length=1200, homolog_rate=0.05, seed=48)
    alias_path = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=2000)
    reads = list(shred_records(com.genomes))[:N_QUERIES]
    options = BlastOptions.blastn(evalue=1e-4, max_hits=25)
    return str(alias_path), reads, options


def _run_stream(alias_path, reads, options, nprocs, max_batch):
    cfg = ServeConfig(
        alias_path=alias_path, nprocs=nprocs, options=options,
        backend="thread", max_batch=max_batch, max_delay=0.002,
        idle_tick=0.02, max_pending=4 * N_QUERIES,
    )
    svc = QueryService(cfg).start()
    try:
        t0 = time.perf_counter()
        submitted = []
        for rec in reads:
            submitted.append((svc.submit(rec), time.perf_counter()))
        resolved = {}
        while len(resolved) < len(submitted):
            svc.pump(wait=0.005)
            now = time.perf_counter()
            for i, (fut, _t) in enumerate(submitted):
                if i not in resolved and fut.done():
                    resolved[i] = now
            if svc._coalescer.pending and not svc._inflight:
                svc.flush()
        t_end = time.perf_counter()
        latencies = [resolved[i] - t for i, (_f, t) in enumerate(submitted)]
        assert all(fut.result(timeout=0.0) is not None for fut, _ in submitted)
        stats = dict(svc.stats)
    finally:
        svc.close()
    lat_ms = np.asarray(latencies) * 1e3
    return {
        "nprocs": nprocs,
        "max_batch": max_batch,
        "queries": len(reads),
        "batches": stats["batches"],
        "qps": len(reads) / (t_end - t0),
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
        "wall_s": t_end - t0,
    }


def test_service_micro_batching(tmp_path, print_table):
    alias_path, reads, options = _workload(tmp_path)

    runs = {}
    for nprocs in RANK_COUNTS:
        runs[f"batch1@{nprocs}"] = _run_stream(
            alias_path, reads, options, nprocs, max_batch=1)
        runs[f"micro@{nprocs}"] = _run_stream(
            alias_path, reads, options, nprocs, max_batch=MICRO_BATCH)

    rows = []
    for nprocs in RANK_COUNTS:
        for mode in ("batch1", "micro"):
            r = runs[f"{mode}@{nprocs}"]
            rows.append([
                str(nprocs), mode, str(r["max_batch"]), str(r["batches"]),
                f"{r['qps']:.1f}", f"{r['p50_ms']:.1f}", f"{r['p99_ms']:.1f}",
            ])
    print_table(
        f"Resident service, {N_QUERIES} queries (thread backend)",
        ["ranks", "mode", "max_batch", "batches", "qps", "p50 ms", "p99 ms"],
        rows,
    )

    # Micro-batching actually dispatched fewer, fuller jobs...
    for nprocs in RANK_COUNTS:
        assert runs[f"micro@{nprocs}"]["batches"] < runs[f"batch1@{nprocs}"]["batches"]
    # ...and that is worth real throughput where the per-job fixed cost is
    # highest: at 4 ranks every job pays multi-rank dispatch + collectives.
    assert runs["micro@4"]["qps"] > runs["batch1@4"]["qps"], (
        f"micro-batching {runs['micro@4']['qps']:.1f} qps did not beat "
        f"one-block-per-query {runs['batch1@4']['qps']:.1f} qps at 4 ranks"
    )
