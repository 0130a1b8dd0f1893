"""Layer probes: direct, fixed-shape calls into one layer at a time.

The workloads price a layer by what it costs inside a job; these price it
alone, so a change in a workload's number can be pinned on the layer or on
its surroundings.  Each probe is wrapped in a span of the runner.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bio import synthetic_protein_database
from repro.blast import BlastOptions, format_database
from repro.core.baselines.serial_blast import run_serial_blast
from repro.som.batch import accumulate_batch
from repro.som.bmu import best_matching_units
from repro.som.neighborhood import gaussian_kernel

from measure import row, spmd, time_repeats, timing_row


# ------------------------------------------------------------- repro.mpi

PINGPONG_SIZES = (1 << 10, 1 << 14, 1 << 17, 1 << 20, 1 << 22)
MPI_REPS = 7


def _null_job(comm):
    return comm.rank


def _timed(comm, fn, reps=MPI_REPS):
    """Best seconds of ``fn`` over ``reps`` barrier-aligned calls, slowest rank."""
    best = float("inf")
    for _ in range(reps):
        comm.barrier()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(comm.allgather(best))


def _transport_probe(comm, dense_bytes):
    """Pingpong sweep between ranks 0 and 1, then the dense collectives the
    SOM uses and the many-column alltoall the shuffle uses, on every rank."""
    halves = []
    for n in PINGPONG_SIZES:
        buf = np.zeros(n, dtype=np.uint8)
        echo = np.empty_like(buf)
        best = float("inf")
        for _ in range(MPI_REPS):
            comm.barrier()
            if comm.rank == 0:
                t0 = time.perf_counter()
                comm.Send(buf, dest=1)
                comm.Recv(echo, source=1)
                best = min(best, (time.perf_counter() - t0) / 2.0)
            elif comm.rank == 1:
                comm.Recv(echo, source=0)
                comm.Send(buf, dest=0)
        halves.append(best)
    dense = np.ones(dense_bytes // 8)
    total = np.empty_like(dense)
    bcast = _timed(comm, lambda: comm.Bcast(dense, root=0))
    reduce = _timed(comm, lambda: comm.Reduce(dense, total if comm.rank == 0 else None, root=0))
    chunk = np.ones(dense_bytes // 8 // comm.size)
    alltoall = _timed(comm, lambda: comm.alltoall([chunk] * comm.size))
    return {"halves": halves, "bcast": bcast, "reduce": reduce, "alltoall": alltoall}


def mpi_probes(spans) -> list[dict]:
    """Sanders' machine model t = alpha + n/beta, collectives, spawn cost."""
    ranks = 3
    dense_bytes = 5_000_000  # the SOM's 50x50x256 float64 codebook, rounded
    spawn = time_repeats(lambda i: spmd(spans, "null_job", ranks, _null_job), 3)
    out = spmd(spans, "transport_probe", ranks, _transport_probe, dense_bytes)[0]
    slope, alpha = np.polyfit(np.array(PINGPONG_SIZES, float), np.array(out["halves"]), 1)
    moved = dense_bytes / ranks * (ranks - 1)  # bytes each rank sends to others
    return [
        timing_row("mpi.spawn_s", spawn),
        row("mpi.alpha_us", alpha * 1e6, "us", n=MPI_REPS),
        row("mpi.beta_gib_s", 1.0 / slope / 2**30, "GiB/s", n=MPI_REPS),
        row("mpi.bcast_5mb_ms", out["bcast"] * 1e3, "ms", n=MPI_REPS),
        row("mpi.reduce_5mb_ms", out["reduce"] * 1e3, "ms", n=MPI_REPS),
        row("mpi.alltoall_mib_s", moved / out["alltoall"] / 2**20, "MiB/s", n=MPI_REPS),
    ]


# ----------------------------------------------------------- repro.blast


def blast_probes(spans, w) -> list[dict]:
    """Serial engine on one fixed block: the blastn path the workloads run
    and the blastp path none of them does."""
    def blastn(i):
        with spans.span("run_serial_blast.blastn"):
            run_serial_blast(w.alias, w.blocks[:1], w.options)

    families, members, length = w.p["probe_proteins"]
    queries, db = synthetic_protein_database(
        n_families=families, members_per_family=members, length=length, seed=w.seed)
    alias = str(format_database(db, w.fresh_dir("protdb"), "prot", kind="protein"))
    options = BlastOptions.blastp()

    def blastp(i):
        with spans.span("run_serial_blast.blastp"):
            hits = run_serial_blast(alias, [queries], options)
        if set(hits) != {q.id for q in queries}:
            raise RuntimeError("blastp probe: a family query found no member")

    blastp(0)  # builds the process-wide BLOSUM neighbourhood table once
    return [timing_row("blast.blastn_block_s", time_repeats(blastn, 3)),
            timing_row("blast.blastp_block_s", time_repeats(blastp, 3))]


# ------------------------------------------------------------- repro.som


def som_probes(spans, w) -> list[dict]:
    """SOM kernels on one work unit against the full codebook."""
    rows, dim = w.p["block_rows"], w.p["dim"]
    units = w.cfg.grid.n_units
    rng = np.random.default_rng(w.seed)
    block, codebook = rng.random((rows, dim)), rng.random((units, dim))
    t0 = time.perf_counter()
    with spans.span("SOMGrid.grid_sq_distances"):
        sq = w.cfg.grid.grid_sq_distances()
    grid_seconds = time.perf_counter() - t0
    kernel = gaussian_kernel(sq, 3.0)

    def spanned(name, fn):
        def run(i):
            with spans.span(name):
                fn()
        return time_repeats(run, 5)

    # distance matmul + BMU-selected sums through the kernel, as computed
    # from the shapes (not measured): 2*rows*K*dim + 2*K*K*dim + 2*K*K
    flops = 2 * rows * units * dim + 2 * units * units * dim + 2 * units * units
    return [
        timing_row("som.bmu_unit_ms", spanned("best_matching_units",
                   lambda: best_matching_units(block, codebook)), "ms", 1e3),
        timing_row("som.accumulate_unit_ms", spanned("accumulate_batch",
                   lambda: accumulate_batch(block, codebook, kernel)), "ms", 1e3),
        timing_row("som.kernel_ms", spanned("gaussian_kernel",
                   lambda: gaussian_kernel(sq, 3.0)), "ms", 1e3),
        # every rank computes this once before epoch 1, outside any counter
        row("som.grid_distances_ms", grid_seconds * 1e3, "ms"),
        row("som.flops_per_unit", flops, "count", n=0),  # n=0: computed, not sampled
    ]
