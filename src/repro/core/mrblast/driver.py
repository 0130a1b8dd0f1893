"""The MR-MPI BLAST driver: the control flow of the paper's Fig. 1.

Per outer iteration (a subset of query blocks):

1. ``map`` — master/worker dispatch of (query block, DB partition) units;
   each unit runs the serial engine and emits (query id, HSP) pairs.
2. ``collate`` — hits of each query regrouped onto one rank.
3. ``reduce`` — per-query E-value sort + top-K, appended to the rank's file.

"In order to process arbitrarily large collections of the queries, we
employ multiple iterations of the above MapReduce protocol within the same
MPI process by looping over the consecutive subsets of the entire query
set.  This is done to control the size of the intermediate key-value
dataset" (§III.A) — ``blocks_per_iteration`` is that knob.

The iteration loop doubles as the checkpoint cadence: after each iteration
every rank commits a progress manifest (``repro.core.checkpoint``), so a
supervised relaunch (:func:`mrblast_supervised`) resumes from the last
globally committed iteration instead of restarting the whole job — the
recovery story §II.A concedes plain MPI lacks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.bio.seq import SeqRecord
from repro.core.checkpoint import IterationCheckpoint, PoisonList
from repro.core.mrblast.pipeline import BlastPipeline, RuntimeConfig
from repro.core.mrblast.reducer import MrBlastReducer
from repro.core.mrblast.workitems import block_query_ids
from repro.core.spine import BatchConfig, RankResult, check_writable_dir, launch
from repro.mpi.comm import Comm
from repro.mpi.runtime import SupervisedOutcome
from repro.obs.metrics import metric_field
from repro.obs.trace import TraceSession
from repro.util.log import rank_logger

__all__ = [
    "MrBlastConfig",
    "MrBlastResult",
    "run_mrblast",
    "mrblast_spmd",
    "mrblast_supervised",
]

#: a work unit whose map() raises is retried on this many supervised
#: relaunches before being quarantined (skipped and reported) instead of
#: killing the job forever
POISON_ATTEMPTS = 3


@dataclass
class MrBlastConfig(RuntimeConfig, BatchConfig):
    """Everything one MR-MPI BLAST run needs.

    ``query_blocks`` is any sequence of blocks: materialised lists of
    records (the pre-split FASTA files of the paper after loading) or an
    :class:`~repro.core.mrblast.workitems.IndexedQueryBlocks` plan over one
    FASTA (dynamic chunking).  ``blocks_per_iteration = 0`` means a single
    iteration over everything.

    ``resume=True`` truncates every rank's file to the last *globally*
    completed iteration in its progress manifest and continues from there,
    so a killed job repeats at most one iteration's work (§II.A).
    """

    query_blocks: Sequence[Sequence[SeqRecord]]
    output_dir: str = "mrblast_out"
    blocks_per_iteration: int = 0
    #: the paper's FIFO master is the batch default; True is the §V
    #: location-aware dispatch
    locality_aware: bool = field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.query_blocks:
            raise ValueError("query_blocks must not be empty")
        if self.blocks_per_iteration < 0:
            raise ValueError("blocks_per_iteration must be >= 0")

    def validate(self) -> None:
        """The shared runtime checks, plus: every query block non-empty and a
        writable output directory."""
        super().validate()
        for i, ids in enumerate(block_query_ids(self.query_blocks)):
            if not ids:
                raise ValueError(f"MrBlastConfig: query block {i} is empty")
        check_writable_dir(self.output_dir, "MrBlastConfig: output_dir")


@dataclass
class MrBlastResult(RankResult):
    """Per-rank outcome of a run: where its hits went, where it picked up,
    and a view over the rank's metrics snapshot."""

    output_path: str
    resumed_from_iteration: int = 0

    units_processed = metric_field("mrblast.units", int)
    partition_switches = metric_field("mrblast.partition_switches", int)
    hits_emitted = metric_field("mrblast.hits_emitted", int)
    queries_written = metric_field("mrblast.queries_written", int)
    hits_written = metric_field("mrblast.hits_written", int)
    quarantined_units = metric_field("mrblast.quarantined_units", int)
    map_failures = metric_field("mrblast.map_failures", int)
    busy_seconds = metric_field("mrblast.busy_s")
    seed_seconds = metric_field("blast.seed_s")
    ungapped_seconds = metric_field("blast.ungapped_s")
    gapped_seconds = metric_field("blast.gapped_s")
    lookup_cache_hits = metric_field("blast.lookup_cache_hits", int)
    fused_rounds = metric_field("blast.fused_rounds", int)
    peak_slab_bytes = metric_field("blast.peak_slab_bytes", int)
    map_seconds = metric_field("mr.map_s")
    reduce_seconds = metric_field("mr.reduce_s")
    #: shuffle traffic this rank staged for other ranks, in exact array bytes
    shuffle_pairs_moved = metric_field("mr.aggregate_pairs", int)
    shuffle_bytes_moved = metric_field("mr.aggregate_bytes", int)

    @property
    def collate_seconds(self) -> float:
        """``aggregate`` plus ``convert`` seconds."""
        return self.metrics.get("mr.aggregate_s", 0.0) + self.metrics.get("mr.convert_s", 0.0)


def run_mrblast(comm: Comm, config: MrBlastConfig) -> MrBlastResult:
    """SPMD entry point: call on every rank of ``comm``."""
    from repro.mpi.ops import MIN

    log = rank_logger("core.mrblast", comm.rank)
    os.makedirs(config.output_dir, exist_ok=True)
    output_path = os.path.join(config.output_dir, f"hits.rank{comm.rank:04d}.tsv")
    checkpoint = IterationCheckpoint(config.output_dir, comm.rank)
    poison = PoisonList(os.path.join(config.output_dir, "poison.json"),
                        quarantine_after=POISON_ATTEMPTS)

    # Checkpoint recovery: agree on the last iteration *every* rank finished,
    # then truncate this rank's output back to that point.
    manifest = checkpoint.load() if config.resume else {"offsets": [], "queries": [], "hits": []}
    offsets = manifest["offsets"]
    start_iteration = int(comm.allreduce(len(offsets), op=MIN))
    offsets = offsets[:start_iteration]
    queries_log = manifest["queries"][:start_iteration]
    hits_log = manifest["hits"][:start_iteration]
    if start_iteration > 0 and os.path.exists(output_path):
        keep = offsets[-1] if offsets else 0
        with open(output_path, "r+b") as fh:
            fh.truncate(keep)
        log.info("resuming from iteration %d (output at %d bytes)", start_iteration, keep)
    else:
        start_iteration = 0
        offsets, queries_log, hits_log = [], [], []
        # Fresh output file for this run; reducers append afterwards.
        open(output_path, "w").close()
        if not config.resume and comm.rank == 0:
            poison.clear()  # stale quarantine must not leak into a fresh run
    comm.barrier()  # poison ledger settled before any rank reads it

    trc = comm.tracer
    if trc.enabled:
        # Always emitted, so a resumed run's trace carries the marker the
        # fault-path tests look for (0 on fresh runs).
        trc.instant("mrblast.resume", cat="driver",
                    resumed_from_iteration=start_iteration)

    pipeline = BlastPipeline(
        comm, config, config.query_blocks, mapstyle=config.mapstyle, poison=poison)
    metrics, mr = pipeline.metrics, pipeline.mr
    reducer = MrBlastReducer(pipeline.mapper.options, output_path, metrics=metrics)
    if queries_log:  # a resumed rank's write counts carry on from its last commit
        metrics.counter("mrblast.queries_written").inc(queries_log[-1])
        metrics.counter("mrblast.hits_written").inc(hits_log[-1])

    # Original input position of each query id, so per-rank files preserve
    # the input order of the queries they own (paper §III.A).
    query_order = {
        qid: i
        for i, qid in enumerate(
            q for ids in block_query_ids(config.query_blocks) for q in ids
        )
    }

    n_blocks = len(config.query_blocks)
    step = config.blocks_per_iteration or n_blocks
    iteration_starts = list(range(0, n_blocks, step))
    done_this_run = 0
    try:
        for iteration, first_block in enumerate(iteration_starts):
            if iteration < start_iteration:
                continue
            if config.stop_after is not None and done_this_run >= config.stop_after:
                break
            if trc.enabled:
                trc.begin("mrblast.iteration", cat="driver",
                          iteration=iteration, first_block=first_block)
            pipeline.iterate(
                query_order,
                reducer,
                block_range=range(first_block, min(first_block + step, n_blocks)),
            )
            done_this_run += 1
            # Commit the iteration: output size + cumulative counts, atomically.
            offsets.append(os.path.getsize(output_path))
            queries_log.append(int(metrics.value("mrblast.queries_written")))
            hits_log.append(int(metrics.value("mrblast.hits_written")))
            checkpoint.commit(offsets, queries_log, hits_log)
            if trc.enabled:
                trc.instant("checkpoint.commit", cat="driver",
                            iteration=iteration, offset=offsets[-1],
                            hits_written=hits_log[-1])
                trc.end()
    finally:
        pipeline.close()

    return MrBlastResult(
        rank=comm.rank,
        output_path=output_path,
        metrics=metrics.snapshot(),
        resumed_from_iteration=start_iteration,
        lost_ranks=mr.lost_ranks,
    )


def mrblast_spmd(nprocs: int, config: MrBlastConfig,
                 trace: TraceSession | None = None) -> list[MrBlastResult]:
    """Launch a full MPI job running :func:`run_mrblast` (see
    :func:`~repro.core.spine.launch`)."""
    return launch(nprocs, run_mrblast, config, trace)


def mrblast_supervised(nprocs: int, config: MrBlastConfig, **supervision) -> SupervisedOutcome:
    """:func:`mrblast_spmd` under the supervisor (``fault_plan``, ``retry``,
    ``op_timeout``, ``trace``): every relaunch resumes from the last
    committed iteration and sees the poison ledger of earlier ones."""
    return launch(nprocs, run_mrblast, config, supervised=True, **supervision)
