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

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.bio.seq import SeqRecord
from repro.core.checkpoint import IterationCheckpoint, PoisonList
from repro.core.mrblast.pipeline import BlastPipeline, RuntimeConfig, check_writable_dir
from repro.core.mrblast.reducer import MrBlastReducer
from repro.core.mrblast.workitems import block_query_ids
from repro.mpi.comm import Comm
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import RetryPolicy, SupervisedOutcome, run_spmd, run_supervised
from repro.mrmpi.mapreduce import MapStyle
from repro.obs.export import write_chrome_trace
from repro.obs.trace import TraceSession
from repro.util.log import rank_logger

__all__ = [
    "MrBlastConfig",
    "MrBlastResult",
    "run_mrblast",
    "mrblast_spmd",
    "mrblast_supervised",
]


@dataclass
class MrBlastConfig(RuntimeConfig):
    """Everything one MR-MPI BLAST run needs.

    ``query_blocks`` is any sequence of blocks: materialised lists of
    records (the pre-split FASTA files of the paper after loading) or an
    :class:`~repro.core.mrblast.workitems.IndexedQueryBlocks` plan over one
    FASTA (dynamic chunking).  ``blocks_per_iteration = 0`` means a single
    iteration over everything.
    """

    query_blocks: Sequence[Sequence[SeqRecord]]
    output_dir: str = "mrblast_out"
    blocks_per_iteration: int = 0
    mapstyle: MapStyle = MapStyle.MASTER_WORKER
    #: the paper's FIFO master is the batch default; True is the §V
    #: location-aware dispatch
    locality_aware: bool = field(default=False, kw_only=True)
    #: combiner optimisation: apply the per-query top-K locally (compress())
    #: before collate, shrinking the shuffled key-value volume.  Safe because
    #: the global top-K is a subset of the union of per-rank top-Ks — the
    #: same argument the paper makes for per-partition hit lists.
    combiner: bool = False
    #: per-iteration checkpointing: the practical answer to §II.A's missing
    #: MPI fault tolerance.  Progress manifests record, per rank, the
    #: output-file byte offset after each completed outer iteration;
    #: ``resume=True`` truncates every rank's file to the last *globally*
    #: completed iteration and continues from there, so a killed job repeats
    #: at most one iteration's work.
    resume: bool = False
    #: stop after this many (additional) outer iterations — incremental
    #: processing and the unit test hook for resume
    stop_after_iterations: int | None = None
    #: a work unit whose map() raises is retried on this many supervised
    #: relaunches before being quarantined (skipped and reported) instead of
    #: killing the job forever.  0 disables the poison ledger entirely.
    poison_attempts: int = 3
    #: write a Chrome ``trace_event`` JSON of the whole run here (open in
    #: chrome://tracing or Perfetto).  None disables tracing entirely —
    #: the zero-cost default.
    trace_path: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.query_blocks:
            raise ValueError("query_blocks must not be empty")
        if self.blocks_per_iteration < 0:
            raise ValueError("blocks_per_iteration must be >= 0")
        if self.stop_after_iterations is not None and self.stop_after_iterations < 1:
            raise ValueError("stop_after_iterations must be >= 1 when set")

    def validate(self) -> None:
        """The shared runtime checks, plus: every query block non-empty, a
        sane poison budget and a writable output directory."""
        super().validate()
        for i, ids in enumerate(block_query_ids(self.query_blocks)):
            if not ids:
                raise ValueError(f"MrBlastConfig: query block {i} is empty")
        if self.poison_attempts < 0:
            raise ValueError(
                f"MrBlastConfig: poison_attempts must be >= 0, got {self.poison_attempts}"
            )
        check_writable_dir(self.output_dir, "MrBlastConfig: output_dir")


@dataclass
class MrBlastResult:
    """Per-rank outcome of a run."""

    rank: int
    output_path: str
    units_processed: int
    partition_switches: int
    hits_emitted: int
    queries_written: int
    hits_written: int
    busy_seconds: float
    map_seconds: float
    collate_seconds: float
    reduce_seconds: float
    seed_seconds: float = 0.0
    ungapped_seconds: float = 0.0
    gapped_seconds: float = 0.0
    lookup_cache_hits: int = 0
    #: robustness counters (PR 3): where this attempt picked up, how many
    #: units were skipped as poisoned, and — filled in by the supervised
    #: wrapper — how hard the supervisor had to work to get here.
    resumed_from_iteration: int = 0
    quarantined_units: int = 0
    map_failures: int = 0
    faults_injected: int = 0
    retries: int = 0
    #: shuffle traffic this rank staged for other ranks (PR 4), in exact
    #: array bytes.
    shuffle_pairs_moved: int = 0
    shuffle_bytes_moved: int = 0
    #: engine scheduler telemetry (PR 7): rounds run on this rank and the
    #: largest per-round intermediate slab any work unit held.
    fused_rounds: int = 0
    peak_slab_bytes: int = 0
    #: straggler-mitigation telemetry (PR 8): whether the run lost ranks and
    #: completed degraded, which *global* ranks were lost, and how much work
    #: the scheduler re-issued (reassigned after death / speculative copies /
    #: duplicate completions discarded).
    degraded: bool = False
    lost_ranks: tuple[int, ...] = ()
    reassigned_units: int = 0
    speculated_units: int = 0
    wasted_units: int = 0


def run_mrblast(comm: Comm, config: MrBlastConfig) -> MrBlastResult:
    """SPMD entry point: call on every rank of ``comm``."""
    from repro.mpi.ops import MIN

    log = rank_logger("core.mrblast", comm.rank)
    os.makedirs(config.output_dir, exist_ok=True)
    output_path = os.path.join(config.output_dir, f"hits.rank{comm.rank:04d}.tsv")
    checkpoint = IterationCheckpoint(config.output_dir, comm.rank)
    poison = (
        PoisonList(
            os.path.join(config.output_dir, "poison.json"),
            quarantine_after=config.poison_attempts,
        )
        if config.poison_attempts > 0
        else None
    )

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
        if poison is not None and not config.resume and comm.rank == 0:
            poison.clear()  # stale quarantine must not leak into a fresh run
    if poison is not None:
        comm.barrier()  # poison ledger settled before any rank reads it

    trc = comm.tracer
    if trc.enabled:
        # Always emitted, so a resumed run's trace carries the marker the
        # fault-path tests look for (0 on fresh runs).
        trc.instant("mrblast.resume", cat="driver",
                    resumed_from_iteration=start_iteration)

    pipeline = BlastPipeline(
        comm, config, config.query_blocks, mapstyle=config.mapstyle, poison=poison)
    mapper, mr = pipeline.mapper, pipeline.mr
    reducer = MrBlastReducer(
        mapper.options,
        output_path,
        queries_written=queries_log[-1] if queries_log else 0,
        hits_written=hits_log[-1] if hits_log else 0,
    )

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
            if (
                config.stop_after_iterations is not None
                and done_this_run >= config.stop_after_iterations
            ):
                break
            if trc.enabled:
                trc.begin("mrblast.iteration", cat="driver",
                          iteration=iteration, first_block=first_block)
            pipeline.iterate(
                query_order,
                reducer,
                block_range=range(first_block, min(first_block + step, n_blocks)),
                combiner=config.combiner,
            )
            done_this_run += 1
            # Commit the iteration: output size + cumulative counts, atomically.
            offsets.append(os.path.getsize(output_path))
            queries_log.append(reducer.queries_written)
            hits_log.append(reducer.hits_written)
            checkpoint.commit(offsets, queries_log, hits_log)
            if trc.enabled:
                trc.instant("checkpoint.commit", cat="driver",
                            iteration=iteration, offset=offsets[-1],
                            hits_written=hits_log[-1])
                trc.end()
    finally:
        timers = mr.timers
        shuffle = mr.stats.get("aggregate", {"pairs_moved": 0, "bytes_moved": 0})
        pipeline.close()

    return MrBlastResult(
        rank=comm.rank,
        output_path=output_path,
        units_processed=mapper.stats.units_processed,
        partition_switches=mapper.stats.partition_switches,
        hits_emitted=mapper.stats.hits_emitted,
        queries_written=reducer.queries_written,
        hits_written=reducer.hits_written,
        busy_seconds=mapper.stats.busy_seconds,
        map_seconds=timers.get("map", 0.0),
        collate_seconds=timers.get("aggregate", 0.0) + timers.get("convert", 0.0),
        reduce_seconds=timers.get("reduce", 0.0),
        seed_seconds=mapper.stats.seed_seconds,
        ungapped_seconds=mapper.stats.ungapped_seconds,
        gapped_seconds=mapper.stats.gapped_seconds,
        lookup_cache_hits=mapper.stats.lookup_cache_hits,
        resumed_from_iteration=start_iteration,
        quarantined_units=mapper.stats.quarantined_units,
        map_failures=mapper.stats.map_failures,
        shuffle_pairs_moved=shuffle["pairs_moved"],
        shuffle_bytes_moved=shuffle["bytes_moved"],
        fused_rounds=mapper.stats.fused_rounds,
        peak_slab_bytes=mapper.stats.peak_slab_bytes,
        degraded=mr.degraded_run,
        lost_ranks=mr.lost_ranks,
        reassigned_units=mr.sched_stats["reassigned"],
        speculated_units=mr.sched_stats["speculated"],
        wasted_units=mr.sched_stats["wasted"],
    )


def mrblast_spmd(
    nprocs: int, config: MrBlastConfig, trace: TraceSession | None = None
) -> list[MrBlastResult]:
    """Launch a full in-process MPI job running :func:`run_mrblast`.

    Tracing: pass a :class:`~repro.obs.trace.TraceSession` to capture the
    run, or set ``config.trace_path`` to have one created and exported as
    Chrome trace JSON automatically.  Both may be combined.
    """
    config.validate()
    if trace is None and config.trace_path:
        trace = TraceSession(nprocs)
    results = run_spmd(nprocs, run_mrblast, config, trace=trace,
                       backend=config.backend, arena_mb=config.arena_mb)
    if config.trace_path and trace is not None:
        write_chrome_trace(config.trace_path, trace)
    return results


def mrblast_supervised(
    nprocs: int,
    config: MrBlastConfig,
    *,
    fault_plan: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    op_timeout: float | None = None,
    trace: TraceSession | None = None,
) -> SupervisedOutcome:
    """Run mrblast under the supervisor: crash → detect → back off → resume.

    Attempt 1 honours ``config.resume`` as given; every relaunch forces
    ``resume=True`` so it continues from the last committed iteration (and
    sees the poison ledger of earlier attempts).  On success the per-rank
    :class:`MrBlastResult` objects carry the supervision counters.  Raises
    :class:`~repro.mpi.runtime.SupervisionExhausted` when the attempt budget
    runs out.
    """
    config.validate()
    if trace is None and config.trace_path:
        trace = TraceSession(nprocs)

    def prepare(attempt: int) -> tuple[tuple, dict]:
        cfg = config if attempt == 1 else dataclasses.replace(config, resume=True)
        return (cfg,), {}

    try:
        outcome = run_supervised(
            nprocs,
            run_mrblast,
            retry=retry,
            fault_plan=fault_plan,
            op_timeout=op_timeout,
            prepare=prepare,
            trace=trace,
            backend=config.backend,
            arena_mb=config.arena_mb,
        )
    finally:
        # Export even when supervision exhausts: the trace of a failed job
        # is exactly when you want to look at it.
        if config.trace_path and trace is not None:
            write_chrome_trace(config.trace_path, trace)
    for result in outcome.results:
        if result is None:  # rank lost in a degraded-mode run
            continue
        result.faults_injected = outcome.faults_injected
        result.retries = outcome.retries
    return outcome
