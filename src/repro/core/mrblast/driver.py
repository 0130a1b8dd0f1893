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
from typing import Callable, Sequence

from repro.blast.dbreader import DatabaseAlias
from repro.blast.hsp import HSP
from repro.blast.options import BlastOptions
from repro.bio.seq import SeqRecord
from repro.core.checkpoint import IterationCheckpoint, PoisonList
from repro.core.mrblast.mapper import MrBlastMapper
from repro.core.mrblast.reducer import MrBlastReducer
from repro.core.mrblast.workitems import WorkItem, build_work_items
from repro.mpi.comm import Comm
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import RetryPolicy, SupervisedOutcome, run_spmd, run_supervised
from repro.mrmpi.mapreduce import MapReduce, MapStyle
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
class MrBlastConfig:
    """Everything one MR-MPI BLAST run needs.

    ``query_blocks`` are materialised blocks (lists of records) — the
    pre-split FASTA files of the paper after loading.  ``blocks_per_iteration
    = 0`` means a single iteration over everything.
    """

    alias_path: str
    query_blocks: Sequence[Sequence[SeqRecord]]
    options: BlastOptions = field(default_factory=BlastOptions.blastn)
    output_dir: str = "mrblast_out"
    blocks_per_iteration: int = 0
    mapstyle: MapStyle = MapStyle.MASTER_WORKER
    memsize: int = 64 * 1024 * 1024
    work_order: str = "partition_major"
    hit_filter: Callable[[str, HSP], bool] | None = None
    #: §V improvement: location-aware dispatch — workers preferentially
    #: receive units for the DB partition they already hold, cutting
    #: partition reloads (see the scheduling ablation bench).
    locality_aware: bool = False
    #: capacity (in query blocks) of the per-rank cross-partition lookup
    #: cache: the query-side mirror of the DB-partition cache, letting one
    #: block's stage-1 lookup table be reused across every partition it
    #: meets on a rank.  0 disables caching (the pre-cache behaviour).
    lookup_cache_blocks: int = 8
    #: combiner optimisation: apply the per-query top-K locally (compress())
    #: before collate, shrinking the shuffled key-value volume.  Safe because
    #: the global top-K is a subset of the union of per-rank top-Ks — the
    #: same argument the paper makes for per-partition hit lists.
    combiner: bool = False
    #: use the columnar KV data plane: each work unit's HSPs travel as one
    #: (query-id column, structured HSP row array) batch, the shuffle hashes
    #: whole key columns at once, grouping is the sort-based convert, and
    #: spill pages are raw binary buffers.  Output is bit-identical to the
    #: object plane (same rank placement, same within-query hit order);
    #: ``False`` restores the legacy pickled-object path.
    columnar: bool = True
    #: byte width of the query/subject id columns on the columnar plane;
    #: encoding fails loudly (never truncates) if an id is wider.
    id_width: int = 64
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
    #: directory for KV/KMV spill files (None = system temp dir)
    spool_dir: str | None = None
    #: a work unit whose map() raises is retried on this many supervised
    #: relaunches before being quarantined (skipped and reported) instead of
    #: killing the job forever.  0 disables the poison ledger entirely.
    poison_attempts: int = 3
    #: test/chaos hook: called with each WorkItem before it executes; raise
    #: to simulate an application failure inside map()
    unit_fault_injector: Callable[[WorkItem], None] | None = None
    #: write a Chrome ``trace_event`` JSON of the whole run here (open in
    #: chrome://tracing or Perfetto).  None disables tracing entirely —
    #: the zero-cost default.
    trace_path: str | None = None
    #: transport backend: "thread" (in-process, GIL-bound parity oracle) or
    #: "process" (one OS process per rank, real multi-core map compute).
    #: None defers to the REPRO_MPI_BACKEND environment default.
    backend: str | None = None
    #: process-backend shared-memory arena budget in MiB per rank (0
    #: disables the arena, restoring the per-message shm path).  None
    #: defers to $REPRO_MPI_ARENA_MB / the built-in default; ignored by
    #: the thread backend.
    arena_mb: int | None = None
    #: straggler mitigation: re-issue a work unit to an idle worker once its
    #: elapsed time exceeds this factor times the running median unit
    #: runtime (None disables speculation).  First completion wins; output
    #: is byte-identical to a no-speculation run.
    speculation_factor: float | None = None
    #: degraded-mode completion: a worker dying mid-map no longer aborts the
    #: job — its units are reassigned to survivors and the run finishes with
    #: ``degraded=True`` plus loss counters in :class:`MrBlastResult`.
    degraded: bool = False

    def __post_init__(self) -> None:
        if not self.query_blocks:
            raise ValueError("query_blocks must not be empty")
        if self.blocks_per_iteration < 0:
            raise ValueError("blocks_per_iteration must be >= 0")
        if self.lookup_cache_blocks < 0:
            raise ValueError("lookup_cache_blocks must be >= 0")
        if self.id_width < 1:
            raise ValueError("id_width must be >= 1")
        if self.stop_after_iterations is not None and self.stop_after_iterations < 1:
            raise ValueError("stop_after_iterations must be >= 1 when set")
        if self.speculation_factor is not None and self.speculation_factor <= 1.0:
            raise ValueError(
                f"speculation_factor must be > 1.0, got {self.speculation_factor}")

    def validate(self) -> None:
        """Fail-fast checks before any rank spawns.

        One clear error in the launcher beats N ranks aborting mid-map: the
        alias file must exist and parse, every query block must be non-empty,
        sizes must be sane, and the output/spool directories must be
        writable.  Raises :class:`ValueError` naming the offending field.
        """
        if not os.path.isfile(self.alias_path):
            raise ValueError(f"mrblast config: alias_path {self.alias_path!r} does not exist")
        try:
            DatabaseAlias.load(self.alias_path)
        except Exception as exc:
            raise ValueError(
                f"mrblast config: alias_path {self.alias_path!r} is not a readable "
                f"database alias ({exc})"
            ) from exc
        for i, block in enumerate(self.query_blocks):
            if not block:
                raise ValueError(f"mrblast config: query block {i} is empty")
        if self.memsize < 1:
            raise ValueError(f"mrblast config: memsize must be >= 1, got {self.memsize}")
        if self.poison_attempts < 0:
            raise ValueError(
                f"mrblast config: poison_attempts must be >= 0, got {self.poison_attempts}"
            )
        if self.work_order not in ("partition_major", "query_major"):
            raise ValueError(f"mrblast config: unknown work_order {self.work_order!r}")
        _check_writable_dir(self.output_dir, "output_dir")
        if self.spool_dir is not None:
            _check_writable_dir(self.spool_dir, "spool_dir")


def _check_writable_dir(path: str, name: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"mrblast config: {name} {path!r} cannot be created ({exc})") from exc
    probe = os.path.join(path, ".write-probe")
    try:
        with open(probe, "w") as fh:
            fh.write("")
        os.unlink(probe)
    except OSError as exc:
        raise ValueError(f"mrblast config: {name} {path!r} is not writable ({exc})") from exc


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
    #: shuffle traffic this rank staged for other ranks (PR 4): exact array
    #: bytes on the columnar plane, ``approx_size`` estimates on the object
    #: plane.
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
    alias = DatabaseAlias.load(config.alias_path)
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

    mapper = MrBlastMapper(
        alias,
        config.query_blocks,
        config.options,
        hit_filter=config.hit_filter,
        lookup_cache_blocks=config.lookup_cache_blocks,
        poison=poison,
        fault_injector=config.unit_fault_injector,
    )
    reducer = MrBlastReducer(
        mapper.options,
        output_path,
        queries_written=queries_log[-1] if queries_log else 0,
        hits_written=hits_log[-1] if hits_log else 0,
    )
    schema = None
    if config.columnar:
        from repro.core.mrblast.hspcodec import hsp_schema

        schema = hsp_schema(config.id_width)
    mr = MapReduce(
        comm,
        memsize=config.memsize,
        mapstyle=config.mapstyle,
        spool_dir=config.spool_dir,
        schema=schema,
    )
    speculation = None
    if config.speculation_factor is not None:
        from repro.sched import SpeculationPolicy

        speculation = SpeculationPolicy(factor=config.speculation_factor)

    # Original input position of each query id, so per-rank files preserve
    # the input order of the queries they own (paper §III.A).
    query_order = {
        rec.id: i
        for i, rec in enumerate(
            r for block in config.query_blocks for r in block
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
            block_ids = range(first_block, min(first_block + step, n_blocks))
            items = build_work_items(
                n_blocks, alias.num_partitions, config.work_order, block_range=block_ids
            )
            log.debug("iteration from block %d: %d work units", first_block, len(items))
            mr.map_items(
                items,
                mapper,
                locality_key=(lambda it: it.partition_index) if config.locality_aware else None,
                speculation=speculation,
                degraded=config.degraded,
            )
            if config.combiner:
                from repro.blast.hsp import top_hits

                opts = mapper.options

                def combine(qid, hsps, kv):
                    for hsp in top_hits(hsps, opts.max_hits, opts.evalue):
                        kv.add(qid, hsp)

                mr.compress(combine)
            mr.collate()
            mr.sort_kmv_keys(key=lambda qid: query_order.get(qid, len(query_order)))
            # The reducer emits plain (query id, hit count) summaries, not
            # HSP rows — its output lives on the object plane.
            mr.reduce(reducer, out_schema=None)
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
        # Runs on *every* rank even when this rank is unwinding an injected
        # crash or AbortError — no KV/KMV spill files may outlive the job.
        timers = mr.timers
        shuffle = mr.stats.get("aggregate", {"pairs_moved": 0, "bytes_moved": 0})
        mr.close()
        mapper.release()

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
