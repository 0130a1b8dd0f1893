"""The MR-MPI batch SOM driver: the control flow of the paper's Fig. 2.

The master initialises the codebook and broadcasts it with ``MPI_Bcast``;
then, per epoch (accumulate → reduce → smooth):

1. ``map()`` over blocks of input vectors (offset pairs into the
   memory-mapped matrix) finds each vector's BMU and adds the block into
   the rank-local class sums S and counts n ("each worker has its own copy
   of a new codebook, initialized to zero at the start of an epoch, plus a
   matrix of floating point scalars with the same shape"), which live side
   by side in one buffer;
2. one collective ``MPI_Reduce`` of that buffer sums the partial
   accumulators on the master.  "No reduce() stage is used in this
   program."
3. the master applies the neighbourhood to the totals and Eq. 5 to the
   codebook, and broadcasts the new codebook with ``MPI_Bcast``.  Eq. 5 is
   linear in S, so smoothing once after the reduction equals smoothing
   every block before it; the smoother is separable over the grid axes
   (:mod:`repro.som.batch`), 2·K·(R + C)·dim flops against a rank's map
   share of 2·(N/P)·K·dim, so it is not spread over ranks (DESIGN.md §5).

This is the paper's "mix of MapReduce-MPI and direct MPI calls".

Epoch boundaries are the natural checkpoint cadence: with
``checkpoint_dir`` set, the master commits the codebook after every epoch
(atomic rename), and ``resume=True`` continues from the last committed
epoch.  Batch-SOM epochs are deterministic, so a resumed run reproduces
the fault-free codebook bit for bit — see :func:`mrsom_supervised`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.checkpoint import CodebookCheckpoint
from repro.core.mrsom.mmap_input import MatrixFile
from repro.mpi.comm import Comm
from repro.mpi.faultplan import FaultPlan
from repro.mpi.ops import SUM
from repro.mpi.runtime import RetryPolicy, SupervisedOutcome, run_spmd, run_supervised
from repro.mrmpi.mapreduce import MapReduce, MapStyle
from repro.mrmpi.schema import RecordSchema
from repro.obs.export import write_chrome_trace
from repro.obs.trace import TraceSession
from repro.som.batch import BatchSOM, accumulate_classes, batch_update, smooth_classes
from repro.som.bmu import best_matching_units
from repro.som.codebook import SOMGrid, init_codebook

__all__ = ["MrSomConfig", "MrSomResult", "run_mrsom", "mrsom_spmd", "mrsom_supervised"]


@dataclass
class MrSomConfig:
    """One parallel batch-SOM training run.

    The paper's Fig. 6 benchmark: 81 920 random 256-d vectors, a 50×50 map,
    work units of 40 vectors.
    """

    matrix_path: str
    grid: SOMGrid
    epochs: int = 10
    block_rows: int = 40
    init: str = "linear"
    seed: int = 0
    initial_radius: float | None = None
    final_radius: float = 1.0
    mapstyle: MapStyle = MapStyle.MASTER_WORKER
    #: rows sampled (from the start) for the linear initialisation; keeps
    #: init cost bounded on huge matrices
    init_sample_rows: int = 4096
    #: record per-epoch quantisation error on the master (over the init
    #: sample) — convergence monitoring at bounded cost
    track_error: bool = False
    #: directory for per-epoch codebook checkpoints (None = no checkpoints)
    checkpoint_dir: str | None = None
    #: continue from the last committed epoch in ``checkpoint_dir``
    resume: bool = False
    #: stop after this many (additional) epochs — incremental training and
    #: the test hook for resume
    stop_after_epochs: int | None = None
    #: how the per-rank class-sum accumulators are combined each epoch.
    #: ``"mpi"`` is the paper's direct ``MPI_Reduce`` ("No reduce() stage is
    #: used in this program").  ``"mrmpi"`` routes the accumulators through
    #: the columnar MR-MPI data plane instead — each rank emits its (unit,
    #: {num row, denom}) blocks as one structured-array batch, collate
    #: spreads the units across ranks, and a reduce() sums the per-rank
    #: contributions in the same pairwise order as the direct reduction,
    #: so the trained codebook is bit-identical between the two modes.
    reduce_mode: str = "mpi"
    #: memory budget and spill directory for the ``"mrmpi"`` reduction
    #: plane (None = MapReduce defaults); a tiny memsize forces the
    #: accumulator exchange out of core
    memsize: int | None = None
    spool_dir: str | None = None
    #: write a Chrome ``trace_event`` JSON of the whole run here (open in
    #: chrome://tracing or Perfetto).  None disables tracing entirely —
    #: the zero-cost default.
    trace_path: str | None = None
    #: transport backend: "thread" (in-process, GIL-bound parity oracle) or
    #: "process" (one OS process per rank, real multi-core epoch compute).
    #: None defers to the REPRO_MPI_BACKEND environment default.
    backend: str | None = None
    #: process-backend shared-memory arena budget in MiB per rank (0
    #: disables the arena, restoring the per-message shm path).  None
    #: defers to $REPRO_MPI_ARENA_MB / the built-in default; ignored by
    #: the thread backend.
    arena_mb: int | None = None
    #: straggler threshold: re-issue a unit once its elapsed time exceeds
    #: ``speculation_factor ×`` the running median (None = no speculation).
    #: Only effective under MASTER_WORKER dispatch on >1 rank.
    speculation_factor: float | None = None
    #: keep training when a worker rank dies mid-map: the master reassigns
    #: its units to survivors and the epoch's collectives run on the shrunk
    #: communicator.  Incompatible with ``reduce_mode="mrmpi"`` (the
    #: reduction plane's exchange is collective over the original comm).
    degraded: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {self.block_rows}")
        if self.stop_after_epochs is not None and self.stop_after_epochs < 1:
            raise ValueError("stop_after_epochs must be >= 1 when set")
        if self.reduce_mode not in ("mpi", "mrmpi"):
            raise ValueError(
                f"reduce_mode must be 'mpi' or 'mrmpi', got {self.reduce_mode!r}"
            )
        if self.speculation_factor is not None and self.speculation_factor <= 1.0:
            raise ValueError(
                f"speculation_factor must be > 1.0, got {self.speculation_factor}"
            )
        if self.degraded and self.reduce_mode == "mrmpi":
            raise ValueError(
                "degraded=True is incompatible with reduce_mode='mrmpi': the "
                "accumulator exchange is collective over the original "
                "communicator and cannot survive a rank loss"
            )

    def validate(self) -> None:
        """Fail-fast checks before any rank spawns (one clear error, not N)."""
        if not os.path.isfile(self.matrix_path):
            raise ValueError(f"mrsom config: matrix_path {self.matrix_path!r} does not exist")
        try:
            matrix = MatrixFile(self.matrix_path)
        except Exception as exc:
            raise ValueError(
                f"mrsom config: matrix_path {self.matrix_path!r} is not a readable "
                f"matrix file ({exc})"
            ) from exc
        if matrix.n < 1:
            raise ValueError(f"mrsom config: matrix {self.matrix_path!r} has no rows")
        if self.grid.n_units < 1:
            raise ValueError("mrsom config: SOM grid has no units")
        if self.init not in ("linear", "random"):
            raise ValueError(f"mrsom config: unknown init {self.init!r}")
        if self.final_radius <= 0:
            raise ValueError(
                f"mrsom config: final_radius must be > 0, got {self.final_radius}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("mrsom config: resume=True requires checkpoint_dir")
        if self.checkpoint_dir is not None:
            try:
                os.makedirs(self.checkpoint_dir, exist_ok=True)
                probe = os.path.join(self.checkpoint_dir, ".write-probe")
                with open(probe, "w") as fh:
                    fh.write("")
                os.unlink(probe)
            except OSError as exc:
                raise ValueError(
                    f"mrsom config: checkpoint_dir {self.checkpoint_dir!r} is not "
                    f"writable ({exc})"
                ) from exc


@dataclass
class MrSomResult:
    """Per-rank outcome; the codebook is identical on every rank."""

    rank: int
    codebook: np.ndarray
    epochs: int
    units_processed: int
    busy_seconds: float
    bcast_seconds: float
    reduce_seconds: float
    #: master: neighbourhood smoothing + Eq. 5 + posting the codebook
    #: ``Bcast``, summed over epochs; workers: their wait for that codebook
    smooth_seconds: float = 0.0
    #: master: checkpoint load or ``init_codebook``; workers: their wait for it
    init_seconds: float = 0.0
    #: per-epoch quantisation error (rank 0 only, when track_error is set)
    error_history: list[float] | None = None
    #: robustness counters (PR 3): epoch this attempt resumed at, plus the
    #: supervision counters filled in by :func:`mrsom_supervised`
    resumed_from_epoch: int = 0
    faults_injected: int = 0
    retries: int = 0
    #: shuffle traffic of the ``"mrmpi"`` reduction plane (0 in "mpi" mode)
    shuffle_pairs_moved: int = 0
    shuffle_bytes_moved: int = 0
    #: straggler-mitigation / degraded-mode counters (PR 8)
    degraded: bool = False
    lost_ranks: tuple = ()
    speculated_units: int = 0
    wasted_units: int = 0
    reassigned_units: int = 0


@dataclass
class _BlockAccumulator:
    """The map() callable: accumulates class sums over assigned blocks.

    Under master/worker dispatch the master may discard a unit after the
    mapper already ran it — a speculative loser, or a unit redone after a
    worker death.  Accumulating straight into the rank totals would then
    double-count, so the dispatcher's unit hooks stage each unit: between
    ``begin_unit`` and ``commit_unit`` the mapper only keeps the unit's
    whole contribution, ``(bmus, block)``; ``commit_unit`` folds it into
    the totals once the master accepts the unit, ``discard_unit`` drops
    it.  Without hooks (single rank, static map styles) the mapper
    accumulates directly into the totals.
    """

    matrix: MatrixFile
    codebook: np.ndarray = None
    codebook_sq: np.ndarray = None
    #: S (K, dim) then n (K,) in one flat buffer: one message per Reduce
    totals: np.ndarray = None
    sums: np.ndarray = None
    counts: np.ndarray = None
    units: int = 0
    busy: float = 0.0
    #: None = no hooks; () = inside a dispatched unit, mapper not yet run
    _staged: tuple | None = None

    def start_epoch(self, codebook: np.ndarray) -> None:
        self.codebook = codebook
        self.codebook_sq = (codebook**2).sum(axis=1)
        self.totals = np.zeros(codebook.size + len(codebook))
        self.sums = self.totals[: codebook.size].reshape(codebook.shape)
        self.counts = self.totals[codebook.size :]
        self._staged = None

    def begin_unit(self, itask: int) -> None:
        self._staged = ()

    def commit_unit(self, itask: int) -> None:
        if self._staged:
            t0 = time.perf_counter()
            bmus, block = self._staged
            accumulate_classes(block, self.codebook, self.sums, self.counts, bmus=bmus)
            self.units += 1
            self.busy += time.perf_counter() - t0
        self._staged = None

    def discard_unit(self, itask: int) -> None:
        self._staged = None

    def __call__(self, itask: int, item: tuple[int, int], kv) -> None:
        t0 = time.perf_counter()
        start, stop = item
        block = self.matrix.rows(start, stop)
        if self._staged is not None:
            bmus = best_matching_units(block, self.codebook, codebook_sq=self.codebook_sq)
            self._staged = (bmus, block)
        else:
            accumulate_classes(block, self.codebook, self.sums, self.counts,
                               codebook_sq=self.codebook_sq)
            self.units += 1
        self.busy += time.perf_counter() - t0


def _accumulator_schema(dim: int) -> RecordSchema:
    """Record schema of one (unit index → rank contribution) pair.

    The value row carries the contributing rank so the reducer can restore
    rank order no matter how the exchange rounds interleaved arrivals.
    """
    value_dtype = np.dtype([("rank", "<i8"), ("num", "<f8", (dim,)), ("denom", "<f8")])
    return RecordSchema(key_dtype=np.dtype("<i8"), value_dtype=value_dtype, key_kind="int")


def _binomial_sum(parts: list):
    """Sum in the same pairwise order as ``Comm.reduce``'s binomial tree.

    Summing rank contributions in this order (not left-to-right) is what
    makes the ``"mrmpi"`` reduction bit-identical to the direct
    ``MPI_Reduce`` path: IEEE-754 addition is not associative, but the
    same additions in the same order give the same bits.
    """
    vals = list(parts)
    mask = 1
    while mask < len(vals):
        for i in range(0, len(vals), mask << 1):
            if i + mask < len(vals):
                vals[i] = vals[i] + vals[i + mask]
        mask <<= 1
    return vals[0]


def _mrmpi_reduce(
    red_mr: MapReduce, num: np.ndarray, denom: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-rank accumulators through the columnar MR-MPI plane.

    Each rank emits its whole accumulator as one columnar batch (one int64
    unit-index key column plus one structured {rank, num, denom} row array),
    collate spreads the units across ranks, reduce sums each unit's rank
    contributions in binomial order, and gather(1) concentrates the summed
    rows on rank 0, where the direct ``MPI_Reduce`` leaves them too.
    """
    k, dim = num.shape
    rows = np.empty(k, dtype=red_mr.schema.value_dtype)
    rows["rank"] = red_mr.rank
    rows["num"] = num
    rows["denom"] = denom
    keys = np.arange(k, dtype=np.int64)
    # One task per rank under CHUNK: every rank emits exactly its own rows.
    red_mr.map(
        red_mr.comm.size,
        lambda i, kv: kv.add_batch(keys, rows),
        mapstyle=MapStyle.CHUNK,
    )
    red_mr.collate()

    def reducer(key, values, kv):
        ordered = sorted(values, key=lambda r: int(r["rank"]))
        num_sum = _binomial_sum([r["num"] for r in ordered])
        denom_sum = _binomial_sum([r["denom"] for r in ordered])
        kv.add(int(key), (np.asarray(num_sum), float(denom_sum)))

    red_mr.reduce(reducer, out_schema=None)
    red_mr.gather(1)
    num_total = np.zeros_like(num)
    denom_total = np.zeros_like(denom)
    if red_mr.rank == 0:
        for unit, (num_sum, denom_sum) in red_mr.kv:
            num_total[unit] = num_sum
            denom_total[unit] = denom_sum
    return num_total, denom_total


def run_mrsom(comm: Comm, config: MrSomConfig) -> MrSomResult:
    """SPMD entry point: call on every rank of ``comm``."""
    matrix = MatrixFile(config.matrix_path)
    grid = config.grid
    k, dim = grid.n_units, matrix.dim

    # Master initialises the codebook (or reloads the last committed epoch);
    # everyone allocates the buffer.
    checkpoint = (
        CodebookCheckpoint(config.checkpoint_dir) if config.checkpoint_dir else None
    )
    codebook = np.zeros((k, dim))
    start_epoch = 0
    trc = comm.tracer
    if trc.enabled:
        trc.begin("mrsom.init", cat="driver")
    t0 = time.perf_counter()
    if comm.rank == 0:
        loaded = checkpoint.load() if (checkpoint is not None and config.resume) else None
        if loaded is not None:
            start_epoch, codebook = loaded
            start_epoch = min(start_epoch, config.epochs)
        else:
            sample = matrix.rows(0, min(config.init_sample_rows, matrix.n))
            codebook = init_codebook(grid, sample, method=config.init, seed_or_rng=config.seed)
            if checkpoint is not None and not config.resume:
                checkpoint.clear()  # a fresh run must not resume stale state
    start_epoch = int(comm.bcast(start_epoch, root=0))
    init_seconds = time.perf_counter() - t0
    if trc.enabled:
        trc.end(seconds=init_seconds)
        # Always emitted, so a resumed run's trace carries the marker the
        # fault-path tests look for (0 on fresh runs).
        trc.instant("mrsom.resume", cat="driver", resumed_from_epoch=start_epoch)
        trc.begin("mrsom.bcast", cat="driver")
    t0 = time.perf_counter()
    comm.Bcast(codebook, root=0)  # direct MPI call #1 (Fig. 2)
    bcast_seconds = time.perf_counter() - t0
    if trc.enabled:
        # The attr is the very float kept as bcast_seconds, so the
        # trace-derived total matches the counter bit-for-bit.
        trc.end(seconds=bcast_seconds)

    sigmas = BatchSOM(grid, dim, initial_radius=config.initial_radius,
                      final_radius=config.final_radius).radii(config.epochs)
    work = matrix.work_units(config.block_rows)

    speculation = None
    if config.speculation_factor is not None:
        from repro.sched import SpeculationPolicy

        speculation = SpeculationPolicy(factor=config.speculation_factor)

    mr = MapReduce(comm, mapstyle=config.mapstyle)
    red_mr = None
    if config.reduce_mode == "mrmpi":
        red_kwargs = {}
        if config.memsize is not None:
            red_kwargs["memsize"] = config.memsize
        if config.spool_dir is not None:
            red_kwargs["spool_dir"] = config.spool_dir
        red_mr = MapReduce(
            comm,
            mapstyle=MapStyle.CHUNK,
            schema=_accumulator_schema(dim),
            **red_kwargs,
        )
    acc = _BlockAccumulator(matrix)
    reduce_seconds = 0.0
    smooth_seconds = 0.0
    error_history: list[float] = []
    sample = None
    if config.track_error and comm.rank == 0:
        sample = matrix.rows(0, min(config.init_sample_rows, matrix.n))

    epochs_done_this_run = 0
    try:
        for epoch in range(start_epoch, config.epochs):
            if (
                config.stop_after_epochs is not None
                and epochs_done_this_run >= config.stop_after_epochs
            ):
                break
            epoch_sid = None
            if trc.enabled:
                epoch_sid = trc.begin("mrsom.epoch", cat="driver", epoch=epoch)

            acc.start_epoch(codebook)
            mr.map_items(work, acc, speculation=speculation, degraded=config.degraded)

            # mr.comm is `comm` until a degraded map shrinks it; collectives
            # must run on the surviving group (the dead rank can't Reduce).
            group = mr.comm
            if trc.enabled:
                trc.begin("mrsom.reduce", cat="driver", mode=config.reduce_mode)
            t0 = time.perf_counter()
            if red_mr is not None:
                sums, counts = _mrmpi_reduce(red_mr, acc.sums, acc.counts)
            else:  # direct MPI call #2 (Fig. 2): S and n, totals on the master
                totals = group.reduce(acc.totals, op=SUM, root=0)
                if group.rank == 0:
                    sums, counts = totals[: k * dim].reshape(k, dim), totals[k * dim :]
            dt = time.perf_counter() - t0
            reduce_seconds += dt
            if trc.enabled:
                trc.end(seconds=dt)
                trc.begin("mrsom.smooth", cat="driver")
            t0 = time.perf_counter()
            if group.rank == 0:  # "the master computes the new codebook"
                num, denom = smooth_classes(grid, float(sigmas[epoch]), sums, counts)
                codebook = batch_update(codebook, num, denom)
            group.Bcast(codebook, root=0)  # direct MPI call #1 again, every epoch
            dt = time.perf_counter() - t0
            smooth_seconds += dt
            if trc.enabled:
                trc.end(seconds=dt)

            if comm.rank == 0:
                if sample is not None:
                    from repro.som.quality import quantization_error

                    error_history.append(quantization_error(sample, codebook))
                if checkpoint is not None:
                    checkpoint.save(epoch + 1, codebook)
                    if trc.enabled:
                        trc.instant("checkpoint.commit", cat="driver",
                                    epoch=epoch + 1)
            epochs_done_this_run += 1
            if trc.enabled:
                trc.end(epoch_sid)
    finally:
        shuffle = {"pairs_moved": 0, "bytes_moved": 0}
        if red_mr is not None:
            shuffle = red_mr.stats.get("aggregate", shuffle)
            red_mr.close()
        mr.close()  # even when unwinding a crash: no leaked spill files
    return MrSomResult(
        rank=comm.rank,
        codebook=codebook,
        epochs=config.epochs,
        units_processed=acc.units,
        busy_seconds=acc.busy,
        bcast_seconds=bcast_seconds,
        reduce_seconds=reduce_seconds,
        smooth_seconds=smooth_seconds,
        init_seconds=init_seconds,
        error_history=error_history if comm.rank == 0 and config.track_error else None,
        resumed_from_epoch=start_epoch,
        shuffle_pairs_moved=shuffle["pairs_moved"],
        shuffle_bytes_moved=shuffle["bytes_moved"],
        degraded=mr.degraded_run,
        lost_ranks=mr.lost_ranks,
        speculated_units=mr.sched_stats["speculated"],
        wasted_units=mr.sched_stats["wasted"],
        reassigned_units=mr.sched_stats["reassigned"],
    )


def mrsom_spmd(
    nprocs: int, config: MrSomConfig, trace: TraceSession | None = None
) -> list[MrSomResult]:
    """Launch a full in-process MPI job running :func:`run_mrsom`.

    Tracing: pass a :class:`~repro.obs.trace.TraceSession` to capture the
    run, or set ``config.trace_path`` to have one created and exported as
    Chrome trace JSON automatically.  Both may be combined.
    """
    config.validate()
    if trace is None and config.trace_path:
        trace = TraceSession(nprocs)
    results = run_spmd(nprocs, run_mrsom, config, trace=trace,
                       backend=config.backend, arena_mb=config.arena_mb)
    if config.trace_path and trace is not None:
        write_chrome_trace(config.trace_path, trace)
    return results


def mrsom_supervised(
    nprocs: int,
    config: MrSomConfig,
    *,
    fault_plan: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    op_timeout: float | None = None,
    trace: TraceSession | None = None,
) -> SupervisedOutcome:
    """Run mrsom under the supervisor: crash → detect → back off → resume.

    Requires ``checkpoint_dir`` for relaunches to resume mid-training
    (without it a relaunch simply retrains from epoch 0 — still correct,
    just wasteful).  Attempt 1 honours ``config.resume``; every relaunch
    forces ``resume=True`` when checkpoints are enabled.
    """
    config.validate()
    if trace is None and config.trace_path:
        trace = TraceSession(nprocs)

    def prepare(attempt: int) -> tuple[tuple, dict]:
        if attempt == 1 or config.checkpoint_dir is None:
            cfg = config
        else:
            cfg = dataclasses.replace(config, resume=True)
        return (cfg,), {}

    try:
        outcome = run_supervised(
            nprocs,
            run_mrsom,
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
        if result is None:  # a rank lost to a degraded-mode death
            continue
        result.faults_injected = outcome.faults_injected
        result.retries = outcome.retries
    return outcome
