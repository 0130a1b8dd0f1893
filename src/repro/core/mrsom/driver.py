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

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import CodebookCheckpoint
from repro.core.mrsom.mmap_input import MatrixFile
from repro.core.spine import BatchConfig, RankResult, check_writable_dir, launch
from repro.mpi.comm import Comm
from repro.mpi.ops import SUM
from repro.mpi.runtime import SupervisedOutcome
from repro.mrmpi.mapreduce import MapReduce
from repro.obs.metrics import MetricsRegistry, metric_field
from repro.obs.trace import TraceSession
from repro.som.batch import BatchSOM, accumulate_classes, batch_update, smooth_classes
from repro.som.bmu import best_matching_units
from repro.som.codebook import SOMGrid, init_codebook

__all__ = ["MrSomConfig", "MrSomResult", "run_mrsom", "mrsom_spmd", "mrsom_supervised"]

#: rows sampled (from the start) for the linear initialisation and for the
#: quantisation error ``track_error`` records: bounded cost on huge matrices
INIT_SAMPLE_ROWS = 4096


@dataclass
class MrSomConfig(BatchConfig):
    """One parallel batch-SOM training run.

    The paper's Fig. 6 benchmark: 81 920 random 256-d vectors, a 50×50 map,
    work units of 40 vectors.  The per-rank class sums are combined by one
    direct ``MPI_Reduce`` per epoch, as in the paper's Fig. 2 ("No reduce()
    stage is used in this program"); the linear initialisation samples the
    first :data:`INIT_SAMPLE_ROWS` rows.  ``resume=True`` continues from the
    last epoch committed in ``checkpoint_dir``.
    """

    matrix_path: str
    grid: SOMGrid
    epochs: int = 10
    block_rows: int = 40
    init: str = "linear"
    seed: int = 0
    initial_radius: float | None = None
    final_radius: float = 1.0
    #: record per-epoch quantisation error on the master (over the init
    #: sample) — convergence monitoring at bounded cost
    track_error: bool = False
    #: directory for per-epoch codebook checkpoints (None = no checkpoints)
    checkpoint_dir: str | None = None
    #: stop after this many (additional) epochs — incremental training and
    #: the test hook for resume
    stop_after_epochs: int | None = None
    #: only ``"mpi"``, the direct ``MPI_Reduce``.  Kept as a field because
    #: the gated benchmark suite (``benchmarks/suite/workloads.py``) passes
    #: ``reduce_mode="mpi"``; it goes when that suite next changes.
    reduce_mode: str = "mpi"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {self.block_rows}")
        if self.stop_after_epochs is not None and self.stop_after_epochs < 1:
            raise ValueError("stop_after_epochs must be >= 1 when set")
        if self.reduce_mode != "mpi":
            raise ValueError(f"reduce_mode must be 'mpi', got {self.reduce_mode!r}")

    def validate(self) -> None:
        """The shared job checks, plus a readable matrix, a sane grid, init
        and radius, and a writable checkpoint directory when one is set."""
        super().validate()
        if not os.path.isfile(self.matrix_path):
            raise ValueError(f"MrSomConfig: matrix_path {self.matrix_path!r} does not exist")
        try:
            matrix = MatrixFile(self.matrix_path)
        except Exception as exc:
            raise ValueError(
                f"MrSomConfig: matrix_path {self.matrix_path!r} is not a readable "
                f"matrix file ({exc})"
            ) from exc
        if matrix.n < 1:
            raise ValueError(f"MrSomConfig: matrix {self.matrix_path!r} has no rows")
        if self.grid.n_units < 1:
            raise ValueError("MrSomConfig: SOM grid has no units")
        if self.init not in ("linear", "random"):
            raise ValueError(f"MrSomConfig: unknown init {self.init!r}")
        if self.final_radius <= 0:
            raise ValueError(
                f"MrSomConfig: final_radius must be > 0, got {self.final_radius}")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("MrSomConfig: resume=True requires checkpoint_dir")
        if self.checkpoint_dir is not None:
            check_writable_dir(self.checkpoint_dir, "MrSomConfig: checkpoint_dir")


@dataclass
class MrSomResult(RankResult):
    """Per-rank outcome; the codebook is identical on every rank."""

    codebook: np.ndarray
    epochs: int
    #: per-epoch quantisation error (rank 0 only, when track_error is set)
    error_history: list[float] | None = None
    #: epoch this attempt resumed at
    resumed_from_epoch: int = 0

    units_processed = metric_field("mrsom.units", int)
    busy_seconds = metric_field("mrsom.busy_s")
    bcast_seconds = metric_field("mrsom.bcast_s")
    reduce_seconds = metric_field("mrsom.reduce_s")
    #: master: neighbourhood smoothing + Eq. 5 + posting the codebook
    #: ``Bcast``, summed over epochs; workers: their wait for that codebook
    smooth_seconds = metric_field("mrsom.smooth_s")
    #: master: checkpoint load or ``init_codebook``; workers: their wait for it
    init_seconds = metric_field("mrsom.init_s")


@dataclass
class _BlockAccumulator:
    """The map() callable: accumulates class sums over assigned blocks.

    Under master/worker dispatch the master may discard a unit after the
    mapper already ran it — a speculative loser, or a unit redone after a
    worker death.  Accumulating straight into the rank totals would then
    double-count, so the dispatcher's unit hooks stage each unit: between
    ``begin_unit`` and ``commit_unit`` the mapper keeps only the unit's
    ``(start, stop, bmus)``, so a staged chunk is O(rows) whatever the
    vector width; ``commit_unit`` folds the rows in once the master accepts
    the unit, ``discard_unit`` drops it.  Without hooks (single rank,
    static map styles) the mapper accumulates directly into the totals.
    """

    matrix: MatrixFile
    #: receives ``mrsom.units`` and ``mrsom.busy_s``
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    codebook: np.ndarray = None
    codebook_sq: np.ndarray = None
    #: S (K, dim) then n (K,) in one flat buffer: one message per Reduce
    totals: np.ndarray = None
    sums: np.ndarray = None
    counts: np.ndarray = None
    #: None = no hooks; else itask -> (start, stop, bmus) of each unit staged
    _staged: dict | None = None

    def __post_init__(self) -> None:
        self._units = self.metrics.counter("mrsom.units")
        self._busy = self.metrics.counter("mrsom.busy_s")

    def start_epoch(self, codebook: np.ndarray) -> None:
        self.codebook = codebook
        self.codebook_sq = (codebook**2).sum(axis=1)
        self.totals = np.zeros(codebook.size + len(codebook))
        self.sums = self.totals[: codebook.size].reshape(codebook.shape)
        self.counts = self.totals[codebook.size :]
        self._staged = None

    def begin_unit(self, itask: int) -> None:
        self._staged = self._staged or {}

    def commit_unit(self, itask: int) -> None:
        staged = self._staged.pop(itask, None)
        if staged is not None:
            t0 = time.perf_counter()
            start, stop, bmus = staged
            accumulate_classes(self.matrix.rows(start, stop), self.codebook,
                               self.sums, self.counts, bmus=bmus)
            self._units.inc()
            self._busy.inc(time.perf_counter() - t0)

    def discard_unit(self, itask: int) -> None:
        self._staged.pop(itask, None)

    def __call__(self, itask: int, item: tuple[int, int], kv) -> None:
        t0 = time.perf_counter()
        start, stop = item
        block = self.matrix.rows(start, stop)
        if self._staged is not None:
            bmus = best_matching_units(block, self.codebook, codebook_sq=self.codebook_sq)
            self._staged[itask] = (start, stop, bmus)
        else:
            accumulate_classes(block, self.codebook, self.sums, self.counts,
                               codebook_sq=self.codebook_sq)
            self._units.inc()
        self._busy.inc(time.perf_counter() - t0)


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
    metrics = MetricsRegistry()
    phase_s = {phase: metrics.counter(f"mrsom.{phase}_s")
               for phase in ("init", "bcast", "reduce", "smooth")}
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
            sample = matrix.rows(0, min(INIT_SAMPLE_ROWS, matrix.n))
            codebook = init_codebook(grid, sample, method=config.init, seed_or_rng=config.seed)
            if checkpoint is not None and not config.resume:
                checkpoint.clear()  # a fresh run must not resume stale state
    start_epoch = int(comm.bcast(start_epoch, root=0))
    init_seconds = time.perf_counter() - t0
    phase_s["init"].inc(init_seconds)
    if trc.enabled:
        trc.end(seconds=init_seconds)
        # Always emitted, so a resumed run's trace carries the marker the
        # fault-path tests look for (0 on fresh runs).
        trc.instant("mrsom.resume", cat="driver", resumed_from_epoch=start_epoch)
        trc.begin("mrsom.bcast", cat="driver")
    t0 = time.perf_counter()
    comm.Bcast(codebook, root=0)  # direct MPI call #1 (Fig. 2)
    bcast_seconds = time.perf_counter() - t0
    phase_s["bcast"].inc(bcast_seconds)
    if trc.enabled:
        # The attr is the very float added to the counter, so the
        # trace-derived total matches it bit-for-bit.
        trc.end(seconds=bcast_seconds)

    sigmas = BatchSOM(grid, dim, initial_radius=config.initial_radius,
                      final_radius=config.final_radius).radii(config.epochs)
    work = matrix.work_units(config.block_rows)

    speculation = config.speculation_policy()
    mr = MapReduce(comm, mapstyle=config.mapstyle, metrics=metrics)
    acc = _BlockAccumulator(matrix, metrics)
    error_history: list[float] = []
    sample = None
    if config.track_error and comm.rank == 0:
        sample = matrix.rows(0, min(INIT_SAMPLE_ROWS, matrix.n))

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
                trc.begin("mrsom.reduce", cat="driver")
            t0 = time.perf_counter()
            # direct MPI call #2 (Fig. 2): S and n, totals on the master
            totals = group.reduce(acc.totals, op=SUM, root=0)
            if group.rank == 0:
                sums, counts = totals[: k * dim].reshape(k, dim), totals[k * dim :]
            dt = time.perf_counter() - t0
            phase_s["reduce"].inc(dt)
            if trc.enabled:
                trc.end(seconds=dt)
                trc.begin("mrsom.smooth", cat="driver")
            t0 = time.perf_counter()
            if group.rank == 0:  # "the master computes the new codebook"
                num, denom = smooth_classes(grid, float(sigmas[epoch]), sums, counts)
                codebook = batch_update(codebook, num, denom)
            group.Bcast(codebook, root=0)  # direct MPI call #1 again, every epoch
            dt = time.perf_counter() - t0
            phase_s["smooth"].inc(dt)
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
        mr.close()  # even when unwinding a crash: no leaked spill files
    return MrSomResult(
        rank=comm.rank,
        codebook=codebook,
        epochs=config.epochs,
        metrics=metrics.snapshot(),
        error_history=error_history if comm.rank == 0 and config.track_error else None,
        resumed_from_epoch=start_epoch,
        lost_ranks=mr.lost_ranks,
    )


def mrsom_spmd(nprocs: int, config: MrSomConfig,
               trace: TraceSession | None = None) -> list[MrSomResult]:
    """Launch a full MPI job running :func:`run_mrsom` (see
    :func:`~repro.core.spine.launch`)."""
    return launch(nprocs, run_mrsom, config, trace)


def mrsom_supervised(nprocs: int, config: MrSomConfig, **supervision) -> SupervisedOutcome:
    """:func:`mrsom_spmd` under the supervisor (``fault_plan``, ``retry``,
    ``op_timeout``, ``trace``).  Relaunches resume mid-training only with
    ``checkpoint_dir`` set; without it ``run_mrsom`` ignores ``resume`` and
    a relaunch retrains from epoch 0 — correct, just wasteful."""
    return launch(nprocs, run_mrsom, config, supervised=True, **supervision)
