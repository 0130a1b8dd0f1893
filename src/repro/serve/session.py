"""The resident rank session: ranks come up once, serve many query blocks.

One-shot :func:`~repro.core.mrblast.driver.run_mrblast` pays its setup cost
(rank spawn, DB alias load, partition open, lookup-table build) on every
call.  The resident session keeps an SPMD job alive between requests: every
rank holds one :class:`~repro.core.mrblast.pipeline.BlastPipeline` (warm
mapper with every DB partition it has opened and its lookup cache, one
``MapReduce`` handle) for its whole lifetime, and executes query blocks
pushed through a job queue.

Control flow per rank: rank 0 pops the next :class:`BlockJob` from the
parent's queue and broadcasts it; every rank then runs the pipeline's one
iteration over the block with the reduce on rank 0: the workers map, each
chunk's rows riding its completion request to rank 0, and once the map
retires rank 0 alone groups, orders and reduces them, demuxing per-query
result bytes (:class:`~repro.core.mrblast.reducer.MrBlastReducer` without
an output file) instead of appending to rank files, and ships one result
envelope back.  No gather and no collective runs inside a job.  While the
queue is idle, rank 0 broadcasts keepalive ticks so blocked ranks never
trip the transport's operation timeout.

Every number a rank counts goes into its pipeline's
:class:`~repro.obs.metrics.MetricsRegistry`; the loop adds ``serve.jobs``
and ``serve.ticks``.  A running session answers
:meth:`ResidentBlastSession.rank_metrics` with every live rank's snapshot,
and each rank returns its last one when the session stops.

Degraded mode composes unchanged: a worker dying mid-map raises
:class:`~repro.mpi.exceptions.DegradedRankLoss` out of the rank loop (the
rank leaves the session permanently), survivors shrink the session
communicator past it and keep serving.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.bio.seq import SeqRecord
from repro.core.mrblast.pipeline import BlastPipeline, RuntimeConfig
from repro.core.mrblast.reducer import MrBlastReducer
from repro.mpi.comm import Comm
from repro.mpi.exceptions import MPIError
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import SpmdJob, resolve_backend

__all__ = [
    "ServeConfig",
    "BlockJob",
    "BlockResult",
    "ResidentBlastSession",
    "serve_rank_main",
]


@dataclass
class ServeConfig(RuntimeConfig):
    """Everything a resident BLAST service needs.

    The shared runtime knobs of
    :class:`~repro.core.mrblast.pipeline.RuntimeConfig` plus the
    service-side batching/intake parameters.  ``idle_tick`` must stay well
    below the transport operation timeout: it is the cadence of rank 0's
    keepalive broadcasts while the job queue is empty.
    """

    nprocs: int = 2
    #: resilience: degraded-mode completion on worker death is the default
    #: for a service (finish the batch, keep serving on survivors)
    degraded: bool = field(default=True, kw_only=True)
    #: keepalive cadence of the idle rank loop, seconds
    idle_tick: float = 0.25
    #: transport operation timeout override (None = transport default)
    op_timeout: float | None = None
    #: join budget for the shutdown drain, seconds — the clock starts when
    #: :meth:`ResidentBlastSession.stop` enqueues the stop sentinel, never
    #: at session start (a resident session may legitimately serve, or
    #: idle, for hours)
    session_budget: float = 3600.0
    # ---- service-side intake/batching knobs -------------------------
    max_batch: int = 8
    #: longest a submission waits for a fuller batch while a job is in
    #: flight, seconds; with the ranks idle it is dispatched at once
    max_delay: float = 0.05
    #: most queries admitted but not yet resolved; past it submit refuses
    max_pending: int = 256

    def validate(self) -> None:
        """The shared runtime checks plus the service's own (raises ValueError)."""
        super().validate()
        if self.nprocs < 1:
            raise ValueError(f"ServeConfig: nprocs must be >= 1, got {self.nprocs}")
        if self.idle_tick <= 0:
            raise ValueError(f"ServeConfig: idle_tick must be > 0, got {self.idle_tick}")
        if self.max_batch < 1:
            raise ValueError(f"ServeConfig: max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay < 0:
            raise ValueError(f"ServeConfig: max_delay must be >= 0, got {self.max_delay}")
        if self.max_pending < 1:
            raise ValueError(f"ServeConfig: max_pending must be >= 1, got {self.max_pending}")


@dataclass(frozen=True)
class BlockJob:
    """One coalesced query block submitted to the rank session."""

    job_id: int
    queries: tuple[SeqRecord, ...]


@dataclass
class BlockResult:
    """Rank 0's result envelope for one :class:`BlockJob`.

    ``results`` maps query id to its encoded outfmt-6 block; queries with
    no surviving hits are simply absent (the service resolves them to empty
    bytes).  ``kv_bytes`` is the exact ``nbytes`` of the job's columnar map
    output, every rank's, as held on rank 0 after the map — the measurement
    the service's backpressure gauge feeds on.  ``lost_ranks`` are the global
    ranks the session has lost so far.
    """

    job_id: int
    results: dict[str, bytes]
    kv_bytes: int = 0
    lost_ranks: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        """True once the session serves without some of its ranks."""
        return bool(self.lost_ranks)


def _run_block_job(pipeline: BlastPipeline, job: BlockJob) -> tuple[dict[str, bytes], int] | None:
    """Execute one query block on this rank.

    Rank 0 returns ``(demuxed results, kv_bytes)``, ``kv_bytes`` being the
    ``nbytes`` of every rank's map output, which the map left on rank 0.
    """
    pipeline.mapper.set_query_blocks([list(job.queries)])
    demux = MrBlastReducer(pipeline.mapper.options, metrics=pipeline.metrics)
    kv_bytes = pipeline.iterate(
        {rec.id: i for i, rec in enumerate(job.queries)}, demux, reduce_at_root=True)
    if pipeline.mr.rank != 0:
        return None
    return demux.results, kv_bytes


def serve_rank_main(comm: Comm, cfg: ServeConfig, jobs: Any, results: Any,
                    replies: Any) -> dict:
    """SPMD body of the resident session: loop on broadcast directives.

    ``jobs``/``results``/``replies`` are queues shared with the parent
    (``queue.Queue`` on the thread backend, fork-inherited
    ``multiprocessing`` queues on the process backend).  Only rank 0
    touches them; peers learn everything via broadcast.  Directives are
    ``("job", BlockJob)``, ``("metrics", seq)`` (every live rank's
    snapshot in global rank order, put on ``replies`` after ``seq``),
    ``("tick", None)`` (keepalive) and ``("stop", None)``.
    Returns the rank's metrics snapshot.
    """
    pipeline = BlastPipeline(comm, cfg)
    mr, metrics = pipeline.mr, pipeline.metrics
    jobs_run, ticks = metrics.counter("serve.jobs"), metrics.counter("serve.ticks")
    live_comm = comm
    lost: tuple[int, ...] = ()
    trc = comm.tracer
    try:
        while True:
            if live_comm.rank == 0:
                try:
                    item = jobs.get(timeout=cfg.idle_tick)
                except queue.Empty:
                    # Keepalive: peers are blocked in this bcast; ticking
                    # well inside the op timeout keeps the idle session from
                    # tripping deadlock detection.
                    directive = ("tick", None)
                else:
                    directive = (("stop", None) if item is None
                                 else item if isinstance(item, tuple)
                                 else ("job", item))
            else:
                directive = None
            kind, payload = live_comm.bcast(directive, root=0)
            if kind == "stop":
                break
            if kind == "tick":
                ticks.inc()
                continue
            if kind == "metrics":
                snapshots = live_comm.gather(metrics.snapshot(), root=0)
                if live_comm.rank == 0:
                    by_rank: list[dict | None] = [None] * comm.size
                    for local, snapshot in enumerate(snapshots):
                        by_rank[live_comm.group[local]] = snapshot
                    replies.put((payload, by_rank))
                continue
            job: BlockJob = payload
            # Jobs must leave the span stack exactly as they found it:
            # resident ranks outlive any one job, so an unwound exception
            # (degraded loss, abort fallout) may not leak open spans into
            # the next job's trace.
            depth = trc.open_depth
            sid = None
            if trc.enabled:
                sid = trc.begin("serve.job", cat="serve",
                                job_id=job.job_id, queries=len(job.queries))
            try:
                outcome = _run_block_job(pipeline, job)
                if outcome is not None:
                    merged, kv_bytes = outcome
                    results.put(BlockResult(job.job_id, merged, kv_bytes, mr.lost_ranks))
                if trc.enabled:
                    trc.end(sid)
            finally:
                trc.unwind(to_depth=depth)
            jobs_run.inc()
            newly = set(mr.lost_ranks) - set(lost)
            if newly:
                # Survivors agree on the newly dead global ranks (the sched
                # master told everyone); shrink the session communicator so
                # subsequent broadcasts span only the living.
                dead_local = [i for i, g in enumerate(live_comm.group) if g in newly]
                live_comm = live_comm.shrink(sorted(dead_local))
                lost = mr.lost_ranks
    finally:
        pipeline.close()
    return metrics.snapshot()


class ResidentBlastSession:
    """Parent-side handle on one launched rank session.

    ``start()`` brings the ranks up (a rank maps a DB partition at its first
    unit there and keeps it, lookup caches stay warm across jobs); ``submit()`` enqueues a
    :class:`BlockJob`; ``poll_result()`` retrieves envelopes;
    ``rank_metrics()`` asks the running ranks for their metrics; ``stop()``
    broadcasts the shutdown sentinel and joins.  A watcher thread owns the
    join so a crashed session is detected promptly: check :attr:`failed` /
    :attr:`failure` between pumps.
    """

    def __init__(self, cfg: ServeConfig, trace=None, fault_plan: FaultPlan | None = None) -> None:
        cfg.validate()
        self.cfg = cfg
        self.trace = trace
        self.fault_plan = fault_plan
        self.backend = resolve_backend(cfg.backend)
        self._job: SpmdJob | None = None
        self._jobs_q: Any = None
        self._results_q: Any = None
        self._replies_q: Any = None
        self._watcher: threading.Thread | None = None
        self._done = threading.Event()
        self._failure: BaseException | None = None
        self._final_metrics: list[dict | None] | None = None
        self._metrics_lock = threading.Lock()  # rank_metrics() calls take turns
        self._metrics_seq = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ResidentBlastSession":
        """Launch the ranks and return self (idempotent start is an error)."""
        if self._job is not None:
            raise RuntimeError("session already started")
        if self.backend == "process":
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            self._jobs_q, self._results_q, self._replies_q = (
                ctx.Queue(), ctx.Queue(), ctx.Queue())
        else:
            self._jobs_q, self._results_q, self._replies_q = (
                queue.Queue(), queue.Queue(), queue.Queue())
        self._job = SpmdJob(
            self.cfg.nprocs,
            serve_rank_main,
            (self.cfg, self._jobs_q, self._results_q, self._replies_q),
            op_timeout=self.cfg.op_timeout,
            fault_plan=self.fault_plan,
            trace=self.trace,
            backend=self.backend,
        )
        self._job.start()
        self._watcher = threading.Thread(
            target=self._watch, name="serve-session-watcher", daemon=True)
        self._watcher.start()
        return self

    def _watch(self) -> None:
        try:
            # No lifetime deadline: both engines' joins return as soon as a
            # rank dies, so crash detection stays prompt without one, and a
            # finite budget here would force-abort a perfectly healthy
            # session once it had merely been *up* that long.  The
            # ``session_budget`` join budget applies only to the shutdown
            # drain and is enforced by :meth:`stop`, which aborts the
            # transport if the ranks outlive it.
            self._final_metrics = self._job.wait(float("inf"))
        except BaseException as exc:  # noqa: BLE001 - report anything
            self._failure = exc
        finally:
            self._done.set()

    @property
    def failed(self) -> bool:
        """True once the session died with an error (vs. clean shutdown)."""
        return self._failure is not None

    @property
    def failure(self) -> BaseException | None:
        """The terminal session error, if any."""
        return self._failure

    @property
    def closed(self) -> bool:
        """True once every rank has exited (cleanly or not)."""
        return self._done.is_set()

    # -- request plane -------------------------------------------------

    def submit(self, job: BlockJob) -> None:
        """Enqueue one query block for execution."""
        if self._job is None:
            raise RuntimeError("session not started")
        if self._done.is_set():
            raise RuntimeError("session is closed")
        self._jobs_q.put(job)

    def rank_metrics(self, timeout: float = 30.0) -> list[dict | None]:
        """Every rank's metrics snapshot, gathered by the running ranks.

        The request queues behind the jobs already submitted, so their
        counts are in it; a rank lost to degraded mode reads ``None``.
        Raises :class:`TimeoutError` when no reply arrives in ``timeout``
        seconds.  Calls take turns, and a late reply to one that timed out is
        dropped, not returned (each request carries a number the ranks echo).
        """
        with self._metrics_lock:
            self._metrics_seq += 1
            self.submit(("metrics", self._metrics_seq))
            deadline = time.monotonic() + timeout
            while True:
                try:
                    seq, snapshots = self._replies_q.get(
                        timeout=max(deadline - time.monotonic(), 0.0))
                except queue.Empty:
                    raise TimeoutError(
                        f"no metrics reply from the ranks within {timeout}s") from None
                if seq == self._metrics_seq:
                    return snapshots

    def poll_result(self, timeout: float | None = 0.0) -> BlockResult | None:
        """Next result envelope, or None when nothing is ready in time."""
        if self._results_q is None:
            return None
        try:
            if timeout is None or timeout <= 0:
                return self._results_q.get_nowait()
            return self._results_q.get(timeout=timeout)
        except queue.Empty:
            return None

    def stop(self, timeout: float | None = None) -> list[dict | None] | None:
        """Broadcast shutdown, join the ranks, return their last metrics
        snapshots (``None`` for a rank lost to degraded mode).

        The join budget (``timeout``, defaulting to ``cfg.session_budget``)
        runs from the shutdown sentinel enqueued here — a session that
        served for hours still gets the full budget to drain.  Ranks that
        outlive it are forcibly aborted and the stall is raised.
        """
        if self._job is None:
            return None
        budget = self.cfg.session_budget if timeout is None else timeout
        if not self._done.is_set():
            self._jobs_q.put(None)
        if not self._done.wait(budget):
            err = MPIError(
                f"resident session did not drain within {budget:.0f}s of "
                f"the shutdown sentinel")
            self._job.network.abort(err)
            self._done.wait(5.0)
            raise err
        if self._failure is not None:
            raise self._failure
        return self._final_metrics
