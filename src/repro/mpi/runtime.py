"""SPMD launcher and supervisor: run one Python callable on N ranks.

Each rank executes ``fn(comm, *args, **kwargs)`` — as a daemon thread, or
as a forked process on the process backend — through one rank lifecycle
(:func:`run_rank`).  The first rank to raise aborts the whole job
(MPI_Abort semantics): blocked peers are woken with
:class:`~repro.mpi.exceptions.AbortError` and the original exception is
re-raised in the caller by one join rule (:meth:`SpmdJob.wait`).

On top of that whole-job-dies model sits :func:`run_supervised`: a
supervisor that watches per-rank heartbeats, classifies failures
(rank crash / timeout / abort fallout / application error) and relaunches
the job with exponential backoff under a bounded attempt budget — the
recovery loop the paper's §II.A says plain MPI lacks.  Combined with the
drivers' checkpoints (``repro.core.checkpoint``) a relaunch resumes instead
of restarting from scratch.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.mpi.comm import Comm
from repro.mpi.exceptions import (
    AbortError,
    DeadlockError,
    DegradedRankLoss,
    MPIError,
    RankFailure,
)
from repro.mpi.faultplan import FaultPlan
from repro.mpi.network import Network
from repro.obs.trace import set_current_tracer

__all__ = [
    "run_spmd",
    "SpmdJob",
    "RetryPolicy",
    "AttemptRecord",
    "SupervisedOutcome",
    "SupervisionExhausted",
    "classify_failure",
    "resolve_backend",
    "run_supervised",
]

#: Transport backends selectable per job.  "thread" is the original
#: in-process router (deterministic, GIL-bound — the parity oracle);
#: "process" forks one OS process per rank for real multi-core compute.
BACKENDS = ("thread", "process")


def resolve_backend(backend: str | None) -> str:
    """Validate a backend name, defaulting from ``REPRO_MPI_BACKEND``.

    The environment default lets whole suites or CI jobs flip backends
    without touching every ``run_spmd`` call site.
    """
    if backend is None:
        backend = os.environ.get("REPRO_MPI_BACKEND", "thread").strip() or "thread"
    if backend not in BACKENDS:
        raise MPIError(
            f"unknown transport backend {backend!r} (expected one of {BACKENDS})")
    return backend


def run_rank(network, rank: int, fn: Callable, args: tuple,
             kwargs: dict) -> tuple[Any, Optional[BaseException]]:
    """One rank's lifecycle on either backend: ``(result, error)``.

    Runs ``fn`` under the rank's ``lifecycle`` span.  AbortError (fallout
    from another rank's failure) and DegradedRankLoss (a rank the master
    routed around) are recorded, not propagated; any other exception is
    the *primary* error and aborts the job (MPI_Abort semantics).
    """
    comm = Comm(network, rank, list(range(network.nprocs)), context=0)
    trc = network.tracer_for(rank)
    set_current_tracer(trc)
    if trc.enabled:
        trc.begin("rank", cat="lifecycle", nprocs=network.nprocs)
    try:
        return fn(comm, *args, **kwargs), None
    except AbortError as exc:
        if trc.enabled:
            trc.instant("rank.abort", cat="lifecycle", error=repr(exc))
        return None, exc
    except DegradedRankLoss as exc:
        if trc.enabled:
            trc.instant("rank.degraded", cat="lifecycle", error=repr(exc))
        return None, exc
    except BaseException as exc:  # noqa: BLE001 - must propagate anything
        if trc.enabled:
            trc.instant("rank.error", cat="lifecycle", error=repr(exc))
        network.abort(exc)
        return None, exc
    finally:
        if trc.enabled:
            # Closes the lifecycle span and anything an exception left
            # open, so crashed ranks still export balanced traces.
            trc.unwind()
        set_current_tracer(None)


class _ThreadRanks:
    """Thread-backend rank starter: one daemon thread per rank."""

    def __init__(self, network: Network, fn: Callable, args: tuple,
                 kwargs: dict) -> None:
        self.results: list[Any] = [None] * network.nprocs
        self.errors: list[Optional[BaseException]] = [None] * network.nprocs

        def body(rank: int) -> None:
            self.results[rank], self.errors[rank] = run_rank(
                network, rank, fn, args, kwargs)

        self._threads = [
            threading.Thread(target=body, args=(rank,),
                             name=f"mpi-rank-{rank}", daemon=True)
            for rank in range(network.nprocs)
        ]

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def join(self, deadline: float) -> Optional[int]:
        """Join until every rank finished or ``deadline``; lowest live rank."""
        for rank, t in enumerate(self._threads):
            while t.is_alive():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return rank
                t.join(timeout=min(0.25, remaining))
        return None

    def close(self) -> None:
        """Nothing to reclaim: threads hold no OS resources of their own."""


class SpmdJob:
    """A launched SPMD job.  Use :func:`run_spmd` unless you need the handle.

    ``backend`` picks how ranks start: ``"thread"`` (default) runs ranks as
    daemon threads over one shared :class:`~repro.mpi.network.Network`;
    ``"process"`` forks one OS process per rank through
    :class:`~repro.mpi.process.ProcessJob`.  Either way ``network`` is the
    telemetry surface (``heartbeat_ages`` / ``op_count`` / ``abort``) and
    one join rule turns per-rank outcomes into a result.
    """

    def __init__(
        self,
        nprocs: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        op_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        trace=None,
        backend: str | None = None,
    ) -> None:
        if nprocs < 1:
            raise MPIError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.trace = trace
        self.backend = resolve_backend(backend)
        args, kwargs = tuple(args), dict(kwargs or {})
        if self.backend == "process":
            from repro.mpi.process import ProcessJob

            self._ranks = self.network = ProcessJob(
                nprocs, fn, args, kwargs,
                op_timeout=op_timeout, fault_plan=fault_plan, trace=trace,
            )
        else:
            self.network = Network(
                nprocs, op_timeout=op_timeout, fault_plan=fault_plan, trace=trace
            )
            self._ranks = _ThreadRanks(self.network, fn, args, kwargs)

    def start(self) -> None:
        """Launch all ranks without waiting for them (resident-service mode).

        A long-lived job (``repro.serve``'s rank session) starts here and is
        joined later by :meth:`wait` — typically from a watcher thread —
        once the shutdown sentinel has been enqueued.  One-shot callers use
        :meth:`run`, which is ``start()`` + ``wait()``.
        """
        self._ranks.start()

    def run(self, join_timeout: float | None = None) -> list[Any]:
        """Start all ranks, join them, and return per-rank results.

        Raises the first *primary* rank failure (AbortError fallout from other
        ranks is suppressed in its favour).  A job that blows the join budget
        is aborted with a report naming the ranks whose heartbeats went
        stale — the supervisor's stall detection.
        """
        self.start()
        return self.wait(join_timeout)

    def wait(self, join_timeout: float | None = None) -> list[Any]:
        """Join a :meth:`start`-ed job and return per-rank results.

        The join budget defaults to ``op_timeout * 4`` and runs from this
        call, not from :meth:`start`: resident sessions pass their own
        (longer) budget since a service may legitimately run for hours
        between :meth:`start` and :meth:`wait`.
        """
        budget = join_timeout if join_timeout is not None else self.network.op_timeout * 4
        try:
            alive = self._ranks.join(time.monotonic() + budget)
            if alive is not None:
                ages = self.network.heartbeat_ages()
                stalled = [r for r, age in enumerate(ages) if age > min(ages) + 1.0]
                err = MPIError(
                    f"SPMD job did not finish within {budget:.0f}s (mpi-rank-{alive} "
                    f"alive; stalled ranks by heartbeat: {stalled or 'indeterminate'})"
                )
                self.network.abort(err)
                raise err
        finally:
            self._ranks.close()
        errors = self._ranks.errors
        primary = next(
            (e for e in errors
             if e is not None and not isinstance(e, (AbortError, DegradedRankLoss))),
            None,
        )
        if primary is not None:
            raise primary
        collateral = next((e for e in errors if isinstance(e, AbortError)), None)
        if collateral is not None:
            raise collateral
        # Only DegradedRankLoss left (if anything): the job completed
        # degraded — survivors' results are valid, lost ranks stay None.
        return self._ranks.results

    @property
    def errors(self) -> list[Optional[BaseException]]:
        """Per-rank terminal exceptions (None for clean ranks)."""
        return list(self._ranks.errors)


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    op_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
    trace=None,
    backend: str | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks; return results.

    The returned list is indexed by rank.  This is the moral equivalent of
    ``mpirun -np N python prog.py`` for this repository.  ``trace`` is an
    optional :class:`~repro.obs.trace.TraceSession` whose per-rank tracers
    record the run; ``backend`` selects the transport (``"thread"`` or
    ``"process"``, default from ``REPRO_MPI_BACKEND``).  On the process
    backend rank results cross a pipe and must be picklable, and bulk
    payloads ride a per-job shared arena sized by ``$REPRO_MPI_ARENA_MB``
    (``0`` pins the per-message path; see
    :func:`repro.mpi.arena.resolve_arena_bytes`).
    """
    return SpmdJob(
        nprocs, fn, args, kwargs,
        op_timeout=op_timeout, fault_plan=fault_plan, trace=trace,
        backend=backend,
    ).run()


# --------------------------------------------------------------- supervision


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for supervised relaunches."""

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0 or self.backoff_factor < 1:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")

    def backoff(self, attempt: int) -> float:
        """Delay to sleep after failed attempt ``attempt`` (1-based)."""
        return min(self.backoff_base * self.backoff_factor ** (attempt - 1), self.backoff_max)


@dataclass(frozen=True)
class AttemptRecord:
    """One supervised launch: how it ended and what the supervisor did next."""

    attempt: int
    outcome: str  # "ok" | "rank_failure" | "timeout" | "abort" | "mpi_error" | "error"
    error: str = ""
    backoff_seconds: float = 0.0


@dataclass
class SupervisedOutcome:
    """The supervisor's full report for one logical job."""

    results: Optional[list]
    attempts: list[AttemptRecord] = field(default_factory=list)
    fault_trace: tuple = ()

    @property
    def succeeded(self) -> bool:
        return self.results is not None

    @property
    def retries(self) -> int:
        return max(len(self.attempts) - 1, 0)

    @property
    def faults_injected(self) -> int:
        return len(self.fault_trace)


class SupervisionExhausted(MPIError):
    """All supervised attempts failed; ``outcome`` holds the attempt log."""

    def __init__(self, message: str, outcome: SupervisedOutcome) -> None:
        super().__init__(message)
        self.outcome = outcome


def classify_failure(exc: BaseException) -> str:
    """Bucket a job failure the way the supervisor reasons about it."""
    if isinstance(exc, RankFailure):
        return "rank_failure"
    if isinstance(exc, DeadlockError):
        return "timeout"
    if isinstance(exc, AbortError):
        return "abort"
    if isinstance(exc, MPIError):
        return "mpi_error"
    return "error"


def run_supervised(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    op_timeout: float | None = None,
    prepare: Callable[[int], tuple[tuple, dict]] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    trace=None,
    backend: str | None = None,
    **kwargs: Any,
) -> SupervisedOutcome:
    """Launch ``fn`` under supervision: detect, back off, relaunch.

    Each attempt is a fresh :class:`SpmdJob` (fresh network, mailboxes and
    heartbeats) sharing ``fault_plan`` — plan events fire once, so injected
    faults are transient across attempts, exactly the failure class retry
    can beat.  ``prepare(attempt)`` (1-based) may supply per-attempt
    ``(args, kwargs)``; drivers use it to flip their config to resume-mode
    after the first crash so relaunches continue from the last checkpoint.

    Returns a :class:`SupervisedOutcome` on success; raises
    :class:`SupervisionExhausted` once the attempt budget is spent.
    ``sleep`` is injectable for tests.
    """
    policy = retry or RetryPolicy()
    attempts: list[AttemptRecord] = []
    last_exc: BaseException | None = None
    sup_trc = trace.supervisor if trace is not None else None
    for attempt in range(1, policy.max_attempts + 1):
        use_args, use_kwargs = (args, kwargs) if prepare is None else prepare(attempt)
        if sup_trc is not None:
            sup_trc.instant("supervisor.attempt", cat="supervisor", attempt=attempt)
        job = SpmdJob(
            nprocs, fn, use_args, use_kwargs,
            op_timeout=op_timeout, fault_plan=fault_plan, trace=trace,
            backend=backend,
        )
        try:
            results = job.run()
        except BaseException as exc:  # noqa: BLE001 - classify everything
            last_exc = exc
            backoff = policy.backoff(attempt) if attempt < policy.max_attempts else 0.0
            attempts.append(
                AttemptRecord(attempt, classify_failure(exc), repr(exc), backoff)
            )
            if sup_trc is not None:
                sup_trc.instant(
                    "supervisor.failure", cat="supervisor", attempt=attempt,
                    outcome=classify_failure(exc), backoff_seconds=backoff,
                )
            if backoff > 0:
                sleep(backoff)
            continue
        attempts.append(AttemptRecord(attempt, "ok"))
        if sup_trc is not None:
            sup_trc.instant("supervisor.ok", cat="supervisor", attempt=attempt)
        return SupervisedOutcome(
            results=results,
            attempts=attempts,
            fault_trace=fault_plan.trace() if fault_plan is not None else (),
        )
    outcome = SupervisedOutcome(
        results=None,
        attempts=attempts,
        fault_trace=fault_plan.trace() if fault_plan is not None else (),
    )
    raise SupervisionExhausted(
        f"job failed after {policy.max_attempts} attempts; last error: {last_exc!r}",
        outcome,
    ) from last_exc
