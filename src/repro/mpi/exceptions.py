"""Errors raised by the in-process MPI runtime."""

from __future__ import annotations

__all__ = ["MPIError", "DeadlockError", "AbortError", "RankFailure", "DegradedRankLoss"]


class MPIError(RuntimeError):
    """Base class for runtime errors (bad rank, bad tag, misuse)."""


class DeadlockError(MPIError):
    """A blocking operation timed out.

    In a real MPI job this is the hang you attach a debugger to; here the
    runtime converts it into an exception after ``op_timeout``
    seconds so the test suite can never wedge.
    """


class AbortError(MPIError):
    """Raised inside blocked ranks when another rank failed (MPI_Abort)."""


class RankFailure(MPIError):
    """A rank crashed (fault injection): raised at the rank's next MPI call.

    Mirrors the paper's §II.A failure semantics — MPI has no recovery story,
    so one dead rank takes the whole job down.  The failing rank raises this
    from the transport's fault gate
    (:meth:`~repro.mpi.transport.TransportEndpoint._pre_op`); the runtime then aborts
    the job and every blocked peer observes :class:`AbortError`.
    """

    def __init__(self, rank: int, op_index: int) -> None:
        super().__init__(f"rank {rank} crashed at MPI operation {op_index} (fault injection)")
        self.rank = rank
        self.op_index = op_index

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``args`` (the
        # formatted message), which does not match this two-int signature.
        # The process transport ships rank errors through a pipe, so spell
        # out the constructor call explicitly.
        return (RankFailure, (self.rank, self.op_index))


class DegradedRankLoss(MPIError):
    """A rank died mid-map but the job routed around it (degraded mode).

    Raised *by the dead rank itself* in place of propagating its crash to
    the whole job: the MASTER_WORKER master notices the death, reassigns
    the rank's units to survivors, and the job completes with
    ``degraded=True``.  The supervisor treats this like :class:`AbortError`
    — recorded, never re-raised as the job's primary error.
    """

    def __init__(self, rank: int, cause: str = "") -> None:
        detail = f": {cause}" if cause else ""
        super().__init__(f"rank {rank} lost mid-map, job degraded{detail}")
        self.rank = rank
        self.cause = cause

    def __reduce__(self):
        return (DegradedRankLoss, (self.rank, self.cause))
