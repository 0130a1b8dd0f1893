"""In-process SPMD MPI runtime.

The paper's applications are regular MPI programs built on MapReduce-MPI plus
a few direct MPI calls (``MPI_Bcast``/``MPI_Reduce`` in the SOM).  This
package provides the MPI substrate: every rank is a Python thread (or, on
the process backend, a forked process) owning a
:class:`~repro.mpi.comm.Comm`, and one message layer
(:mod:`repro.mpi.transport`) matches messages with MPI semantics (FIFO
non-overtaking per (source, dest, tag, context)).

The API follows mpi4py conventions:

- lowercase methods (``send``/``recv``/``bcast``/``reduce`` ...) move generic
  Python objects;
- capitalized methods (``Send``/``Recv``/``Reduce``/``Allreduce`` ...) move
  numpy buffers in place, which is what the SOM hot path uses.

Launch an SPMD region with :func:`~repro.mpi.runtime.run_spmd`::

    def main(comm):
        rank = comm.rank
        total = comm.allreduce(rank)
        return total

    results = run_spmd(4, main)   # [6, 6, 6, 6]

Collectives are implemented on top of point-to-point (binomial trees,
dissemination barrier), mirroring how a real MPI implements them and giving
the point-to-point layer heavy indirect test coverage.
"""

from repro.mpi.exceptions import MPIError, DeadlockError, AbortError, RankFailure
from repro.mpi.faultplan import (
    CrashRank,
    DelayMessage,
    DropMessage,
    DuplicateMessage,
    FaultPlan,
    StallRank,
)
from repro.mpi.ops import (
    ANY_SOURCE,
    ANY_TAG,
    MAX,
    MAXLOC,
    MIN,
    MINLOC,
    PROD,
    SUM,
    LAND,
    LOR,
    Op,
    Status,
)
from repro.mpi.network import Network
from repro.mpi.transport import TransportEndpoint
from repro.mpi.comm import Comm, Request
from repro.mpi.runtime import (
    BACKENDS,
    RetryPolicy,
    SupervisedOutcome,
    SupervisionExhausted,
    classify_failure,
    resolve_backend,
    run_spmd,
    run_supervised,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
    "LAND",
    "LOR",
    "MAXLOC",
    "MINLOC",
    "Op",
    "Status",
    "Network",
    "TransportEndpoint",
    "Comm",
    "Request",
    "BACKENDS",
    "resolve_backend",
    "run_spmd",
    "run_supervised",
    "RetryPolicy",
    "SupervisedOutcome",
    "SupervisionExhausted",
    "classify_failure",
    "MPIError",
    "DeadlockError",
    "AbortError",
    "RankFailure",
    "FaultPlan",
    "CrashRank",
    "StallRank",
    "DropMessage",
    "DuplicateMessage",
    "DelayMessage",
]
