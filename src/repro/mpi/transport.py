"""The transport seam: what a backend must provide underneath ``Comm``.

:class:`~repro.mpi.comm.Comm` and the collectives built on it never talk to
threads, pipes or shared memory directly — they speak to a *transport
endpoint*: an object with MPI matching semantics (``post``/``match``/
``probe``), context allocation, per-rank tracers and an abort channel.
Two endpoints exist:

- :class:`~repro.mpi.network.Network` — the original in-process router.
  One shared object; every rank is a thread; mailboxes live behind one
  lock.  Deterministic and dependency-free, but compute serialises on the
  GIL, so it is the *parity oracle*, not the performance backend.
- :class:`~repro.mpi.process.ProcessNetwork` — one endpoint per OS
  process.  Messages travel over pipes (bulk numpy payloads through
  POSIX shared memory); each endpoint owns only its own
  rank's mailbox and consults a fork-copied fault plan locally.

This module holds the contract and the pure matching logic both share, so
the semantics tested against the thread backend are the semantics the
process backend runs.
"""

from __future__ import annotations

from repro.mpi.ops import ANY_SOURCE, ANY_TAG

__all__ = ["TransportEndpoint", "matches"]


def matches(msg, context: int, source: int, tag: int) -> bool:
    """MPI envelope matching: (context, source, tag) with wildcards."""
    if msg.context != context:
        return False
    if source != ANY_SOURCE and msg.src != source:
        return False
    if tag != ANY_TAG and msg.tag != tag:
        return False
    return True


class TransportEndpoint:
    """Abstract contract every transport backend implements.

    The methods mirror what ``Comm``, ``MapReduce`` and the SPMD runtime
    actually call; a backend that implements them all is drop-in
    selectable via ``run_spmd(..., backend=...)``.  Matching obligations
    shared by all backends:

    - **non-overtaking**: among messages from one sender with a matching
      (tag, context), the earliest-posted is received first;
    - **contexts isolate communicators**: wildcard receives can never
      match traffic from another context;
    - **abort wakes blocked ranks**: after :meth:`abort`, every blocked or
      future ``match`` raises :class:`~repro.mpi.exceptions.AbortError`;
    - **fault accounting is per acting rank**: op and send counters drive
      :class:`~repro.mpi.faultplan.FaultPlan` events identically on every
      backend, so one seeded plan yields one event trace regardless of
      transport.
    """

    #: Default timeout (seconds) for any single blocking operation.
    DEFAULT_OP_TIMEOUT = 120.0

    op_timeout: float = DEFAULT_OP_TIMEOUT
    nprocs: int = 0

    #: Whether bulk payloads ride a shared arena on this endpoint.  The
    #: collectives consult this to pick arena-aware schedules (pairwise
    #: alltoall bounds peak ring residency); backends without an arena
    #: inherit the no-op default.
    arena_enabled: bool = False

    def arena_stats(self) -> dict:
        """Arena hit/overflow/residency counters (empty without an arena)."""
        return {}

    def post(self, msg, acting=None):
        """Deliver ``msg`` toward its destination mailbox (eager send)."""
        raise NotImplementedError

    def match(self, dst, context, source=ANY_SOURCE, tag=ANY_TAG,
              timeout=None, block=True):
        """Remove and return the first matching message for ``dst``.

        Blocking calls raise :class:`~repro.mpi.exceptions.DeadlockError`
        after ``timeout`` (default: ``op_timeout``) seconds; with
        ``block=False`` a miss returns ``None`` after ``timeout`` (default:
        0) seconds, which is a bounded wait on the mailbox.
        """
        raise NotImplementedError

    def probe(self, dst, context, source, tag):
        """Non-destructively return the first deliverable match, or None."""
        raise NotImplementedError

    def allocate_context(self, key):
        """Return the (collectively agreed) context id for ``key``."""
        raise NotImplementedError

    def tracer_for(self, rank):
        """The tracer owned by ``rank`` (a null tracer when tracing is off)."""
        raise NotImplementedError

    def abort(self, exc):
        """Mark the job failed; wake every blocked rank with AbortError."""
        raise NotImplementedError
