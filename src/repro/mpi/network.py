"""Message router shared by all ranks of an in-process MPI job.

The network owns one mailbox per rank.  A message is matched by
``(context, source, tag)`` with MPI's non-overtaking guarantee: among the
messages a rank has posted to the same destination with a matching tag and
context, the earliest-posted one is received first (mailboxes are
arrival-ordered lists and matching scans from the front).

Contexts isolate communicators: collectives run in the same context as the
communicator they belong to, and split communicators get fresh contexts, so
traffic can never leak across communicators even with wildcard receives.

The network is also where faults happen.  With a
:class:`~repro.mpi.faultplan.FaultPlan` attached, every MPI call consults the
plan: a scheduled crash turns the acting rank's call into
:class:`~repro.mpi.exceptions.RankFailure` (and every later call by that rank
too), scheduled message faults drop/duplicate/delay individual posts, and
stalls sleep the acting rank.  Each call also stamps a per-rank heartbeat the
supervisor reads to name stalled ranks.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.mpi.exceptions import AbortError, DeadlockError, MPIError, RankFailure
from repro.mpi.faultplan import (
    CrashRank,
    DelayMessage,
    DropMessage,
    DuplicateMessage,
    FaultPlan,
    StallRank,
)
from repro.mpi.ops import ANY_SOURCE, ANY_TAG
from repro.mpi.transport import TransportEndpoint, matches
from repro.obs.trace import NULL_TRACER

__all__ = ["Network", "Message"]


@dataclass
class Message:
    """An in-flight message (payload already isolated by the sender)."""

    src: int
    dst: int
    tag: int
    context: int
    payload: Any
    seq: int = 0
    #: monotonic time before which the message is invisible to receivers
    #: (0 = deliverable immediately; used by injected delivery delays)
    not_before: float = 0.0


class Network(TransportEndpoint):
    """Shared state of one SPMD job: mailboxes, contexts, abort flag, faults.

    This is the *thread* transport endpoint: one shared object, ranks are
    threads, everything behind one lock.  See
    :mod:`repro.mpi.transport` for the contract and
    :class:`repro.mpi.process.ProcessNetwork` for the per-process twin.
    """

    #: Default timeout (seconds) for any single blocking operation. Generous
    #: enough for slow CI machines, small enough that a deadlocked test fails
    #: rather than hangs.
    DEFAULT_OP_TIMEOUT = TransportEndpoint.DEFAULT_OP_TIMEOUT

    def __init__(
        self,
        nprocs: int,
        op_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        trace=None,
    ) -> None:
        if nprocs < 1:
            raise MPIError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.op_timeout = op_timeout if op_timeout is not None else self.DEFAULT_OP_TIMEOUT
        self.fault_plan = fault_plan
        if trace is not None:
            self._tracers = [trace.tracer(rank) for rank in range(nprocs)]
        else:
            self._tracers = [NULL_TRACER] * nprocs
        self._lock = threading.Lock()
        self._conds = [threading.Condition(self._lock) for _ in range(nprocs)]
        self._mailboxes: list[list[Message]] = [[] for _ in range(nprocs)]
        self._seq = itertools.count()
        self._contexts: dict[tuple, int] = {}
        self._next_context = itertools.count(1)
        self._aborted: Optional[BaseException] = None
        self._op_counts = [0] * nprocs
        self._send_counts = [0] * nprocs
        self._heartbeats = [time.monotonic()] * nprocs
        self._crashed = [False] * nprocs
        self._dead = [False] * nprocs

    # ------------------------------------------------------------------ abort

    def abort(self, exc: BaseException) -> None:
        """Mark the job failed; wake every blocked rank with AbortError."""
        with self._lock:
            if self._aborted is None:
                self._aborted = exc
            for cond in self._conds:
                cond.notify_all()

    @property
    def aborted(self) -> Optional[BaseException]:
        return self._aborted

    # ------------------------------------------------------------- dead ranks

    def mark_dead(self, rank: int) -> None:
        """Record that ``rank`` left the job in degraded mode (no abort).

        No message is posted: a degraded-mode master bounds its mailbox
        wait and finds the flag at its next death sweep.
        """
        if not (0 <= rank < self.nprocs):
            return
        with self._lock:
            self._dead[rank] = True

    def dead_ranks(self) -> frozenset[int]:
        """Global ranks that declared themselves lost (degraded mode)."""
        with self._lock:
            return frozenset(r for r, d in enumerate(self._dead) if d)

    def _check_abort(self) -> None:
        if self._aborted is not None:
            raise AbortError(f"another rank failed: {self._aborted!r}")

    # ----------------------------------------------------------------- tracing

    def tracer_for(self, rank: int):
        """The tracer owned by ``rank`` (the shared null tracer when off)."""
        if 0 <= rank < self.nprocs:
            return self._tracers[rank]
        return NULL_TRACER

    # ------------------------------------------------------------------- arena

    # Threads share one address space: payloads already cross as zero-copy
    # frozen views, so there is no arena here — the contract's no-op
    # passthrough (``arena_enabled = False``, empty ``arena_stats()``) is
    # inherited from TransportEndpoint and restated for discoverability.
    arena_enabled = False

    def arena_stats(self) -> dict:
        return {}

    # ------------------------------------------------------------------ faults

    def _pre_op(self, rank: int) -> None:
        """Heartbeat + fault hook at the start of every MPI call by ``rank``.

        Must be called *outside* the network lock (it takes the lock itself,
        and an injected stall sleeps after releasing it).
        """
        if not (0 <= rank < self.nprocs):
            return
        stall = 0.0
        failure: RankFailure | None = None
        fired: list[tuple[str, dict]] = []
        with self._lock:
            self._heartbeats[rank] = time.monotonic()
            self._op_counts[rank] += 1
            op_index = self._op_counts[rank]
            if self._crashed[rank]:
                failure = RankFailure(rank, op_index)
            elif self.fault_plan is not None:
                for ev in self.fault_plan.op_event(rank, op_index):
                    if isinstance(ev, CrashRank):
                        self._crashed[rank] = True
                        failure = RankFailure(rank, op_index)
                        fired.append(("fault.crash", {"op_index": op_index}))
                    elif isinstance(ev, StallRank):
                        stall += ev.seconds
                        fired.append(("fault.stall",
                                      {"op_index": op_index,
                                       "seconds": ev.seconds}))
        if fired:
            trc = self._tracers[rank]
            if trc.enabled:
                for name, attrs in fired:
                    trc.instant(name, cat="fault", **attrs)
        if stall > 0.0 and failure is None:
            time.sleep(stall)
        if failure is not None:
            raise failure

    def heartbeat_ages(self) -> list[float]:
        """Seconds since each rank's last MPI call (supervisor telemetry)."""
        now = time.monotonic()
        with self._lock:
            return [now - hb for hb in self._heartbeats]

    def op_count(self, rank: int) -> int:
        """MPI calls made by ``rank`` so far (deterministic per program)."""
        with self._lock:
            return self._op_counts[rank]

    # ----------------------------------------------------------------- routing

    def post(self, msg: Message, acting: int | None = None) -> None:
        """Deliver ``msg`` to the destination mailbox (eager buffered send).

        ``acting`` is the sender's *global* rank for fault accounting;
        ``msg.src`` can be a communicator-local rank and defaults in.
        """
        if not (0 <= msg.dst < self.nprocs):
            raise MPIError(f"invalid destination rank {msg.dst} (nprocs={self.nprocs})")
        sender = msg.src if acting is None else acting
        self._pre_op(sender)
        trc = self.tracer_for(sender)
        duplicate = False
        dropped = False
        delayed = 0.0
        with self._lock:
            self._check_abort()
            if self.fault_plan is not None and 0 <= sender < self.nprocs:
                self._send_counts[sender] += 1
                ev = self.fault_plan.send_event(sender, self._send_counts[sender])
                if isinstance(ev, DropMessage):
                    dropped = True  # silently lost on the wire
                elif isinstance(ev, DuplicateMessage):
                    duplicate = True
                elif isinstance(ev, DelayMessage):
                    msg.not_before = time.monotonic() + ev.seconds
                    delayed = ev.seconds
            if not dropped:
                msg.seq = next(self._seq)
                self._mailboxes[msg.dst].append(msg)
                if duplicate:
                    copy = Message(
                        src=msg.src,
                        dst=msg.dst,
                        tag=msg.tag,
                        context=msg.context,
                        payload=msg.payload,
                        seq=next(self._seq),
                        not_before=msg.not_before,
                    )
                    self._mailboxes[msg.dst].append(copy)
                self._conds[msg.dst].notify_all()
        if trc.enabled:
            if dropped:
                trc.instant("fault.drop", cat="fault", dst=msg.dst, tag=msg.tag)
                return
            trc.instant("mpi.send", cat="mpi", dst=msg.dst, tag=msg.tag,
                        context=msg.context)
            if duplicate:
                trc.instant("fault.duplicate", cat="fault", dst=msg.dst,
                            tag=msg.tag)
            if delayed:
                trc.instant("fault.delay", cat="fault", dst=msg.dst,
                            tag=msg.tag, seconds=delayed)

    # Matching logic lives in the transport module so every backend runs
    # the exact same predicate the thread-backend tests pin down.
    _matches = staticmethod(matches)

    def probe(self, dst: int, context: int, source: int, tag: int) -> Optional[Message]:
        """Non-destructively return the first deliverable match, or ``None``."""
        with self._lock:
            self._check_abort()
            now = time.monotonic()
            for msg in self._mailboxes[dst]:
                if self._matches(msg, context, source, tag) and msg.not_before <= now:
                    return msg
        return None

    def match(
        self,
        dst: int,
        context: int,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
        block: bool = True,
    ) -> Optional[Message]:
        """Remove and return the first matching message for rank ``dst``.

        Blocks until a match arrives.  Raises :class:`DeadlockError` when the
        total wait exceeds the budget and :class:`AbortError` if the job was
        aborted while waiting.  With ``block=False`` a miss returns ``None``
        instead of raising: at once, or after a bounded wait of ``timeout``
        seconds when one is given.  Messages whose ``not_before`` lies
        in the future (injected delivery delays) are held back until due.
        """
        budget = timeout if timeout is not None else (self.op_timeout if block else 0.0)
        self._pre_op(dst)
        deadline = time.monotonic() + budget
        cond = self._conds[dst]
        with self._lock:
            while True:
                self._check_abort()
                now = time.monotonic()
                box = self._mailboxes[dst]
                next_ready: float | None = None
                for i, msg in enumerate(box):
                    if self._matches(msg, context, source, tag):
                        if msg.not_before <= now:
                            del box[i]
                            trc = self._tracers[dst]
                            if trc.enabled:
                                trc.instant("mpi.recv", cat="mpi",
                                            src=msg.src, tag=msg.tag,
                                            context=msg.context)
                            return msg
                        if next_ready is None or msg.not_before < next_ready:
                            next_ready = msg.not_before
                remaining = deadline - now
                if remaining <= 0:
                    if not block:
                        return None
                    raise DeadlockError(
                        f"rank {dst} timed out after {budget:.0f}s waiting for "
                        f"(source={source}, tag={tag}, context={context})"
                    )
                wait_for = remaining
                if next_ready is not None:
                    wait_for = min(wait_for, max(next_ready - now, 0.001))
                cond.wait(timeout=wait_for)

    # ---------------------------------------------------------------- contexts

    def allocate_context(self, key: tuple) -> int:
        """Return the context id for ``key``, allocating it on first use.

        All members of a collective context-creating call (e.g. ``split``)
        compute the same ``key``, so they agree on the id without extra
        synchronisation.
        """
        with self._lock:
            if key not in self._contexts:
                self._contexts[key] = next(self._next_context)
            return self._contexts[key]

    # ------------------------------------------------------------------ stats

    def pending_count(self, dst: int | None = None) -> int:
        """Number of undelivered messages (for tests / leak detection)."""
        with self._lock:
            if dst is not None:
                return len(self._mailboxes[dst])
            return sum(len(b) for b in self._mailboxes)
