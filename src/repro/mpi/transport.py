"""The transport layer: one message layer, one codec, two ways to start ranks.

:class:`~repro.mpi.comm.Comm` and the collectives built on it never talk to
threads, pipes or shared memory directly — they speak to a
:class:`TransportEndpoint`.  Every MPI semantic of the message layer is
written once, here:

- the :class:`Message` envelope and its (context, source, tag) match;
- the :class:`Mailbox`: an arrival-ordered list behind one condition, so
  matching scans from the front (non-overtaking) and injected delivery
  holds (``not_before``) are honoured under a wall-clock deadline;
- the per-rank fault gate (:meth:`TransportEndpoint._pre_op`: heartbeat,
  op count, scheduled crashes and stalls) and the send-fault branch of
  :meth:`TransportEndpoint.post` (drops, duplicates, delays), with their
  trace instants;
- the payload codec (:func:`encode` / :func:`decode`);
- hash-derived context ids and the degraded-mode dead flags and telemetry
  the supervisor reads (:class:`RankTelemetry`).

**The payload contract.**  On both backends a received payload equals the
payload as it was at the send, every numpy array in it is read-only, and
whatever pickle refuses is refused at the send.  :meth:`~TransportEndpoint.post`
encodes every payload once, as one protocol-5 pickle whose contiguous
array buffers go out of band (a non-contiguous array is made contiguous
first); receivers :func:`decode` it over read-only views of those buffers.
A rank's own share of a collective is not a message: it comes back as the
object the rank passed, with no copy.

A backend supplies only ``_deliver`` (where a posted message's buffers
live until its destination decodes it), ``abort`` (how a failure reaches
every rank), and how ranks start:

- :class:`~repro.mpi.network.Network` — ranks are threads sharing one
  endpoint that holds every rank's mailbox; a send snapshots each buffer
  once and delivery is a list append.  Compute serialises on the GIL, so
  it is the deterministic default for tests, not the performance backend.
- :class:`~repro.mpi.process.ProcessNetwork` — one endpoint per forked OS
  process, holding only its own rank's mailbox.  Delivery to a peer writes
  one frame onto a pipe (a fixed-width header, then the pickle), its
  buffers inline or in a per-message shm block (:mod:`repro.mpi.shm`); a
  receiver thread drains inbound pipes into the mailbox.

The gate writes heartbeats and op counts into whatever sequences the
backend hands it (lists for threads, shared ``mp.Array`` for processes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, MutableSequence, Optional, Sequence

import numpy as np

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
from repro.obs.trace import NULL_TRACER

__all__ = [
    "Mailbox",
    "Message",
    "RankTelemetry",
    "TransportEndpoint",
    "decode",
    "encode",
    "matches",
    "snapshot",
]

#: Longest single condition wait: an abort raised through a shared flag
#: (no notify reaches the waiter) is still seen this promptly.
_WAIT_SLICE = 0.25


class _Pickler(pickle.Pickler):
    def reducer_override(self, obj):
        # numpy pickles a non-contiguous array (or a subclass) in band; one
        # contiguous copy lets its bytes go out of band like any other.
        if isinstance(obj, np.ndarray) and not obj.dtype.hasobject and not (
                type(obj) is np.ndarray
                and (obj.flags.c_contiguous or obj.flags.f_contiguous)):
            return np.asarray(obj, order="C").__reduce_ex__(5)
        return NotImplemented


def encode(payload: Any) -> tuple[bytes, list[memoryview]]:
    """``payload`` as one protocol-5 pickle and its out-of-band buffers.

    The buffers are flat byte views of the payload's array memory, not
    copies: a backend copies each once to wherever it lives until decoded.
    Raises whatever pickling raises.
    """
    raws: list[memoryview] = []
    out = io.BytesIO()
    _Pickler(out, protocol=5,
             buffer_callback=lambda buf: raws.append(buf.raw())).dump(payload)
    return out.getvalue(), raws


def decode(data, buffers: Sequence) -> Any:
    """Inverse of :func:`encode`; arrays are views over ``buffers``."""
    return pickle.loads(data, buffers=buffers)


def snapshot(wire: tuple[bytes, list[memoryview]]) -> Any:
    """Decode a private copy of an encoded payload (one copy per buffer)."""
    data, raws = wire
    return decode(data, [bytes(raw) for raw in raws])


@dataclass
class Message:
    """An in-flight message; ``payload`` is the sender's object until the
    backend delivers it, the decoded copy after."""

    src: int
    dst: int
    tag: int
    context: int
    payload: Any
    #: monotonic time before which the message is invisible to receivers
    #: (0 = deliverable immediately; used by injected delivery delays)
    not_before: float = 0.0


def matches(msg, context: int, source: int, tag: int) -> bool:
    """MPI envelope matching: (context, source, tag) with wildcards."""
    if msg.context != context:
        return False
    if source != ANY_SOURCE and msg.src != source:
        return False
    if tag != ANY_TAG and msg.tag != tag:
        return False
    return True


class Mailbox:
    """One rank's inbox: an arrival-ordered list behind one condition."""

    __slots__ = ("_cond", "_items")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._items: list[Message] = []

    def put(self, msg: Message) -> None:
        """Append ``msg`` and wake waiters."""
        with self._cond:
            self._items.append(msg)
            self._cond.notify_all()

    def wake(self) -> None:
        """Wake waiters so they re-check for an abort."""
        with self._cond:
            self._cond.notify_all()

    def take(self, context: int, source: int, tag: int, deadline: float,
             check_abort: Callable[[], None]) -> Optional[Message]:
        """Remove and return the first deliverable match.

        Waits until one arrives or the monotonic ``deadline`` passes (then
        returns ``None``; a deadline already past scans once).  Messages
        whose ``not_before`` lies in the future are held back until due.
        ``check_abort`` runs before every scan, so an abort raises in a
        blocked waiter.
        """
        with self._cond:
            while True:
                check_abort()
                now = time.monotonic()
                wake_at = deadline
                for i, msg in enumerate(self._items):
                    if matches(msg, context, source, tag):
                        if msg.not_before <= now:
                            del self._items[i]
                            return msg
                        wake_at = min(wake_at, msg.not_before)
                if now >= deadline:
                    return None
                self._cond.wait(min(max(wake_at - now, 0.001), _WAIT_SLICE))


class RankTelemetry:
    """Per-rank heartbeats, op counts and dead flags, as supervisors read them.

    Subclasses set ``nprocs`` and the three sequences: lists for threads,
    shared ``mp.Array`` objects for processes (``CLOCK_MONOTONIC`` is
    system-wide on Linux, so heartbeat ages read the same either way).
    """

    nprocs: int
    _heartbeats: MutableSequence[float]
    _op_counts: MutableSequence[int]
    _dead: MutableSequence[int]

    def heartbeat_ages(self) -> list[float]:
        """Seconds since each rank's last MPI call (supervisor telemetry)."""
        now = time.monotonic()
        return [now - hb for hb in self._heartbeats]

    def op_count(self, rank: int) -> int:
        """MPI calls made by ``rank`` so far (deterministic per program)."""
        return int(self._op_counts[rank])

    def mark_dead(self, rank: int) -> None:
        """Record that ``rank`` left the job in degraded mode (no abort).

        No message is posted: a degraded-mode master bounds its mailbox
        wait and finds the flag at its next death sweep.
        """
        if 0 <= rank < self.nprocs:
            self._dead[rank] = 1

    def dead_ranks(self) -> frozenset[int]:
        """Global ranks that declared themselves lost (degraded mode)."""
        return frozenset(r for r in range(self.nprocs) if self._dead[r])


class TransportEndpoint(RankTelemetry):
    """The message layer every backend shares; see the module docstring.

    Obligations this class discharges for every backend:

    - **non-overtaking**: among messages from one sender with a matching
      (tag, context), the earliest-posted is received first;
    - **contexts isolate communicators**: wildcard receives can never
      match traffic from another context;
    - **abort wakes blocked ranks**: after :meth:`abort`, every blocked or
      future ``match`` raises :class:`~repro.mpi.exceptions.AbortError`;
    - **fault accounting is per acting rank**: op and send counters drive
      :class:`~repro.mpi.faultplan.FaultPlan` events through one gate, so
      one seeded plan yields one event trace regardless of backend.
    """

    #: Default timeout (seconds) for any single blocking operation. Generous
    #: enough for slow CI machines, small enough that a deadlocked test fails
    #: rather than hangs.
    DEFAULT_OP_TIMEOUT = 120.0

    def __init__(
        self,
        nprocs: int,
        op_timeout: float | None,
        fault_plan: FaultPlan | None,
        tracers: Sequence,
        mailboxes: Sequence[Optional[Mailbox]],
        heartbeats: MutableSequence[float],
        op_counts: MutableSequence[int],
        dead: MutableSequence[int],
    ) -> None:
        if nprocs < 1:
            raise MPIError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.op_timeout = op_timeout if op_timeout is not None else self.DEFAULT_OP_TIMEOUT
        self.fault_plan = fault_plan
        self._tracers = tracers
        self._mailboxes = mailboxes  # None: the rank's mailbox is in another process
        self._heartbeats = heartbeats
        self._op_counts = op_counts
        self._dead = dead
        self._send_counts = [0] * nprocs
        self._crashed = [False] * nprocs
        self._aborted: Optional[BaseException] = None
        self._abort_lock = threading.Lock()

    # ------------------------------------------------------- backend supplies

    def _deliver(self, msg: Message, wire: tuple[bytes, list[memoryview]]) -> None:
        """Put ``msg``, its payload encoded as ``wire``, into its
        destination's mailbox, wherever that lives."""
        raise NotImplementedError

    # ------------------------------------------------------------------ abort

    def abort(self, exc: BaseException) -> None:
        """Mark the job failed; wake every rank blocked on this endpoint.

        The first failure is kept.  Backends whose ranks live elsewhere
        extend this to reach them.
        """
        with self._abort_lock:
            if self._aborted is None:
                self._aborted = exc
        for box in self._mailboxes:
            if box is not None:
                box.wake()

    def _check_abort(self) -> None:
        if self._aborted is not None:
            raise AbortError(f"another rank failed: {self._aborted!r}")

    # ----------------------------------------------------------------- tracing

    def tracer_for(self, rank: int):
        """The tracer owned by ``rank`` (the shared null tracer when off)."""
        if 0 <= rank < self.nprocs:
            return self._tracers[rank]
        return NULL_TRACER

    # ------------------------------------------------------------------ faults

    def _pre_op(self, rank: int) -> None:
        """Heartbeat + fault hook at the start of every MPI call by ``rank``.

        Takes no lock: only ``rank``'s own thread acts as ``rank``, so each
        counter has one writer.
        """
        if not (0 <= rank < self.nprocs):
            return
        self._heartbeats[rank] = time.monotonic()
        op_index = self._op_counts[rank] + 1
        self._op_counts[rank] = op_index
        if self._crashed[rank]:
            raise RankFailure(rank, op_index)
        if self.fault_plan is None:
            return
        stall = 0.0
        failure: RankFailure | None = None
        fired: list[tuple[str, dict]] = []
        for ev in self.fault_plan.op_event(rank, op_index):
            if isinstance(ev, CrashRank):
                self._crashed[rank] = True
                failure = RankFailure(rank, op_index)
                fired.append(("fault.crash", {"op_index": op_index}))
            elif isinstance(ev, StallRank):
                stall += ev.seconds
                fired.append(("fault.stall",
                              {"op_index": op_index, "seconds": ev.seconds}))
        trc = self._tracers[rank]
        if trc.enabled:
            for name, attrs in fired:
                trc.instant(name, cat="fault", **attrs)
        if failure is not None:
            raise failure
        if stall > 0.0:
            time.sleep(stall)

    # ----------------------------------------------------------------- routing

    def post(self, msg: Message, acting: int | None = None) -> None:
        """Deliver ``msg`` toward its destination mailbox (eager buffered send).

        ``acting`` is the sender's *global* rank for fault accounting;
        ``msg.src`` can be a communicator-local rank and defaults in.
        """
        if not (0 <= msg.dst < self.nprocs):
            raise MPIError(f"invalid destination rank {msg.dst} (nprocs={self.nprocs})")
        sender = msg.src if acting is None else acting
        self._pre_op(sender)
        self._check_abort()
        wire = encode(msg.payload)
        trc = self.tracer_for(sender)
        ev = None
        if self.fault_plan is not None and 0 <= sender < self.nprocs:
            self._send_counts[sender] += 1
            ev = self.fault_plan.send_event(sender, self._send_counts[sender])
            if isinstance(ev, DropMessage):  # silently lost on the wire
                if trc.enabled:
                    trc.instant("fault.drop", cat="fault", dst=msg.dst, tag=msg.tag)
                return
            if isinstance(ev, DelayMessage):
                msg.not_before = time.monotonic() + ev.seconds
        self._deliver(msg, wire)
        if isinstance(ev, DuplicateMessage):
            self._deliver(dataclasses.replace(msg), wire)
        if trc.enabled:
            trc.instant("mpi.send", cat="mpi", dst=msg.dst, tag=msg.tag,
                        context=msg.context)
            if isinstance(ev, DuplicateMessage):
                trc.instant("fault.duplicate", cat="fault", dst=msg.dst,
                            tag=msg.tag)
            elif isinstance(ev, DelayMessage):
                trc.instant("fault.delay", cat="fault", dst=msg.dst,
                            tag=msg.tag, seconds=ev.seconds)

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

        Blocking calls raise :class:`~repro.mpi.exceptions.DeadlockError`
        after ``timeout`` (default: ``op_timeout``) seconds; with
        ``block=False`` a miss returns ``None`` after ``timeout`` (default:
        0) seconds, which is a bounded wait on the mailbox.  An abort
        raises :class:`~repro.mpi.exceptions.AbortError` in the waiter.
        """
        budget = timeout if timeout is not None else (self.op_timeout if block else 0.0)
        self._pre_op(dst)
        msg = self._mailboxes[dst].take(
            context, source, tag, time.monotonic() + budget, self._check_abort)
        if msg is None:
            if not block:
                return None
            raise DeadlockError(
                f"rank {dst} timed out after {budget:g}s waiting for "
                f"(source={source}, tag={tag}, context={context})"
            )
        trc = self._tracers[dst]
        if trc.enabled:
            trc.instant("mpi.recv", cat="mpi", src=msg.src, tag=msg.tag,
                        context=msg.context)
        return msg

    # ---------------------------------------------------------------- contexts

    def allocate_context(self, key: tuple) -> int:
        """Derive the context id for ``key`` without cross-rank state.

        Every member of a context-creating call (``dup``, ``shrink``)
        computes the same ``key``, so a stable hash of the key
        is collectively agreed without a message or a shared counter.  Ids
        never collide with the world context (0) and collide with each
        other only at 2^-63 odds.
        """
        digest = hashlib.blake2b(
            pickle.dumps(key, protocol=4), digest_size=8).digest()
        return int.from_bytes(digest, "big") >> 1 or 1
