"""Multi-process transport: every rank is a real OS process.

The thread backend (:class:`~repro.mpi.network.Network`) serialises all
compute on the GIL, so "parallel" shuffles degrade as ranks are added.
This backend forks one process per rank so map/convert/reduce compute
runs on real cores, while keeping the exact transport contract of
:mod:`repro.mpi.transport`:

- **data plane** — an N×N mesh of unidirectional pipes carrying typed
  frames (first byte selects the codec).  Bulk numpy payloads (the
  capitalized ``Send``/``Bcast``/``Reduce`` path, the columnar page
  exchange and the seed-index alltoalls) travel as **arena frames**: the
  bytes are written once into the sender's ring of the per-job shared
  arena (:mod:`repro.mpi.arena`) and the pipe carries only a fixed-width
  packed descriptor; the receiver gets read-only zero-copy views.
  Control-sized payloads pickle straight through, and bulk payloads that
  overflow the ring fall back to per-message :mod:`repro.mpi.shm` blocks
  — correctness never depends on arena hits.
- **delivery** — each child runs a daemon *receiver thread* draining its
  inbound pipes into a rank-local mailbox; ``match`` then runs the very
  same (context, source, tag) scan the thread backend runs on its shared
  mailboxes.  The receiver thread always drains, so eager sends cannot
  deadlock on pipe backpressure while the main thread blocks in a
  collective.
- **abort** — a failing child notifies the parent over its exit pipe; the
  parent sets a shared flag and writes a wakeup down every child's
  control pipe, so blocked peers raise
  :class:`~repro.mpi.exceptions.AbortError` promptly instead of burning
  the op timeout (MPI_Abort semantics, same as threads).
- **supervision** — heartbeats and op counts are stamped into shared
  arrays (``CLOCK_MONOTONIC`` is system-wide on Linux), so
  :func:`~repro.mpi.runtime.run_supervised` reads stall telemetry the
  same way for both backends.
- **faults** — every child consults its fork-copied
  :class:`~repro.mpi.faultplan.FaultPlan` with rank-local op/send
  counters; fired events return in the exit envelope and are absorbed
  into the parent's plan, preserving the fire-once-per-plan contract
  (and therefore identical seeded event traces) across backends and
  supervised attempts.
- **tracing** — tracer objects cannot be shared across processes; each
  child starts its tracer with a fresh event buffer and metrics registry
  and ships the delta home in its exit envelope, where the parent merges
  it into the session tracer for that rank.

Requires the ``fork`` start method (fn/args/closures are inherited, not
pickled); rank *results* and lowercase-path objects do cross a pipe, so
they must be picklable; their bulk arrays ride a shm block under the job's
prefix instead (:func:`~repro.mpi.shm.dump_out_of_band`).
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import os
import pickle
import selectors
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mpi.arena import Arena, create_arena_segments, resolve_arena_bytes
from repro.mpi.exceptions import (
    AbortError,
    DeadlockError,
    DegradedRankLoss,
    MPIError,
    RankFailure,
)
from repro.mpi.faultplan import CrashRank, FaultPlan, StallRank
from repro.mpi.faultplan import DelayMessage, DropMessage, DuplicateMessage
from repro.mpi.network import Message
from repro.mpi.ops import ANY_SOURCE, ANY_TAG
from repro.mpi.shm import (
    FRAME_ARENA,
    FRAME_PICKLE,
    dump_out_of_band,
    load_out_of_band,
    pack_arena_message,
    sweep_job_blocks,
    unpack_arena_message,
)
from repro.mpi.transport import TransportEndpoint, matches
from repro.obs.metrics import MetricsRegistry, absorb_snapshot
from repro.obs.trace import NULL_TRACER, set_current_tracer

__all__ = ["ProcessJob", "ProcessNetwork"]

_JOB_COUNTER = itertools.count()


def _picklable_exc(exc: BaseException) -> BaseException:
    """Return *exc* if it survives a pickle round-trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return MPIError(f"{type(exc).__name__}: {exc}")


def _freeze_payload(payload: Any) -> Any:
    """Mark array payloads read-only after decode.

    Pickle rebuilds writable arrays; the thread backend hands receivers
    read-only frozen views, so align the aliasing contract here too.
    """
    if isinstance(payload, np.ndarray):
        payload.setflags(write=False)
    elif isinstance(payload, (tuple, list)) and payload and all(
        isinstance(a, np.ndarray) for a in payload
    ):
        for a in payload:
            a.setflags(write=False)
    return payload


class ProcessNetwork(TransportEndpoint):
    """Child-side transport endpoint: one per rank process.

    Duck-types :class:`~repro.mpi.network.Network` for everything ``Comm``
    and the drivers touch, but owns only its own rank's mailbox; peers are
    reached through outbound pipes and the parent-mediated abort channel.
    """

    def __init__(
        self,
        rank: int,
        nprocs: int,
        inbound: list,
        outbound: dict,
        ctrl_r,
        exit_w,
        heartbeats,
        op_counts,
        abort_flag,
        op_timeout: float,
        fault_plan: FaultPlan | None,
        tracer,
        shm_prefix: str,
        dead_flags=None,
        arena: Arena | None = None,
    ) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.op_timeout = op_timeout
        self.fault_plan = fault_plan
        self._inbound = inbound
        self._outbound = outbound
        self._ctrl_r = ctrl_r
        self._exit_w = exit_w
        self._heartbeats = heartbeats
        self._op_counts = op_counts
        self._abort_flag = abort_flag
        self._dead_flags = dead_flags
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._shm_prefix = f"{shm_prefix}r{rank}_"
        self._arena = arena
        self._cond = threading.Condition()
        self._mailbox: list[Message] = []
        self._next_seq = 0
        self._block_seq = itertools.count()
        self._op_count = 0
        self._send_count = 0
        self._crashed = False
        self._aborted: Optional[BaseException] = None
        self._receiver = threading.Thread(
            target=self._recv_loop, name=f"mpi-rank-{rank}-recv", daemon=True
        )
        self._receiver.start()

    # -------------------------------------------------------------- receiving

    def _recv_loop(self) -> None:
        """Drain inbound pipes into the local mailbox, forever.

        Runs for the life of the process so peers' eager sends always find
        a reader, even while the main thread is blocked in a collective or
        unwinding from an abort.  The selector is registered once — per
        message it costs one ``epoll_wait``, not a selector rebuild, which
        matters for the α term of the machine model.
        """
        sel = selectors.DefaultSelector()
        for conn in self._inbound:
            sel.register(conn, selectors.EVENT_READ, "data")
        sel.register(self._ctrl_r, selectors.EVENT_READ, "ctrl")
        live = len(self._inbound) + 1
        while live:
            try:
                ready = sel.select(timeout=1.0)
            except OSError:  # pragma: no cover - fds torn down at exit
                return
            for key, _events in ready:
                conn = key.fileobj
                if key.data == "ctrl":
                    try:
                        kind, data = conn.recv()
                    except (EOFError, OSError):
                        sel.unregister(conn)
                        live -= 1
                        continue
                    if kind == "abort":
                        self._set_aborted(data)
                    continue
                try:
                    frame = conn.recv_bytes()
                except (EOFError, OSError):
                    sel.unregister(conn)
                    live -= 1
                    continue
                msg = self._decode_frame(frame)
                with self._cond:
                    msg.seq = self._next_seq
                    self._next_seq += 1
                    self._mailbox.append(msg)
                    self._cond.notify_all()

    def _decode_frame(self, frame: bytes) -> Message:
        """Typed-frame dispatch: arena descriptor or pickled Message."""
        if frame and frame[0] == FRAME_ARENA:
            return unpack_arena_message(frame, self._arena)
        msg = load_out_of_band(memoryview(frame)[1:])
        msg.payload = _freeze_payload(msg.payload)
        return msg

    def _set_aborted(self, exc: BaseException) -> None:
        with self._cond:
            if self._aborted is None:
                self._aborted = exc
            self._cond.notify_all()

    # ------------------------------------------------------------------ abort

    def abort(self, exc: BaseException) -> None:
        """Report this rank's failure; the parent fans the abort out."""
        self._set_aborted(exc)
        try:
            self._exit_w.send(("abort", self.rank, _picklable_exc(exc)))
        except Exception:  # pragma: no cover - parent already gone
            pass

    @property
    def aborted(self) -> Optional[BaseException]:
        return self._aborted

    # ------------------------------------------------------------- dead ranks

    def mark_dead(self, rank: int) -> None:
        """Record that ``rank`` left the job in degraded mode (no abort).

        The flag lives in a shared array, so the master's next death sweep
        sees it without a pipe round-trip.
        """
        if self._dead_flags is not None and 0 <= rank < self.nprocs:
            self._dead_flags[rank] = 1

    def dead_ranks(self) -> frozenset[int]:
        """Global ranks that declared themselves lost (degraded mode)."""
        if self._dead_flags is None:
            return frozenset()
        return frozenset(r for r in range(self.nprocs) if self._dead_flags[r])

    def _check_abort(self) -> None:
        if self._aborted is None and self._abort_flag.value:
            # Defensive: flag observed before (or without) the control
            # message — synthesize the generic abort.
            self._aborted = MPIError("job aborted")
        if self._aborted is not None:
            raise AbortError(f"another rank failed: {self._aborted!r}")

    # ----------------------------------------------------------------- tracing

    def tracer_for(self, rank: int):
        """This rank's tracer; peers' tracers live in other processes."""
        if rank == self.rank:
            return self._tracer
        return NULL_TRACER

    # ------------------------------------------------------------------ faults

    def _pre_op(self, rank: int) -> None:
        """Heartbeat + fault hook — rank-local mirror of ``Network._pre_op``."""
        if rank != self.rank:
            return
        self._heartbeats[rank] = time.monotonic()
        self._op_count += 1
        self._op_counts[rank] = self._op_count
        op_index = self._op_count
        stall = 0.0
        failure: RankFailure | None = None
        fired: list[tuple[str, dict]] = []
        if self._crashed:
            failure = RankFailure(rank, op_index)
        elif self.fault_plan is not None:
            for ev in self.fault_plan.op_event(rank, op_index):
                if isinstance(ev, CrashRank):
                    self._crashed = True
                    failure = RankFailure(rank, op_index)
                    fired.append(("fault.crash", {"op_index": op_index}))
                elif isinstance(ev, StallRank):
                    stall += ev.seconds
                    fired.append(("fault.stall",
                                  {"op_index": op_index, "seconds": ev.seconds}))
        if fired and self._tracer.enabled:
            for name, attrs in fired:
                self._tracer.instant(name, cat="fault", **attrs)
        if stall > 0.0 and failure is None:
            time.sleep(stall)
        if failure is not None:
            raise failure

    def heartbeat_ages(self) -> list[float]:
        """Seconds since each rank's last MPI call, from the shared array."""
        now = time.monotonic()
        return [now - hb for hb in self._heartbeats]

    def op_count(self, rank: int) -> int:
        """MPI calls made by ``rank`` so far (shared-array mirror)."""
        return int(self._op_counts[rank])

    # ----------------------------------------------------------------- routing

    def post(self, msg: Message, acting: int | None = None) -> None:
        """Eager buffered send: local delivery or one pipe write."""
        if not (0 <= msg.dst < self.nprocs):
            raise MPIError(f"invalid destination rank {msg.dst} (nprocs={self.nprocs})")
        sender = msg.src if acting is None else acting
        self._pre_op(sender)
        self._check_abort()
        trc = self._tracer
        duplicate = False
        dropped = False
        delayed = 0.0
        if self.fault_plan is not None and sender == self.rank:
            self._send_count += 1
            ev = self.fault_plan.send_event(sender, self._send_count)
            if isinstance(ev, DropMessage):
                dropped = True
            elif isinstance(ev, DuplicateMessage):
                duplicate = True
            elif isinstance(ev, DelayMessage):
                msg.not_before = time.monotonic() + ev.seconds
                delayed = ev.seconds
        if not dropped:
            self._deliver(msg)
            if duplicate:
                self._deliver(Message(
                    src=msg.src, dst=msg.dst, tag=msg.tag, context=msg.context,
                    payload=msg.payload, not_before=msg.not_before,
                ))
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

    def _deliver(self, msg: Message) -> None:
        if msg.dst == self.rank:
            with self._cond:
                msg.seq = self._next_seq
                self._next_seq += 1
                self._mailbox.append(msg)
                self._cond.notify_all()
            return
        # Each delivery encodes independently so a duplicated send owns its
        # own arena slot (or shm block) — releases/unlinks are per delivery.
        frame = None
        arena = self._arena
        if arena is not None:
            overflows = arena.stats.overflows
            frame = pack_arena_message(msg, arena)
            if frame is None and arena.stats.overflows > overflows \
                    and self._tracer.enabled:
                self._tracer.instant("arena.overflow", cat="mpi",
                                     dst=msg.dst, tag=msg.tag)
        if frame is None:
            frame = bytes([FRAME_PICKLE]) + dump_out_of_band(
                msg, f"{self._shm_prefix}{next(self._block_seq)}")
        try:
            self._outbound[msg.dst].send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            # A closed pipe means the destination process exited.  If it
            # exited *failing*, the parent's abort broadcast is already on
            # its way but may not have reached this rank yet — give it a
            # grace window so peers report AbortError (thread-backend
            # semantics), not a spurious send failure.
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                self._check_abort()  # raises AbortError once notified
                time.sleep(0.01)
            self._check_abort()
            raise MPIError(
                f"rank {self.rank}: send to rank {msg.dst} failed: {exc!r}"
            ) from exc

    def probe(self, dst: int, context: int, source: int, tag: int) -> Optional[Message]:
        """Non-destructively return the first deliverable match, or ``None``."""
        with self._cond:
            self._check_abort()
            now = time.monotonic()
            for msg in self._mailbox:
                if matches(msg, context, source, tag) and msg.not_before <= now:
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
        """Mailbox scan with the exact semantics of ``Network.match``."""
        budget = timeout if timeout is not None else (self.op_timeout if block else 0.0)
        self._pre_op(dst)
        deadline = time.monotonic() + budget
        trc = self._tracer
        with self._cond:
            while True:
                self._check_abort()
                now = time.monotonic()
                box = self._mailbox
                next_ready: float | None = None
                for i, msg in enumerate(box):
                    if matches(msg, context, source, tag):
                        if msg.not_before <= now:
                            del box[i]
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
                # Cap the wait so a lost control message can't hide the
                # shared abort flag for long.
                wait_for = min(remaining, 0.25)
                if next_ready is not None:
                    wait_for = min(wait_for, max(next_ready - now, 0.001))
                self._cond.wait(timeout=wait_for)

    # ---------------------------------------------------------------- contexts

    def allocate_context(self, key: tuple) -> int:
        """Derive the context id for ``key`` without cross-rank state.

        The thread backend hands out ids from a shared counter; processes
        have no shared counter, but every member of a context-creating
        collective computes the same ``key``, so a stable hash of the key
        is just as collectively-agreed.  Ids never collide with the world
        context (0) and collide with each other only at 2^-63 odds.
        """
        digest = hashlib.blake2b(
            pickle.dumps(key, protocol=4), digest_size=8).digest()
        return int.from_bytes(digest, "big") >> 1 or 1

    # ------------------------------------------------------------------ stats

    def pending_count(self, dst: int | None = None) -> int:
        """Undelivered messages in *this rank's* mailbox (peers are remote)."""
        with self._cond:
            if dst is not None and dst != self.rank:
                return 0
            return len(self._mailbox)

    @property
    def arena_enabled(self) -> bool:
        """True when bulk payloads ride the shared arena on this rank."""
        return self._arena is not None

    def arena_stats(self) -> dict:
        """This rank's arena counters (empty dict when the arena is off)."""
        return self._arena.stats.snapshot() if self._arena is not None else {}


def _child_main(
    rank: int,
    nprocs: int,
    fn: Callable,
    args: tuple,
    kwargs: dict,
    inbound: list,
    outbound: dict,
    ctrl_r,
    exit_w,
    heartbeats,
    op_counts,
    abort_flag,
    op_timeout: float,
    fault_plan: FaultPlan | None,
    trace,
    shm_prefix: str,
    arena_bytes: int = 0,
    dead_flags=None,
) -> None:
    """Entry point of one forked rank process."""
    from repro.mpi.comm import Comm

    tracer = trace.tracer(rank) if trace is not None else NULL_TRACER
    if tracer.enabled:
        # The fork copied the session's history (earlier supervised
        # attempts).  Start from empty buffers so the exit envelope ships a
        # pure delta and nothing is double-counted when the parent merges.
        tracer.events = []
        tracer.metrics = MetricsRegistry()
        events_base_seq = tracer._seq
    fired_base = fault_plan.fired_count() if fault_plan is not None else 0
    arena = (Arena(shm_prefix, rank, nprocs, arena_bytes)
             if arena_bytes > 0 and nprocs > 1 else None)
    net = ProcessNetwork(
        rank, nprocs, inbound, outbound, ctrl_r, exit_w,
        heartbeats, op_counts, abort_flag, op_timeout, fault_plan, tracer,
        shm_prefix, dead_flags, arena,
    )
    comm = Comm(net, rank, list(range(nprocs)), context=0)
    set_current_tracer(tracer)
    if tracer.enabled:
        tracer.begin("rank", cat="lifecycle", nprocs=nprocs)
    result: Any = None
    error: BaseException | None = None
    try:
        result = fn(comm, *args, **kwargs)
    except AbortError as exc:
        error = exc
        if tracer.enabled:
            tracer.instant("rank.abort", cat="lifecycle", error=repr(exc))
    except DegradedRankLoss as exc:
        # This rank died mid-map but the master routed around it: record
        # the loss, never abort — survivors are finishing the job.
        error = exc
        if tracer.enabled:
            tracer.instant("rank.degraded", cat="lifecycle", error=repr(exc))
    except BaseException as exc:  # noqa: BLE001 - must propagate anything
        error = exc
        if tracer.enabled:
            tracer.instant("rank.error", cat="lifecycle", error=repr(exc))
        net.abort(exc)
    finally:
        if tracer.enabled:
            tracer.unwind()
        set_current_tracer(None)
    envelope = {
        "result": result,
        "error": error,
        "fired": fault_plan.fired_since(fired_base) if fault_plan is not None else [],
        "op_count": net._op_count,
        "trace": None,
        "arena": arena.stats.snapshot() if arena is not None else None,
    }
    if tracer.enabled and arena is not None:
        # Ship the per-rank totals through the metrics registry too, so
        # trace consumers see hit/overflow/peak-residency without having
        # to pay per-send counter bumps on the hot path.
        stats = arena.stats
        tracer.metrics.counter("arena.sends").inc(stats.sends)
        tracer.metrics.counter("arena.send_bytes").inc(stats.send_bytes)
        tracer.metrics.counter("arena.overflows").inc(stats.overflows)
        tracer.metrics.counter("arena.recv_views").inc(stats.recv_views)
        tracer.metrics.counter("arena.peak_resident_bytes").inc(
            stats.peak_resident_bytes)
    if tracer.enabled:
        envelope["trace"] = {
            "events": tracer.events,
            "seq": tracer._seq,
            "base_seq": events_base_seq,
            "last_ts": tracer._last_ts,
            "dropped": tracer.dropped_events,
            "spilled": tracer.spilled_events,
            "metrics": tracer.metrics.snapshot(),
        }
    block_name = f"{shm_prefix}r{rank}_exit"  # carries the result's bulk arrays
    try:
        frame = pickle.dumps(("exit", rank, dump_out_of_band(envelope, block_name)))
    except Exception as exc:
        envelope["result"] = None
        envelope["error"] = _picklable_exc(error) if error is not None else MPIError(
            f"rank {rank}: result of type "
            f"{type(result).__name__} is not picklable: {exc}")
        frame = pickle.dumps(("exit", rank, dump_out_of_band(envelope, block_name)))
    try:
        exit_w.send_bytes(frame)
    except Exception:  # pragma: no cover - parent already gone
        pass


class ProcessJob:
    """Parent-side coordinator for one multi-process SPMD job.

    Mirrors the surface of the thread :class:`~repro.mpi.runtime.SpmdJob`
    engine: ``run(join_timeout)`` returns per-rank results or raises the
    primary error; ``errors`` lists per-rank terminal exceptions;
    ``heartbeat_ages``/``op_count`` read the shared telemetry.
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
        arena: bool | None = None,
        arena_mb: int | None = None,
    ) -> None:
        if nprocs < 1:
            raise MPIError(f"nprocs must be >= 1, got {nprocs}")
        ctx = mp.get_context("fork")
        self.nprocs = nprocs
        self.op_timeout = (op_timeout if op_timeout is not None
                           else TransportEndpoint.DEFAULT_OP_TIMEOUT)
        self.fault_plan = fault_plan
        self.trace = trace
        self._shm_prefix = f"reprompi{os.getpid()}j{next(_JOB_COUNTER)}_"
        # Single-rank jobs have no pipes, so no arena either.
        self.arena_bytes = resolve_arena_bytes(arena, arena_mb) if nprocs > 1 else 0
        self._arena_rank_stats: list[Optional[dict]] = [None] * nprocs
        self._results: list[Any] = [None] * nprocs
        self._errors: list[Optional[BaseException]] = [None] * nprocs
        self._abort_exc: Optional[BaseException] = None
        now = time.monotonic()
        self._heartbeats = ctx.Array("d", [now] * nprocs, lock=False)
        self._op_counts = ctx.Array("q", [0] * nprocs, lock=False)
        self._abort_flag = ctx.Value("i", 0, lock=False)
        self._dead_flags = ctx.Array("b", [0] * nprocs, lock=False)
        # Data mesh: reader[j][i] / writer[i][j] move traffic i -> j.
        readers: list[list] = [[None] * nprocs for _ in range(nprocs)]
        writers: list[dict] = [dict() for _ in range(nprocs)]
        for i in range(nprocs):
            for j in range(nprocs):
                if i == j:
                    continue
                r, w = ctx.Pipe(duplex=False)
                readers[j][i] = r
                writers[i][j] = w
        self._ctrl_w = []
        self._exit_r = []
        self._procs = []
        for rank in range(nprocs):
            ctrl_r, ctrl_w = ctx.Pipe(duplex=False)
            exit_r, exit_w = ctx.Pipe(duplex=False)
            self._ctrl_w.append(ctrl_w)
            self._exit_r.append(exit_r)
            inbound = [c for c in readers[rank] if c is not None]
            self._procs.append(ctx.Process(
                target=_child_main,
                args=(rank, nprocs, fn, tuple(args), dict(kwargs or {}),
                      inbound, writers[rank], ctrl_r, exit_w,
                      self._heartbeats, self._op_counts, self._abort_flag,
                      self.op_timeout, fault_plan, trace, self._shm_prefix,
                      self.arena_bytes, self._dead_flags),
                name=f"mpi-rank-{rank}",
                daemon=True,
            ))

    # ----------------------------------------------------------------- control

    def _broadcast_abort(self, exc: BaseException) -> None:
        if self._abort_exc is None:
            self._abort_exc = exc
        self._abort_flag.value = 1
        safe = _picklable_exc(exc)
        for w in self._ctrl_w:
            try:
                w.send(("abort", safe))
            except Exception:  # pragma: no cover - child already gone
                pass

    def abort(self, exc: BaseException) -> None:
        """Parent-initiated abort (join-budget blowouts)."""
        self._broadcast_abort(exc)

    def heartbeat_ages(self) -> list[float]:
        """Seconds since each rank's last MPI call (shared-array read)."""
        now = time.monotonic()
        return [now - hb for hb in self._heartbeats]

    def op_count(self, rank: int) -> int:
        return int(self._op_counts[rank])

    def dead_ranks(self) -> frozenset[int]:
        """Ranks lost in degraded mode (shared-array read)."""
        return frozenset(
            r for r in range(self.nprocs) if self._dead_flags[r])

    def arena_stats(self) -> dict:
        """Job-wide arena counters aggregated over rank exit envelopes.

        Counts are summed; ``peak_resident_bytes`` reports the worst
        single rank (per-rank rings are independent budgets).  Empty when
        the arena was off or no envelope arrived.
        """
        totals: dict = {}
        for stats in self._arena_rank_stats:
            if not stats:
                continue
            for name, value in stats.items():
                if name == "peak_resident_bytes":
                    totals[name] = max(totals.get(name, 0), value)
                else:
                    totals[name] = totals.get(name, 0) + value
        return totals

    # ------------------------------------------------------------------- merge

    def _absorb_exit(self, rank: int, envelope: dict) -> None:
        self._results[rank] = envelope["result"]
        self._errors[rank] = envelope["error"]
        self._arena_rank_stats[rank] = envelope.get("arena")
        if self.fault_plan is not None and envelope["fired"]:
            self.fault_plan.absorb_fired(envelope["fired"])
        shipped = envelope["trace"]
        if self.trace is not None and shipped is not None:
            trc = self.trace.tracer(rank)
            trc.events.extend(shipped["events"])
            trc._seq = max(trc._seq, shipped["seq"])
            trc._last_ts = max(trc._last_ts, shipped["last_ts"])
            trc.dropped_events += shipped["dropped"]
            trc.spilled_events += shipped["spilled"]
            absorb_snapshot(trc.metrics, shipped["metrics"])

    # --------------------------------------------------------------------- run

    def start(self) -> None:
        """Fork all ranks without collecting them (resident-service mode).

        Pair with :meth:`wait`; one-shot callers use :meth:`run`.
        """
        if self.arena_bytes:
            # Segments must exist before fork so children attach by name;
            # they share the job prefix, so the sweep below reclaims them
            # (and any outstanding slots) even after an abnormal teardown.
            create_arena_segments(self._shm_prefix, self.nprocs, self.arena_bytes)
        for p in self._procs:
            p.start()

    def run(self, join_timeout: float | None = None) -> list[Any]:
        """Fork all ranks, collect exit envelopes, return per-rank results.

        Same failure semantics as the thread engine: the first *primary*
        error is raised (AbortError fallout is suppressed in its favour)
        and a job past the join budget is aborted with a stall report
        naming the ranks whose heartbeats went stale.
        """
        self.start()
        return self.wait(join_timeout)

    def wait(self, join_timeout: float | None = None) -> list[Any]:
        """Collect a :meth:`start`-ed job's exit envelopes (see :meth:`run`).

        The join budget runs from this call, not from :meth:`start`, so a
        resident session that served jobs for hours still gets the full
        budget to drain its ranks after the shutdown sentinel.
        """
        budget = join_timeout if join_timeout is not None else self.op_timeout * 4
        deadline = time.monotonic() + budget
        try:
            self._collect(deadline, budget)
        finally:
            for p in self._procs:
                p.join(timeout=5.0)
            for p in self._procs:
                if p.is_alive():  # pragma: no cover - hard-stuck child
                    p.terminate()
                    p.join(timeout=5.0)
            sweep_job_blocks(self._shm_prefix)
        primary = next(
            (e for e in self._errors
             if e is not None and not isinstance(e, (AbortError, DegradedRankLoss))),
            None,
        )
        if primary is not None:
            raise primary
        collateral = next(
            (e for e in self._errors if isinstance(e, AbortError)), None)
        if collateral is not None:
            raise collateral
        # Only DegradedRankLoss left (if anything): the job completed
        # degraded — survivors' results are valid, lost ranks stay None.
        return self._results

    def _collect(self, deadline: float, budget: float) -> None:
        pending = {conn: rank for rank, conn in enumerate(self._exit_r)}
        done = [False] * self.nprocs
        while not all(done):
            if time.monotonic() >= deadline:
                ages = self.heartbeat_ages()
                stalled = [r for r, age in enumerate(ages) if age > min(ages) + 1.0]
                alive = next(
                    (f"mpi-rank-{r}" for r in range(self.nprocs) if not done[r]),
                    "mpi-rank-?")
                err = MPIError(
                    f"SPMD job did not finish within {budget:.0f}s ({alive} alive; "
                    f"stalled ranks by heartbeat: {stalled or 'indeterminate'})"
                )
                self._broadcast_abort(err)
                # Grace window: let aborted ranks ship their envelopes so
                # errors/trace stay as complete as possible.
                grace = time.monotonic() + 5.0
                while not all(done) and time.monotonic() < grace:
                    self._drain(pending, done, timeout=0.25)
                raise err
            self._drain(pending, done, timeout=0.25)

    def _drain(self, pending: dict, done: list, timeout: float) -> None:
        if not pending:
            return
        try:
            ready = mp_connection.wait(list(pending), timeout=timeout)
        except OSError:  # pragma: no cover - torn-down fds
            return
        for conn in ready:
            rank = pending[conn]
            try:
                env = conn.recv()
            except (EOFError, OSError):
                del pending[conn]
                if not done[rank]:
                    exitcode = self._procs[rank].exitcode
                    err = MPIError(
                        f"rank {rank} process died without reporting "
                        f"(exitcode {exitcode})")
                    self._errors[rank] = err
                    done[rank] = True
                    self._broadcast_abort(err)
                continue
            kind = env[0]
            if kind == "abort":
                _, _rank, exc = env
                self._broadcast_abort(exc)
            elif kind == "exit":
                _, _rank, envelope = env
                self._absorb_exit(rank, load_out_of_band(envelope))
                done[rank] = True
                del pending[conn]

    @property
    def errors(self) -> list[Optional[BaseException]]:
        """Per-rank terminal exceptions (None for clean ranks)."""
        return list(self._errors)
