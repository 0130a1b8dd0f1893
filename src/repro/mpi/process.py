"""The process backend: every rank is a real OS process.

The thread backend (:class:`~repro.mpi.network.Network`) serialises all
compute on the GIL, so "parallel" shuffles degrade as ranks are added.
This backend forks one process per rank so map/convert/reduce compute
runs on real cores.  Matching, the fault gate, contexts and telemetry are
the shared message layer of :mod:`repro.mpi.transport`; what this module
owns is how a message crosses a process boundary and how ranks start:

- **data plane** — an N×N mesh of unidirectional pipes, one frame per
  message (:mod:`repro.mpi.shm`): a fixed-width header and the payload's
  protocol-5 pickle, its array buffers inline under 32 KiB, else written
  once into a per-message shm block.  The receiver decodes over read-only
  views of the buffers wherever they are.
- **delivery** — each child runs a daemon *receiver thread* draining its
  inbound pipes into its rank's :class:`~repro.mpi.transport.Mailbox`.
  The receiver thread always drains, so eager sends cannot deadlock on
  pipe backpressure while the main thread blocks in a collective.
- **abort** — a failing child notifies the parent over its exit pipe; the
  parent sets a shared flag and writes a wakeup down every child's
  control pipe, so blocked peers raise
  :class:`~repro.mpi.exceptions.AbortError` promptly instead of burning
  the op timeout (MPI_Abort semantics, same as threads).
- **telemetry** — the gate's heartbeats and op counts, and the dead
  flags, are shared ``mp.Array`` objects, so the parent reads them as the
  thread backend's supervisor does.
- **faults** — every child consults its fork-copied
  :class:`~repro.mpi.faultplan.FaultPlan`; fired events return in the
  exit envelope and are absorbed into the parent's plan, preserving the
  fire-once-per-plan contract (and therefore identical seeded event
  traces) across backends and supervised attempts.
- **tracing** — tracer objects cannot be shared across processes; each
  child starts its tracer with a fresh event buffer and ships the delta
  home in its exit envelope, where the parent merges it into the session
  tracer for that rank.

Requires the ``fork`` start method (fn/args/closures are inherited, not
pickled); rank *results* cross the exit pipe in the same frame, their bulk
arrays in a shm block under the job's prefix, copied out by the parent.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import selectors
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Optional

from repro.mpi.exceptions import MPIError
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import run_rank
from repro.mpi.shm import pack_frame, sweep_job_blocks, unpack_frame
from repro.mpi.transport import (
    Mailbox,
    Message,
    RankTelemetry,
    TransportEndpoint,
    encode,
    snapshot,
)
from repro.obs.trace import NULL_TRACER

__all__ = ["ProcessJob", "ProcessNetwork"]

_JOB_COUNTER = itertools.count()


def _picklable_exc(exc: BaseException) -> BaseException:
    """Return *exc* if it survives a pickle round-trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return MPIError(f"{type(exc).__name__}: {exc}")


class ProcessNetwork(TransportEndpoint):
    """Child-side transport endpoint: one per rank process.

    Holds only its own rank's mailbox; peers are reached through outbound
    pipes and the parent-mediated abort channel.
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
        dead,
    ) -> None:
        tracers = [NULL_TRACER] * nprocs
        tracers[rank] = tracer
        mailboxes: list[Mailbox | None] = [None] * nprocs
        mailboxes[rank] = self._inbox = Mailbox()
        super().__init__(nprocs, op_timeout, fault_plan, tracers, mailboxes,
                         heartbeats, op_counts, dead)
        self.rank = rank
        self._inbound = inbound
        self._outbound = outbound
        self._ctrl_r = ctrl_r
        self._exit_w = exit_w
        self._abort_flag = abort_flag
        self._shm_prefix = f"{shm_prefix}r{rank}_"
        self._block_seq = itertools.count()
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
                        # Local only: the parent already fanned it out.
                        TransportEndpoint.abort(self, data)
                    continue
                try:
                    frame = conn.recv_bytes()
                except (EOFError, OSError):
                    sel.unregister(conn)
                    live -= 1
                    continue
                self._inbox.put(unpack_frame(frame))

    # ------------------------------------------------------------------ abort

    def abort(self, exc: BaseException) -> None:
        """Fail this rank, then report to the parent, which fans the abort out."""
        super().abort(exc)
        try:
            self._exit_w.send(("abort", self.rank, _picklable_exc(exc)))
        except Exception:  # pragma: no cover - parent already gone
            pass

    def _check_abort(self) -> None:
        if self._aborted is None and self._abort_flag.value:
            # Defensive: flag observed before (or without) the control
            # message — synthesize the generic abort.
            self._aborted = MPIError("job aborted")
        super()._check_abort()

    # ----------------------------------------------------------------- routing

    def _deliver(self, msg: Message, wire) -> None:
        if msg.dst == self.rank:
            msg.payload = snapshot(wire)
            self._inbox.put(msg)
            return
        # Each delivery frames independently so a duplicated send owns its
        # own shm block — unlinks are per delivery.
        frame = pack_frame(msg, wire, f"{self._shm_prefix}{next(self._block_seq)}")
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
    dead,
) -> None:
    """Entry point of one forked rank process."""
    tracer = trace.tracer(rank) if trace is not None else NULL_TRACER
    if tracer.enabled:
        # The fork copied the session's history (earlier supervised
        # attempts).  Start from empty buffers so the exit envelope ships a
        # pure delta and nothing is double-counted when the parent merges.
        tracer.events = []
        events_base_seq = tracer._seq
    fired_base = fault_plan.fired_count() if fault_plan is not None else 0
    net = ProcessNetwork(
        rank, nprocs, inbound, outbound, ctrl_r, exit_w,
        heartbeats, op_counts, abort_flag, op_timeout, fault_plan, tracer,
        shm_prefix, dead,
    )
    result, error = run_rank(net, rank, fn, args, kwargs)
    envelope = {
        "result": result,
        "error": error,
        "fired": fault_plan.fired_since(fired_base) if fault_plan is not None else [],
        "trace": None,
    }
    if tracer.enabled:
        envelope["trace"] = {
            "events": tracer.events,
            "seq": tracer._seq,
            "base_seq": events_base_seq,
            "last_ts": tracer._last_ts,
            "dropped": tracer.dropped_events,
            "spilled": tracer.spilled_events,
        }
    try:
        wire = encode(envelope)
    except Exception as exc:
        envelope["result"] = None
        envelope["error"] = _picklable_exc(error) if error is not None else MPIError(
            f"rank {rank}: result of type "
            f"{type(result).__name__} is not picklable: {exc}")
        wire = encode(envelope)
    # The result's bulk arrays ride a block named for the exit.
    frame = pickle.dumps(("exit", rank, pack_frame(
        Message(src=rank, dst=rank, tag=0, context=0, payload=None), wire,
        f"{shm_prefix}r{rank}_exit")))
    try:
        exit_w.send_bytes(frame)
    except Exception:  # pragma: no cover - parent already gone
        pass


class ProcessJob(RankTelemetry):
    """Parent-side coordinator: starts one forked process per rank.

    :class:`~repro.mpi.runtime.SpmdJob` drives it (``start``, ``join``,
    ``close``) and applies the one join rule to ``results``/``errors``;
    ``heartbeat_ages``/``op_count``/``dead_ranks`` read the shared
    telemetry, and ``abort`` fans a parent-side failure out to every rank.
    """

    def __init__(
        self,
        nprocs: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        op_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        trace=None,
    ) -> None:
        ctx = mp.get_context("fork")
        self.nprocs = nprocs
        self.op_timeout = (op_timeout if op_timeout is not None
                           else TransportEndpoint.DEFAULT_OP_TIMEOUT)
        self.fault_plan = fault_plan
        self.trace = trace
        self._shm_prefix = f"reprompi{os.getpid()}j{next(_JOB_COUNTER)}_"
        self.results: list[Any] = [None] * nprocs
        self.errors: list[Optional[BaseException]] = [None] * nprocs
        self._abort_exc: Optional[BaseException] = None
        now = time.monotonic()
        self._heartbeats = ctx.Array("d", [now] * nprocs, lock=False)
        self._op_counts = ctx.Array("q", [0] * nprocs, lock=False)
        self._abort_flag = ctx.Value("i", 0, lock=False)
        self._dead = ctx.Array("b", [0] * nprocs, lock=False)
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
        self._pending: dict = {}  # exit pipe -> rank, until its envelope lands
        self._procs = []
        for rank in range(nprocs):
            ctrl_r, ctrl_w = ctx.Pipe(duplex=False)
            exit_r, exit_w = ctx.Pipe(duplex=False)
            self._ctrl_w.append(ctrl_w)
            self._pending[exit_r] = rank
            inbound = [c for c in readers[rank] if c is not None]
            self._procs.append(ctx.Process(
                target=_child_main,
                args=(rank, nprocs, fn, args, kwargs,
                      inbound, writers[rank], ctrl_r, exit_w,
                      self._heartbeats, self._op_counts, self._abort_flag,
                      self.op_timeout, fault_plan, trace, self._shm_prefix,
                      self._dead),
                name=f"mpi-rank-{rank}",
                daemon=True,
            ))

    # ----------------------------------------------------------------- control

    def abort(self, exc: BaseException) -> None:
        """Set the shared flag and wake every rank with an abort message."""
        if self._abort_exc is None:
            self._abort_exc = exc
        self._abort_flag.value = 1
        safe = _picklable_exc(exc)
        for w in self._ctrl_w:
            try:
                w.send(("abort", safe))
            except Exception:  # pragma: no cover - child already gone
                pass

    # ------------------------------------------------------------------- merge

    def _absorb_exit(self, rank: int, envelope: dict) -> None:
        self.results[rank] = envelope["result"]
        self.errors[rank] = envelope["error"]
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

    # --------------------------------------------------------------- lifetime

    def start(self) -> None:
        """Fork every rank."""
        for p in self._procs:
            p.start()

    def join(self, deadline: float) -> Optional[int]:
        """Collect exit envelopes until all ranks reported or ``deadline``.

        Returns the lowest rank still running, or ``None``.
        """
        while self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return next(iter(self._pending.values()))
            self._drain(min(0.25, remaining))
        return None

    def close(self) -> None:
        """Reap every process and sweep the job's shared memory.

        After an abort, ranks get a grace window to ship their envelopes,
        so ``errors`` and the trace stay as complete as possible.
        """
        self.join(time.monotonic() + 5.0)
        for p in self._procs:
            p.join(timeout=5.0)
        for p in self._procs:
            if p.is_alive():  # pragma: no cover - hard-stuck child
                p.terminate()
                p.join(timeout=5.0)
        sweep_job_blocks(self._shm_prefix)

    def _drain(self, timeout: float) -> None:
        try:
            ready = mp_connection.wait(list(self._pending), timeout=timeout)
        except OSError:  # pragma: no cover - torn-down fds
            return
        for conn in ready:
            rank = self._pending[conn]
            try:
                env = conn.recv()
            except (EOFError, OSError):
                del self._pending[conn]
                err = MPIError(
                    f"rank {rank} process died without reporting "
                    f"(exitcode {self._procs[rank].exitcode})")
                self.errors[rank] = err
                self.abort(err)
                continue
            kind = env[0]
            if kind == "abort":
                _, _rank, exc = env
                self.abort(exc)
            elif kind == "exit":
                _, _rank, envelope = env
                self._absorb_exit(rank, unpack_frame(envelope, owned=True).payload)
                del self._pending[conn]
