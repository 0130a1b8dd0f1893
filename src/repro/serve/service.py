"""The query service front door: submit → coalesce → dispatch → resolve.

:class:`QueryService` sits between callers and one
:class:`~repro.serve.session.ResidentBlastSession`:

- :meth:`QueryService.submit` admits each query (the service is open,
  backpressure is off, fewer than ``max_pending`` queries are unresolved)
  and parks it in the coalescer's FIFO; the returned :class:`QueryFuture`
  resolves to exactly the outfmt-6 bytes a standalone ``run_mrblast``
  would have produced for that query.
- :meth:`QueryService.pump` is the single scheduling step: drain result
  envelopes and resolve futures, then flush due batches from the coalescer
  (arrival order; at once when no job is in flight) and dispatch them to
  the rank session.  All timing decisions read the injected
  ``clock``, so tests drive the whole service on virtual time.
- A session that dies (non-degraded rank failure) is restarted and every
  *unresolved* in-flight submission is resubmitted; the optional
  :class:`DeliveryLedger` additionally persists delivered results so a
  restarted *service* never appends a query's results to its sink twice.

Backpressure: the rank session reports the exact columnar-KV ``nbytes``
each batch materialised; the service keeps an EWMA of bytes per query and
engages the high/low watermark gauge when the estimated working set of
everything admitted-but-unresolved approaches the ranks' ``memsize``
budget.

Counts, the submit-to-deliver latency and the batch sizes go into
:attr:`QueryService.metrics`; :attr:`QueryService.stats` reads the counts
back by their short names, and :meth:`QueryService.rank_metrics` asks the
running ranks for theirs.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

from repro.bio.seq import SeqRecord
from repro.core.checkpoint import atomic_write_json, read_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.serve.admission import (
    HIGH_WATERMARK, LOW_WATERMARK, AdmissionError, BackpressureGauge)
from repro.serve.coalescer import Coalescer, QueryBatch, Submission
from repro.serve.session import BlockJob, BlockResult, ResidentBlastSession, ServeConfig

__all__ = ["QueryFuture", "DeliveryLedger", "QueryService"]

#: the service's ``serve.<name>`` counters, by the names :attr:`QueryService.stats` uses
_COUNTS = ("submitted", "delivered", "batches", "rejected", "restarts",
           "degraded_batches", "backpressure_engages", "resubmitted")

#: histogram bounds of ``serve.batch_size`` (queries per dispatched job)
_BATCH_BOUNDS = (1, 2, 4, 8, 16, 32, 64)


class QueryFuture:
    """Handle on one submitted query's eventual result bytes."""

    def __init__(self, submission: Submission) -> None:
        self.submission = submission
        self._event = threading.Event()
        self._result: bytes | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """True once the future holds a result or an error."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> bytes:
        """Block until resolved; return the per-query outfmt-6 bytes.

        Queries with no surviving hits resolve to ``b""`` — the same
        content a standalone run would have contributed for them.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(f"query {self.submission.query.id!r} not resolved in time")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self) -> BaseException | None:
        """The rejection error, if the future was rejected."""
        return self._error

    def _resolve(self, data: bytes) -> None:
        if not self._event.is_set():
            self._result = data
            self._event.set()

    def _reject(self, exc: BaseException) -> None:
        if not self._event.is_set():
            self._error = exc
            self._event.set()


class DeliveryLedger:
    """Exactly-once delivery journal: sink offsets committed per query.

    Results append to ``sink_path``; after each append the ledger commits
    ``{query_id: [offset, length]}`` atomically.  A service restarted over
    the same ledger recognises already-delivered queries, serves their
    bytes back from the sink and never appends them again — the
    no-duplicates half of checkpoint resume.  A crash *between* the sink
    append and the ledger commit leaves orphaned bytes past the last
    committed offset; reopening the ledger truncates the sink back to that
    offset, so the sink itself — not just ledger reads — stays exactly-once.
    """

    def __init__(self, path: str, sink_path: str) -> None:
        self.path = path
        self.sink_path = sink_path
        self._entries: dict[str, list[int]] = {}
        if os.path.exists(path):
            data = read_json(path)
            if data:
                self._entries = {k: list(v) for k, v in data.get("entries", {}).items()}
        committed_end = max(
            (offset + length for offset, length in self._entries.values()),
            default=0)
        if not os.path.exists(sink_path):
            open(sink_path, "wb").close()
        elif os.path.getsize(sink_path) > committed_end:
            with open(sink_path, "r+b") as fh:
                fh.truncate(committed_end)

    def delivered(self, query_id: str) -> bool:
        """True when this query's results are already in the sink."""
        return query_id in self._entries

    def record(self, query_id: str, data: bytes) -> None:
        """Append one query's bytes to the sink and commit the offset."""
        if query_id in self._entries:
            return
        with open(self.sink_path, "ab") as fh:
            offset = fh.tell()
            fh.write(data)
        self._entries[query_id] = [offset, len(data)]
        atomic_write_json(self.path, {"entries": self._entries})

    def read(self, query_id: str) -> bytes:
        """Re-read a delivered query's bytes from the sink."""
        offset, length = self._entries[query_id]
        with open(self.sink_path, "rb") as fh:
            fh.seek(offset)
            return fh.read(length)

    def __len__(self) -> int:
        return len(self._entries)


class QueryService:
    """Always-on BLAST front door over one resident rank session.

    ``clock`` supplies every queue/batch/admission timestamp (inject a
    deterministic tick clock for tests);
    ``tracer`` receives ``serve.submit`` / ``serve.batch`` /
    ``serve.backpressure`` instants; ``session_factory`` builds (and
    starts) replacement sessions after a crash — it defaults to plain
    ``ResidentBlastSession(cfg).start()``.

    The service is thread-safe: one re-entrant lock serialises
    :meth:`submit`, :meth:`pump`, :meth:`flush` and :meth:`close`, so
    callers may submit from any thread while another thread pumps.  A pump
    that waits does so with the lock released.  A session that fails more
    than ``max_restarts`` times ends the service: the pump that finds it
    rejects every outstanding future with the failure, closes intake and
    raises.
    """

    def __init__(
        self,
        cfg: ServeConfig,
        clock: Callable[[], float] = time.monotonic,
        tracer=None,
        session_factory: Callable[[], ResidentBlastSession] | None = None,
        ledger: DeliveryLedger | None = None,
        max_restarts: int = 3,
    ) -> None:
        self.cfg = cfg
        self._clock = clock
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._factory = session_factory or (lambda: ResidentBlastSession(cfg).start())
        self._ledger = ledger
        self.max_restarts = max_restarts
        self._coalescer = Coalescer(max_batch=cfg.max_batch, max_delay=cfg.max_delay)
        budget = cfg.memsize * max(cfg.nprocs, 1)
        self._gauge = BackpressureGauge(
            high_bytes=int(budget * HIGH_WATERMARK),
            low_bytes=int(budget * LOW_WATERMARK),
        )
        self._session: ResidentBlastSession | None = None
        self._futures: dict[int, QueryFuture] = {}
        self._inflight: dict[int, tuple[Submission, ...]] = {}
        self._next_seq = 0
        self._next_job_id = 0
        self._closed = False
        self._bytes_per_query = 0.0
        self._lock = threading.RLock()
        #: set by submit(): ends an idle pump's wait at once
        self._wake = threading.Event()
        #: the service's own record (names in :mod:`repro.obs.metrics`)
        self.metrics = MetricsRegistry()
        self._count = {name: self.metrics.counter(f"serve.{name}") for name in _COUNTS}
        self._latency = self.metrics.histogram("serve.latency_s")
        self._batch_size = self.metrics.histogram("serve.batch_size", _BATCH_BOUNDS)

    @property
    def stats(self) -> dict[str, int]:
        """The service's counts by short name (``"batches"``, ...), read
        off :attr:`metrics`."""
        return {name: int(counter.value) for name, counter in self._count.items()}

    def rank_metrics(self, timeout: float = 30.0) -> list[dict | None]:
        """Every resident rank's metrics snapshot, from the running session
        (see :meth:`ResidentBlastSession.rank_metrics`)."""
        with self._lock:
            session = self._ensure_session()
        return session.rank_metrics(timeout)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "QueryService":
        """Bring the rank session up."""
        if self._session is None:
            self._session = self._factory()
        return self

    def _end(self, exc: BaseException) -> None:
        """Close intake and reject every outstanding future with ``exc``."""
        self._closed = True
        for fut in self._futures.values():
            fut._reject(exc)
        self._futures.clear()
        self._inflight.clear()

    def close(self, timeout: float = 60.0) -> None:
        """Stop intake, shut the session down, reject unresolved futures."""
        with self._lock:
            if self._session is not None:
                try:
                    if not self._session.failed:
                        self._session.stop(timeout)
                except BaseException:
                    pass
                self._session = None
            self._end(AdmissionError("closed", "service shut down"))

    # -- intake --------------------------------------------------------

    def _unresolved(self) -> int:
        return len(self._futures)

    def _estimate_bytes(self) -> int:
        return int(self._unresolved() * self._bytes_per_query)

    def submit(self, query: SeqRecord) -> QueryFuture:
        """Admit one query; returns its future or raises AdmissionError."""
        with self._lock:
            now = self._clock()
            if self._closed:
                self._count["rejected"].inc()
                raise AdmissionError("closed", "service is shut down")
            if self._gauge.engaged:
                self._count["rejected"].inc()
                raise AdmissionError(
                    "backpressure",
                    f"KV working-set estimate {self._gauge.last_estimate} >= "
                    f"{self._gauge.high_bytes}")
            if self._unresolved() >= self.cfg.max_pending:
                self._count["rejected"].inc()
                raise AdmissionError(
                    "capacity", f"{self._unresolved()}/{self.cfg.max_pending} pending")
            sub = Submission(seq=self._next_seq, query=query, submitted_at=now)
            self._next_seq += 1
            fut = QueryFuture(sub)
            self._futures[sub.seq] = fut
            self._coalescer.add(sub)
            self._count["submitted"].inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "serve.submit", cat="serve", seq=sub.seq,
                    query=query.id, pending=self._unresolved())
            self._update_gauge()
            self._wake.set()
            return fut

    def _update_gauge(self) -> None:
        transition = self._gauge.update(self._estimate_bytes())
        if transition is not None:
            if transition == "engage":
                self._count["backpressure_engages"].inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "serve.backpressure", cat="serve", state=transition,
                    estimate_bytes=self._gauge.last_estimate,
                    high=self._gauge.high_bytes, low=self._gauge.low_bytes)

    # -- scheduling ----------------------------------------------------

    def _ensure_session(self) -> ResidentBlastSession:
        if self._session is None:
            self._session = self._factory()
        if self._session.failed:
            self._restart()
        assert self._session is not None
        return self._session

    def _restart(self) -> None:
        """Replace a dead session and resubmit unresolved in-flight work.

        Past ``max_restarts`` the service ends instead (see the class
        docstring) and the give-up error propagates to the caller.
        """
        assert self._session is not None
        failure = self._session.failure
        restarts = self._count["restarts"]
        restarts.inc()
        if restarts.value > self.max_restarts:
            exc = RuntimeError(f"session failed {int(restarts.value)} times; giving up")
            self._end(exc)
            raise exc from failure
        if self._tracer.enabled:
            self._tracer.instant(
                "serve.restart", cat="serve", error=repr(failure),
                inflight=len(self._inflight))
        self._session = self._factory()
        pending = list(self._inflight.items())
        self._inflight.clear()
        for _, submissions in pending:
            unresolved = tuple(
                s for s in submissions
                if s.seq in self._futures and not self._futures[s.seq].done())
            if unresolved:
                self._count["resubmitted"].inc(len(unresolved))
                self._dispatch_submissions(unresolved, reason="resubmit")

    def _dispatch_submissions(self, submissions: tuple[Submission, ...], reason: str) -> None:
        job_id = self._next_job_id
        self._next_job_id += 1
        self._inflight[job_id] = submissions
        try:
            self._session.submit(
                BlockJob(job_id=job_id, queries=tuple(s.query for s in submissions)))
        except RuntimeError:
            # Session died between the failure check and the enqueue: the
            # batch stays in _inflight and the next pump's restart
            # resubmits its unresolved queries.
            if not self._session.closed:
                raise
            return
        self._count["batches"].inc()
        self._batch_size.observe(len(submissions))
        if self._tracer.enabled:
            self._tracer.instant(
                "serve.batch", cat="serve", job_id=job_id,
                size=len(submissions), reason=reason)

    def _dispatch(self, batch: QueryBatch) -> None:
        self._dispatch_submissions(batch.submissions, reason=batch.reason)

    def _deliver(self, env: BlockResult) -> None:
        submissions = self._inflight.pop(env.job_id, ())
        if env.degraded:
            self._count["degraded_batches"].inc()
        if env.kv_bytes and submissions:
            per_query = env.kv_bytes / len(submissions)
            # EWMA so one unusual batch does not whipsaw the gauge.
            self._bytes_per_query = (
                per_query if self._bytes_per_query == 0.0
                else 0.5 * self._bytes_per_query + 0.5 * per_query)
        for sub in submissions:
            fut = self._futures.pop(sub.seq, None)
            if fut is None or fut.done():
                continue
            qid = sub.query.id
            if self._ledger is not None and self._ledger.delivered(qid):
                data = self._ledger.read(qid)
            else:
                data = env.results.get(qid, b"")
                if self._ledger is not None:
                    self._ledger.record(qid, data)
            fut._resolve(data)
            self._count["delivered"].inc()
            self._latency.observe(self._clock() - sub.submitted_at)
        self._update_gauge()

    def pump(self, now: float | None = None, wait: float = 0.0) -> int:
        """One scheduling step: deliver finished results, dispatch due batches.

        Returns the number of result envelopes delivered.  When the step
        finds nothing to deliver, ``wait`` bounds one sleep before a second
        step: on the result queue while a job is in flight, on the next
        :meth:`submit` otherwise (0 = don't wait).  The lock is released
        for the sleep, so a waiting pump never stalls a submitter.
        """
        delivered = self._step(now)
        if delivered or wait <= 0:
            return delivered
        env = None
        session = self._session
        if session is not None and self._inflight:
            env = session.poll_result(timeout=wait)
        else:
            self._wake.wait(wait)
        return self._step(now, env)

    def _step(self, now: float | None, env: BlockResult | None = None) -> int:
        """Deliver ``env`` and everything else that finished, then dispatch.

        Delivery comes first so the coalescer is asked with the session's
        true state: a job that just finished leaves the ranks idle, and an
        idle service dispatches whatever is pending without waiting.
        """
        with self._lock:
            if self._closed:
                return 0
            self._wake.clear()
            session = self._ensure_session()
            delivered = 0
            if env is None:
                env = session.poll_result()
            while env is not None:
                self._deliver(env)
                delivered += 1
                env = session.poll_result()
            now = self._clock() if now is None else now
            for batch in self._coalescer.poll(now, idle=not self._inflight):
                self._dispatch(batch)
            if session.failed:
                self._restart()
            return delivered

    def flush(self, now: float | None = None) -> None:
        """Force everything pending in the coalescer out as batches now."""
        with self._lock:
            if self._closed:
                return
            now = self._clock() if now is None else now
            self._ensure_session()
            for batch in self._coalescer.flush(now):
                self._dispatch(batch)

    def drain(self, timeout: float = 120.0) -> None:
        """Flush and pump until every admitted query has resolved."""
        deadline = time.monotonic() + timeout
        self.flush()
        while self._futures:
            self.pump(wait=0.05)
            if self._coalescer.pending:
                self.flush()
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(self._futures)} queries unresolved after {timeout}s")
