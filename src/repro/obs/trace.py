"""Per-rank structured tracing: typed spans and instant events.

A :class:`Tracer` is an append-only, bounded in-memory buffer of events
owned by one rank (one thread).  Three event shapes exist, mirroring the
Chrome ``trace_event`` phases they export to:

- ``B``/``E`` — a *span*: a named duration opened by :meth:`Tracer.begin`
  and closed by :meth:`Tracer.end` (or via the :meth:`Tracer.span` context
  manager).  Spans nest LIFO per rank.
- ``i`` — an *instant*: a point event with attributes
  (:meth:`Tracer.instant`).

Timestamps come from a pluggable zero-argument *clock* — wall clock
(``time.perf_counter``) by default, but any callable works, such as one
reading a DES environment's ``now`` attribute or a deterministic tick
counter.  Traces taken under a virtual clock with a fixed seed are
therefore fully deterministic.  Per-rank timestamps are
forced monotonic (a clock may legally stand still; it must never appear to
run backwards in the buffer).

Memory is bounded: past ``max_events`` the tracer either flushes the
buffer to a JSONL *spill file* (when ``spill_path`` is set) or drops the
newest events, counting them in ``dropped_events`` so reports can flag the
truncation.

Leaf modules that are not threaded a tracer reach the current rank's one
through the thread-local :func:`current_tracer` /
:func:`set_current_tracer` pair; when nothing registered one they get
:data:`NULL_TRACER`, whose ``enabled`` flag is ``False`` and whose methods
do nothing — the disabled path costs one attribute check.
"""

import json
import threading
import time

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceSession",
    "current_tracer",
    "set_current_tracer",
]

# Span ids pack (rank + 1) above a per-rank sequence number so ids from
# different ranks can never collide, even across supervised re-runs that
# reuse tracers.
_RANK_SHIFT = 44

_tls = threading.local()


def current_tracer():
    """Return the tracer registered for the calling thread (rank).

    Falls back to :data:`NULL_TRACER` so call sites never need a None
    check: ``trc = current_tracer(); if trc.enabled: ...``.
    """
    return getattr(_tls, "tracer", None) or NULL_TRACER


def set_current_tracer(tracer):
    """Register *tracer* (or ``None`` to clear) for the calling thread."""
    _tls.tracer = tracer


class Tracer:
    """Append-only event buffer for one rank.

    Events are stored as ``(ph, ts, sid, name, cat, attrs)`` tuples with
    ``ph`` one of ``"B"``, ``"E"``, ``"i"``; ``attrs`` is a dict or
    ``None``.  The buffer is bounded by ``max_events``: overflow spills to
    ``spill_path`` (JSONL) when configured, else the newest events are
    dropped and counted.
    """

    enabled = True

    def __init__(self, rank, clock=None, max_events=1_000_000, spill_path=None):
        self.rank = rank
        self.clock = clock if clock is not None else time.perf_counter
        self.max_events = max_events
        self.spill_path = str(spill_path) if spill_path is not None else None
        self.events = []
        self.dropped_events = 0
        self.spilled_events = 0
        self._seq = 0
        self._last_ts = float("-inf")
        self._open = []  # stack of (sid, name, cat)

    # -- internals -----------------------------------------------------

    def _now(self):
        ts = float(self.clock())
        if ts < self._last_ts:
            ts = self._last_ts
        self._last_ts = ts
        return ts

    def _append(self, event):
        if len(self.events) >= self.max_events:
            if self.spill_path is not None:
                self._spill()
            else:
                self.dropped_events += 1
                return
        self.events.append(event)

    def _spill(self):
        with open(self.spill_path, "a", encoding="utf-8") as fh:
            for ph, ts, sid, name, cat, attrs in self.events:
                fh.write(json.dumps(
                    {"ph": ph, "ts": ts, "sid": sid, "name": name,
                     "cat": cat, "attrs": attrs},
                    sort_keys=True) + "\n")
        self.spilled_events += len(self.events)
        self.events.clear()

    # -- recording API -------------------------------------------------

    def begin(self, name, cat="", **attrs):
        """Open a span; returns its id for an optional :meth:`end` check."""
        self._seq += 1
        sid = ((self.rank + 1) << _RANK_SHIFT) | self._seq
        self._open.append((sid, name, cat))
        self._append(("B", self._now(), sid, name, cat, attrs or None))
        return sid

    def end(self, sid=None, **attrs):
        """Close the innermost open span (validating *sid* when given)."""
        if not self._open:
            raise RuntimeError(f"rank {self.rank}: end() with no open span")
        top_sid, name, cat = self._open.pop()
        if sid is not None and sid != top_sid:
            raise RuntimeError(
                f"rank {self.rank}: end({sid}) does not match open span "
                f"{top_sid} ({name!r})")
        self._append(("E", self._now(), top_sid, name, cat, attrs or None))

    def instant(self, name, cat="", **attrs):
        """Record a point event."""
        self._seq += 1
        sid = ((self.rank + 1) << _RANK_SHIFT) | self._seq
        self._append(("i", self._now(), sid, name, cat, attrs or None))

    def span(self, name, cat="", **attrs):
        """Context manager: ``with trc.span("phase"): ...``."""
        return _Span(self, name, cat, attrs)

    def unwind(self, to_depth=0, **attrs):
        """Close open spans down to ``to_depth`` (default: all of them).

        Keeps traces balanced even when an exception unwound past the
        instrumentation, so exporters and reports never see a dangling
        ``B``.  Resident services bracket each job with
        ``depth = trc.open_depth`` / ``trc.unwind(to_depth=depth)`` so a
        job that dies mid-span cannot leak open spans into the next job
        on the same rank — the one-job-per-process-lifetime assumption
        the original session design baked in.
        """
        while len(self._open) > to_depth:
            self.end(**attrs)

    # -- reading API ---------------------------------------------------

    @property
    def open_depth(self):
        """Number of currently open spans (snapshot for ``unwind(to_depth=)``)."""
        return len(self._open)

    def iter_events(self):
        """Yield all events in order: spilled JSONL first, then memory."""
        if self.spill_path is not None and self.spilled_events:
            with open(self.spill_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    yield (rec["ph"], rec["ts"], rec["sid"], rec["name"],
                           rec["cat"], rec["attrs"])
        yield from self.events


class _Span:
    """Context manager emitted by :meth:`Tracer.span`."""

    __slots__ = ("_trc", "_name", "_cat", "_attrs", "_sid")

    def __init__(self, trc, name, cat, attrs):
        self._trc = trc
        self._name = name
        self._cat = cat
        self._attrs = attrs

    def __enter__(self):
        self._sid = self._trc.begin(self._name, self._cat, **self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._trc.end(self._sid)
        return False


class NullTracer:
    """Disabled tracer: every method is a no-op; ``enabled`` is ``False``.

    All hot paths gate on ``tracer.enabled`` so the disabled cost is one
    attribute read; the no-op methods exist so un-gated cold paths stay
    correct too.
    """

    enabled = False
    rank = -1
    events = ()
    dropped_events = 0
    spilled_events = 0

    def begin(self, name, cat="", **attrs):
        """No-op; returns a dummy span id."""
        return 0

    def end(self, sid=None, **attrs):
        """No-op."""

    def instant(self, name, cat="", **attrs):
        """No-op."""

    def span(self, name, cat="", **attrs):
        """Return a reusable no-op context manager."""
        return _NULL_SPAN

    def unwind(self, to_depth=0, **attrs):
        """No-op."""

    @property
    def open_depth(self):
        """Always zero."""
        return 0

    def iter_events(self):
        """Always empty."""
        return iter(())


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()

NULL_TRACER = NullTracer()
"""Shared disabled tracer handed out whenever tracing is off."""


class TraceSession:
    """One tracer per rank for a single (possibly multi-attempt) job.

    The session owns the per-rank :class:`Tracer` objects; a supervised
    runner's successive attempts spawn fresh networks but keep appending
    to the same session, so a resumed run's trace shows the crash, the
    retry, and the resume markers on one timeline.  (A rank still stalled
    past the join budget when the supervisor relaunches may append late
    events out of attempt order; crash-style faults — the supervised case
    the tests pin — join cleanly before the retry.)

    ``supervisor`` is one extra tracer (thread id ``nprocs`` in exports)
    for events the supervisor itself emits between attempts.
    """

    def __init__(self, nprocs, clock=None, max_events_per_rank=1_000_000,
                 spill_dir=None):
        self.nprocs = nprocs
        self.tracers = []
        for rank in range(nprocs + 1):
            spill_path = None
            if spill_dir is not None:
                spill_path = f"{spill_dir}/trace-rank{rank}.spill.jsonl"
            self.tracers.append(Tracer(
                rank, clock=clock, max_events=max_events_per_rank,
                spill_path=spill_path))
        self.supervisor = self.tracers[nprocs]

    def tracer(self, rank):
        """Return the tracer owned by *rank*."""
        return self.tracers[rank]
