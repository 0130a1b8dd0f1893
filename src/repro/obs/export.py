"""Trace exporter: Chrome ``trace_event`` JSON.

:func:`chrome_trace` converts a :class:`~repro.obs.trace.TraceSession`
into the Chrome JSON Object Format (``{"traceEvents": [...]}``) that
``chrome://tracing`` and Perfetto load directly — one ``tid`` per rank,
timestamps in microseconds, ``B``/``E`` duration events and thread-scoped
``i`` instants.  :func:`validate_chrome_trace` is the exporter's own
schema checker (used by CI's trace-smoke step): it verifies structure,
phase set, numeric timestamps, per-thread timestamp monotonicity, LIFO
``B``/``E`` balance and JSON-scalar args, returning a list of problems
(empty when the document is valid).  :func:`exported_trace` is the set-up
every launcher with a ``trace_path`` shares.
"""

import json
from contextlib import contextmanager

from repro.obs.trace import TraceSession

__all__ = [
    "chrome_trace",
    "exported_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "assert_valid_chrome_trace",
]

_ALLOWED_PHASES = {"B", "E", "i", "M"}


def chrome_trace(session):
    """Render *session* as a Chrome ``trace_event`` JSON document (dict)."""
    trace_events = []
    supervisor = getattr(session, "supervisor", None)
    for trc in session.tracers:
        label = "supervisor" if trc is supervisor else f"rank {trc.rank}"
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": 0, "tid": trc.rank,
            "args": {"name": label},
        })
        for ph, ts, sid, name, cat, attrs in trc.iter_events():
            event = {
                "ph": ph,
                "ts": ts * 1e6,
                "pid": 0,
                "tid": trc.rank,
                "name": name,
            }
            if cat:
                event["cat"] = cat
            if ph == "i":
                event["s"] = "t"
            if attrs:
                event["args"] = dict(attrs)
            trace_events.append(event)
        if trc.dropped_events:
            trace_events.append({
                "ph": "M", "name": "dropped_events", "pid": 0,
                "tid": trc.rank, "args": {"count": trc.dropped_events},
            })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, session):
    """Validate and write *session* to *path* as Chrome trace JSON."""
    doc = chrome_trace(session)
    assert_valid_chrome_trace(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc


@contextmanager
def exported_trace(path, nprocs, trace=None):
    """The trace session of one launch, written to *path* when it ends.

    Yields *trace* or, when *path* is set and no session was passed, a new
    :class:`~repro.obs.trace.TraceSession` of *nprocs* ranks (else ``None``:
    tracing off).  With *path* set the session is exported as Chrome trace
    JSON on the way out, a failed run's included: that trace is exactly the
    one worth looking at.
    """
    if trace is None and path:
        trace = TraceSession(nprocs)
    try:
        yield trace
    finally:
        if path and trace is not None:
            write_chrome_trace(path, trace)


def _scalar(value):
    return value is None or isinstance(value, (bool, int, float, str))


def validate_chrome_trace(doc):
    """Schema-check a Chrome trace document; returns a list of problems."""
    problems = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]

    last_ts = {}
    open_stacks = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _ALLOWED_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing name")
        if not isinstance(ev.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        tid = ev.get("tid")
        if not isinstance(tid, int):
            problems.append(f"{where}: missing integer tid")
            continue
        args = ev.get("args")
        if args is not None:
            if not isinstance(args, dict):
                problems.append(f"{where}: args is not an object")
            else:
                for k, v in args.items():
                    if not _scalar(v):
                        problems.append(
                            f"{where}: args[{k!r}] is not a JSON scalar")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: missing numeric ts")
            continue
        prev = last_ts.get(tid)
        if prev is not None and ts < prev:
            problems.append(
                f"{where}: ts {ts} < previous ts {prev} on tid {tid}")
        last_ts[tid] = ts
        if ph == "B":
            open_stacks.setdefault(tid, []).append((name, i))
        elif ph == "E":
            stack = open_stacks.get(tid)
            if not stack:
                problems.append(f"{where}: E with no open B on tid {tid}")
            else:
                stack.pop()
    for tid, stack in open_stacks.items():
        for name, i in stack:
            problems.append(
                f"traceEvents[{i}]: unclosed B {name!r} on tid {tid}")
    return problems


def assert_valid_chrome_trace(doc):
    """Raise ``ValueError`` listing every problem when *doc* is invalid."""
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(
            "invalid Chrome trace document:\n  " + "\n  ".join(problems))
