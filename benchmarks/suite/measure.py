"""Clocks, accounting and spans of the benchmark suite.

Everything here observes the system from outside: wall and CPU clocks
around public calls, ``getrusage`` of reaped ranks, and the runner's own
in-memory spans.  Nothing under ``src/`` is touched or patched.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import re
import resource
import statistics
import time

from repro.mpi import run_spmd

BACKEND = "process"


def cpu_seconds() -> float:
    """user+sys of this process plus every rank reaped so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rank_rss_mib() -> float:
    """Largest peak RSS of any reaped child (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Region:
    """``with Region() as r`` measures wall and CPU seconds of the block."""

    def __enter__(self) -> "Region":
        self._c0 = cpu_seconds()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall = time.perf_counter() - self._t0
        self.cpu = cpu_seconds() - self._c0


def summarize(samples: list[float]) -> dict:
    """best / median / count / (max-min)/median of repeated timings."""
    med = statistics.median(samples)
    return {
        "best": min(samples),
        "median": med,
        "n": len(samples),
        "spread": (max(samples) - min(samples)) / med if med else 0.0,
    }


def time_repeats(fn, reps: int) -> dict:
    """Wall seconds of ``fn(i)`` for i in range(reps), summarised."""
    samples = []
    for i in range(reps):
        t0 = time.perf_counter()
        fn(i)
        samples.append(time.perf_counter() - t0)
    return summarize(samples)


def row(name, value, unit, n=1, median=None, spread=None):
    """One printed metric: gated value plus what it was drawn from."""
    return {"name": name, "value": value, "unit": unit, "n": n,
            "median": value if median is None else median,
            "spread": 0.0 if spread is None else spread}


def timing_row(name, stats, unit="s", scale=1.0, pick="best"):
    return row(name, stats[pick] * scale, unit, stats["n"],
               stats["median"] * scale, stats["spread"])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (inf sorts last)."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


# ------------------------------------------------------------------ spans


class Spans:
    """The runner's own spans: name, start, end, parent, workload, rank.

    Parent-side spans nest through a stack; spans recorded inside a rank
    (see :func:`spmd`) come back with the rank's result and hang under the
    parent-side span that launched the job.  ``perf_counter`` is
    CLOCK_MONOTONIC, one clock for every process of the host, so parent and
    rank timestamps are comparable.
    """

    enabled = True

    def __init__(self, workload: str, rank: int | None = None, parent: str | None = None):
        self.workload = workload
        self.rank = rank
        self.rows: list[dict] = []
        self._stack = [parent]
        self._prefix = "p" if rank is None else f"r{rank}."
        self._n = 0

    @contextlib.contextmanager
    def span(self, name: str):
        self._n += 1
        sid = f"{self._prefix}{self._n}"
        rec = {"id": sid, "parent": self._stack[-1], "name": name,
               "workload": self.workload, "rank": self.rank,
               "start": time.perf_counter(), "end": None}
        self.rows.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def named(self, name: str) -> list[dict]:
        return [r for r in self.rows if r["name"] == name]

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.named(name))


def empty_span_seconds(reps: int = 2000) -> float:
    """Measured cost of recording one empty span."""
    probe = Spans("probe")
    t0 = time.perf_counter()
    for _ in range(reps):
        with probe.span("empty"):
            pass
    return (time.perf_counter() - t0) / reps


class NoSpans:
    """Untraced pass: same interface, records nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        yield None


def _rank_span(comm, fn, rank_spans, name, workload, parent, *args):
    rec = Spans(workload, rank=comm.rank, parent=parent)
    with rec.span(name):
        result = fn(comm, rec, *args) if rank_spans else fn(comm, *args)
    return result, rec.rows


def spmd(spans, name: str, nprocs: int, fn, *args, rank_spans=False, trace=None) -> list:
    """``run_spmd`` on the process backend, under a span when traced.

    Traced, every rank also wraps ``fn`` in a span of the same name, so the
    gap between the parent span and the longest rank span is what spawn and
    teardown cost.  With ``rank_spans`` the rank function is the suite's
    own and takes the rank's recorder (a :class:`NoSpans` untraced) as its
    second argument, to record spans around the calls it makes.
    """
    if not spans.enabled:
        if rank_spans:
            args = (NoSpans(),) + args
        return run_spmd(nprocs, fn, *args, backend=BACKEND, trace=trace)
    with spans.span(name + ".job") as job:
        out = run_spmd(nprocs, _rank_span, fn, rank_spans, name, spans.workload,
                       job["id"], *args, backend=BACKEND, trace=trace)
    for _result, rows in out:
        spans.rows.extend(rows)
    return [result for result, _rows in out]


def launch_overhead(spans: Spans, name: str) -> float:
    """Seconds of the last ``name`` job not covered by its longest rank span."""
    job = spans.named(name + ".job")[-1]
    inside = max(r["end"] - r["start"] for r in spans.rows
                 if r["name"] == name and r["parent"] == job["id"])
    return (job["end"] - job["start"]) - inside


# ---------------------------------------------------------------- pinning


@contextlib.contextmanager
def pinned_service_ranks(known_pids: set[int]):
    """Pin a resident session's ranks so wake-up paths stay put.

    Unpinned, the open-loop service showed two latency modes (p50 54 ms and
    68 ms on the calibration host) that lasted for whole runs and followed
    where the scheduler had parked the mostly-sleeping runner and master
    next to the two workers.  Workers are spread over the cores; the runner
    and rank 0 share the first.  The runner's own mask is restored on exit
    so later forks inherit the full set.
    """
    cores = sorted(os.sched_getaffinity(0))
    ranks = sorted(
        (p for p in multiprocessing.active_children() if p.pid not in known_pids),
        key=lambda p: int(re.search(r"(\d+)$", p.name).group(1)))
    for i, proc in enumerate(ranks):
        os.sched_setaffinity(proc.pid, {cores[(i - 1) % len(cores)] if i else cores[0]})
    os.sched_setaffinity(0, {cores[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, set(cores))
