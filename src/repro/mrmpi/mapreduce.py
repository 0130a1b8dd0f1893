"""The MapReduce object: collective map/collate/reduce over MPI ranks.

Mirrors Sandia's MapReduce-MPI call sequence.  All methods below are
*collective*: every rank of the communicator must call them in the same
order (the class dups the caller's communicator so its internal traffic can
never collide with application messages).

Map styles (the ``mapstyle`` setting of the original library):

- ``CHUNK``:   task block ``[rank*nmap/P, (rank+1)*nmap/P)`` per rank.
- ``MASTER_WORKER``: rank 0 acts as master and hands tasks to the
  remaining ranks in shrinking chunks as they ask (see
  :class:`~repro.sched.Dispatcher`).  This is the mode the paper uses for
  BLAST, where per-task runtimes are wildly non-uniform and dynamic load
  balancing is essential.

One data plane: every KV/KMV dataset is **columnar** (array pages,
vectorised shuffle hashing, sort-based grouping, binary spill), laid out by
a :class:`~repro.mrmpi.schema.RecordSchema`.  A dataset nobody described is
:data:`~repro.mrmpi.schema.UNTYPED`: str keys and pickled values, moved
by the same code.  Per-phase seconds and traffic (pairs
and exact array bytes) are written once, into :attr:`MapReduce.metrics`.
"""

from __future__ import annotations

import time
from enum import IntEnum
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mpi.comm import Comm
from repro.mpi.exceptions import DegradedRankLoss, MPIError, RankFailure
from repro.mpi.ops import ANY_SOURCE, LAND, SUM
from repro.mrmpi.columnar import (
    ColumnarKeyMultiValue,
    ColumnarKeyValue,
    _join,
    _v_from_arrays,
    _v_slice,
    _v_to_arrays,
    _v_nbytes,
    convert_columnar,
    sort_kmv_columnar,
    sorted_partitions,
)
from repro.mrmpi.hashing import hash_key_column
from repro.mrmpi.schema import UNTYPED, RecordSchema
from repro.obs.metrics import MetricsRegistry
from repro.sched import Dispatcher, SchedReport, SpeculationPolicy

__all__ = ["MapReduce", "MapStyle", "KEEP_SCHEMA"]

_TAG_REQUEST = 101
_TAG_ASSIGN = 102

#: Longest the master sleeps on its mailbox between death sweeps (degraded
#: mode): transports flag a dead rank without posting a message.
_SWEEP_INTERVAL = 0.02

#: Most an ``aggregate`` round stages per rank unless told otherwise: wide
#: enough that the per-round latency (two collectives) is noise, narrow
#: enough that sort scratch, the round in flight and the source batches
#: still queued are each a fraction of the dataset.  Measured, not configured:
#: see EXPERIMENTS.md "A shuffle that holds its data once".
_ROUND_BYTES = 4 << 20

#: Resident bytes a receiving store aims to keep per key-range bucket: what
#: ``convert`` merges, and holds twice, at a time.
_BUCKET_BYTES = 1 << 20

#: Sentinel for reduce() meaning "output uses the current schema".
KEEP_SCHEMA = object()


def _kept_rows(batches, ends: Sequence[int], keeps: Sequence[bool]):
    """The kept units' rows of a chunk as wire tuples: unit ``i`` emitted
    rows ``ends[i-1]:ends[i]`` of the chunk's ``(keys, values)`` batches,
    taken in order."""
    base = 0
    for karr, vcol in batches:
        for lo, hi, keep in zip([0, *ends], ends, keeps):
            lo, hi = max(lo - base, 0), min(hi - base, len(karr))
            if keep and lo < hi:
                yield (karr[lo:hi],) + _v_to_arrays(_v_slice(vcol, lo, hi))
        base += len(karr)


class MapStyle(IntEnum):
    CHUNK = 0
    MASTER_WORKER = 2  # the original library's number; 1 was its strided style


class MapReduce:
    """Per-rank handle on a distributed KV/KMV dataset.

    Parameters
    ----------
    comm:
        Communicator of the SPMD job (duplicated internally).
    memsize:
        Per-rank page size in bytes before KV/KMV pages spill to disk
        (the original library's ``memsize``, default 64 MB there too).
    mapstyle:
        Default task-distribution style for :meth:`map` / :meth:`map_items`.
    spool_dir:
        Directory for page files (defaults to the system temp dir).  On the
        paper's cluster this would be Lustre, since Ranger nodes have no
        local scratch — one reason mrblast bounds its working set instead.
    schema:
        Layout of the KV datasets (a
        :class:`~repro.mrmpi.schema.RecordSchema`); ``None`` (default) is
        :data:`~repro.mrmpi.schema.UNTYPED`: any str key, any picklable
        value.
    metrics:
        The rank's :class:`~repro.obs.metrics.MetricsRegistry`, which
        receives ``mr.<phase>_s`` / ``_pairs`` / ``_bytes`` and the
        ``sched.*`` counters; ``None`` (default) gives the handle its own.
    """

    def __init__(
        self,
        comm: Comm,
        memsize: int = 64 * 1024 * 1024,
        mapstyle: MapStyle = MapStyle.MASTER_WORKER,
        spool_dir: str | None = None,
        schema: RecordSchema | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.comm = comm.dup()
        self._tracer = self.comm.tracer
        self.memsize = int(memsize)
        self.mapstyle = MapStyle(mapstyle)
        self.spool_dir = spool_dir
        self.schema = UNTYPED if schema is None else schema
        self.kv: Optional[ColumnarKeyValue] = None
        self.kmv: Optional[ColumnarKeyMultiValue] = None
        #: where every phase's seconds and traffic accumulate.  Only pairs
        #: staged for *other* ranks count as moved; bytes are the exact
        #: ``nbytes`` of the wire arrays.
        self.metrics = MetricsRegistry() if metrics is None else metrics
        #: the master's report of the most recent MASTER_WORKER map
        #: (``None`` until one runs on more than one rank).
        self.sched: Optional[SchedReport] = None
        #: *global* ranks lost across all degraded maps (the comm shrinks
        #: past them, so comm-local numbering is not stable).
        self.lost_ranks: tuple[int, ...] = ()

    # --------------------------------------------------------------- plumbing

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def timers(self) -> dict[str, float]:
        """Seconds per phase that has run (``map``, ``aggregate``, ...),
        read off :attr:`metrics`."""
        return {name[3:-2]: value for name, value in self.metrics.snapshot().items()
                if name.startswith("mr.") and name.endswith("_s")}

    def _fresh_kv(self, schema: Any = KEEP_SCHEMA) -> ColumnarKeyValue:
        """An empty KV store: the current schema, ``None`` for untyped, or
        the :class:`RecordSchema` given (reduce()'s ``out_schema``)."""
        if schema is KEEP_SCHEMA:
            schema = self.schema
        return ColumnarKeyValue(UNTYPED if schema is None else schema,
                                pagesize=self.memsize, spool_dir=self.spool_dir)

    def _phase_begin(self, phase: str) -> float:
        """Start a phase: stamp ``t0`` and open the ``mr.<phase>`` span."""
        t0 = time.perf_counter()
        trc = self._tracer
        if trc.enabled:
            trc.begin(f"mr.{phase}", cat="mr")
        return t0

    def _phase_end(self, phase: str, t0: float, **attrs) -> None:
        """Close a phase: one ``dt`` feeds both the ``mr.<phase>_s``
        counter and the span's ``seconds`` attribute, so trace-derived
        phase totals are bit-identical to :attr:`timers` (same floats, same
        addition order).
        """
        dt = time.perf_counter() - t0
        self.metrics.counter(f"mr.{phase}_s").inc(dt)
        trc = self._tracer
        if trc.enabled:
            trc.end(seconds=dt, **attrs)

    def _bump(self, phase: str, pairs: int, nbytes: int) -> None:
        self.metrics.counter(f"mr.{phase}_pairs").inc(int(pairs))
        self.metrics.counter(f"mr.{phase}_bytes").inc(int(nbytes))
        trc = self._tracer
        if trc.enabled:
            trc.instant("mr.traffic", cat="mr", phase=phase,
                        pairs=int(pairs), bytes=int(nbytes))

    def _require_kv(self) -> ColumnarKeyValue:
        if self.kv is None:
            raise RuntimeError("no KeyValue dataset; call map() first")
        return self.kv

    def _require_kmv(self) -> ColumnarKeyMultiValue:
        if self.kmv is None:
            raise RuntimeError("no KeyMultiValue dataset; call convert()/collate() first")
        return self.kmv

    # -------------------------------------------------------------------- map

    def map_items(
        self,
        items: Sequence[Any],
        mapper: Callable[[int, Any, ColumnarKeyValue], None],
        mapstyle: MapStyle | None = None,
        locality_key: Callable[[Any], Any] | None = None,
        speculation: SpeculationPolicy | None = None,
        degraded: bool = False,
        to_root: bool = False,
    ) -> int:
        """Run ``mapper(itask, items[itask], kv)`` over a list of work items.

        ``items`` must be identical on every rank (SPMD); only task *indices*
        travel over the wire, matching how the original library hands out
        file/task ids rather than payloads.  Returns the local pair count.

        Master/worker mode hands out shrinking chunks of items (see
        :class:`~repro.sched.Dispatcher`).  With ``locality_key`` it is
        *location-aware*: a worker's chunk continues the key of the item it
        last ran — the scheduling improvement the paper announces in §V
        ("distribute the work unit tuples to those ranks that have already
        been processing the same DB partitions").  Workers with no matching
        work claim a fresh key (spreading keys across workers) and finally
        steal from the fullest remaining key.

        ``speculation`` (master/worker mode only) enables speculative
        re-execution: the master keeps an online P² quantile of unit
        runtimes and re-issues a unit to an idle worker once its chunk is
        overdue by ``factor x`` the running median.  Workers buffer a
        chunk's output in a staging store and only merge a unit's rows into
        the real dataset once the master accepts it, so the winner is
        chosen deterministically (first completion, dedup by unit id) and
        the final dataset is identical to a no-speculation run.

        ``degraded`` (master/worker mode only) lets the job survive worker
        death mid-map: a worker hitting a rank failure marks itself dead on
        the transport and raises
        :class:`~repro.mpi.exceptions.DegradedRankLoss` instead of aborting
        the job; the master reassigns its in-flight, queued *and
        previously-completed* units to survivors (the dead rank's local
        dataset is lost with it), and the communicator shrinks past the dead
        rank for the rest of this MapReduce object's life.  The scheduler
        report lands in :attr:`sched` on every surviving rank.

        ``to_root`` (master/worker mode only) ends the map with every row on
        rank 0, for a job that reduces there: a worker's completion request
        carries its chunk's rows, one page cut at per-unit row ends, and
        keeps none.  Rank 0 keeps the rows of the units the dispatcher
        accepts (first copy wins), holds each worker's until the map
        retires, drops a lost worker's with its units (they are redone
        elsewhere) and then files the rest in worker rank order, as a
        gather to rank 0 would have.  No round follows the map.
        """
        t0 = self._phase_begin("map")
        style = self.mapstyle if mapstyle is None else MapStyle(mapstyle)
        if self.kv is not None:
            # Starting fresh over a live dataset (e.g. the previous
            # iteration's reduce output): close it so its spill pages
            # are reclaimed now, not at job teardown.
            self.kv.close()
        self.kv = self._fresh_kv()
        kv = self.kv
        if self.size > 1 and style is MapStyle.MASTER_WORKER:
            self._map_items_sched(
                items, mapper, kv, locality_key, speculation, degraded, to_root)
        else:
            # CHUNK (and the degenerate single-rank MASTER_WORKER): one
            # contiguous block of tasks per rank.
            n = len(items)
            for itask in range(self.rank * n // self.size, (self.rank + 1) * n // self.size):
                mapper(itask, items[itask], kv)

        self._phase_end("map", t0)
        self._bump("map", len(kv), kv.nbytes)
        return len(kv)

    def _map_items_sched(
        self,
        items: Sequence[Any],
        mapper: Callable[[int, Any, ColumnarKeyValue], None],
        kv: ColumnarKeyValue,
        locality_key: Callable[[Any], Any] | None,
        speculation: SpeculationPolicy | None,
        degraded: bool,
        to_root: bool,
    ) -> None:
        """The MASTER_WORKER map: rank 0 dispatches, everyone else works.

        On return ``self.comm`` may have shrunk past dead ranks, and
        :attr:`sched` holds the master's report on every surviving rank.
        A worker that died raises :class:`DegradedRankLoss` out of here.
        """
        keys = [None if locality_key is None else locality_key(item)
                for item in items]
        if self.rank == 0:
            report, dead_local = self._run_sched_master(kv, keys, speculation, degraded)
        else:
            report, dead_local = self._run_sched_worker(
                items, mapper, kv, keys, speculating=speculation is not None,
                degraded=degraded, to_root=to_root)
        # Every survivor holds the same master-authored (report, dead set)
        # before anyone shrinks, so the shrunk communicators agree.
        if dead_local:
            lost_global = tuple(sorted(self.comm.group[r] for r in dead_local))
            self.comm = self.comm.shrink(sorted(dead_local))
            self._tracer = self.comm.tracer
            self.lost_ranks = tuple(sorted(set(self.lost_ranks) | set(lost_global)))
            self.metrics.counter("sched.lost_ranks").inc(len(lost_global))
            if self._tracer.enabled:
                self._tracer.instant("sched.shrink", cat="sched", lost=lost_global)
        self.sched = report
        for kind in ("speculated", "wasted", "reassigned"):
            self.metrics.counter(f"sched.{kind}_units").inc(getattr(report, kind))

    def _run_sched_master(
        self,
        kv: ColumnarKeyValue,
        keys: Sequence[Any],
        speculation: SpeculationPolicy | None,
        degraded: bool,
    ) -> tuple[SchedReport, frozenset[int]]:
        """Rank 0: drive a :class:`~repro.sched.Dispatcher` off the mailbox.

        The dispatcher decides; this loop waits, reads the clock and sends.
        A request ``(done, ends, page)`` carries the units a worker
        completed and, in a ``to_root`` map, their rows (else ``page`` is
        None), whose kept units' rows go to ``kv`` at retirement; a reply
        ``(keeps, chunk, final)``; a worker there is nothing for yet is
        parked (no reply).  The wait ends for death sweeps every
        ``_SWEEP_INTERVAL`` (degraded mode), the tracker's next straggler due
        time, or else with :class:`DeadlockError` after ``op_timeout`` per
        unit of the largest chunk out: the master is the map's watchdog.

        The map ends when every unit is complete and every live worker is
        parked: all are retired at once with ``final=(report, dead_ranks)``.
        Nobody leaves earlier, so a death at any point still finds survivors
        to redo its units, membership is decided exactly once, here, and the
        reply is the fence that keeps the next ``map_items()``'s requests
        (same tags) away from this call's master.
        """
        disp = Dispatcher(keys, range(1, self.size), speculation,
                          time.monotonic(), self._tracer)
        held: dict[int, list[tuple]] = {}  # worker -> its kept units' rows
        ragged = kv.schema.ragged_values

        def reply(dest: int, keeps: tuple, chunk: tuple, final: Any = None) -> None:
            # A degraded-mode reply can race its destination's death (a
            # broken pipe on the process backend); the next sweep retires it.
            try:
                self.comm.send((keeps, chunk, final), dest=dest, tag=_TAG_ASSIGN)
            except MPIError:
                if not degraded:
                    raise

        while True:
            now = time.monotonic()
            if degraded:  # (a dead worker's late requests are ignored)
                for dead in sorted(set(self.comm.network.dead_ranks()) & set(self.comm.group)):
                    worker = self.comm.group.index(dead)
                    disp.lose(worker, now)
                    held.pop(worker, None)
            for dest, keeps, chunk in disp.replies(now):
                reply(dest, keeps, chunk)
            if (owed := disp.retire()) is not None:
                break
            if not disp.live:
                raise MPIError(
                    f"sched master: all workers lost with "
                    f"{len(keys) - disp.tracker.completed} of {len(keys)} units incomplete")
            due = disp.next_due()
            waits = ([_SWEEP_INTERVAL] if degraded else []) + (
                [max(due - now, 0.001)] if due is not None else [])
            wait = min(waits, default=None)
            # One op_timeout per unit of the longest running chunk; with every
            # worker parked, one for the requests still in flight.
            patience = max(disp.longest_chunk(), 1) * self.comm.network.op_timeout
            msg = self.comm._match(source=ANY_SOURCE, tag=_TAG_REQUEST,
                                   block=wait is None, timeout=wait or patience)
            if msg is not None:
                done, ends, page = msg.payload
                keeps = disp.request(msg.src, done, time.monotonic())
                if page is not None:
                    held.setdefault(msg.src, []).extend(_kept_rows(
                        [(page[0], _v_from_arrays(page[1:], ragged))], ends, keeps))
        for worker in sorted(held):
            for rows in held[worker]:
                kv.add_wire(rows)
        lost_global = tuple(self.comm.group[r] for r in sorted(disp.dead))
        report = disp.tracker.report(lost_global, degraded=bool(disp.dead))
        for dest, keeps in owed:
            reply(dest, keeps, (), final=(report, tuple(sorted(disp.dead))))
        return report, frozenset(disp.dead)

    def _run_sched_worker(
        self,
        items: Sequence[Any],
        mapper: Callable[[int, Any, ColumnarKeyValue], None],
        kv: ColumnarKeyValue,
        keys: Sequence[Any],
        speculating: bool,
        degraded: bool,
        to_root: bool,
    ) -> tuple[SchedReport, frozenset[int]]:
        """Worker side of dispatch: run a chunk, report it, until retired.

        The first chunk is this worker's share of the dispatcher's first
        round, computed from the same ``keys``.  With speculation a chunk
        maps into one staging store and only the units the master keeps
        (first copy wins) are copied into ``kv``, so output equals a
        no-speculation run and staging holds one page at most; ``to_root``
        stages every chunk and sends the store as one page on the chunk's
        completion request instead, leaving ``kv`` empty; mappers with
        out-of-band state (mrsom's accumulator) bracket each unit with
        optional ``begin_unit`` / ``commit_unit`` / ``discard_unit`` hooks.
        A parked worker waits as long as a peer's chunk runs (the master is
        the watchdog).  In degraded mode a rank failure marks this rank dead
        on the transport and becomes :class:`DegradedRankLoss`.
        """
        def skip(unit: int) -> None:
            pass

        begin = getattr(mapper, "begin_unit", skip)
        commit = getattr(mapper, "commit_unit", skip)
        discard = getattr(mapper, "discard_unit", skip)
        chunk = Dispatcher(keys, range(1, self.size)).first[self.rank]
        stage = kv
        try:
            while True:
                stage = self._fresh_kv() if speculating or to_root else kv
                ends = []  # the row of ``stage`` where each unit's output ends
                for itask in chunk:
                    begin(itask)
                    mapper(itask, items[itask], stage)
                    ends.append(len(stage))
                page = None
                if to_root and len(stage):
                    karr, vcol = _join(list(stage.iter_batches()))
                    page = (karr,) + _v_to_arrays(vcol)
                self.comm.send((chunk, ends, page), dest=0, tag=_TAG_REQUEST)
                while (msg := self.comm._match(
                        source=0, tag=_TAG_ASSIGN, block=False,
                        timeout=self.comm.network.op_timeout)) is None:
                    pass
                keeps, next_chunk, final = msg.payload
                for unit, keep in zip(chunk, keeps):
                    (commit if keep else discard)(unit)
                if stage is not kv:
                    if not to_root:
                        for rows in _kept_rows(stage.iter_batches(), ends, keeps):
                            kv.add_wire(rows)
                    stage.close()
                chunk = next_chunk
                if final is not None:
                    report, dead = final
                    return report, frozenset(dead)
        except RankFailure as exc:
            if stage is not kv:
                stage.close()
            if degraded:
                self.comm.network.mark_dead(self.comm.global_rank)
                raise DegradedRankLoss(self.comm.global_rank, repr(exc)) from exc
            raise

    # -------------------------------------------------------- shuffle & group

    def aggregate(self, exchange_bytes: int | None = None) -> int:
        """Redistribute KV pairs so all copies of a key land on one rank.

        The destination rank of a key is its 64-bit FNV-1a hash modulo
        ``nprocs`` (:func:`~repro.mrmpi.hashing.hash_key_column`, the same
        for a key whatever the schema's column width).  The
        exchange runs in *rounds* of personalised
        all-to-alls, each staging at most ``exchange_bytes`` of outgoing
        pairs per rank (default: ``memsize`` or a few MiB, whichever is
        less), so aggregation never materialises a dataset twice — the
        original library pages its exchange the same way — and sort
        scratch and the transport's ring hold one round, whatever the
        dataset's size.

        Each round is vectorised and *sorts at the source*
        (:func:`~repro.mrmpi.columnar.sorted_partitions`): staged
        pairs are ordered by key, only distinct keys are hashed, key groups
        are partitioned by destination and the payload is gathered once, so
        every wire slice is a key-sorted run.  The receiving store copies
        each run, cut at fixed splitters, into key-range buckets (see
        :class:`~repro.mrmpi.columnar.ColumnarKeyValue`) and lets go of the
        round, so :meth:`convert` only has to merge a bucket at a time, and
        a KV scanned after ``aggregate`` is bucket-major: ascending key
        ranges, arrival order within one.  The source dataset is consumed
        as it is staged.
        """
        t0 = self._phase_begin("aggregate")
        kv = self._require_kv()
        if exchange_bytes is None:
            budget = min(self.memsize, _ROUND_BYTES)
        else:
            budget = int(exchange_bytes)
        if budget < 1:
            raise ValueError(f"exchange_bytes must be >= 1, got {budget}")
        new_kv = self._aggregate_columnar(kv, budget)
        kv.close()
        self.kv = new_kv
        self._phase_end("aggregate", t0)
        return len(new_kv)

    def _aggregate_columnar(self, kv: ColumnarKeyValue, budget: int) -> ColumnarKeyValue:
        schema = kv.schema
        # About as much arrives as leaves, and no more than a page of it is
        # ever resident: that sizes the receiver's buckets with no collective.
        resident = min(kv.nbytes, self.memsize)
        new_kv = ColumnarKeyValue(schema, pagesize=self.memsize, spool_dir=self.spool_dir,
                                  nbuckets=max(1, -(-resident // _BUCKET_BYTES)))
        batches = kv.iter_batches(drain=True)
        leftover: tuple[np.ndarray, Any] | None = None
        local_done = False
        size = self.size
        round_idx = 0
        dest_of = lambda ks: (  # noqa: E731 - distinct keys -> destination ranks
            hash_key_column(ks) % np.uint64(size)).astype(np.int64)
        try:
            while True:
                round_pairs = 0
                round_bytes = 0
                staged: list[tuple[np.ndarray, Any]] = []
                staged_bytes = 0
                while not local_done and staged_bytes < budget:
                    batch, leftover = leftover or next(batches, None), None
                    if batch is None:
                        local_done = True
                        break
                    karr, vcol = batch
                    nb = int(karr.nbytes) + _v_nbytes(vcol)
                    if staged_bytes + nb > budget and len(karr) > 1:
                        # Split oversized batches so one round never stages
                        # far past the budget (rows are sized uniformly
                        # enough that a proportional cut is fine).
                        keep = max(1, (budget - staged_bytes) * len(karr) // nb)
                        if keep < len(karr):
                            staged.append((karr[:keep], _v_slice(vcol, 0, keep)))
                            leftover = (karr[keep:], _v_slice(vcol, keep, len(karr)))
                            break
                    staged.append((karr, vcol))
                    staged_bytes += nb
                # The round's sorted copy is the only one from here on: a
                # source batch lives until its last row is staged, no longer.
                batch = karr = vcol = None
                outgoing = (
                    sorted_partitions(staged, dest_of, size) if staged else [None] * size
                )
                for p, arrs in enumerate(outgoing):
                    if arrs is not None and p != self.rank:
                        nb_out = sum(int(a.nbytes) for a in arrs)
                        self._bump("aggregate", len(arrs[0]), nb_out)
                        round_pairs += len(arrs[0])
                        round_bytes += nb_out
                incoming = self.comm.alltoall(outgoing)
                for run in incoming:
                    if run is not None:
                        new_kv.add_wire(run, sorted_run=True)
                # The store copied what it keeps: this drops the round (and
                # unmaps its shm blocks) before the next one is sorted.
                outgoing = incoming = run = None
                trc = self._tracer
                if trc.enabled:
                    trc.instant("mr.exchange_round", cat="mr", round=round_idx,
                                pairs=round_pairs, bytes=round_bytes)
                round_idx += 1
                if self.comm.allreduce(local_done, op=LAND):
                    break
        except BaseException:
            new_kv.close()
            raise
        return new_kv

    def convert(self) -> int:
        """Group the local KV pairs into KMV pairs (no communication).

        Grouping is a merge: :meth:`aggregate` leaves key-sorted runs
        (resident ones cut into key-range buckets, and spilled pages that
        are each one run).  Resident buckets are merged,
        grouped and freed one at a time, so the KMV grows as the KV
        shrinks; spilled runs take a bounded-memory k-way merge out of
        their pages; a dataset that skipped ``aggregate`` is sorted first.
        Keys come out in sorted column order, a key's values in emission
        order.  The ``mr.convert`` span records how many ``buckets`` and
        ``runs`` the pass merged.
        """
        t0 = self._phase_begin("convert")
        kv = self._require_kv()
        npairs = len(kv)
        buckets, runs = kv.run_counts()
        self.kmv = convert_columnar(kv, pagesize=self.memsize, spool_dir=self.spool_dir)
        kv.close()
        self.kv = None
        self._phase_end("convert", t0, buckets=buckets, runs=runs)
        self._bump("convert", npairs, 0)
        return len(self.kmv)

    def collate(self) -> int:
        """``aggregate`` + ``convert``: the shuffle step of Fig. 1.

        Afterwards each unique key exists on exactly one rank with *all* its
        values grouped.  Returns the global number of unique keys.
        """
        self.aggregate()
        self.convert()
        return int(self.comm.allreduce(len(self._require_kmv()), op=SUM))

    # ------------------------------------------------------------------ reduce

    def reduce(
        self,
        reducer: Callable[[Any, Sequence, ColumnarKeyValue], None],
        out_schema: Any = KEEP_SCHEMA,
    ) -> int:
        """Call ``reducer(key, values, kv_out)`` once per local KMV pair.

        ``values`` is a read-only sequence in emission order, a
        :class:`~repro.mrmpi.columnar.ValuesView`: a window on the page's
        rows (``len`` is O(1), rows are decoded when indexed or iterated,
        and it stays valid if the reducer keeps it).

        Returns the local number of KV pairs emitted.  ``out_schema`` is
        the output's layout: the current schema by default, ``None`` for
        untyped, or a different :class:`RecordSchema` (a reducer that emits
        ``(key, count)`` summaries from typed rows passes ``None``).
        """
        t0 = self._phase_begin("reduce")
        kmv = self._require_kmv()
        new_kv = self._fresh_kv(out_schema)
        try:
            for key, values in kmv:
                reducer(key, values, new_kv)
        except BaseException:
            new_kv.close()
            raise
        kmv.close()
        self.kmv = None
        self.kv = new_kv
        self._phase_end("reduce", t0)
        self._bump("reduce", len(new_kv), 0)
        return len(new_kv)

    # ----------------------------------------------------------------- sorting

    def sort_kmv_keys(self, key: Callable[[Any], Any] | None = None) -> None:
        """Sort the local KMV pairs by ``key(key)`` (stable, spool-aware).

        mrblast uses this so each rank's output file lists queries in the
        *original input order* (the paper: results "maintain the original
        order of the queries" within each per-rank file).
        """
        kmv = self._require_kmv()
        if len(kmv) <= 1:
            return  # already in order (a service job of one query)
        new_kmv = sort_kmv_columnar(kmv, key)
        kmv.close()
        self.kmv = new_kmv

    # -------------------------------------------------------------- inspection

    def shuffle_stats(self) -> dict[str, dict[str, int]]:
        """Collective: per-phase ``{"pairs_moved", "bytes_moved"}`` read off
        every rank's :attr:`metrics` and summed."""
        mine: dict[str, dict[str, int]] = {}
        for name, value in self.metrics.snapshot().items():
            if name.startswith("mr.") and name.endswith(("_pairs", "_bytes")):
                phase, _, what = name[3:].rpartition("_")
                mine.setdefault(phase, {"pairs_moved": 0, "bytes_moved": 0})[
                    f"{what}_moved"] = int(value)
        phases = sorted(set(self.comm.allreduce(list(mine), op=SUM)))
        out: dict[str, dict[str, int]] = {}
        for phase in phases:
            local = mine.get(phase, {"pairs_moved": 0, "bytes_moved": 0})
            out[phase] = {
                "pairs_moved": int(self.comm.allreduce(local["pairs_moved"], op=SUM)),
                "bytes_moved": int(self.comm.allreduce(local["bytes_moved"], op=SUM)),
            }
        return out

    # ------------------------------------------------------------------- admin

    def reset(self) -> None:
        """Drop the KV/KMV datasets but keep the handle alive for the next job.

        The resident service (:mod:`repro.serve`) reuses one MapReduce object
        per rank across its whole session — one ``dup``'d communicator, one
        spool directory, cumulative :attr:`metrics` — instead of tearing it
        down per job.  ``reset()`` is the per-job boundary: both datasets
        are closed (spill pages reclaimed) so the next ``map_items`` starts
        clean.
        """
        if self.kv is not None:
            self.kv.close()
            self.kv = None
        if self.kmv is not None:
            self.kmv.close()
            self.kmv = None

    def close(self) -> None:
        self.reset()

    def __enter__(self) -> "MapReduce":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
