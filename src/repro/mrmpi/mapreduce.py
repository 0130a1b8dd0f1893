"""The MapReduce object: collective map/collate/reduce over MPI ranks.

Mirrors Sandia's MapReduce-MPI call sequence.  All methods below are
*collective*: every rank of the communicator must call them in the same
order (the class dups the caller's communicator so its internal traffic can
never collide with application messages).

Map styles (the ``mapstyle`` setting of the original library):

- ``CHUNK``:   task block ``[rank*nmap/P, (rank+1)*nmap/P)`` per rank.
- ``STRIDED``: task ``i`` runs on rank ``i % P``.
- ``MASTER_WORKER``: rank 0 acts as master and assigns tasks to the
  remaining ranks one at a time, first-come first-served.  This is the mode
  the paper uses for BLAST, where per-task runtimes are wildly non-uniform
  and dynamic load balancing is essential.

One data plane: every KV/KMV dataset is **columnar** (array pages,
vectorised shuffle hashing, sort-based grouping, binary spill), laid out by
a :class:`~repro.mrmpi.schema.RecordSchema`.  A dataset nobody described is
:data:`~repro.mrmpi.schema.UNTYPED`: canonical key bytes and pickled
values, moved by the same code.  Per-phase traffic, in exact array bytes,
is recorded in :attr:`MapReduce.stats`.
"""

from __future__ import annotations

import time
from enum import IntEnum
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mpi.comm import Comm
from repro.mpi.exceptions import DegradedRankLoss, MPIError, RankFailure
from repro.mpi.ops import ANY_SOURCE, LAND, MAX, SUM
from repro.mrmpi.columnar import (
    ColumnarKeyMultiValue,
    ColumnarKeyValue,
    _v_slice,
    _v_to_arrays,
    _v_nbytes,
    convert_columnar,
    iter_sorted_batches,
    sort_kmv_columnar,
    sorted_partitions,
)
from repro.mrmpi.hashing import hash_key_column
from repro.mrmpi.schema import UNTYPED, RecordSchema
from repro.sched import SchedReport, SpeculationPolicy, StragglerTracker, UnitQueue

__all__ = ["MapReduce", "MapStyle", "KEEP_SCHEMA"]

_TAG_REQUEST = 101
_TAG_ASSIGN = 102
_TAG_GATHER = 103

#: Longest the master sleeps on its mailbox between death sweeps (degraded
#: mode): transports flag a dead rank without posting a message.
_SWEEP_INTERVAL = 0.02

#: Most an ``aggregate`` round stages per rank unless told otherwise: wide
#: enough that the per-round latency (two collectives) is noise, narrow
#: enough that sort scratch, the arena ring and the source batches still
#: queued are each a fraction of the dataset.  Measured, not configured:
#: see EXPERIMENTS.md "A shuffle that holds its data once".
_ROUND_BYTES = 4 << 20

#: Resident bytes a receiving store aims to keep per key-range bucket: what
#: ``convert`` merges, and holds twice, at a time.
_BUCKET_BYTES = 1 << 20

#: Sentinel for reduce()/map_kv() meaning "output uses the current schema".
KEEP_SCHEMA = object()


def _arena_attrs(comm: Comm) -> dict:
    """Arena hit/overflow/residency attributes for exchange-round instants.

    Empty on transports without an arena (thread backend, arena=False), so
    trace schemas stay backward compatible.  Counters are rank-local
    running totals; per-round deltas fall out of consecutive instants.
    """
    stats_fn = getattr(comm.network, "arena_stats", None)
    stats = stats_fn() if stats_fn is not None else {}
    if not stats:
        return {}
    return {
        "arena_sends": stats["sends"],
        "arena_overflows": stats["overflows"],
        "arena_resident_bytes": stats["resident_bytes"],
        "arena_peak_resident_bytes": stats["peak_resident_bytes"],
    }


class MapStyle(IntEnum):
    CHUNK = 0
    STRIDED = 1
    MASTER_WORKER = 2


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
        :data:`~repro.mrmpi.schema.UNTYPED`: any canonical key, any
        picklable value.
    """

    def __init__(
        self,
        comm: Comm,
        memsize: int = 64 * 1024 * 1024,
        mapstyle: MapStyle = MapStyle.MASTER_WORKER,
        spool_dir: str | None = None,
        schema: RecordSchema | None = None,
    ) -> None:
        self.comm = comm.dup()
        self._tracer = self.comm.tracer
        self.memsize = int(memsize)
        self.mapstyle = MapStyle(mapstyle)
        self.spool_dir = spool_dir
        self.schema = UNTYPED if schema is None else schema
        self.kv: Optional[ColumnarKeyValue] = None
        self.kmv: Optional[ColumnarKeyMultiValue] = None
        #: accumulated seconds per phase: map/aggregate/convert/reduce/gather
        self.timers: dict[str, float] = {}
        #: accumulated traffic per phase: {"pairs_moved", "bytes_moved"}.
        #: Only pairs staged for *other* ranks count as moved; bytes are
        #: the exact ``nbytes`` of the wire arrays.
        self.stats: dict[str, dict[str, int]] = {}
        #: the master's report of the most recent MASTER_WORKER map
        #: (``None`` until one runs on more than one rank).
        self.sched: Optional[SchedReport] = None
        #: counters accumulated across all MASTER_WORKER maps.
        self.sched_stats: dict[str, int] = {
            "speculated": 0, "wasted": 0, "reassigned": 0}
        #: *global* ranks lost across all degraded maps (the comm shrinks
        #: past them, so comm-local numbering is not stable).
        self.lost_ranks: tuple[int, ...] = ()
        #: True once any map completed degraded (a rank was lost).
        self.degraded_run = False

    # --------------------------------------------------------------- plumbing

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def _fresh_kv(self, schema: Any = KEEP_SCHEMA) -> ColumnarKeyValue:
        """An empty KV store: the current schema, ``None`` for untyped, or
        the :class:`RecordSchema` given (reduce()/map_kv() ``out_schema``)."""
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
        """Close a phase: one ``dt`` feeds both the legacy timer and the
        span's ``seconds`` attribute, so trace-derived phase totals are
        bit-identical to :attr:`timers` (same floats, same addition order).
        """
        dt = time.perf_counter() - t0
        self.timers[phase] = self.timers.get(phase, 0.0) + dt
        trc = self._tracer
        if trc.enabled:
            trc.end(seconds=dt, **attrs)

    def _bump(self, phase: str, pairs: int, nbytes: int) -> None:
        st = self.stats.setdefault(phase, {"pairs_moved": 0, "bytes_moved": 0})
        st["pairs_moved"] += int(pairs)
        st["bytes_moved"] += int(nbytes)
        trc = self._tracer
        if trc.enabled:
            trc.instant("mr.traffic", cat="mr", phase=phase,
                        pairs=int(pairs), bytes=int(nbytes))
            trc.metrics.counter(f"mr.{phase}.pairs_moved").add(int(pairs))
            trc.metrics.counter(f"mr.{phase}.bytes_moved").add(int(nbytes))

    def _require_kv(self) -> ColumnarKeyValue:
        if self.kv is None:
            raise RuntimeError("no KeyValue dataset; call map() first")
        return self.kv

    def _require_kmv(self) -> ColumnarKeyMultiValue:
        if self.kmv is None:
            raise RuntimeError("no KeyMultiValue dataset; call convert()/collate() first")
        return self.kmv

    # -------------------------------------------------------------------- map

    def map(
        self,
        nmap: int,
        mapper: Callable[[int, ColumnarKeyValue], None],
        mapstyle: MapStyle | None = None,
        count: bool = False,
        speculation: SpeculationPolicy | None = None,
        degraded: bool = False,
    ) -> int:
        """Run ``mapper(itask, kv)`` for each task id in ``[0, nmap)``.

        Returns the local number of KV pairs after the map, or the global
        number with ``count=True`` (a collective allreduce — opt-in, since
        most callers ignore the return value).  Every map starts a fresh
        KV dataset.
        """
        return self.map_items(
            range(nmap), lambda i, item, kv: mapper(i, kv), mapstyle,
            count=count, speculation=speculation, degraded=degraded,
        )

    def map_items(
        self,
        items: Sequence[Any],
        mapper: Callable[[int, Any, ColumnarKeyValue], None],
        mapstyle: MapStyle | None = None,
        locality_key: Callable[[Any], Any] | None = None,
        count: bool = False,
        speculation: SpeculationPolicy | None = None,
        degraded: bool = False,
    ) -> int:
        """Run ``mapper(itask, items[itask], kv)`` over a list of work items.

        ``items`` must be identical on every rank (SPMD); only task *indices*
        travel over the wire, matching how the original library hands out
        file/task ids rather than payloads.  Returns the local pair count
        (global with ``count=True``, which adds a collective allreduce).

        With ``locality_key`` (master/worker mode only) the master becomes
        *location-aware*: a worker requesting more work is preferentially
        given an item whose key matches the item it just finished — the
        scheduling improvement the paper announces in §V ("distribute the
        work unit tuples to those ranks that have already been processing
        the same DB partitions").  Workers with no matching work claim a
        fresh key (spreading keys across workers) and finally steal from the
        fullest remaining key.

        ``speculation`` (master/worker mode only) enables speculative
        re-execution: the master keeps an online P² quantile of unit
        runtimes and re-issues a unit to an idle worker once its elapsed
        time exceeds ``factor x`` the running median.  Workers buffer each
        unit's output in a staging store and only merge it into the real
        dataset once the master accepts their completion, so the winner is
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
                items, mapper, kv, locality_key, speculation, degraded)
        else:
            for itask in self._static_tasks(len(items), style):
                mapper(itask, items[itask], kv)

        self._phase_end("map", t0)
        self._bump("map", len(kv), kv.nbytes)
        if count:
            return self.kv_stats()[0]
        return len(kv)

    def _map_items_sched(
        self,
        items: Sequence[Any],
        mapper: Callable[[int, Any, ColumnarKeyValue], None],
        kv: ColumnarKeyValue,
        locality_key: Callable[[Any], Any] | None,
        speculation: SpeculationPolicy | None,
        degraded: bool,
    ) -> None:
        """The MASTER_WORKER map: rank 0 dispatches, everyone else works.

        On return ``self.comm`` may have shrunk past dead ranks, and
        :attr:`sched` holds the master's report on every surviving rank.
        A worker that died raises :class:`DegradedRankLoss` out of here.
        """
        keys = [None if locality_key is None else locality_key(item)
                for item in items]
        if self.rank == 0:
            report, dead_local = self._run_sched_master(keys, speculation, degraded)
        else:
            report, dead_local = self._run_sched_worker(
                items, mapper, kv, keys,
                speculating=speculation is not None, degraded=degraded)
        # Every survivor holds the same master-authored (report, dead set)
        # before anyone shrinks, so the shrunk communicators agree.
        if dead_local:
            lost_global = tuple(sorted(self.comm.group[r] for r in dead_local))
            self.comm = self.comm.shrink(sorted(dead_local))
            self._tracer = self.comm.tracer
            self.lost_ranks = tuple(sorted(set(self.lost_ranks) | set(lost_global)))
            self.degraded_run = True
        self.sched = report
        self.sched_stats["speculated"] += report.speculated
        self.sched_stats["wasted"] += report.wasted
        self.sched_stats["reassigned"] += report.reassigned

    def _run_sched_master(
        self,
        keys: Sequence[Any],
        speculation: SpeculationPolicy | None,
        degraded: bool,
    ) -> tuple[SchedReport, frozenset[int]]:
        """Rank 0: event-driven pull dispatch.

        Worker requests carry ``(last_key, done_unit)`` and replies carry
        ``(keep, unit, final)``: ``keep`` resolves the worker's previous
        unit (commit or discard its staging), ``unit`` is the next task id.
        The master sleeps on its mailbox; a worker it has nothing for yet
        is *parked* (no reply) and answered the moment a death sweep
        requeues a unit or a speculation candidate falls due.  The wait is
        unbounded unless the clock can change the answer: death sweeps run
        every ``_SWEEP_INTERVAL`` (degraded mode), and a parked worker is
        looked at again when the tracker says the next straggler falls due.
        Without ``speculation``/``degraded`` nothing is ever requeued or
        cloned, so parking lasts until the map completes.

        The map ends when every unit is complete and every live worker is
        parked: all of them are retired at once with ``unit=None`` and
        ``final=(report, dead_ranks)``.  Nobody is dismissed earlier, so a
        death at any point of a worker's loop still finds survivors to
        redo its units; membership is decided exactly once, here, so the
        fleet cannot shrink around different dead sets; and since no
        worker leaves before the master has stopped matching requests, the
        reply is also the fence that keeps the next ``map_items()``'s
        requests (same tags) away from this call's master.
        """
        nmap = len(keys)
        queue = UnitQueue(keys)
        tracker = StragglerTracker(speculation)
        trc = self._tracer
        active = set(range(1, self.size))
        #: worker -> (last_key, keep) of the request it is still owed a reply to
        parked: dict[int, tuple[Any, bool]] = {}
        dead_local: set[int] = set()

        def sweep_dead() -> None:
            """Fold transport-level death flags into the dispatch state."""
            group = self.comm.group
            for global_rank in self.comm.network.dead_ranks():
                if global_rank not in group:
                    continue
                local = group.index(global_rank)
                if local in dead_local or local == 0:
                    continue
                dead_local.add(local)
                active.discard(local)
                parked.pop(local, None)
                # In-flight units whose only live runner died go back to
                # the front of the queue; units the dead worker already
                # completed are lost with its local dataset and must be
                # redone from scratch.
                orphans = tracker.release_worker(local, time.monotonic())
                lost_done = tracker.accepted_units(local)
                for unit in lost_done:
                    tracker.forget(unit)
                for unit in lost_done + orphans:
                    queue.requeue(unit)
                tracker.reassigned += len(lost_done) + len(orphans)
                if trc.enabled:
                    trc.instant("sched.reassign", cat="sched", rank=local,
                                global_rank=global_rank,
                                inflight=len(orphans), completed=len(lost_done))
                # Void any requests the dead worker left in the mailbox.
                while self.comm._match(source=local, tag=_TAG_REQUEST,
                                       block=False) is not None:
                    pass

        def reply(src: int, keep: bool, unit: Optional[int], final: Any = None) -> None:
            # In degraded mode a reply can race the destination's death
            # (process backend: broken pipe).  The next sweep retires it.
            try:
                self.comm.send((keep, unit, final), dest=src, tag=_TAG_ASSIGN)
            except MPIError:
                if not degraded:
                    raise

        def assign(src: int, last_key: Any, keep: bool, now: float) -> bool:
            """Hand one worker its next unit, if there is one for it yet."""
            unit = queue.next(last_key)
            while unit is not None and tracker.is_done(unit):
                # Requeued when its winner died, then completed by a
                # speculative copy that was still running: nothing to redo.
                unit = queue.next(last_key)
            if unit is None:
                unit = tracker.candidate(now, exclude_worker=src)
                if unit is None:
                    return False
                if trc.enabled:
                    trc.instant(
                        "sched.speculate", cat="sched", unit=unit, rank=src,
                        copies=len(tracker.runners(unit)) + 1,
                        median=tracker.median() or 0.0)
            tracker.assign(unit, src, now)
            reply(src, keep, unit)
            return True

        while True:
            if degraded:
                sweep_dead()
            if tracker.completed == nmap and len(parked) == len(active):
                break
            if not active:
                raise MPIError(
                    f"sched master: all workers lost with "
                    f"{nmap - tracker.completed} of {nmap} units incomplete")
            now = time.monotonic()
            for src, (last_key, keep) in list(parked.items()):
                if assign(src, last_key, keep, now):
                    del parked[src]
            wait = _SWEEP_INTERVAL if degraded else None
            due = tracker.next_due() if parked else None
            if due is not None:
                until_due = max(due - now, 0.001)
                wait = until_due if wait is None else min(wait, until_due)
            msg = self.comm._match(source=ANY_SOURCE, tag=_TAG_REQUEST,
                                   block=wait is None, timeout=wait)
            if msg is None or msg.src in dead_local:
                continue  # clock tick, or a stale request from a dead worker
            last_key, done = msg.payload
            now = time.monotonic()
            keep = done is not None and tracker.complete(done, msg.src, now)
            if not assign(msg.src, last_key, keep, now):
                parked[msg.src] = (last_key, keep)
        lost_global = tuple(self.comm.group[r] for r in sorted(dead_local))
        report = tracker.report(lost_global, degraded=bool(dead_local))
        for src, (_last_key, keep) in parked.items():
            reply(src, keep, None, final=(report, tuple(sorted(dead_local))))
        return report, frozenset(dead_local)

    def _run_sched_worker(
        self,
        items: Sequence[Any],
        mapper: Callable[[int, Any, ColumnarKeyValue], None],
        kv: ColumnarKeyValue,
        keys: Sequence[Any],
        speculating: bool,
        degraded: bool,
    ) -> tuple[SchedReport, frozenset[int]]:
        """Worker side of dispatch: ask, run, report, until retired.

        A request the master cannot serve yet simply goes unanswered until
        it can (see :meth:`_run_sched_master`), so the worker blocks in the
        same ``recv`` whether its next unit is queued, yet to be requeued,
        or the map is about to end.

        With speculation each unit runs against a fresh staging store that
        is merged into ``kv`` only once the master accepts the completion
        (first-copy-wins): a discarded loser leaves no trace, so output is
        identical to a no-speculation run.  Mappers with out-of-band state
        (e.g. mrsom's accumulator) expose optional ``begin_unit`` /
        ``commit_unit`` / ``discard_unit`` hooks that bracket each unit the
        same way.

        In degraded mode a rank failure is converted into
        :class:`DegradedRankLoss` after flagging this rank dead on the
        transport, so the master can route around it.
        """
        begin_hook = getattr(mapper, "begin_unit", None)
        commit_hook = getattr(mapper, "commit_unit", None)
        discard_hook = getattr(mapper, "discard_unit", None)
        last_key: Any = None
        pending: Optional[tuple[int, Optional[ColumnarKeyValue]]] = None
        stage: Optional[ColumnarKeyValue] = None
        try:
            while True:
                done = pending[0] if pending is not None else None
                self.comm.send((last_key, done), dest=0, tag=_TAG_REQUEST)
                keep, itask, final = self.comm.recv(source=0, tag=_TAG_ASSIGN)
                if pending is not None:
                    unit, stage = pending
                    pending = None
                    if keep:
                        if stage is not None:
                            self._merge_stage(kv, stage)
                        if commit_hook is not None:
                            commit_hook(unit)
                    elif discard_hook is not None:
                        discard_hook(unit)
                    if stage is not None:
                        stage.close()
                        stage = None
                if final is not None:
                    report, dead = final
                    return report, frozenset(dead)
                if speculating:
                    stage = self._fresh_kv()
                if begin_hook is not None:
                    begin_hook(itask)
                mapper(itask, items[itask], stage if speculating else kv)
                pending = (itask, stage)
                stage = None
                last_key = keys[itask]
        except RankFailure as exc:
            if stage is not None:
                stage.close()
            if pending is not None and pending[1] is not None:
                pending[1].close()
            if degraded:
                self.comm.network.mark_dead(self.comm.global_rank)
                raise DegradedRankLoss(self.comm.global_rank, repr(exc)) from exc
            raise

    @staticmethod
    def _merge_stage(kv: ColumnarKeyValue, stage: ColumnarKeyValue) -> None:
        """Append a staging store's pairs to the real dataset."""
        for karr, vcol in stage.iter_batches():
            kv.add_wire((karr,) + _v_to_arrays(vcol))

    def _static_tasks(self, nmap: int, style: MapStyle):
        if style is MapStyle.STRIDED:
            return range(self.rank, nmap, self.size)
        # CHUNK (and the degenerate single-rank MASTER_WORKER): contiguous block
        lo = self.rank * nmap // self.size
        hi = (self.rank + 1) * nmap // self.size
        return range(lo, hi)

    def map_kv(
        self,
        mapper: Callable[[Any, Any, ColumnarKeyValue], None],
        count: bool = False,
        out_schema: Any = KEEP_SCHEMA,
    ) -> int:
        """Map over the *existing* KV pairs, producing a new KV dataset.

        The original library's ``map(mr, ...)`` variant: every local pair is
        passed to ``mapper(key, value, kv_out)``; no communication happens
        (pairs are transformed where they live).  Returns the local count
        (global with ``count=True``).  ``out_schema`` is the output's
        layout: the current schema by default, ``None`` for untyped, or a
        different :class:`RecordSchema`.
        """
        t0 = self._phase_begin("map")
        kv = self._require_kv()
        new_kv = self._fresh_kv(out_schema)
        try:
            for key, value in kv:
                mapper(key, value, new_kv)
        except BaseException:
            # The job is unwinding (abort, crash, mapper bug): the orphaned
            # intermediate must not leak its spill file.  Exceptions keep
            # this frame alive via their traceback, so GC won't save us.
            new_kv.close()
            raise
        kv.close()
        self.kv = new_kv
        self._phase_end("map", t0)
        if count:
            return self.kv_stats()[0]
        return len(new_kv)

    # -------------------------------------------------------- shuffle & group

    def aggregate(self, exchange_bytes: int | None = None) -> int:
        """Redistribute KV pairs so all copies of a key land on one rank.

        The destination rank of a key is ``stable_hash(key) % nprocs``
        (FNV-1a of its canonical encoding, whatever the schema).  The
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
            hash_key_column(ks, schema.key_kind) % np.uint64(size)).astype(np.int64)
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
                # The store copied what it keeps: this drops the round and
                # hands every arena slot back before the next one is sorted.
                outgoing = incoming = run = None
                trc = self._tracer
                if trc.enabled:
                    trc.instant("mr.exchange_round", cat="mr", round=round_idx,
                                pairs=round_pairs, bytes=round_bytes,
                                **_arena_attrs(self.comm))
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

    def compress(self, reducer: Callable[[Any, Sequence, ColumnarKeyValue], None]) -> int:
        """Local combiner: convert + reduce *without* any communication.

        The original library's ``compress()``: each rank groups its own KV
        pairs and runs the reducer on the local groups, producing a new
        (smaller) KV dataset.  Used before ``collate`` to shrink the shuffle
        volume when the reducer is idempotent under pre-aggregation (e.g.
        per-query top-K selection).  ``values`` is what :meth:`reduce`
        hands out.  Returns the local KV pair count.
        """
        t0 = self._phase_begin("compress")
        kv = self._require_kv()
        local_kmv = convert_columnar(kv, pagesize=self.memsize, spool_dir=self.spool_dir)
        new_kv = self._fresh_kv(kv.schema)
        kv.close()
        try:
            for key, values in local_kmv:
                reducer(key, values, new_kv)
        except BaseException:
            new_kv.close()
            local_kmv.close()
            raise
        local_kmv.close()
        self.kv = new_kv
        self._phase_end("compress", t0)
        return len(new_kv)

    def reduce(
        self,
        reducer: Callable[[Any, Sequence, ColumnarKeyValue], None],
        count: bool = False,
        out_schema: Any = KEEP_SCHEMA,
    ) -> int:
        """Call ``reducer(key, values, kv_out)`` once per local KMV pair.

        ``values`` is a read-only sequence in emission order, a
        :class:`~repro.mrmpi.columnar.ValuesView`: a window on the page's
        rows (``len`` is O(1), rows are decoded when indexed or iterated,
        and it stays valid if the reducer keeps it).

        Returns the local number of KV pairs emitted (global with
        ``count=True``).  ``out_schema`` is the output's layout, exactly as
        for :meth:`map_kv`: a reducer that emits ``(key, count)`` summaries
        from typed rows passes ``out_schema=None``.
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
        if count:
            return self.kv_stats()[0]
        return len(new_kv)

    # ----------------------------------------------------------- repartitioning

    def gather(self, nranks: int = 1, exchange_bytes: int | None = None) -> int:
        """Move all KV pairs onto the first ``nranks`` ranks (rank r → r % nranks).

        Transfers are paged: each message stages at most ``exchange_bytes``
        (default ``memsize``) so gathering an out-of-core dataset never
        materialises it in one message.  A message is a page's tuple of
        wire arrays; the last one of a sender's stream ends in ``None``, so
        a dataset of one page travels as one message (an empty one as
        ``(None,)``).  Receivers drain
        senders in rank order, so arrival order is deterministic.  No
        barrier follows: messages from one sender arrive in the order sent,
        so the marker alone ends a stream, and a sender may go on before
        its receiver has drained it.
        """
        t0 = self._phase_begin("gather")
        if not (1 <= nranks <= self.size):
            raise ValueError(f"nranks must be in [1, {self.size}], got {nranks}")
        budget = self.memsize if exchange_bytes is None else int(exchange_bytes)
        if budget < 1:
            raise ValueError(f"exchange_bytes must be >= 1, got {budget}")
        kv = self._require_kv()
        dest = self.rank % nranks
        if self.rank >= nranks:
            held: tuple = ()
            for page, pairs, nbytes in self._gather_pages(kv, budget):
                if held:
                    self.comm.send(held, dest=dest, tag=_TAG_GATHER)
                held = page
                self._bump("gather", pairs, nbytes)
            self.comm.send(held + (None,), dest=dest, tag=_TAG_GATHER)
            kv.close()
            self.kv = self._fresh_kv()
        else:
            senders = [r for r in range(nranks, self.size) if r % nranks == self.rank]
            for r in senders:
                last = False
                while not last:
                    msg = self.comm.recv(source=r, tag=_TAG_GATHER)
                    last = msg[-1] is None
                    page = msg[:-1] if last else msg
                    if page:
                        kv.add_wire(page)
        self._phase_end("gather", t0)
        return len(self._require_kv())

    @staticmethod
    def _gather_pages(kv: ColumnarKeyValue, budget: int):
        """``kv`` as wire pages of at most ``budget`` bytes: ``(page tuple
        of arrays, pairs, bytes)``."""
        for karr, vcol in kv.iter_batches():
            nb = int(karr.nbytes) + _v_nbytes(vcol)
            nchunks = max(1, -(-nb // budget))  # ceil
            step = max(1, -(-len(karr) // nchunks))
            for lo in range(0, len(karr), step):
                hi = min(lo + step, len(karr))
                arrs = (karr[lo:hi],) + _v_to_arrays(_v_slice(vcol, lo, hi))
                yield arrs, hi - lo, sum(int(a.nbytes) for a in arrs)

    # ----------------------------------------------------------------- sorting

    def sort_keys(self) -> None:
        """Sort local KV pairs by key column order (stable, spool-aware:
        :func:`~repro.mrmpi.columnar.iter_sorted_batches`)."""
        kv = self._require_kv()
        new_kv = self._fresh_kv(kv.schema)
        try:
            for karr, vcol in iter_sorted_batches(kv):
                new_kv.add_wire((karr,) + _v_to_arrays(vcol), sorted_run=True)
        except BaseException:
            new_kv.close()
            raise
        kv.close()
        self.kv = new_kv

    def sort_multivalues(self, key: Callable[[Any], Any] | None = None) -> None:
        """Sort the value list inside every local KMV pair.

        Streams group by group (spool-aware); memory is bounded by the
        largest single group, as in the original library.
        """
        kmv = self._require_kmv()
        new_kmv = ColumnarKeyMultiValue(kmv.schema, pagesize=kmv.pagesize,
                                        spool_dir=kmv._spool_dir)
        try:
            for k, vs in kmv:
                new_kmv.add(k, sorted(vs, key=key))
        except BaseException:
            new_kmv.close()
            raise
        kmv.close()
        self.kmv = new_kmv

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

    def scan_kv(self, fn: Callable[[Any, Any], None]) -> None:
        """Apply ``fn(key, value)`` to every local KV pair (read-only)."""
        for key, value in self._require_kv():
            fn(key, value)

    def scan_kmv(self, fn: Callable[[Any, Sequence], None]) -> None:
        """Apply ``fn(key, values)`` to every local KMV pair (read-only);
        ``values`` is the sequence :meth:`reduce` hands out."""
        for key, values in self._require_kmv():
            fn(key, values)

    def kv_stats(self) -> tuple[int, int]:
        """Collective: (global KV pair count, max per-rank count)."""
        local = 0 if self.kv is None else len(self.kv)
        return (
            int(self.comm.allreduce(local, op=SUM)),
            int(self.comm.allreduce(local, op=MAX)),
        )

    def kmv_stats(self) -> tuple[int, int]:
        """Collective: (global KMV pair count, global value count)."""
        nk = 0 if self.kmv is None else len(self.kmv)
        nv = 0 if self.kmv is None else self.kmv.nvalues
        return (
            int(self.comm.allreduce(nk, op=SUM)),
            int(self.comm.allreduce(nv, op=SUM)),
        )

    def shuffle_stats(self) -> dict[str, dict[str, int]]:
        """Collective: per-phase traffic counters summed over all ranks."""
        phases = sorted(set(self.comm.allreduce(list(self.stats), op=SUM)))
        out: dict[str, dict[str, int]] = {}
        for phase in phases:
            local = self.stats.get(phase, {"pairs_moved": 0, "bytes_moved": 0})
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
        spool directory, cumulative :attr:`timers`/:attr:`stats`/scheduler
        counters — instead of tearing it down per job.  ``reset()`` is the
        per-job boundary: both datasets are closed (spill pages reclaimed)
        so the next ``map_items`` starts clean.
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
