"""DES replay of the MR-MPI BLAST map phase on a modelled cluster.

Workers (cores minus the rank-0 master) pull (query block, DB partition)
units from a scheduler, pay a dispatch round trip, reload the partition when
it differs from the one they hold (cost depending on the page cache), then
compute.  Three schedulers:

- ``master_worker`` — the paper's FIFO dispatch (units in partition-major
  order, first free worker gets the next unit);
- ``static`` — mpiBLAST-style ownership: partition p belongs to worker
  ``p % W``; no work stealing;
- ``affinity`` — the paper's §V *future work*: the master prefers a unit
  whose partition the requesting worker already holds ("distribute the work
  unit tuples to those ranks that have already been processing the same DB
  partitions").

The collate/reduce phases are appended analytically (personalised
all-to-all of the emitted KV volume), since the paper's scaling behaviour
is dominated by the map phase.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cluster.blast_model import BlastWorkloadModel
from repro.cluster.machine import ClusterSpec
from repro.cluster.pagecache import PartitionCache
from repro.mpi.faultplan import CrashRank, FaultPlan, StallRank
from repro.sched import SpeculationPolicy, StragglerTracker, UnitQueue
from repro.simtime.events import Environment

__all__ = ["SimResult", "WorkerTrace", "simulate_blast_run"]


@dataclass
class WorkerTrace:
    """Per-worker activity log: (start, io_end, end) per unit."""

    worker: int
    intervals: list[tuple[float, float, float]] = field(default_factory=list)
    units: int = 0
    reloads: int = 0
    io_seconds: float = 0.0
    compute_seconds: float = 0.0
    #: straggler-mitigation accounting (PR 8)
    wasted_units: int = 0
    wasted_seconds: float = 0.0
    stall_seconds: float = 0.0
    crashed: bool = False


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    cluster: ClusterSpec
    workload: BlastWorkloadModel
    scheduler: str
    map_makespan: float
    collate_seconds: float
    reduce_seconds: float
    traces: list[WorkerTrace]
    cache_hits: int
    cache_misses: int
    #: straggler-mitigation / fault accounting (PR 8)
    speculated_units: int = 0
    wasted_units: int = 0
    wasted_seconds: float = 0.0
    reassigned_units: int = 0
    lost_units: int = 0
    lost_workers: tuple[int, ...] = ()

    @property
    def makespan(self) -> float:
        return self.map_makespan + self.collate_seconds + self.reduce_seconds

    @property
    def total_compute_seconds(self) -> float:
        return sum(t.compute_seconds for t in self.traces)

    @property
    def total_io_seconds(self) -> float:
        return sum(t.io_seconds for t in self.traces)

    @property
    def total_reloads(self) -> int:
        return sum(t.reloads for t in self.traces)

    @property
    def core_seconds(self) -> float:
        """Allocated core time (what the batch system charges)."""
        return self.makespan * self.cluster.cores

    @property
    def core_minutes_per_query(self) -> float:
        """Fig. 4's y-axis: allocated core minutes per query sequence."""
        return self.core_seconds / 60.0 / self.workload.total_queries

    def efficiency_vs(self, baseline: "SimResult") -> float:
        """Relative parallel efficiency against another run of the same
        workload: (baseline core·s per query) / (this core·s per query)."""
        if baseline.workload.total_queries != self.workload.total_queries:
            raise ValueError("efficiency comparison requires the same workload size")
        return baseline.core_seconds / self.core_seconds


class _Scheduler:
    """Synchronous unit source; the DES charges dispatch latency around it."""

    def __init__(
        self,
        workload: BlastWorkloadModel,
        policy: str,
        workers: int,
        order: str = "query_major",
    ) -> None:
        self.policy = policy
        if order == "query_major":
            # For each query block, sweep all DB partitions — the order that
            # reproduces the paper's caching behaviour (every rank re-opens a
            # different partition per unit, so the page cache does the work).
            units = [
                (b, p)
                for b in range(workload.n_blocks)
                for p in range(workload.n_partitions)
            ]
        elif order == "partition_major":
            units = [
                (b, p)
                for p in range(workload.n_partitions)
                for b in range(workload.n_blocks)
            ]
        else:
            raise ValueError(f"unknown unit order {order!r}")
        if policy in ("master_worker", "affinity"):
            # The queue policy the real master runs: FIFO is the one-key
            # case, affinity keys each unit by its partition (match, then
            # claim an unclaimed partition, then steal from the fullest).
            self._units = units
            self._index = {unit: i for i, unit in enumerate(units)}
            self._queue = UnitQueue(
                [p if policy == "affinity" else None for _b, p in units])
        elif policy == "static":
            self._per_worker: list[deque] = [deque() for _ in range(workers)]
            for b, p in units:
                self._per_worker[p % workers].append((b, p))
        else:
            raise ValueError(f"unknown scheduler policy {policy!r}")

    def next_unit(self, worker: int, current_partition: int | None):
        if self.policy == "static":
            q = self._per_worker[worker]
            return q.popleft() if q else None
        i = self._queue.next(
            current_partition if self.policy == "affinity" else None)
        return None if i is None else self._units[i]

    def requeue(self, unit: tuple[int, int]) -> None:
        """Put a dead worker's unit back at the front of its queue (static
        scheduling has no reassignment; ``simulate_blast_run`` checks)."""
        self._queue.requeue(self._index[unit])


def simulate_blast_run(
    cluster: ClusterSpec,
    workload: BlastWorkloadModel,
    scheduler: str = "master_worker",
    order: str = "query_major",
    *,
    speculation: SpeculationPolicy | None = None,
    reassign: bool = False,
    fault_plan: FaultPlan | None = None,
) -> SimResult:
    """Simulate one map+collate+reduce cycle; deterministic per inputs.

    Straggler/fault extensions (PR 8), all off by default:

    - ``fault_plan`` reinterprets a :class:`~repro.mpi.faultplan.FaultPlan`
      on the simulated fleet: event ``rank`` is the worker index and
      ``at_op`` counts that worker's *dispatched units* (1-based).
      ``StallRank`` adds ``seconds`` to the unit's service time;
      ``CrashRank`` kills the worker right after it takes its ``at_op``-th
      unit.  Message events are ignored (the DES has no message plane).
    - ``speculation`` re-issues overdue units to idle workers under the
      same :class:`~repro.sched.SpeculationPolicy` as the real runtime;
      the first copy to finish wins and the loser's time is wasted work.
    - ``reassign`` requeues a dead worker's in-flight units to the front
      of the queue (degraded completion); without it they are lost.

    ``map_makespan`` then means *result-complete time* — the instant the
    last work unit is accepted — so a loser copy still grinding on a
    stalled worker does not mask the speculation win.
    """
    if scheduler == "static" and (speculation is not None or reassign):
        raise ValueError(
            "static scheduling has no central queue: speculation/reassignment "
            "require the master_worker or affinity policy"
        )
    env = Environment()
    workers = cluster.workers if scheduler != "static" else cluster.cores
    cache = PartitionCache(cluster.page_cache_gb)
    sched = _Scheduler(workload, scheduler, workers, order=order)
    traces = [WorkerTrace(w) for w in range(workers)]

    # Per-worker fault tables, read (not consumed) from the plan so one plan
    # can drive many simulated arms.
    crash_at: dict[int, int] = {}
    stall_at: dict[tuple[int, int], float] = {}
    if fault_plan is not None:
        for ev in fault_plan.events:
            if isinstance(ev, CrashRank) and ev.rank < workers:
                crash_at[ev.rank] = min(crash_at.get(ev.rank, ev.at_op), ev.at_op)
            elif isinstance(ev, StallRank) and ev.rank < workers:
                key = (ev.rank, ev.at_op)
                stall_at[key] = stall_at.get(key, 0.0) + ev.seconds

    n_units = workload.n_blocks * workload.n_partitions
    tracker = StragglerTracker(speculation)
    state = {"lost": 0, "crashed": []}

    def worker_proc(env: Environment, wid: int):
        trace = traces[wid]
        current: int | None = None
        dispatched = 0
        crash_op = crash_at.get(wid)
        while tracker.completed + state["lost"] < n_units:
            unit = sched.next_unit(wid, current)
            if unit is None and speculation is not None:
                # Queue drained: clone the most-overdue straggler instead of
                # going idle (dedup by unit id makes the clone safe).
                unit = tracker.candidate(env.now, exclude_worker=wid)
            if unit is None:
                # Idle but the job is not done (a straggler or a requeue may
                # still need this worker): poll at a cadence scaled to the
                # observed unit cost.
                med = tracker.median()
                yield env.timeout(
                    max((med or 2.0) / 2.0, cluster.dispatch_latency * 8)
                )
                continue
            dispatched += 1
            yield env.timeout(cluster.dispatch_latency)
            tracker.assign(unit, wid, env.now)
            if crash_op is not None and dispatched >= crash_op:
                trace.crashed = True
                state["crashed"].append(wid)
                orphans = tracker.release_worker(wid, env.now)
                if reassign:
                    for u in orphans:
                        sched.requeue(u)
                    tracker.reassigned += len(orphans)
                else:
                    state["lost"] += len(orphans)
                    if scheduler == "static":
                        # Static ownership: the dead worker's whole queue
                        # dies with it — nobody else may serve it.
                        q = sched._per_worker[wid]
                        state["lost"] += len(q)
                        q.clear()
                return
            block, partition = unit
            start = env.now
            io = 0.0
            if partition != current:
                cached = cache.access(partition, workload.partition_gb)
                io = cluster.load_seconds(workload.partition_gb, cached)
                yield env.timeout(io)
                trace.reloads += 1
                current = partition
            stall = stall_at.get((wid, dispatched), 0.0)
            if stall:
                trace.stall_seconds += stall
                yield env.timeout(stall)
            compute = workload.compute_seconds(block, partition)
            yield env.timeout(compute)
            accepted = tracker.complete(unit, wid, env.now)
            trace.intervals.append((start, start + io, env.now))
            if accepted:
                trace.units += 1
                trace.io_seconds += io
                trace.compute_seconds += compute
            else:
                trace.wasted_units += 1
                trace.wasted_seconds += io + stall + compute

    for w in range(workers):
        env.process(worker_proc(env, w))
    env.run()
    map_makespan = tracker.finish_time if tracker.finish_time is not None else env.now

    # Shuffle model: every rank holds kv_total/P and exchanges (P-1)/P of it
    # in a personalised all-to-all limited by per-link bandwidth.
    kv_total_gb = (
        sum(
            workload.kv_bytes(b, p)
            for p in range(workload.n_partitions)
            for b in range(workload.n_blocks)
        )
        / 1e9
    )
    per_rank_gb = kv_total_gb / max(cluster.cores, 1)
    collate_seconds = per_rank_gb / cluster.net_bw_gbps + cluster.net_latency * max(
        cluster.cores - 1, 1
    ) * 0.01
    # Reduce: sort + file append of the per-rank share (disk-rate bound).
    reduce_seconds = per_rank_gb / 0.2

    return SimResult(
        cluster=cluster,
        workload=workload,
        scheduler=scheduler,
        map_makespan=map_makespan,
        collate_seconds=collate_seconds,
        reduce_seconds=reduce_seconds,
        traces=traces,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        speculated_units=tracker.speculated,
        wasted_units=tracker.wasted,
        wasted_seconds=sum(t.wasted_seconds for t in traces),
        reassigned_units=tracker.reassigned,
        lost_units=state["lost"],
        lost_workers=tuple(sorted(state["crashed"])),
    )
