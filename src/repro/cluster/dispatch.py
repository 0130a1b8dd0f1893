"""DES replay of the MR-MPI BLAST map phase on a modelled cluster.

Workers (cores minus the rank-0 master) run (query block, DB partition)
units: each reloads the partition when it differs from the one it holds
(cost depending on the page cache), then computes.  Three schedulers:

- ``master_worker`` — the paper's FIFO dispatch (units in query-major
  order, the next one to whichever worker asks);
- ``affinity`` — the paper's §V *future work*: the master prefers a unit
  whose partition the requesting worker already holds ("distribute the work
  unit tuples to those ranks that have already been processing the same DB
  partitions");
- ``static`` — mpiBLAST-style ownership: every core walks its own list,
  partition p belonging to worker ``p % W``; no master, no work stealing.

The first two run the real MPI master's policy, :class:`~repro.sched.Dispatcher`,
driven on the simulated clock the way ``MapReduce._run_sched_master`` drives
it on the wall clock: a finished chunk is a request, a crash is a death,
and a reply reaches its worker ``cluster.dispatch_latency`` later.

The collate/reduce phases are appended analytically (personalised
all-to-all of the emitted KV volume), since the paper's scaling behaviour
is dominated by the map phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.blast_model import BlastWorkloadModel
from repro.cluster.machine import ClusterSpec
from repro.cluster.pagecache import PartitionCache
from repro.mpi.faultplan import CrashRank, FaultPlan, StallRank
from repro.sched import Dispatcher, SchedReport, SpeculationPolicy
from repro.simtime.events import Environment, Event

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
    #: runs whose output was discarded: losing speculative copies and, once
    #: the worker crashed, everything it had run
    wasted_units: int = 0
    wasted_seconds: float = 0.0
    stall_seconds: float = 0.0
    crashed: bool = False

    def add(self, io: float, stall: float, compute: float, kept: bool = True) -> None:
        """Account one run: output kept, or a discarded copy."""
        if kept:
            self.units += 1
            self.io_seconds += io
            self.compute_seconds += compute
        else:
            self.wasted_units += 1
            self.wasted_seconds += io + stall + compute

    def crash(self, unreported: list[tuple[float, float, float]]) -> None:
        """The worker died: its kept output died with it (the master
        requeues those units), and so did the runs it had not reported."""
        self.crashed = True
        self.wasted_units += self.units + len(unreported)
        self.wasted_seconds += self.io_seconds + self.compute_seconds + sum(map(sum, unreported))
        self.units, self.io_seconds, self.compute_seconds = 0, 0.0, 0.0


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
    #: the master's report (all zero when no master dispatched: static, glide-in)
    sched: SchedReport = SchedReport()

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
    def wasted_seconds(self) -> float:
        return sum(t.wasted_seconds for t in self.traces)

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


def unit_step(env: Environment, cluster: ClusterSpec, workload: BlastWorkloadModel,
              cache: PartitionCache):
    """The step every simulated worker takes per unit: reload the unit's
    partition unless it holds it, stall, compute, and log the interval.
    ``yield from step(trace, unit, held, stall)`` gives ``(io, stall,
    compute)`` seconds."""

    def step(trace: WorkerTrace, unit: tuple[int, int], held: int | None,
             stall: float = 0.0):
        block, partition = unit
        start, io = env.now, 0.0
        if partition != held:
            cached = cache.access(partition, workload.partition_gb)
            io = cluster.load_seconds(workload.partition_gb, cached)
            yield env.timeout(io)
            trace.reloads += 1
        if stall:
            trace.stall_seconds += stall
            yield env.timeout(stall)
        compute = workload.compute_seconds(block, partition)
        yield env.timeout(compute)
        trace.intervals.append((start, start + io, env.now))
        return io, stall, compute

    return step


def kv_total_gb(workload: BlastWorkloadModel) -> float:
    """The KV volume every unit together emits, in GB."""
    return sum(workload.kv_bytes(b, p) for b in range(workload.n_blocks)
               for p in range(workload.n_partitions)) / 1e9


def simulate_blast_run(
    cluster: ClusterSpec,
    workload: BlastWorkloadModel,
    scheduler: str = "master_worker",
    *,
    speculation: SpeculationPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    chunk: int | None = 1,
) -> SimResult:
    """Simulate one map+collate+reduce cycle; deterministic per inputs.

    - ``chunk`` is the units the master hands out per request: the paper's
      one, or None for factoring, as the real master sizes them.
    - ``fault_plan`` reinterprets a :class:`~repro.mpi.faultplan.FaultPlan`
      on the simulated fleet: event ``rank`` is the worker index and
      ``at_op`` counts the units that worker has taken (1-based).
      ``StallRank`` adds ``seconds`` to the unit's service time;
      ``CrashRank`` kills the worker as it takes its ``at_op``-th unit, and
      the master requeues the units it held and the ones it had completed,
      as the real master does in degraded mode.  Message events are
      ignored (the DES has no message plane).
    - ``speculation`` re-issues overdue units to parked workers under the
      same :class:`~repro.sched.SpeculationPolicy` as the real runtime;
      the first copy to finish wins and the loser's time is wasted work.

    ``map_makespan`` then means *result-complete time* — the instant the
    last work unit is accepted — so a loser copy still grinding on a
    stalled worker does not mask the speculation win.
    """
    if scheduler not in ("master_worker", "affinity", "static"):
        raise ValueError(f"unknown scheduler policy {scheduler!r}")
    static = scheduler == "static"
    workers = cluster.cores if static else cluster.workers
    # Per-worker fault tables, read (not consumed) from the plan so one plan
    # can drive many simulated arms.
    crash_at: dict[int, int] = {}
    stall_at: dict[tuple[int, int], float] = {}
    for ev in fault_plan.events if fault_plan is not None else ():
        if isinstance(ev, CrashRank) and ev.rank < workers:
            crash_at[ev.rank] = min(crash_at.get(ev.rank, ev.at_op), ev.at_op)
        elif isinstance(ev, StallRank) and ev.rank < workers:
            key = (ev.rank, ev.at_op)
            stall_at[key] = stall_at.get(key, 0.0) + ev.seconds
    if static and (speculation is not None or crash_at):
        raise ValueError(
            "static scheduling has no master: speculation and crash recovery "
            "require the master_worker or affinity policy"
        )

    env = Environment()
    cache = PartitionCache(cluster.page_cache_gb)
    step = unit_step(env, cluster, workload, cache)
    traces = [WorkerTrace(w) for w in range(workers)]
    latency = cluster.dispatch_latency
    # For each query block, sweep all DB partitions — the order that
    # reproduces the paper's caching behaviour (every rank re-opens a
    # different partition per unit, so the page cache does the work).
    units = [(b, p) for b in range(workload.n_blocks) for p in range(workload.n_partitions)]

    def walk(wid: int):
        trace, held = traces[wid], None
        mine = [unit for unit in units if unit[1] % workers == wid]
        for taken, unit in enumerate(mine, 1):
            yield env.timeout(latency)
            trace.add(*(yield from step(trace, unit, held, stall_at.get((wid, taken), 0.0))))
            held = unit[1]

    disp = None if static else Dispatcher(
        [p if scheduler == "affinity" else None for _b, p in units],
        range(workers), speculation, chunk=chunk)
    inbox: dict[int, Event] = {}  # parked worker -> the reply it waits on
    wake: float | None = None  # when the armed speculation timer fires

    def settle() -> None:
        """What the master does after each request or death."""
        nonlocal wake
        now = env.now
        for wid, keeps, handed in disp.replies(now):
            inbox.pop(wid).succeed((keeps, handed))
        owed = disp.retire()
        for wid, keeps in owed or ():
            if wid in inbox:
                inbox.pop(wid).succeed((keeps, ()))
        due = disp.next_due()
        if owed is None and due is not None and now < due + latency and (
                wake is None or wake <= now or due + latency < wake):
            wake = due + latency
            env.timeout(wake - now).callbacks.append(lambda _ev: settle())

    def work(wid: int):
        trace, held, taken = traces[wid], None, 0
        handed = disp.first[wid]
        while True:
            if handed:
                yield env.timeout(latency)  # the reply's message time
            ran = []
            for unit in handed:
                taken += 1
                if taken == crash_at.get(wid):
                    trace.crash(ran)
                    disp.lose(wid, env.now)
                    settle()
                    return
                ran.append((yield from step(trace, units[unit], held,
                                            stall_at.get((wid, taken), 0.0))))
                held = units[unit][1]
            disp.request(wid, handed, env.now)
            reply = inbox[wid] = env.event()
            settle()
            keeps, handed = yield reply
            for cost, kept in zip(ran, keeps):
                trace.add(*cost, kept)
            if not handed:
                return

    for w in range(workers):
        env.process(walk(w) if static else work(w))
    env.run()
    if static:
        map_makespan, report = env.now, SchedReport()
    elif disp.tracker.completed < len(units):
        raise RuntimeError(f"every simulated worker crashed with "
                           f"{len(units) - disp.tracker.completed} units incomplete")
    else:
        map_makespan, report = disp.tracker.finish_time, disp.tracker.report(tuple(disp.dead))

    # Shuffle model: every rank holds kv_total/P and exchanges (P-1)/P of it
    # in a personalised all-to-all limited by per-link bandwidth.
    per_rank_gb = kv_total_gb(workload) / max(cluster.cores, 1)
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
        sched=report,
    )
