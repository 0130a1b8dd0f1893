"""Glide-in (pilot-job) execution model — the alternative the paper rejects.

The introduction discusses engines like SWIFT and GlideinWMS that "work
through a two-level scheduling: allocating relatively large MPI jobs at the
local resource manager on the cluster, and then having each processor rank
act as an execution daemon that starts sequential tasks farmed out from the
scheduler in a load-balancing mode", noting they need external scheduler
connectivity and fork() on compute nodes.

This model quantifies the trade-off the paper leaves implicit: a glide-in
daemon pays a *wide-area scheduler round trip* plus a fork/exec start-up
per task, where the in-job MR-MPI master costs microseconds.  For
coarse-grained units both work; when units shrink (as the paper's own §V
dynamic-chunking plan requires for load balancing), the glide-in overhead
dominates — one reason the in-MPI master/worker design matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.blast_model import BlastWorkloadModel
from repro.cluster.dispatch import SimResult, WorkerTrace, kv_total_gb, unit_step
from repro.cluster.machine import ClusterSpec
from repro.cluster.pagecache import PartitionCache
from repro.simtime.events import Environment
from repro.simtime.resources import Resource

__all__ = ["GlideinSpec", "simulate_glidein_run"]


@dataclass(frozen=True)
class GlideinSpec:
    """Overheads of the pilot-job path."""

    #: round trip to the external (off-cluster) scheduler per task
    scheduler_latency: float = 0.5
    #: fork()/exec and per-task process start-up on the compute node
    fork_overhead: float = 0.3
    #: how many concurrent scheduler requests the gateway proxy sustains
    gateway_concurrency: int = 64

    def __post_init__(self) -> None:
        if self.scheduler_latency < 0 or self.fork_overhead < 0:
            raise ValueError("overheads must be non-negative")
        if self.gateway_concurrency < 1:
            raise ValueError("gateway_concurrency must be >= 1")


def simulate_glidein_run(
    cluster: ClusterSpec,
    workload: BlastWorkloadModel,
    glidein: GlideinSpec | None = None,
) -> SimResult:
    """Replay the same workload through glide-in daemons.

    Every core runs a daemon (no master rank is needed — the scheduler is
    external), tasks are fetched one at a time through the shared gateway,
    and each execution pays the fork overhead.  Page-cache behaviour matches
    the MR-MPI runs (same nodes, same mmap'd volumes).
    """
    spec = glidein or GlideinSpec()
    env = Environment()
    workers = cluster.cores
    cache = PartitionCache(cluster.page_cache_gb)
    step = unit_step(env, cluster, workload, cache)
    traces = [WorkerTrace(w) for w in range(workers)]
    units = ((b, p) for b in range(workload.n_blocks) for p in range(workload.n_partitions))
    gateway = Resource(env, capacity=spec.gateway_concurrency)

    def daemon(env: Environment, wid: int):
        trace, held = traces[wid], None
        while True:
            # Fetch the next task through the gateway proxy.
            yield gateway.request()
            yield env.timeout(spec.scheduler_latency)
            unit = next(units, None)
            gateway.release()
            if unit is None:
                return
            yield env.timeout(spec.fork_overhead)
            trace.add(*(yield from step(trace, unit, held)))
            held = unit[1]

    for w in range(workers):
        env.process(daemon(env, w))
    env.run()

    return SimResult(
        cluster=cluster,
        workload=workload,
        scheduler="glidein",
        map_makespan=env.now,
        collate_seconds=0.0,
        # File-system-level result merging replaces collate/reduce.
        reduce_seconds=kv_total_gb(workload) / 0.2,
        traces=traces,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
