"""Ablation: the §V scheduling improvements the paper announces.

- FIFO master/worker (the paper's implementation),
- location-aware dispatch (the paper's planned improvement: prefer units
  whose partition the worker already holds),
- mpiBLAST-like static partition scatter (the comparator).

The ablation quantifies both claims: location-awareness slashes DB reloads,
and static scatter loses to dynamic balancing on an irregular workload.

The factoring ablation sizes the master's chunks the way the real MPI
master does (Hummel et al. 1992) instead of one unit per request, at
Fig. 5's scale.  The straggler ablation adds the robustness arms on the
same fleet: plain dispatch vs speculative re-execution, under a seeded
stall/crash plan on 256 simulated cores.
"""

import json
from pathlib import Path

from repro.cluster import nucleotide_workload, protein_workload, ranger, simulate_blast_run
from repro.figures.comparisons import ablation_scheduling
from repro.mpi.faultplan import FaultPlan
from repro.sched import SpeculationPolicy

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_robustness.json"


def _record(key, payload):
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[key] = payload
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_ablation_scheduling(benchmark, print_table):
    points = benchmark(ablation_scheduling, 40_000)

    print_table(
        "Scheduling ablation — blastn 40K queries",
        ["cores", "scheduler", "wall min", "DB reloads", "I/O core-h"],
        [
            [p.cores, p.scheduler, f"{p.wall_minutes:.1f}", p.total_reloads, f"{p.io_core_hours:.1f}"]
            for p in points
        ],
    )

    by_key = {(p.cores, p.scheduler): p for p in points}
    for cores in (64, 256, 1024):
        fifo = by_key[(cores, "master_worker")]
        affinity = by_key[(cores, "affinity")]
        static = by_key[(cores, "static")]
        glidein = by_key[(cores, "glidein")]
        # Location-aware dispatch cuts partition reloads dramatically...
        assert affinity.total_reloads < fifo.total_reloads / 3
        # ...and never loses on wall time.
        assert affinity.wall_minutes <= fifo.wall_minutes * 1.02
        # Static scatter suffers on the straggler-heavy workload.
        assert static.wall_minutes >= affinity.wall_minutes
        # Glide-in pays external-scheduler overheads the in-job master avoids.
        assert glidein.wall_minutes >= fifo.wall_minutes * 0.98


def test_factoring_ablation(print_table):
    """One unit per request (the paper's) vs factoring (the real master's
    chunk rule, ``chunk=None``) at Fig. 5's scale: the 1024-core blastp run."""
    cluster, workload = ranger(1024), protein_workload()
    runs = {
        (scheduler, chunk): simulate_blast_run(cluster, workload, scheduler, chunk=chunk)
        for scheduler in ("master_worker", "affinity") for chunk in (1, None)
    }
    print_table(
        "Factoring ablation — blastp, 1024 cores (Fig. 5)",
        ["scheduler", "chunk", "makespan s", "DB reloads", "utilization"],
        [[scheduler, chunk or "factoring", f"{r.map_makespan:.1f}", r.total_reloads,
          f"{_utilization(r):.4f}"] for (scheduler, chunk), r in runs.items()],
    )
    _record("factoring_ablation", {
        "cluster_cores": cluster.cores,
        "n_units": workload.n_units,
        "arms": {
            f"{scheduler}/{chunk or 'factoring'}": {
                "map_makespan_s": r.map_makespan,
                "reloads": r.total_reloads,
                "utilization": _utilization(r),
            }
            for (scheduler, chunk), r in runs.items()
        },
    })
    # At Ranger's 0.5 ms dispatch latency a round trip per unit costs
    # nothing against blastp's units: fewer requests, the same makespan.
    for scheduler in ("master_worker", "affinity"):
        one, factored = runs[(scheduler, 1)], runs[(scheduler, None)]
        assert abs(factored.map_makespan / one.map_makespan - 1) < 0.025
        assert factored.sched.completed == one.sched.completed == workload.n_units


def _utilization(res):
    busy = res.total_io_seconds + res.total_compute_seconds
    return busy / (res.cluster.workers * res.map_makespan)


def test_straggler_mitigation_ablation(print_table):
    """none / speculation on a 256-core fleet.

    One worker stalls for 600 s mid-map and another crashes outright; the
    same seeded plan drives both arms, so the delta is pure policy.  Both
    survive the crash: the master requeues the dead worker's units.
    """
    cluster = ranger(256)
    workload = nucleotide_workload(n_queries=20_000)
    plan = FaultPlan.parse("stall=7@3:600,crash=19@5", cluster.workers)

    arms = {
        "none": dict(),
        "speculation": dict(speculation=SpeculationPolicy(factor=2.0)),
    }
    runs = {
        name: simulate_blast_run(cluster, workload, fault_plan=plan, **kw)
        for name, kw in arms.items()
    }

    print_table(
        "Straggler ablation — blastn 20K queries, 256 cores, stall+crash",
        ["policy", "makespan s", "speculated", "wasted units", "wasted s",
         "reassigned", "lost workers", "utilization"],
        [
            [name, f"{r.map_makespan:.1f}", r.sched.speculated, r.sched.wasted,
             f"{r.wasted_seconds:.1f}", r.sched.reassigned, list(r.sched.lost_ranks),
             f"{_utilization(r):.2f}"]
            for name, r in runs.items()
        ],
    )
    _record("straggler_ablation", {
        "cluster_cores": cluster.cores,
        "fault_plan": "stall=7@3:600,crash=19@5",
        "n_units": workload.n_units,
        "arms": {
            name: {
                "map_makespan_s": r.map_makespan,
                "speculated_units": r.sched.speculated,
                "wasted_units": r.sched.wasted,
                "wasted_seconds": r.wasted_seconds,
                "reassigned_units": r.sched.reassigned,
                "lost_workers": list(r.sched.lost_ranks),
                "utilization": _utilization(r),
            }
            for name, r in runs.items()
        },
    })

    none, spec = runs["none"], runs["speculation"]
    # Speculation clones the stalled unit instead of waiting out the stall.
    assert none.map_makespan >= 1.5 * spec.map_makespan
    assert spec.sched.speculated >= 1
    # Both arms redo the crashed worker's units: each completes exactly once.
    for r in runs.values():
        assert r.sched.lost_ranks == (19,) and r.sched.reassigned >= 1
        assert r.sched.completed == sum(t.units for t in r.traces) == workload.n_units
    # Duplicate work is the price of speculation; it must be visible, a
    # sliver of the useful compute, and must not sink utilisation.
    assert 0 < spec.wasted_seconds < 0.1 * spec.total_compute_seconds
    assert _utilization(spec) > _utilization(none)
