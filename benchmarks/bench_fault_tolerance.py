"""§II.A trade-off: the MPI execution model's missing fault tolerance.

The paper accepts that wrapping everything in one MPI job sacrifices fault
tolerance ("the price for this extra flexibility and portability").  This
bench quantifies the price on the modelled 1024-core protein run: at
realistic failure rates the whole-job restart risk is negligible next to
the HTC path's per-task redo cost; at pathological rates it dominates.
"""

import time

from repro.cluster import (
    FaultModel,
    RestartObservation,
    compare_fault_costs,
    protein_workload,
    ranger,
    simulate_blast_run,
    validate_restart_overhead,
)


def test_fault_tolerance_tradeoff(benchmark, print_table):
    run = benchmark(simulate_blast_run, ranger(1024), protein_workload())

    rows = []
    for rate, label in ((1e-6, "healthy cluster"), (1e-4, "stressed cluster"),
                        (2e-3, "pathological")):
        cmp = compare_fault_costs(run, FaultModel(failures_per_core_hour=rate))
        rows.append([
            label,
            f"{rate:g}",
            f"{cmp.mpi_survival * 100:.1f}%",
            f"{cmp.mpi_overhead_fraction * 100:.2f}%",
            f"{cmp.htc_overhead_fraction * 100:.4f}%",
        ])
    print_table(
        "Fault-tolerance trade-off (1024-core blastp run)",
        ["scenario", "fail/core-h", "MPI job survival", "MPI restart overhead",
         "HTC redo overhead"],
        rows,
    )

    healthy = compare_fault_costs(run, FaultModel(failures_per_core_hour=1e-6))
    worst = compare_fault_costs(run, FaultModel(failures_per_core_hour=2e-3))
    # On a healthy machine the paper's trade is nearly free...
    assert healthy.mpi_survival > 0.99
    assert healthy.mpi_overhead_fraction < 0.01
    # ...on a pathological one the MPI path pays much more than HTC.
    assert worst.mpi_overhead_fraction > 10 * worst.htc_overhead_fraction


def test_supervised_crash_resume_measured(tmp_path, print_table):
    """Injected crash vs fault-free run, measured end to end.

    One rank is killed mid-run; the supervisor detects, backs off and
    relaunches with resume.  Records the robustness counters and checks the
    redone-work overhead against the analytic half-interval model.
    """
    from repro.bio import shred_records, synthetic_community, synthetic_nt_database
    from repro.blast import BlastOptions, format_database
    from repro.core import MrBlastConfig, mrblast_spmd, mrblast_supervised
    from repro.core.mrblast.driver import run_mrblast
    from repro.core.mrblast.merge import collect_rank_hits
    from repro.mpi import CrashRank, FaultPlan, RetryPolicy
    from repro.mpi.runtime import SpmdJob
    from repro.mrmpi.mapreduce import MapStyle
    import dataclasses

    com = synthetic_community(n_genomes=3, genome_length=2000, seed=91)
    db = synthetic_nt_database(com, n_decoys=2, decoy_length=1200, seed=92)
    alias = format_database(db, tmp_path, "nt", kind="dna", max_volume_bytes=1400)
    reads = list(shred_records(com.genomes))[:12]
    blocks = [reads[i : i + 3] for i in range(0, len(reads), 3)]

    def config(out):
        return MrBlastConfig(
            alias_path=str(alias), query_blocks=blocks,
            options=BlastOptions.blastn(evalue=1e-4, max_hits=10),
            output_dir=str(tmp_path / out), blocks_per_iteration=2,
            mapstyle=MapStyle.CHUNK,
        )

    t0 = time.perf_counter()
    clean = mrblast_spmd(3, config("clean"))
    clean_wall = time.perf_counter() - t0
    useful = sum(r.units_processed for r in clean)

    # Probe rank 1's op counts at the iteration boundary and at the end so
    # the injected crash deterministically lands inside iteration 2 (CHUNK
    # mapstyle makes op counts reproducible).
    def ops_rank1(cfg):
        job = SpmdJob(3, run_mrblast, (cfg,))
        job.run()
        return job.network.op_count(1)

    full_ops = ops_rank1(config("probe-full"))
    half_ops = ops_rank1(
        dataclasses.replace(config("probe-half"), stop_after=1)
    )
    crash_op = (half_ops + full_ops) // 2

    plan = FaultPlan([CrashRank(rank=1, at_op=crash_op)])
    t0 = time.perf_counter()
    outcome = mrblast_supervised(
        3, config("faulty"), fault_plan=plan,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
    )
    faulty_wall = time.perf_counter() - t0

    def signatures(paths):
        merged = collect_rank_hits(paths)
        return sorted(
            (q, h.subject_id, h.q_start, h.s_start) for q, hs in merged.items() for h in hs
        )

    assert signatures([r.output_path for r in outcome.results]) == signatures(
        [r.output_path for r in clean]
    ), "resumed output must be bit-identical to the fault-free run"

    executed = useful + sum(r.units_processed for r in outcome.results)
    validation = validate_restart_overhead(RestartObservation(
        units_useful=useful, units_executed=executed,
        n_failures=1, units_per_checkpoint=useful / 2,
    ))
    assert validation.within(intervals=1.0)

    counters = {
        "faults_injected": outcome.faults_injected,
        "retries": outcome.retries,
        "quarantined_units": sum(r.quarantined_units for r in outcome.results),
        "resumed_from_iteration": max(
            r.resumed_from_iteration for r in outcome.results
        ),
        "clean_wall_s": clean_wall,
        "supervised_wall_s": faulty_wall,
        "restart_overhead_observed": validation.observed,
        "restart_overhead_predicted": validation.predicted,
        "fault_trace": [list(ev) for ev in outcome.fault_trace],
    }
    print_table(
        "Supervised crash -> resume (3 ranks, 1 injected crash)",
        ["counter", "value"],
        [[k, f"{v}"] for k, v in counters.items() if k != "fault_trace"],
    )
    assert outcome.retries == 1
    assert outcome.faults_injected == 1
