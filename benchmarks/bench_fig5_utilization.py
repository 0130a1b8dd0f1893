"""Figure 5: useful CPU utilisation during the 1024-core protein BLAST run.

The paper's curve: a high plateau (protein BLAST is CPU-bound) with a taper
at the very end as the remaining work units run out and cores idle.  The
second test grounds the simulated curve in measurement: a real (small)
``mrblast_spmd`` run reporting where map time actually goes, stage by stage
— the seed share is what the lookup cache removes.
"""

import json

from repro.figures.utilization import fig5_utilization


def test_fig5_utilization_trace(benchmark, print_table):
    trace = benchmark(fig5_utilization, 1024, 100)

    rows = [
        [f"{m:.0f}", f"{u:.3f}"]
        for m, u in zip(trace.minutes[::10], trace.utilization[::10])
    ]
    print_table("Fig. 5 — useful CPU utilisation vs wall-clock minute", ["minute", "utilisation"], rows)

    assert trace.plateau > 0.9, "protein BLAST should run a high utilisation plateau"
    assert trace.utilization.max() <= 1.0 + 1e-9
    # Taper confined to the tail of the run.
    assert trace.taper_start_fraction > 0.7
    # Final bins show substantial idling (cores out of work).
    assert trace.utilization[-1] < 0.5 * trace.plateau
    # Utilisation is roughly flat over the middle (no mid-run starvation).
    mid = trace.utilization[len(trace.utilization) // 4 : 3 * len(trace.utilization) // 4]
    assert mid.min() > 0.85 * trace.plateau


import pytest


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_stage_breakdown_measured(tmp_path, print_table, backend):
    """Per-stage map-time breakdown from a real locality-aware run.

    The utilisation story above is simulated; this run measures the stage
    shares (seed / ungapped / gapped) the overhaul instrumented, and shows
    the cross-partition lookup cache actually firing (hits > 0) under
    locality-aware dispatch.  Runs on both transport backends: the stage
    accounting crosses the exit pipe with the results, so the breakdown is
    equally observable when ranks are processes.
    """
    from repro.bio import SeqRecord, random_protein
    from repro.blast import BlastOptions, format_database
    from repro.core import MrBlastConfig, mrblast_spmd

    ancestors = [random_protein(260, seed_or_rng=10 + f) for f in range(4)]
    db = []
    for f, anc in enumerate(ancestors):
        for m in range(3):
            db.append(SeqRecord(f"fam{f}_m{m}", anc))
    alias = format_database(db, tmp_path / "db", "db", kind="protein",
                            max_volume_bytes=1024)
    queries = [SeqRecord(f"q{f}", anc[20:220]) for f, anc in enumerate(ancestors)]

    cfg = MrBlastConfig(
        alias_path=str(alias),
        query_blocks=[queries[:2], queries[2:]],
        options=BlastOptions.blastp(evalue=1e-3),
        output_dir=str(tmp_path / "out"),
        locality_aware=True,
        lookup_cache_blocks=4,
        backend=backend,
    )
    results = mrblast_spmd(3, cfg)

    seed = sum(r.seed_seconds for r in results)
    ungapped = sum(r.ungapped_seconds for r in results)
    gapped = sum(r.gapped_seconds for r in results)
    busy = sum(r.busy_seconds for r in results)
    hits = sum(r.lookup_cache_hits for r in results)
    other = max(busy - seed - ungapped - gapped, 0.0)

    def row(stage, secs):
        return [stage, f"{secs * 1e3:.1f}", f"{secs / busy:.1%}" if busy else "-"]

    print_table(
        f"Measured map-stage breakdown [{backend}] (lookup cache hits: {hits})",
        ["stage", "ms (all ranks)", "share of busy"],
        [row("seed (block + lookup + scan)", seed),
         row("ungapped extension", ungapped),
         row("gapped extension", gapped),
         row("other (culling, stats, I/O)", other)],
    )

    assert sum(r.hits_written for r in results) > 0
    assert hits > 0, "locality-aware sweeps should reuse cached lookups"
    assert 0.0 < seed + ungapped + gapped <= busy + 1e-6


#: Alternating (untraced, traced) run pairs behind the overhead estimate.
PAIRS = 5


def test_trace_overhead_and_fidelity(tmp_path, print_table):
    """Tracing the Fig. 5 run must be nearly free and perfectly faithful.

    Measures the wall-clock overhead of running the stage-breakdown
    workload with full tracing on (best of each side of ``PAIRS``
    alternating untraced / traced runs, printed as a table),
    validates the exported Chrome JSON with the
    exporter's own schema checker, and asserts the Fig. 5 utilisation
    numbers recomputed from the trace alone equal the counter-derived
    ones exactly.
    """
    import time

    from repro.bio import SeqRecord, random_protein
    from repro.blast import BlastOptions, format_database
    from repro.core import MrBlastConfig, mrblast_spmd
    from repro.obs.export import validate_chrome_trace
    from repro.obs.report import utilization_report
    from repro.obs.trace import TraceSession

    ancestors = [random_protein(260, seed_or_rng=10 + f) for f in range(4)]
    db = []
    for f, anc in enumerate(ancestors):
        for m in range(3):
            db.append(SeqRecord(f"fam{f}_m{m}", anc))
    alias = format_database(db, tmp_path / "db", "db", kind="protein",
                            max_volume_bytes=1024)
    queries = [SeqRecord(f"q{f}", anc[20:220]) for f, anc in enumerate(ancestors)]

    def config(tag, trace_path=None):
        return MrBlastConfig(
            alias_path=str(alias),
            query_blocks=[queries[:2], queries[2:]],
            options=BlastOptions.blastp(evalue=1e-3),
            output_dir=str(tmp_path / tag),
            locality_aware=True,
            lookup_cache_blocks=4,
            trace_path=trace_path,
        )

    # Plain and traced runs alternate, so host drift lands on both sides
    # alike; the best of each side filters scheduler noise on a run this
    # small far better than a mean would.
    plain_s, traced_s = [], []
    for i in range(PAIRS):
        t0 = time.perf_counter()
        mrblast_spmd(3, config(f"plain{i}"))
        plain_s.append(time.perf_counter() - t0)
        session = TraceSession(3)
        t0 = time.perf_counter()
        results = mrblast_spmd(3, config(f"traced{i}"), trace=session)
        traced_s.append(time.perf_counter() - t0)

    overhead = (min(traced_s) - min(plain_s)) / min(plain_s)

    # Export is post-processing, outside the measured run.
    from repro.obs.export import write_chrome_trace

    write_chrome_trace(tmp_path / "trace.json", session)
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert validate_chrome_trace(doc) == []
    n_events = len(doc["traceEvents"])

    # Fig. 5 utilisation from the trace alone == counter-derived, exactly.
    rep = utilization_report(session)
    assert rep["stage_totals"]["busy_s"] == sum(r.busy_seconds for r in results)
    assert rep["stage_totals"]["seed_s"] == sum(r.seed_seconds for r in results)
    assert rep["stage_totals"]["units"] == sum(r.units_processed for r in results)
    assert rep["phase_totals_s"]["map"] == sum(r.map_seconds for r in results)
    assert rep["straggler_rank"] in range(3)

    print_table(
        "Tracing overhead on the Fig. 5 stage-breakdown run",
        ["variant", f"best-of-{PAIRS} s", "events"],
        [["untraced", f"{min(plain_s):.3f}", "-"],
         ["traced", f"{min(traced_s):.3f}", str(n_events)],
         ["overhead", f"{overhead:+.1%}", "-"]],
    )

    # Generous CI bound: the acceptance target is < 5% on the real bench;
    # a sub-second unit-test run needs headroom for scheduler noise.
    assert overhead < 0.15, f"tracing overhead {overhead:.1%} too high"
