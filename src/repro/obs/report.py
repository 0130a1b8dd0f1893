"""Trace analysis: phase durations, shuffle traffic, Fig. 5 utilisation.

Every function here recomputes, *from the trace alone*, numbers each rank
also writes into its :class:`~repro.obs.metrics.MetricsRegistry` (and its
result structs read back), so the cross-check suite can assert exact
agreement between the two records.

The instrumentation makes exactness possible: a phase span's ``E`` event
carries a ``seconds`` attribute computed from the *same*
``perf_counter()`` pair that incremented the counter, and sums here run
left-to-right in event order — bit-identical float addition order to the
counter's accumulation.
"""

__all__ = [
    "phase_durations",
    "shuffle_traffic",
    "stage_breakdown",
    "utilization_report",
    "critical_path_report",
]


def span_records(tracer):
    """Yield matched spans as ``(name, cat, t0, t1, begin_attrs, end_attrs)``.

    Spans are matched by LIFO stack discipline, the same order the tracer
    enforced at record time; unclosed spans (possible only after dropped
    events) are ignored.
    """
    stack = []
    for ph, ts, sid, name, cat, attrs in tracer.iter_events():
        if ph == "B":
            stack.append((name, cat, ts, attrs))
        elif ph == "E" and stack:
            bname, bcat, bts, battrs = stack.pop()
            yield (bname, bcat, bts, ts, battrs, attrs)


def phase_durations(session, prefix="mr."):
    """Per-rank MR phase seconds summed from span ``seconds`` attributes.

    Returns ``{rank: {phase: seconds}}`` with phase names stripped of
    *prefix* (``"mr.map"`` → ``"map"``).  Summation order matches the
    ``mr.<phase>_s`` counters (``MapReduce.timers``) exactly.
    """
    out = {}
    for trc in session.tracers:
        totals = {}
        for name, _cat, _t0, _t1, _battrs, eattrs in span_records(trc):
            if not name.startswith(prefix):
                continue
            if not eattrs or "seconds" not in eattrs:
                continue
            phase = name[len(prefix):]
            totals[phase] = totals.get(phase, 0.0) + eattrs["seconds"]
        out[trc.rank] = totals
    return out


def shuffle_traffic(session):
    """Pairs/bytes moved per rank and phase, from ``mr.traffic`` instants.

    Returns ``{"per_rank": {rank: {phase: {"pairs": n, "bytes": n}}},
    "totals": {phase: {"pairs": n, "bytes": n}}}`` — integers, so the
    cross-check against the ``mr.<phase>_pairs`` / ``_bytes`` counters is
    exact by construction.
    """
    per_rank = {}
    totals = {}
    for trc in session.tracers:
        mine = {}
        for ph, _ts, _sid, name, _cat, attrs in trc.iter_events():
            if ph != "i" or name != "mr.traffic" or not attrs:
                continue
            phase = attrs["phase"]
            for scope in (mine, totals):
                ent = scope.setdefault(phase, {"pairs": 0, "bytes": 0})
                ent["pairs"] += attrs["pairs"]
                ent["bytes"] += attrs["bytes"]
        per_rank[trc.rank] = mine
    return {"per_rank": per_rank, "totals": totals}


def stage_breakdown(session):
    """Per-rank BLAST stage seconds summed from ``mrblast.unit`` spans.

    Returns ``{rank: {"seed_s", "ungapped_s", "gapped_s", "busy_s",
    "units", "hits"}}``.  The per-unit attributes are the exact floats
    the mapper added to its counters, in the same order, so sums agree
    bit-for-bit with ``MrBlastResult.seed_seconds`` et al.
    """
    out = {}
    for trc in session.tracers:
        acc = {"seed_s": 0.0, "ungapped_s": 0.0, "gapped_s": 0.0,
               "busy_s": 0.0, "units": 0, "hits": 0}
        for name, _cat, _t0, _t1, _battrs, eattrs in span_records(trc):
            if name != "mrblast.unit" or not eattrs:
                continue
            acc["seed_s"] += eattrs.get("seed_s", 0.0)
            acc["ungapped_s"] += eattrs.get("ungapped_s", 0.0)
            acc["gapped_s"] += eattrs.get("gapped_s", 0.0)
            acc["busy_s"] += eattrs.get("busy_s", 0.0)
            acc["units"] += 1
            acc["hits"] += eattrs.get("hits", 0)
        out[trc.rank] = acc
    return out


def utilization_report(session):
    """Fig. 5-style utilisation recomputed from the trace alone.

    Per rank: wall seconds inside the ``rank`` lifecycle span, busy
    seconds (sum of ``mrblast.unit`` ``busy_s`` attributes), and their
    ratio.  Job-level: the makespan (latest rank-span end minus earliest
    start), mean utilisation, the straggler (last rank to finish) and
    per-phase totals.
    """
    per_rank = {}
    stages = stage_breakdown(session)
    phases = phase_durations(session)
    t_start = None
    t_end = None
    straggler = None
    for trc in session.tracers:
        wall = 0.0
        rank_end = None
        for name, _cat, t0, t1, _battrs, _eattrs in span_records(trc):
            if name == "rank":
                wall += t1 - t0
                t_start = t0 if t_start is None else min(t_start, t0)
                rank_end = t1 if rank_end is None else max(rank_end, t1)
        busy = stages.get(trc.rank, {}).get("busy_s", 0.0)
        per_rank[trc.rank] = {
            "wall_s": wall,
            "busy_s": busy,
            "utilization": (busy / wall) if wall > 0 else 0.0,
        }
        if rank_end is not None and (t_end is None or rank_end > t_end):
            t_end = rank_end
            straggler = trc.rank
    utils = [r["utilization"] for r in per_rank.values() if r["wall_s"] > 0]
    phase_totals = {}
    for rank_phases in phases.values():
        for phase, secs in rank_phases.items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + secs
    return {
        "per_rank": per_rank,
        "makespan_s": (t_end - t_start) if t_start is not None and t_end is not None else 0.0,
        "mean_utilization": (sum(utils) / len(utils)) if utils else 0.0,
        "straggler_rank": straggler,
        "phase_totals_s": phase_totals,
        "stage_totals": {
            key: sum(s[key] for s in stages.values())
            for key in ("seed_s", "ungapped_s", "gapped_s", "busy_s",
                        "units", "hits")
        },
    }


def critical_path_report(session):
    """Human-readable straggler / critical-path text report.

    Names the last-finishing rank, shows every rank's busy/wall
    utilisation bar, and breaks the straggler's time down by MR phase —
    the phases on the straggler are the job's critical path.
    """
    rep = utilization_report(session)
    phases = phase_durations(session)
    lines = ["critical path / straggler report", ""]
    lines.append(f"makespan: {rep['makespan_s']:.6f}s   "
                 f"mean utilisation: {rep['mean_utilization']:.1%}   "
                 f"straggler: rank {rep['straggler_rank']}")
    lines.append("")
    for rank in sorted(rep["per_rank"]):
        r = rep["per_rank"][rank]
        bar = "#" * int(round(20 * min(r["utilization"], 1.0)))
        mark = "  <- straggler" if rank == rep["straggler_rank"] else ""
        lines.append(
            f"rank {rank}: wall {r['wall_s']:.6f}s  busy {r['busy_s']:.6f}s  "
            f"util {r['utilization']:6.1%} |{bar:<20}|{mark}")
    strag = rep["straggler_rank"]
    if strag is not None and phases.get(strag):
        lines.append("")
        lines.append(f"rank {strag} phase breakdown (critical path):")
        for phase, secs in sorted(phases[strag].items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"  {phase:<12} {secs:.6f}s")
    return "\n".join(lines) + "\n"
