"""Shuffle traffic read back from a trace's ``mr.traffic`` instants.

Each MR phase that moves pairs bumps the ``mr.<phase>_pairs`` /
``_bytes`` counters and records one ``mr.traffic`` instant with the same
integers.  :func:`shuffle_traffic` sums the instants, so the cross-check
tests can assert the two records agree exactly.
"""

__all__ = ["shuffle_traffic"]


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
