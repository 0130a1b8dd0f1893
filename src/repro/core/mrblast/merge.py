"""Optional merge of per-rank output files.

"In our experience, it is rarely needed for the practical downstream
analysis of the large-scale BLAST searches to have the results merged into a
single file" (§III.A) — but the HTC baseline does merge, and tests compare
whole result sets, so the merge exists.  Hits are re-ordered to follow the
original query order, preserving each query's internal E-value order.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.blast.hsp import HSP
from repro.blast.tabular import parse_tabular

__all__ = ["collect_rank_hits"]


def collect_rank_hits(rank_files: Iterable[str]) -> dict[str, list[HSP]]:
    """Load all per-rank files into {query_id: [hits in file order]}.

    Collate guarantees each query lives in exactly one file; duplicated
    query ids across files indicate a broken run and raise.
    """
    by_query: dict[str, list[HSP]] = {}
    owner: dict[str, str] = {}
    for path in rank_files:
        if not os.path.exists(path):
            continue
        for hsp in parse_tabular(path):
            prev = owner.setdefault(hsp.query_id, path)
            if prev != path:
                raise ValueError(
                    f"query {hsp.query_id!r} appears in both {prev} and {path}; "
                    "collate() should have placed it on exactly one rank"
                )
            by_query.setdefault(hsp.query_id, []).append(hsp)
    return by_query


