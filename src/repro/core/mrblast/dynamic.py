"""Dynamic query chunking: the paper's second §V improvement.

"We are eliminating the need to pre-partition the query dataset by building
an index of sequence offsets in the input FASTA file.  This will allow
selecting the size of the query blocks dynamically after the start of the
program based on a small timing iteration at the beginning, thus
eliminating the need for tuning by the user.  This can be also used to make
progressively smaller query chunks toward the end of each iteration and
have a more uniform filling of the cores."

Pieces:

- :func:`pilot_block_size` — times a small pilot search (a handful of
  queries against one partition) and sizes blocks so one work unit costs
  roughly ``target_unit_seconds``.
- :func:`plan_block_ranges` — cuts the indexed query set into blocks of
  that size, with a tapered tail: the last portion of blocks shrinks
  geometrically so the final units fill the cores evenly.
- :func:`plan_query_blocks` — index, pilot and plan in the launcher (none
  of it needs a communicator), giving the
  :class:`~repro.core.mrblast.workitems.IndexedQueryBlocks` that
  :class:`~repro.core.mrblast.driver.MrBlastConfig` takes as
  ``query_blocks``.  Dynamic chunking is a block source, not a driver: the
  run itself is :func:`~repro.core.mrblast.driver.run_mrblast`.
"""

from __future__ import annotations

import json
import os
import time

from repro.bio.fasta import FastaIndex
from repro.blast.dbreader import DatabaseAlias
from repro.blast.engine import make_engine
from repro.blast.options import BlastOptions
from repro.core.mrblast.workitems import IndexedQueryBlocks

__all__ = [
    "pilot_block_size",
    "plan_block_ranges",
    "plan_query_blocks",
]

#: queries used by the timing pilot
PILOT_QUERIES = 4
#: bounds on a pilot-sized block (in queries)
MIN_BLOCK = 1
MAX_BLOCK = 100_000
#: fraction of the query set cut into geometrically shrinking tail blocks
TAPER_FRACTION = 0.25


def pilot_block_size(
    index: FastaIndex,
    alias: DatabaseAlias,
    options: BlastOptions,
    target_unit_seconds: float,
) -> int:
    """Time a pilot search and derive the block size hitting the target cost.

    Runs :data:`PILOT_QUERIES` queries against partition 0 with the
    production engine, measures per-query-per-partition cost, and returns
    the number of queries whose unit cost meets ``target_unit_seconds``.
    """
    n_pilot = min(PILOT_QUERIES, len(index))
    queries = index.load_range(0, n_pilot)
    engine = make_engine(options.with_db_size(alias.total_length, alias.num_seqs))
    partition = alias.open_partition(0)
    t0 = time.perf_counter()
    engine.search_block(queries, partition)
    elapsed = max(time.perf_counter() - t0, 1e-6)
    per_query = elapsed / n_pilot
    block = int(target_unit_seconds / per_query)
    return max(MIN_BLOCK, min(block, MAX_BLOCK, len(index)))


def plan_block_ranges(
    n_queries: int,
    block_size: int,
    taper_fraction: float = TAPER_FRACTION,
) -> list[tuple[int, int]]:
    """Cut ``n_queries`` into blocks with a geometrically tapered tail.

    The head is uniform blocks of ``block_size``; the final
    ``taper_fraction`` of queries is cut into successively halved blocks
    (never below :data:`MIN_BLOCK`), giving the master fine-grained units
    when the run drains — the paper's "more uniform filling of the cores".
    """
    if n_queries < 1:
        raise ValueError("need at least one query")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    taper_start = int(n_queries * (1.0 - taper_fraction))
    ranges: list[tuple[int, int]] = []
    pos = 0
    while pos < taper_start:
        end = min(pos + block_size, taper_start)
        ranges.append((pos, end))
        pos = end
    current = max(block_size // 2, MIN_BLOCK)
    while pos < n_queries:
        end = min(pos + current, n_queries)
        ranges.append((pos, end))
        pos = end
        current = max(current // 2, MIN_BLOCK)
    return ranges


def plan_query_blocks(
    query_fasta: str,
    alias_path: str,
    options: BlastOptions,
    output_dir: str,
    target_unit_seconds: float = 0.25,
    resume: bool = False,
) -> IndexedQueryBlocks:
    """Index the query FASTA, time the pilot, cut the plan.

    The plan is written to ``<output_dir>/query_plan.json``.  The pilot is a
    wall-clock measurement, so a second launch may size blocks differently;
    ``resume=True`` reuses the recorded plan, because the iteration
    checkpoints in ``output_dir`` count blocks of *that* plan.
    """
    if target_unit_seconds <= 0:
        raise ValueError("target_unit_seconds must be positive")
    index = FastaIndex(query_fasta)
    plan_path = os.path.join(output_dir, "query_plan.json")
    ranges = None
    if resume and os.path.exists(plan_path):
        with open(plan_path) as fh:
            plan = json.load(fh)
        if plan["n_queries"] == len(index):
            ranges = [tuple(r) for r in plan["ranges"]]
    if ranges is None:
        block_size = pilot_block_size(
            index, DatabaseAlias.load(alias_path), options, target_unit_seconds)
        ranges = plan_block_ranges(len(index), block_size)
        os.makedirs(output_dir, exist_ok=True)
        with open(plan_path, "w") as fh:
            json.dump({"n_queries": len(index), "ranges": ranges}, fh)
    return IndexedQueryBlocks(index, ranges)
