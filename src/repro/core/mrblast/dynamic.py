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

import dataclasses
import json
import os
import time
from dataclasses import dataclass

from repro.bio.fasta import FastaIndex
from repro.blast.dbreader import DatabaseAlias
from repro.blast.engine import make_engine
from repro.core.mrblast.driver import MrBlastConfig, MrBlastResult, mrblast_spmd
from repro.core.mrblast.pipeline import RuntimeConfig
from repro.core.mrblast.workitems import IndexedQueryBlocks

__all__ = [
    "DynamicChunkConfig",
    "pilot_block_size",
    "plan_block_ranges",
    "plan_query_blocks",
    "mrblast_dynamic_spmd",
]


@dataclass
class DynamicChunkConfig(RuntimeConfig):
    """Configuration of a dynamically-chunked run."""

    query_fasta: str
    output_dir: str = "mrblast_dyn_out"
    #: desired wall-clock cost of one work unit
    target_unit_seconds: float = 0.25
    #: queries used by the timing pilot
    pilot_queries: int = 4
    min_block: int = 1
    max_block: int = 100_000
    #: fraction of the query set cut into geometrically shrinking tail blocks
    taper_fraction: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target_unit_seconds <= 0:
            raise ValueError("target_unit_seconds must be positive")
        if self.pilot_queries < 1:
            raise ValueError("pilot_queries must be >= 1")
        if not (1 <= self.min_block <= self.max_block):
            raise ValueError("need 1 <= min_block <= max_block")
        if not (0.0 <= self.taper_fraction < 1.0):
            raise ValueError("taper_fraction must be in [0, 1)")


def pilot_block_size(
    index: FastaIndex,
    alias: DatabaseAlias,
    config: DynamicChunkConfig,
) -> int:
    """Time a pilot search and derive the block size hitting the target cost.

    Runs ``pilot_queries`` queries against partition 0 with the production
    engine, measures per-query-per-partition cost, and returns the number of
    queries whose unit cost meets ``target_unit_seconds``.
    """
    n_pilot = min(config.pilot_queries, len(index))
    queries = index.load_range(0, n_pilot)
    options = config.options.with_db_size(alias.total_length, alias.num_seqs)
    engine = make_engine(options)
    partition = alias.open_partition(0)
    t0 = time.perf_counter()
    engine.search_block(queries, partition)
    elapsed = max(time.perf_counter() - t0, 1e-6)
    per_query = elapsed / n_pilot
    block = int(config.target_unit_seconds / per_query)
    return max(config.min_block, min(block, config.max_block, len(index)))


def plan_block_ranges(
    n_queries: int,
    block_size: int,
    taper_fraction: float = 0.25,
    min_block: int = 1,
) -> list[tuple[int, int]]:
    """Cut ``n_queries`` into blocks with a geometrically tapered tail.

    The head is uniform blocks of ``block_size``; the final
    ``taper_fraction`` of queries is cut into successively halved blocks
    (never below ``min_block``), giving the master fine-grained units when
    the run drains — the paper's "more uniform filling of the cores".
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
    current = max(block_size // 2, min_block)
    while pos < n_queries:
        end = min(pos + current, n_queries)
        ranges.append((pos, end))
        pos = end
        current = max(current // 2, min_block)
    return ranges


def plan_query_blocks(config: DynamicChunkConfig, resume: bool = False) -> IndexedQueryBlocks:
    """Index the query FASTA, time the pilot, cut the plan.

    The plan is written to ``<output_dir>/query_plan.json``.  The pilot is a
    wall-clock measurement, so a second launch may size blocks differently;
    ``resume=True`` reuses the recorded plan, because the iteration
    checkpoints in ``output_dir`` count blocks of *that* plan.
    """
    index = FastaIndex(config.query_fasta)
    plan_path = os.path.join(config.output_dir, "query_plan.json")
    ranges = None
    if resume and os.path.exists(plan_path):
        with open(plan_path) as fh:
            plan = json.load(fh)
        if plan["n_queries"] == len(index):
            ranges = [tuple(r) for r in plan["ranges"]]
    if ranges is None:
        block_size = pilot_block_size(index, DatabaseAlias.load(config.alias_path), config)
        ranges = plan_block_ranges(
            len(index), block_size, config.taper_fraction, config.min_block)
        os.makedirs(config.output_dir, exist_ok=True)
        with open(plan_path, "w") as fh:
            json.dump({"n_queries": len(index), "ranges": ranges}, fh)
    return IndexedQueryBlocks(index, ranges)


def mrblast_dynamic_spmd(nprocs: int, config: DynamicChunkConfig) -> list[MrBlastResult]:
    """Plan the blocks in the launcher, then run the one mrblast driver."""
    config.validate()
    runtime = {f.name: getattr(config, f.name) for f in dataclasses.fields(RuntimeConfig)}
    return mrblast_spmd(nprocs, MrBlastConfig(
        query_blocks=plan_query_blocks(config), output_dir=config.output_dir, **runtime))
